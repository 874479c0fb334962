// Differential suite: sparse delta-encoded TP piggybacks against the
// dense-oracle encoding, run side by side as paired observers over the
// same event stream.
//
// The dense TP instance is the paper-literal specification (full CKPT[]
// and LOC[] vectors on every message); the sparse instance is the
// city-scale implementation under test. Since the piggyback content
// never feeds back into the trace (the phase rule reads only has_sn /
// phase bits), both instances see identical upcalls, so at every point
// of every scenario the sparse instance's decoded view must equal the
// dense one's — and the encoded wire bytes must never exceed the dense
// cost. Scenarios cover direct exchanges, fan-in/fan-out, and the
// mobility interleavings (handoff mid-flight, disconnect buffering,
// crash/restore) where per-pair FIFO is most at risk; a final full-run
// differential pins trace hashes and checkpoint counts across all three
// event-queue implementations.
#include <gtest/gtest.h>

#include "core/harness.hpp"
#include "core/protocols/tp.hpp"
#include "des/simulator.hpp"
#include "net/network.hpp"
#include "sim/experiment.hpp"

namespace mobichk::core {
namespace {

/// Encodes `p`'s piggyback for a message `host` sends to `dst` into a
/// fresh buffer (the harness encodes into a recycled, reset one).
net::Piggyback encode(CheckpointProtocol& p, const net::MobileHost& host, net::HostId dst) {
  net::Piggyback pb;
  p.make_piggyback(host, dst, pb);
  return pb;
}

/// Five hosts over three MSSs; slot 0 = dense oracle, slot 1 = sparse.
class SparseDiffFixture : public ::testing::Test {
 protected:
  static constexpr u32 kHosts = 5;

  SparseDiffFixture() : net_(sim_, config(), 1), harness_(net_) {
    dense_slot_ = harness_.add_protocol(std::make_unique<TpProtocol>(TpEncoding::kDense));
    sparse_slot_ = harness_.add_protocol(std::make_unique<TpProtocol>(TpEncoding::kSparse));
    net_.start({0, 1, 2, 0, 1});
  }

  static net::NetworkConfig config() {
    net::NetworkConfig cfg;
    cfg.n_hosts = kHosts;
    cfg.n_mss = 3;
    return cfg;
  }

  TpProtocol& dense() { return static_cast<TpProtocol&>(harness_.protocol(dense_slot_)); }
  TpProtocol& sparse() { return static_cast<TpProtocol&>(harness_.protocol(sparse_slot_)); }

  /// The differential invariant: for every host, the sparse instance's
  /// decoded CKPT[] and LOC[] views equal the dense oracle's.
  void expect_views_equal(const char* where) {
    for (net::HostId h = 0; h < kHosts; ++h) {
      EXPECT_EQ(sparse().requirement_vector(h), dense().requirement_vector(h))
          << where << ": CKPT[] diverged at host " << h;
      EXPECT_EQ(sparse().location_vector(h), dense().location_vector(h))
          << where << ": LOC[] diverged at host " << h;
    }
    // Same upcalls => same checkpoint decisions, interval by interval.
    EXPECT_EQ(harness_.log(sparse_slot_).total(), harness_.log(dense_slot_).total()) << where;
    EXPECT_EQ(harness_.log(sparse_slot_).forced(), harness_.log(dense_slot_).forced()) << where;
  }

  /// Encoded-size invariant: what the sparse protocol would put on the
  /// wire right now never exceeds the dense encoding, on any (src, dst).
  void expect_encoded_bounded() {
    for (net::HostId src = 0; src < kHosts; ++src) {
      if (!net_.host(src).connected()) continue;
      for (net::HostId dst = 0; dst < kHosts; ++dst) {
        if (dst == src) continue;
        net::Piggyback dense_pb = encode(dense(), net_.host(src), dst);
        net::Piggyback sparse_pb = encode(sparse(), net_.host(src), dst);
        EXPECT_LE(sparse_pb.wire_bytes(), dense_pb.wire_bytes())
            << "pair " << src << "->" << dst;
        EXPECT_EQ(sparse_pb.dense_bytes(), dense_pb.dense_bytes());
      }
    }
  }

  /// Sends src -> dst, runs the network to quiescence, consumes at dst,
  /// and checks the differential invariant.
  void transfer(net::HostId src, net::HostId dst) {
    net_.send_app_message(src, dst, 64);
    sim_.run();
    ASSERT_TRUE(net_.consume_one(dst));
    expect_views_equal("after transfer");
  }

  des::Simulator sim_;
  net::Network net_;
  ProtocolHarness harness_;
  usize dense_slot_ = 0;
  usize sparse_slot_ = 0;
};

TEST_F(SparseDiffFixture, FreshProtocolsAgree) {
  expect_views_equal("initial");
  expect_encoded_bounded();
}

TEST_F(SparseDiffFixture, ChainedTransfersPropagateIdentically) {
  // 0 -> 1 -> 2 -> 3 -> 4: transitive dependency growth, checked at
  // every delivery.
  transfer(0, 1);
  transfer(1, 2);
  transfer(2, 3);
  transfer(3, 4);
  expect_encoded_bounded();
  EXPECT_EQ(sparse().delta_reorders(), 0u);
}

TEST_F(SparseDiffFixture, FanInFanOutAgree) {
  // Everyone sends to 0 (fan-in), then 0 sends to everyone (fan-out):
  // the hub's vectors touch every host.
  for (net::HostId h = 1; h < kHosts; ++h) transfer(h, 0);
  for (net::HostId h = 1; h < kHosts; ++h) transfer(0, h);
  expect_encoded_bounded();
  EXPECT_EQ(sparse().delta_reorders(), 0u);
}

TEST_F(SparseDiffFixture, RepeatedPairReusesDeltas) {
  // Same pair over and over: after the first exchange the sparse deltas
  // carry only the sender's own movement, and the views keep agreeing.
  for (int i = 0; i < 6; ++i) transfer(0, 1);
  net::Piggyback pb = encode(sparse(), net_.host(0), 1);
  EXPECT_EQ(pb.deltas.size(), 1u);  // own entry only: nothing else changed
  expect_encoded_bounded();
}

TEST_F(SparseDiffFixture, HandoffInterleavingAgrees) {
  // LOC[] changes ride the deltas: move hosts between transfers and mid
  // conversation; the views must track the moves identically.
  transfer(0, 1);
  net_.switch_cell(0, 2);  // basic checkpoint + LOC change at the oracle
  expect_views_equal("after handoff");
  transfer(0, 2);
  net_.switch_cell(2, 1);
  transfer(2, 0);
  expect_encoded_bounded();
  EXPECT_EQ(sparse().delta_reorders(), 0u);
}

TEST_F(SparseDiffFixture, HandoffMidFlightChasesAndAgrees) {
  // The destination moves while the message is on the wire: the chase
  // forward re-routes it, delivery happens in the new cell, and both
  // encodings decode the same views from it.
  net_.send_app_message(0, 1, 64);
  sim_.run_until(sim_.now() + 0.015);  // uplink done, wired leg pending
  net_.switch_cell(1, 2);
  sim_.run();
  ASSERT_TRUE(net_.consume_one(1));
  EXPECT_GT(net_.stats().chase_forwards, 0u);
  expect_views_equal("after chased delivery");
  expect_encoded_bounded();
}

TEST_F(SparseDiffFixture, DisconnectBufferingAgrees) {
  // Message sent to a disconnected host waits at its last MSS; the
  // piggyback decoded after reconnection must still match the oracle.
  net_.send_app_message(1, 0, 64);  // 1 enters SEND phase; in flight to 0
  net_.disconnect(0);               // basic checkpoints at both instances
  sim_.run();                       // message buffered at 0's last MSS
  EXPECT_EQ(net_.host(0).mailbox_size(), 0u);
  expect_views_equal("while buffered");
  net_.reconnect(0, 2);
  sim_.run();
  ASSERT_TRUE(net_.consume_one(0));
  expect_views_equal("after buffered delivery");
  expect_encoded_bounded();
  EXPECT_EQ(sparse().delta_reorders(), 0u);
}

TEST_F(SparseDiffFixture, CrashRestoreInterleavingAgrees) {
  // A crash re-buffers the victim's mailbox at its MSS; restore drains
  // it. The piggybacks decoded across the outage must agree.
  transfer(0, 1);
  net_.send_app_message(0, 1, 64);
  sim_.run();  // delivered into 1's mailbox but not consumed
  net_.crash(1);
  expect_views_equal("after crash");
  net_.restore(1, 1);
  sim_.run();
  ASSERT_TRUE(net_.consume_one(1));
  expect_views_equal("after restored delivery");
  expect_encoded_bounded();
}

TEST_F(SparseDiffFixture, CheckpointRecordsCarryEqualDependencies) {
  // The sparse instance records only the entries it learned (stored as
  // sorted triples), the dense one all n (stored as pairs); read through
  // the log, the two must be indistinguishable.
  transfer(0, 1);
  transfer(1, 2);
  net_.switch_cell(2, 0);  // basic checkpoint snapshots the deps
  const CheckpointLog& dense_log = harness_.log(dense_slot_);
  const CheckpointLog& sparse_log = harness_.log(sparse_slot_);
  const CheckpointRecord& dense_rec = dense_log.of(2).back();
  const CheckpointRecord& sparse_rec = sparse_log.of(2).back();
  ASSERT_TRUE(dense_rec.has_deps());
  ASSERT_TRUE(sparse_rec.has_deps());
  ASSERT_EQ(sparse_rec.deps_rank(), dense_rec.deps_rank());
  EXPECT_EQ(dense_rec.dep_len, kHosts);
  EXPECT_LT(sparse_rec.dep_len, kHosts);
  for (u32 j = 0; j < dense_rec.deps_rank(); ++j) {
    EXPECT_EQ(sparse_log.dep_ckpt_at(sparse_rec, j), dense_log.dep_ckpt_at(dense_rec, j))
        << "dep " << j;
    EXPECT_EQ(sparse_log.dep_loc_at(sparse_rec, j), dense_log.dep_loc_at(dense_rec, j))
        << "loc " << j;
  }
}

TEST_F(SparseDiffFixture, SeededScriptedExchangeAgreesEverywhere) {
  // A deterministic pseudo-random script of transfers, handoffs,
  // disconnects and reconnects; the differential invariant is checked
  // after every delivery (inside transfer()).
  u64 x = 0x9e3779b97f4a7c15ULL;  // splitmix-style scramble, fixed seed
  auto next = [&x](u64 mod) {
    x += 0x9e3779b97f4a7c15ULL;
    u64 z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return (z ^ (z >> 31)) % mod;
  };
  std::vector<bool> down(kHosts, false);
  for (int step = 0; step < 120; ++step) {
    const auto op = next(8);
    const auto a = static_cast<net::HostId>(next(kHosts));
    if (op < 5) {
      auto b = static_cast<net::HostId>(next(kHosts));
      if (b == a) b = (b + 1) % kHosts;
      if (!down[a] && !down[b]) transfer(a, b);
    } else if (op == 5) {
      if (!down[a]) {
        const auto target = static_cast<net::MssId>(next(3));
        if (target != net_.host(a).mss()) net_.switch_cell(a, target);
      }
    } else if (op == 6) {
      if (!down[a]) {
        net_.disconnect(a);
        down[a] = true;
      }
    } else {
      if (down[a]) {
        net_.reconnect(a, static_cast<net::MssId>(next(3)));
        sim_.run();  // drain buffered deliveries
        while (net_.consume_one(a)) {
        }
        down[a] = false;
      }
    }
  }
  expect_views_equal("after script");
  expect_encoded_bounded();
  // Every scenario here preserves per-pair FIFO, so the deltas were
  // exact: no reorder was ever observed and equality (not just the
  // monotone sparse <= dense bound) held throughout.
  EXPECT_EQ(sparse().delta_reorders(), 0u);
}

// ---------------------------------------------------------------------------
// Full-run differential: dense vs sparse at paper scale, all three queues
// ---------------------------------------------------------------------------

TEST(SparseFullRun, TraceAndCountsMatchDenseOnEveryQueue) {
  // The encoding is metadata-only, so a full experiment must produce the
  // exact same trace hash and checkpoint counts whichever encoding runs —
  // on every event-queue implementation.
  sim::SimConfig cfg;
  cfg.sim_length = 20'000.0;
  cfg.t_switch = 1'000.0;
  cfg.p_switch = 0.8;
  cfg.seed = 7;
  for (const des::QueueKind queue : des::kAllQueueKinds) {
    sim::ExperimentOptions dense_opts;
    dense_opts.collect_trace_hash = true;
    dense_opts.queue_kind = queue;
    dense_opts.params.tp_encoding = TpEncoding::kDense;
    sim::ExperimentOptions sparse_opts = dense_opts;
    sparse_opts.params.tp_encoding = TpEncoding::kSparse;
    const sim::RunResult dense_run = sim::run_experiment(cfg, dense_opts);
    const sim::RunResult sparse_run = sim::run_experiment(cfg, sparse_opts);
    const char* queue_name = des::queue_kind_name(queue);
    EXPECT_EQ(sparse_run.trace_hash, dense_run.trace_hash) << queue_name;
    EXPECT_EQ(sparse_run.events_executed, dense_run.events_executed) << queue_name;
    const auto& dense_tp = dense_run.by_name("TP");
    const auto& sparse_tp = sparse_run.by_name("TP");
    EXPECT_EQ(sparse_tp.n_tot, dense_tp.n_tot) << queue_name;
    EXPECT_EQ(sparse_tp.forced, dense_tp.forced) << queue_name;
    EXPECT_EQ(sparse_tp.max_index, dense_tp.max_index) << queue_name;
    // Identical dense-equivalent accounting, strictly cheaper encoding.
    EXPECT_EQ(sparse_tp.piggyback_dense_bytes, dense_tp.piggyback_dense_bytes) << queue_name;
    EXPECT_LT(sparse_tp.piggyback_bytes, dense_tp.piggyback_bytes) << queue_name;
  }
}

}  // namespace
}  // namespace mobichk::core
