#include "core/harness.hpp"

#include <gtest/gtest.h>

#include "core/factory.hpp"
#include "core/protocols/bcs.hpp"
#include "core/protocols/qbc.hpp"
#include "core/protocols/tp.hpp"
#include "des/simulator.hpp"
#include "net/network.hpp"
#include "sim/experiment.hpp"

namespace mobichk::core {
namespace {

class HarnessTest : public ::testing::Test {
 protected:
  HarnessTest() : net_(sim_, config(), 1), harness_(net_) {}

  static net::NetworkConfig config() {
    net::NetworkConfig cfg;
    cfg.n_hosts = 3;
    cfg.n_mss = 2;
    return cfg;
  }

  des::Simulator sim_;
  net::Network net_;
  ProtocolHarness harness_;
};

TEST_F(HarnessTest, RejectsNullProtocol) {
  EXPECT_THROW(harness_.add_protocol(nullptr), std::invalid_argument);
}

TEST_F(HarnessTest, SlotZeroPiggybackRidesTheWire) {
  harness_.add_protocol(std::make_unique<TpProtocol>(TpEncoding::kDense));
  harness_.add_protocol(std::make_unique<BcsProtocol>());
  net_.start({0, 0, 1});
  net_.send_app_message(0, 1, 8);
  sim_.run();
  // TP's two vectors are on the wire; BCS's integer is only accounted.
  EXPECT_EQ(net_.stats().piggyback_bytes, 6 * sizeof(u32));
  EXPECT_EQ(net_.stats().piggyback_dense_bytes, 6 * sizeof(u32));
  EXPECT_EQ(harness_.piggyback_bytes(0), 6 * sizeof(u32));
  EXPECT_EQ(harness_.piggyback_bytes(1), sizeof(u64));
}

TEST_F(HarnessTest, SparseTpEncodedBytesStayBelowDense) {
  harness_.add_protocol(std::make_unique<TpProtocol>());  // sparse default
  net_.start({0, 0, 1});
  net_.send_app_message(0, 1, 8);
  sim_.run();
  // One delta entry (the sender's own) versus two 3-entry vectors.
  EXPECT_LT(net_.stats().piggyback_bytes, net_.stats().piggyback_dense_bytes);
  EXPECT_EQ(net_.stats().piggyback_dense_bytes, 6 * sizeof(u32));
  EXPECT_EQ(harness_.piggyback_dense_bytes(0), 6 * sizeof(u32));
  EXPECT_EQ(harness_.piggyback_bytes(0), net_.stats().piggyback_bytes);
}

TEST_F(HarnessTest, EachProtocolSeesItsOwnPiggyback) {
  const usize bcs = harness_.add_protocol(std::make_unique<BcsProtocol>());
  const usize qbc = harness_.add_protocol(std::make_unique<QbcProtocol>());
  net_.start({0, 0, 1});
  // Drive BCS's sn of host 0 above QBC's by a basic checkpoint: both
  // increment... instead force divergence: 2 switches make BCS sn=2 while
  // QBC replaces (sn stays 0).
  net_.switch_cell(0, 1);
  net_.switch_cell(0, 0);
  auto& bcs_p = static_cast<BcsProtocol&>(harness_.protocol(bcs));
  auto& qbc_p = static_cast<QbcProtocol&>(harness_.protocol(qbc));
  ASSERT_EQ(bcs_p.sequence_number(0), 2u);
  ASSERT_EQ(qbc_p.sequence_number(0), 0u);
  // A message 0 -> 1 must force a BCS checkpoint at 1 (sn 2 > 0) but NOT
  // a QBC one (sn 0 == 0) — only possible if each saw its own piggyback.
  net_.send_app_message(0, 1, 8);
  sim_.run();
  net_.consume_one(1);
  EXPECT_EQ(harness_.log(bcs).forced(), 1u);
  EXPECT_EQ(harness_.log(qbc).forced(), 0u);
}

TEST_F(HarnessTest, MessageLogRecordsPositions) {
  harness_.add_protocol(std::make_unique<BcsProtocol>());
  net_.start({0, 0, 1});
  net_.internal_events(0, 4);
  net_.send_app_message(0, 1, 8);  // send pos = 5
  sim_.run();
  net_.internal_event(1);
  net_.consume_one(1);  // recv pos = 2
  const auto& deliveries = harness_.message_log().deliveries();
  ASSERT_EQ(deliveries.size(), 1u);
  EXPECT_EQ(deliveries[0].src, 0u);
  EXPECT_EQ(deliveries[0].dst, 1u);
  EXPECT_EQ(deliveries[0].send_pos, 5u);
  EXPECT_EQ(deliveries[0].recv_pos, 2u);
  EXPECT_EQ(harness_.message_log().sends_recorded(), 1u);
}

TEST_F(HarnessTest, ForcedCheckpointExcludesTriggeringReceive) {
  harness_.add_protocol(std::make_unique<BcsProtocol>());
  net_.start({0, 0, 1});
  net_.switch_cell(0, 1);          // sn_0 = 1
  net_.send_app_message(0, 1, 8);  // sn 1 -> forces at host 1
  sim_.run();
  net_.consume_one(1);
  const CheckpointRecord& forced = harness_.log(0).of(1).back();
  const auto& d = harness_.message_log().deliveries().at(0);
  // The checkpoint's cut position must be strictly before the receive.
  EXPECT_LT(forced.event_pos, d.recv_pos);
}

TEST_F(HarnessTest, CurrentPositionsMatchHosts) {
  harness_.add_protocol(std::make_unique<BcsProtocol>());
  net_.start({0, 0, 1});
  net_.internal_events(0, 3);
  net_.internal_events(2, 7);
  const auto pos = harness_.current_positions();
  EXPECT_EQ(pos, (std::vector<u64>{3, 0, 7}));
}

TEST_F(HarnessTest, UndeliveredMessagesAreTracked) {
  harness_.add_protocol(std::make_unique<BcsProtocol>());
  net_.start({0, 0, 1});
  net_.disconnect(1);
  net_.send_app_message(0, 1, 8);  // will be buffered, never consumed
  sim_.run();
  EXPECT_EQ(harness_.message_log().undelivered(), 1u);
}

TEST(HarnessDuplicates, RetainedPiggybacksServeDuplicateDeliveries) {
  // No opt-in: every piggyback rides the message by value, so each
  // duplicate delivery carries its own copy of slot 0's (TP: two dense
  // vectors) and of the observer slot's (BCS: one index).
  des::Simulator sim;
  net::NetworkConfig cfg;
  cfg.n_hosts = 2;
  cfg.n_mss = 1;
  cfg.duplicate_prob = 0.6;
  cfg.transport_dedup = false;
  net::Network net(sim, cfg, 5);
  ProtocolHarness harness(net);
  harness.add_protocol(std::make_unique<TpProtocol>(TpEncoding::kDense));
  harness.add_protocol(std::make_unique<BcsProtocol>());
  net.start({0, 0});
  for (int i = 0; i < 100; ++i) net.send_app_message(0, 1, 4);
  sim.run();
  ASSERT_GT(net.stats().duplicates_generated, 10u);
  u64 consumed = 0;
  while (net.consume_one(1)) ++consumed;
  EXPECT_EQ(consumed, 100u + net.stats().duplicates_generated);
  EXPECT_EQ(harness.message_log().deliveries().size(), consumed);
}

TEST(HarnessDuplicates, DuplicateExposingExperimentMatchesPinnedRun) {
  // Figure 1 network with duplicates reaching the application, so every
  // slot's piggyback is read more than once per message. Pinned hash and
  // N_tot: how piggybacks travel must never change what the run does.
  sim::SimConfig cfg;
  cfg.sim_length = 20'000.0;
  cfg.t_switch = 1'000.0;
  cfg.p_switch = 1.0;
  cfg.heterogeneity = 0.0;
  cfg.seed = 42;
  cfg.network.duplicate_prob = 0.2;
  cfg.network.transport_dedup = false;
  sim::ExperimentOptions opts;
  opts.collect_trace_hash = true;
  const sim::RunResult r = sim::run_experiment(cfg, opts);
  EXPECT_GT(r.net.duplicates_generated, 0u);
  EXPECT_EQ(r.net.duplicates_suppressed, 0u);
  EXPECT_TRUE(r.invariants_ok);
  EXPECT_EQ(r.trace_hash, 0xc9111612ff20c6fdull);
  EXPECT_EQ(r.by_name("TP").n_tot, 2'308u);
  EXPECT_EQ(r.by_name("BCS").n_tot, 623u);
  EXPECT_EQ(r.by_name("QBC").n_tot, 565u);
}

/// Encodes a different set of piggyback fields on alternate sends (odd
/// counters carry a tag, a vector and a delta; even ones only the sn) and
/// checks at receive time that each piggyback holds exactly what was
/// encoded for it — a field left over from a recycled message's previous
/// encoding would show up on an even one.
class AlternatingProtocol final : public CheckpointProtocol {
 public:
  const char* name() const noexcept override { return "ALT"; }

  void make_piggyback(const net::MobileHost&, net::HostId, net::Piggyback& pb) override {
    const u64 k = ++counter_;
    pb.sn = k;
    pb.has_sn = true;
    if (k % 2 == 1) {
      pb.tag = static_cast<u32>(k);
      pb.has_tag = true;
      pb.vec_a.assign(4, static_cast<u32>(k));
      pb.deltas.push_back({1, static_cast<u32>(k), 0});
      pb.has_delta = true;
    }
  }

  void handle_receive(const net::MobileHost&, const net::AppMessage&,
                      const net::Piggyback& pb) override {
    const bool odd = pb.sn % 2 == 1;
    const bool exact = pb.has_sn && pb.has_tag == odd && pb.has_delta == odd &&
                       pb.tag == (odd ? pb.sn : 0) && pb.vec_b.empty() &&
                       pb.vec_a.size() == (odd ? 4u : 0u) && pb.deltas.size() == (odd ? 1u : 0u);
    if (!exact) ++stale_;
    // Reused buffers: an even piggyback that still has room for the odd
    // one's vector came from a recycled message.
    if (!odd && pb.vec_a.capacity() > 0) ++recycled_;
    ++received_;
  }

  void handle_cell_switch(const net::MobileHost&, net::MssId, net::MssId) override {}
  void handle_disconnect(const net::MobileHost&) override {}

  u64 stale() const noexcept { return stale_; }
  u64 recycled() const noexcept { return recycled_; }
  u64 received() const noexcept { return received_; }

 private:
  u64 counter_ = 0;
  u64 stale_ = 0;
  u64 recycled_ = 0;
  u64 received_ = 0;
};

TEST_F(HarnessTest, RecycledMessageCarriesNoStalePiggybackField) {
  // In slot 0 (the wire piggyback) and slot 1 (an observer slot).
  const usize wire = harness_.add_protocol(std::make_unique<AlternatingProtocol>());
  const usize observer = harness_.add_protocol(std::make_unique<AlternatingProtocol>());
  net_.start({0, 0, 1});
  for (int i = 0; i < 20; ++i) {
    net_.send_app_message(static_cast<net::HostId>(i % 2), 2, 8);
    sim_.run();
    ASSERT_TRUE(net_.consume_one(2));
  }
  for (const usize slot : {wire, observer}) {
    const auto& p = static_cast<const AlternatingProtocol&>(harness_.protocol(slot));
    EXPECT_EQ(p.received(), 20u) << "slot " << slot;
    EXPECT_EQ(p.stale(), 0u) << "slot " << slot;
    EXPECT_GT(p.recycled(), 0u) << "slot " << slot << ": messages were not recycled";
  }
}

TEST(HarnessRecycling, SlotOrderDoesNotChangeAnyProtocol) {
  // TP's dense vectors ride the wire piggyback when TP is slot 0 and an
  // observer slot when BCS is; either way the next send re-encodes them
  // into a recycled message. Every protocol must count the same
  // checkpoints and piggyback bytes in both orders. The trace differs
  // between the orders only because checkpoints taken in one event are
  // traced in slot order; each order's hash is pinned to the value
  // messages allocated per send produced.
  sim::SimConfig cfg;
  cfg.sim_length = 20'000.0;
  cfg.t_switch = 1'000.0;
  cfg.p_switch = 0.8;
  cfg.heterogeneity = 0.0;
  cfg.seed = 42;
  sim::ExperimentOptions opts;
  opts.collect_trace_hash = true;
  opts.params.tp_encoding = TpEncoding::kDense;
  opts.protocols = {ProtocolKind::kTp, ProtocolKind::kBcs, ProtocolKind::kQbc};
  const sim::RunResult tp_first = sim::run_experiment(cfg, opts);
  opts.protocols = {ProtocolKind::kBcs, ProtocolKind::kTp, ProtocolKind::kQbc};
  const sim::RunResult bcs_first = sim::run_experiment(cfg, opts);
  EXPECT_TRUE(tp_first.invariants_ok);
  EXPECT_TRUE(bcs_first.invariants_ok);
  EXPECT_EQ(tp_first.trace_hash, 0x9148572aa58e27b8ull);
  EXPECT_EQ(bcs_first.trace_hash, 0x5095850e80d31988ull);
  for (const char* name : {"TP", "BCS", "QBC"}) {
    const sim::ProtocolRunStats& a = tp_first.by_name(name);
    const sim::ProtocolRunStats& b = bcs_first.by_name(name);
    EXPECT_EQ(a.n_tot, b.n_tot) << name;
    EXPECT_EQ(a.forced, b.forced) << name;
    EXPECT_EQ(a.piggyback_bytes, b.piggyback_bytes) << name;
  }
  EXPECT_EQ(tp_first.by_name("TP").n_tot, 1'788u);
  EXPECT_EQ(tp_first.by_name("BCS").n_tot, 522u);
  EXPECT_EQ(tp_first.by_name("QBC").n_tot, 472u);
}

TEST(HarnessFactory, AllProtocolsInstantiateAndRun) {
  for (const auto kind : all_protocol_kinds()) {
    des::Simulator sim;
    net::NetworkConfig cfg;
    cfg.n_hosts = 3;
    cfg.n_mss = 2;
    net::Network net(sim, cfg, 2);
    ProtocolHarness harness(net);
    harness.add_protocol(make_protocol(kind));
    net.start({0, 1, 0});
    net.send_app_message(0, 1, 8);
    net.switch_cell(2, 1);
    sim.run_until(50.0);
    net.consume_one(1);
    EXPECT_GE(harness.log(0).total(), 4u) << protocol_kind_name(kind);
    EXPECT_STREQ(harness.protocol(0).name(), protocol_kind_name(kind));
  }
}

TEST(HarnessFactory, NameRoundTrip) {
  for (const auto kind : all_protocol_kinds()) {
    EXPECT_EQ(protocol_kind_from_name(protocol_kind_name(kind)), kind);
  }
  EXPECT_EQ(protocol_kind_from_name("qbc"), ProtocolKind::kQbc);
  EXPECT_THROW(protocol_kind_from_name("nope"), std::invalid_argument);
}

TEST(HarnessFactory, RecoveryRules) {
  EXPECT_EQ(recovery_rule_for(ProtocolKind::kQbc), IndexLineRule::kLastEqual);
  EXPECT_EQ(recovery_rule_for(ProtocolKind::kBcs), IndexLineRule::kFirstAtLeast);
  EXPECT_EQ(recovery_rule_for(ProtocolKind::kTp), IndexLineRule::kFirstAtLeast);
}

TEST(HarnessFactory, PaperProtocolOrder) {
  const auto kinds = paper_protocol_kinds();
  ASSERT_EQ(kinds.size(), 3u);
  EXPECT_EQ(kinds[0], ProtocolKind::kTp);
  EXPECT_EQ(kinds[1], ProtocolKind::kBcs);
  EXPECT_EQ(kinds[2], ProtocolKind::kQbc);
}

}  // namespace
}  // namespace mobichk::core
