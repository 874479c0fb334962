// City-scale smoke: a 10^4-host run must complete fast, reconcile the
// kernel's event ledger, keep the sparse piggybacks under the dense
// cost, and keep the hot path essentially allocation-free with
// observability off.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "sim/experiment.hpp"

namespace {
std::atomic<unsigned long long> g_allocs{0};
}  // namespace

// Global allocation counter: the steady-state gate below differences it
// around Experiment::run(). (gtest's own bookkeeping happens outside the
// measured region.)
void* operator new(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }

namespace mobichk::sim {
namespace {

SimConfig scale_config() {
  SimConfig cfg;
  cfg.network.n_hosts = 10'000;
  cfg.network.n_mss = 500;
  cfg.sim_length = 50.0;  // short horizon: ~50k events, still city-scale state
  cfg.t_switch = 1'000.0;
  cfg.p_switch = 1.0;
  cfg.heterogeneity = 0.0;
  cfg.seed = 42;
  return cfg;
}

TEST(ScaleSmoke, TenThousandHostsCompleteWithinBudget) {
  const RunResult r = run_experiment(scale_config(), ExperimentOptions{});
  EXPECT_TRUE(r.invariants_ok);
  EXPECT_GT(r.events_executed, 10'000u);
  EXPECT_GT(r.net.app_sent, 0u);
  // Wall-clock budget: the run takes well under a second on any dev
  // machine; 30 s catches an accidental O(n^2) hot path even on the
  // slowest CI runner or under sanitizers.
  EXPECT_LT(r.wall_seconds, 30.0);
  // The city-scale acceptance: sparse TP ships a vanishing fraction of
  // the paper-literal dense cost at n = 10^4 (2n u32s per message).
  const auto& tp = r.by_name("TP");
  EXPECT_GT(tp.piggyback_bytes, 0u);
  EXPECT_LT(tp.piggyback_bytes, tp.piggyback_dense_bytes / 100);
}

/// Allocations per event between two horizons of the same run: the
/// startup cost (initial checkpoints, arenas, pools) cancels out.
struct Marginal {
  unsigned long long allocs = 0;
  u64 events = 0;
  f64 per_event() const { return static_cast<f64>(allocs) / static_cast<f64>(events); }
};

Marginal marginal_allocs(SimConfig cfg, const ExperimentOptions& opts, f64 short_len,
                         f64 long_len) {
  unsigned long long allocs[2];
  u64 events[2];
  const f64 lengths[2] = {short_len, long_len};
  for (int i = 0; i < 2; ++i) {
    cfg.sim_length = lengths[i];
    Experiment exp(cfg, opts);
    const unsigned long long before = g_allocs.load(std::memory_order_relaxed);
    exp.run();
    allocs[i] = g_allocs.load(std::memory_order_relaxed) - before;
    events[i] = exp.result().events_executed;
    EXPECT_TRUE(exp.result().invariants_ok);
  }
  return Marginal{allocs[1] - allocs[0], events[1] - events[0]};
}

TEST(ScaleSmoke, SteadyStateAllocationRateStaysBounded) {
  // Recycled messages (piggybacks encoded into a consumed message's
  // buffers), flat checkpoint records, an id-indexed message log, SoA
  // host state, recycled mailboxes and typed event payloads keep the
  // event loop off the heap: a run only grows a few arrays. Gate the
  // *marginal* rate between two horizons so any per-message or
  // per-checkpoint allocation, or an O(n)-per-event one, fails loudly.
  // The counts are deterministic and equal in Debug and Release builds.
  {
    // City scale, basic-only protocol with probes off: ~0.17
    // allocations per event (8312 over 50140), nearly all first touches
    // of 10^4 hosts (a mailbox, a second checkpoint record). One
    // allocation per message adds ~0.2.
    ExperimentOptions opts;
    opts.protocols = {core::ProtocolKind::kBasicOnly};
    const Marginal m = marginal_allocs(scale_config(), opts, 5.0, 50.0);
    ASSERT_GT(m.events, 10'000u);
    EXPECT_LT(m.per_event(), 0.33) << m.allocs << " allocations over " << m.events
                                   << " steady-state events (city scale)";
  }
  {
    // Paper size: the Figure 1 network with TP (dense vectors), BCS and
    // QBC as paired observers, sequential: ~0.0015 allocations per event
    // (124 over ~85k events: array growth only). A per-message side
    // table, or piggyback vectors allocated per send, adds >= 0.1.
    SimConfig cfg;
    cfg.t_switch = 1'000.0;
    cfg.p_switch = 1.0;
    cfg.heterogeneity = 0.0;
    cfg.seed = 42;
    ExperimentOptions opts;
    opts.params.tp_encoding = core::TpEncoding::kDense;
    opts.protocols = {core::ProtocolKind::kTp, core::ProtocolKind::kBcs,
                      core::ProtocolKind::kQbc};
    const Marginal m = marginal_allocs(cfg, opts, 20'000.0, 100'000.0);
    ASSERT_GT(m.events, 10'000u);
    EXPECT_LE(m.per_event(), 0.003) << m.allocs << " allocations over " << m.events
                                  << " steady-state events (Figure 1, dense TP)";
  }
}

TEST(ScaleSmoke, DirectoryPopulationsSumToHostCount) {
  // After a run with mobility, the location directory still partitions
  // the population exactly.
  SimConfig cfg = scale_config();
  cfg.network.n_hosts = 2'000;
  cfg.network.n_mss = 100;
  cfg.sim_length = 2'000.0;  // long enough for real handoffs
  ExperimentOptions opts;
  opts.protocols = {core::ProtocolKind::kBcs};
  Experiment exp(cfg, opts);
  exp.run();
  EXPECT_GT(exp.result().net.handoffs, 0u);
  u64 total = 0;
  for (net::MssId m = 0; m < cfg.network.n_mss; ++m) {
    total += exp.network().directory().population(m);
  }
  EXPECT_EQ(total, cfg.network.n_hosts);
}

}  // namespace
}  // namespace mobichk::sim
