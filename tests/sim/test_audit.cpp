#include "sim/audit.hpp"

#include <gtest/gtest.h>

#include <sstream>

namespace mobichk::sim {
namespace {

SimConfig small_config(u64 seed = 1) {
  SimConfig cfg;
  cfg.sim_length = 5'000.0;
  cfg.t_switch = 500.0;
  cfg.p_switch = 0.8;
  cfg.seed = seed;
  return cfg;
}

TEST(AuditDeterminism, AllQueueKindsAgreeOnFig1Point) {
  // Figure-smoke: one Fig. 1 point (homogeneous hosts, no disconnections)
  // must hash identically under the binary heap and the reference
  // sorted-list queue.
  SimConfig cfg = small_config(42);
  cfg.p_switch = 1.0;      // Fig. 1: P_switch = 1 (handoffs only)
  cfg.heterogeneity = 0.0; // homogeneous hosts
  cfg.t_switch = 1'000.0;
  const AuditReport report = audit_determinism(cfg);
  EXPECT_TRUE(report.deterministic()) << [&] {
    std::ostringstream os;
    report.print(os);
    return os.str();
  }();
  ASSERT_EQ(report.runs.size(), 2u);
  EXPECT_EQ(report.runs[0].queue_name, "binary-heap");
  EXPECT_EQ(report.runs[1].queue_name, "sorted-list");
  EXPECT_NE(report.runs[0].trace_hash, 0u);
  for (const AuditRun& run : report.runs) {
    EXPECT_EQ(run.trace_hash, report.runs[0].trace_hash) << run.queue_name;
    EXPECT_EQ(run.events_executed, report.runs[0].events_executed) << run.queue_name;
    EXPECT_TRUE(run.invariants_ok) << run.queue_name;
    ASSERT_EQ(run.n_tot.size(), 3u) << run.queue_name;
    EXPECT_GT(run.n_tot[0].second, 0u);
  }
}

TEST(AuditDeterminism, CoversDisconnectionsAndStorage) {
  // A harder config: disconnections, heterogeneity and storage traffic.
  SimConfig cfg = small_config(7);
  cfg.heterogeneity = 0.5;
  ExperimentOptions opts;
  opts.with_storage = true;
  opts.storage.full_state_bytes = 1000;
  const AuditReport report = audit_determinism(cfg, opts);
  EXPECT_TRUE(report.deterministic());
}

TEST(AuditDeterminism, PrintReportsPassVerdict) {
  const AuditReport report = audit_determinism(small_config(3));
  std::ostringstream os;
  report.print(os);
  EXPECT_NE(os.str().find("PASS"), std::string::npos);
  EXPECT_NE(os.str().find("sorted-list"), std::string::npos);
}

TEST(AuditDeterminism, MismatchesAreReported) {
  // Divergence detection itself must work: doctor a report by hand.
  AuditReport report = audit_determinism(small_config(5));
  ASSERT_TRUE(report.deterministic());
  report.mismatches.push_back("sorted-list vs binary-heap: trace hash 1 != 2");
  EXPECT_FALSE(report.deterministic());
  std::ostringstream os;
  report.print(os);
  EXPECT_NE(os.str().find("FAIL"), std::string::npos);
  EXPECT_NE(os.str().find("trace hash"), std::string::npos);
}

TEST(AuditDeterminism, GoldenFig1TraceHashIsStable) {
  // Bit-identity anchor for kernel refactors: this hash was captured on
  // the pre-typed-event (std::function) kernel for the Figure 1
  // configuration below. Any change to event representation, queue
  // internals or scheduling-call order that alters the (time, seq)
  // execution sequence shows up here as a hash break — if this test
  // fails, the kernel is no longer trace-compatible and the golden value
  // must only be re-captured after an explicit determinism review.
  SimConfig cfg;
  cfg.sim_length = 50'000.0;
  cfg.t_switch = 1'000.0;
  cfg.p_switch = 1.0;       // Fig. 1: handoffs only, no disconnections
  cfg.heterogeneity = 0.0;  // homogeneous hosts
  cfg.seed = 42;
  constexpr u64 kGoldenHash = 0xd165928ffbf08bb4ULL;
  constexpr u64 kGoldenEvents = 53'541;
  constexpr u64 kGoldenOps = 25'058;
  for (const des::QueueKind kind : des::kAllQueueKinds) {
    ExperimentOptions opts;
    opts.queue_kind = kind;
    opts.collect_trace_hash = true;
    const RunResult r = run_experiment(cfg, opts);
    EXPECT_EQ(r.trace_hash, kGoldenHash) << des::queue_kind_name(kind);
    EXPECT_EQ(r.events_executed, kGoldenEvents) << des::queue_kind_name(kind);
    EXPECT_EQ(r.workload_ops, kGoldenOps) << des::queue_kind_name(kind);
    EXPECT_EQ(r.by_name("TP").n_tot, 5'365u) << des::queue_kind_name(kind);
    EXPECT_EQ(r.by_name("BCS").n_tot, 1'788u) << des::queue_kind_name(kind);
    EXPECT_EQ(r.by_name("QBC").n_tot, 1'598u) << des::queue_kind_name(kind);
    EXPECT_TRUE(r.invariants_ok) << des::queue_kind_name(kind);
  }
}

TEST(Experiment, RunResultExposesReconciledInvariants) {
  const RunResult r = run_experiment(small_config(2));
  EXPECT_TRUE(r.invariants_ok);
  EXPECT_EQ(r.invariants.time_regressions, 0u);
  EXPECT_EQ(r.invariants.executed, r.events_executed);
  EXPECT_GT(r.invariants.max_pending, 0u);
  EXPECT_GE(r.invariants.scheduled, r.invariants.executed + r.invariants.cancels_effective);
}

TEST(LatencyProbe, MultiProtocolStallIsSlotOrderIndependent) {
  // Regression: the probe attached only to slot 0, so with ckpt_latency
  // > 0 the stall pattern (and hence every count) depended on which
  // protocol happened to occupy slot 0. Probing every slot makes the
  // total stall a sum over slots — invariant under reordering.
  SimConfig cfg = small_config(9);
  cfg.ckpt_latency = 0.05;
  ExperimentOptions ab, ba;
  ab.protocols = {core::ProtocolKind::kBcs, core::ProtocolKind::kQbc};
  ba.protocols = {core::ProtocolKind::kQbc, core::ProtocolKind::kBcs};
  const RunResult r_ab = run_experiment(cfg, ab);
  const RunResult r_ba = run_experiment(cfg, ba);
  EXPECT_EQ(r_ab.events_executed, r_ba.events_executed);
  EXPECT_EQ(r_ab.workload_ops, r_ba.workload_ops);
  EXPECT_EQ(r_ab.by_name("BCS").n_tot, r_ba.by_name("BCS").n_tot);
  EXPECT_EQ(r_ab.by_name("QBC").n_tot, r_ba.by_name("QBC").n_tot);
}

TEST(LatencyProbe, SingleProtocolBehaviourUnchanged) {
  // The single-protocol ABL1 path must still stall: a positive latency
  // perturbs the run relative to zero latency.
  SimConfig with = small_config(4), without = small_config(4);
  with.ckpt_latency = 1.0;
  ExperimentOptions opts;
  opts.protocols = {core::ProtocolKind::kTp};
  const RunResult a = run_experiment(with, opts);
  const RunResult b = run_experiment(without, opts);
  EXPECT_NE(a.workload_ops, b.workload_ops);
}

}  // namespace
}  // namespace mobichk::sim
