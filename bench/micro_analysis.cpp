// MICRO-A: cost of the post-run analysis machinery (google-benchmark).
//
// The oracles and recovery tools run over finished traces; this bench
// documents what they cost so users can size verification runs: orphan
// scan, vector-clock replay, zigzag analysis, rollback and GC analysis.
#include <benchmark/benchmark.h>

#include "core/gc.hpp"
#include "core/recovery.hpp"
#include "core/vc_oracle.hpp"
#include "core/zgraph.hpp"
#include "sim/experiment.hpp"

namespace {

using namespace mobichk;

/// One shared medium-sized run for every analysis benchmark.
sim::Experiment& shared_run() {
  static sim::Experiment* exp = [] {
    sim::SimConfig cfg;
    cfg.sim_length = 20'000.0;
    cfg.t_switch = 500.0;
    cfg.p_switch = 0.8;
    cfg.seed = 1;
    sim::ExperimentOptions opts;
    opts.protocols = {core::ProtocolKind::kQbc};
    auto* e = new sim::Experiment(cfg, opts);
    e->run();
    return e;
  }();
  return *exp;
}

void BM_OrphanScan(benchmark::State& state) {
  auto& exp = shared_run();
  const auto& log = exp.harness().log(0);
  const auto current = exp.harness().current_positions();
  const auto cut = core::index_recovery_line(log, log.max_sn() / 2,
                                             core::IndexLineRule::kLastEqual, current);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::find_orphans(exp.harness().message_log(), cut).size());
  }
  state.SetItemsProcessed(static_cast<i64>(state.iterations()) *
                          static_cast<i64>(exp.harness().message_log().deliveries().size()));
}
BENCHMARK(BM_OrphanScan);

void BM_VcOracleConstruction(benchmark::State& state) {
  auto& exp = shared_run();
  for (auto _ : state) {
    const core::VcOracle oracle(exp.network().n_hosts(), exp.harness().message_log());
    benchmark::DoNotOptimize(oracle.n_hosts());
  }
}
BENCHMARK(BM_VcOracleConstruction)->Unit(benchmark::kMillisecond);

void BM_ZigzagUselessScan(benchmark::State& state) {
  // The graph is built inside the loop: its constructor runs the Z-cycle
  // pass, so timing only useless_count() would time a flag count.
  auto& exp = shared_run();
  for (auto _ : state) {
    const core::IntervalGraph graph(exp.harness().log(0), exp.harness().message_log());
    benchmark::DoNotOptimize(graph.useless_count());
  }
}
BENCHMARK(BM_ZigzagUselessScan)->Unit(benchmark::kMillisecond);

void BM_RollbackToConsistent(benchmark::State& state) {
  auto& exp = shared_run();
  auto& harness = exp.harness();
  const auto fail_pos = harness.current_positions();
  for (auto _ : state) {
    const auto result =
        core::rollback_to_consistent(harness.log(0), harness.message_log(), fail_pos, 0);
    benchmark::DoNotOptimize(result.undone_events());
  }
}
BENCHMARK(BM_RollbackToConsistent);

void BM_GcAnalysis(benchmark::State& state) {
  auto& exp = shared_run();
  for (auto _ : state) {
    const auto gc = core::analyze_gc(exp.harness().log(0), core::IndexLineRule::kLastEqual,
                                     exp.network().n_mss());
    benchmark::DoNotOptimize(gc.total_collectible());
  }
}
BENCHMARK(BM_GcAnalysis);

void BM_IndexRecoveryLine(benchmark::State& state) {
  auto& exp = shared_run();
  const auto& log = exp.harness().log(0);
  const auto current = exp.harness().current_positions();
  u64 m = 0;
  for (auto _ : state) {
    const auto cut =
        core::index_recovery_line(log, m++ % (log.max_sn() + 1),
                                  core::IndexLineRule::kLastEqual, current);
    benchmark::DoNotOptimize(cut.pos[0]);
  }
}
BENCHMARK(BM_IndexRecoveryLine);

}  // namespace

BENCHMARK_MAIN();
