// MICRO: simulation-kernel micro-benchmarks (google-benchmark).
//
// Covers the kernel's building blocks: the binary-heap queue (classic
// hold model), typed-event churn through the Simulator, the RNG engines,
// the variate generators, and the end-to-end simulation throughput.
#include <benchmark/benchmark.h>

#include "des/distributions.hpp"
#include "des/event_queue.hpp"
#include "des/rng.hpp"
#include "des/simulator.hpp"
#include "sim/experiment.hpp"

namespace {

using namespace mobichk;

des::EventEntry bare_entry(des::Time t, u64 seq) {
  des::EventEntry e;
  e.time = t;
  e.seq = seq;
  return e;
}

void BM_QueueHoldModel(benchmark::State& state, des::QueueKind kind) {
  const auto population = static_cast<usize>(state.range(0));
  auto queue = des::make_event_queue(kind);
  des::RngStream rng(1, "bench.hold");
  u64 seq = 1;
  for (usize i = 0; i < population; ++i) {
    queue->push(bare_entry(rng.uniform01() * 100.0, seq++));
  }
  for (auto _ : state) {
    des::EventEntry e = queue->pop();
    queue->push(bare_entry(e.time + rng.uniform01() * 100.0, seq++));
    benchmark::DoNotOptimize(e.time);
  }
  state.SetItemsProcessed(static_cast<i64>(state.iterations()));
}
BENCHMARK_CAPTURE(BM_QueueHoldModel, BinaryHeap, des::QueueKind::kBinaryHeap)
    ->Arg(64)
    ->Arg(1024)
    ->Arg(16384);

void BM_Xoshiro(benchmark::State& state) {
  des::Xoshiro256ss rng(1);
  for (auto _ : state) benchmark::DoNotOptimize(rng.next_u64());
}
BENCHMARK(BM_Xoshiro);

void BM_Pcg32(benchmark::State& state) {
  des::Pcg32 rng(1, 2);
  for (auto _ : state) benchmark::DoNotOptimize(rng.next_u32());
}
BENCHMARK(BM_Pcg32);

void BM_SplitMix(benchmark::State& state) {
  des::SplitMix64 rng(1);
  for (auto _ : state) benchmark::DoNotOptimize(rng.next_u64());
}
BENCHMARK(BM_SplitMix);

void BM_ExponentialSample(benchmark::State& state) {
  des::RngStream rng(1, "bench.exp");
  des::Exponential dist(20.0);
  for (auto _ : state) benchmark::DoNotOptimize(dist.sample(rng));
}
BENCHMARK(BM_ExponentialSample);

void BM_UniformIndexExcluding(benchmark::State& state) {
  des::RngStream rng(1, "bench.uix");
  for (auto _ : state) benchmark::DoNotOptimize(des::uniform_index_excluding(rng, 10, 3));
}
BENCHMARK(BM_UniformIndexExcluding);

/// Self-rescheduling EventTarget: 16 events in flight, each re-arming
/// itself, exercising the allocation-free hot path.
struct ChurnTarget final : des::EventTarget {
  des::Simulator* sim = nullptr;
  des::RngStream* rng = nullptr;
  u64 fired = 0;

  void on_event(const des::EventPayload& p) override {
    ++fired;
    if (fired < 50'000) sim->schedule_after(rng->uniform01(), p);
  }
};

void BM_SimulatorTypedChurn(benchmark::State& state, des::QueueKind kind) {
  for (auto _ : state) {
    des::Simulator sim(kind);
    des::RngStream rng(1, "bench.churn");
    ChurnTarget target;
    target.sim = &sim;
    target.rng = &rng;
    des::EventPayload tick;
    tick.target = &target;
    tick.kind = des::EventKind::kWorkloadOp;
    for (int i = 0; i < 16; ++i) sim.schedule_after(rng.uniform01(), tick);
    sim.run();
    benchmark::DoNotOptimize(target.fired);
  }
  state.SetItemsProcessed(static_cast<i64>(state.iterations()) * 50'000);
}
BENCHMARK_CAPTURE(BM_SimulatorTypedChurn, BinaryHeap, des::QueueKind::kBinaryHeap)
    ->Unit(benchmark::kMillisecond);

void BM_FullSimulation(benchmark::State& state, des::QueueKind kind) {
  for (auto _ : state) {
    sim::SimConfig cfg;
    cfg.sim_length = 10'000.0;
    cfg.t_switch = 500.0;
    cfg.p_switch = 0.8;
    cfg.seed = 1;
    sim::ExperimentOptions opts;
    opts.queue_kind = kind;
    const sim::RunResult r = sim::run_experiment(cfg, opts);
    benchmark::DoNotOptimize(r.protocols[0].n_tot);
  }
  state.SetLabel("10k tu, 10 MHs, TP+BCS+QBC paired");
}
BENCHMARK_CAPTURE(BM_FullSimulation, BinaryHeap, des::QueueKind::kBinaryHeap)
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
