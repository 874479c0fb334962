// KERNEL SMOKE: release-build perf gate for the typed-event DES kernel.
//
// Measures, without google-benchmark (so CI can parse one small JSON):
//  * typed-churn events/s through the Simulator on the binary-heap queue,
//    with observability off AND with a KernelProbe attached,
//  * the same (time, seq) churn through a bare BinaryHeapQueue push/pop
//    loop, interleaved with the Simulator runs (best of 5 each),
//  * heap allocations per event on all paths (global new/delete counter),
//  * one Figure 1 point end-to-end (events/s, wall-clock, trace hash,
//    heap allocations per event over the whole run, set-up included),
//    obs-off and with observer + profiler attached; the observed run
//    must stay within 3x the obs-off wall time (best of 3 each). The
//    allocation count is informational (tracked per commit, not gated).
//
// Output: a BENCH_kernel.json blob on the path given by --out= (default
// ./BENCH_kernel.json). The CI perf-smoke job archives it per commit so
// kernel regressions show up as a trajectory, not an anecdote. The
// headline number is sim_heap_ratio: Simulator events/s over bare-heap
// events/s, the share of raw queue speed the kernel keeps after dispatch,
// clock and ledger. It must stay >= 0.75 in a release build, and with
// --baseline=<json> it must additionally stay within the committed
// bench/kernel_baseline.json tolerance of the committed ratio (a same-run
// ratio, not an absolute events/s, so the gate is machine-independent).
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <new>
#include <sstream>
#include <string>
#include <thread>

#include "des/event.hpp"
#include "mobichk.hpp"

namespace {

std::atomic<unsigned long long> g_allocs{0};

}  // namespace

// Count every heap allocation the process makes; the churn loops below
// difference the counter around their measured region.
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

namespace {

using namespace mobichk;

constexpr u64 kChurnEvents = 200'000;
constexpr int kChurnFanout = 16;
constexpr int kRepeats = 5;
/// Floor on sim_heap_ratio (Release; 0.83-0.90 over 13 runs on a 4-vCPU host).
constexpr f64 kHeapRatioFloor = 0.75;
/// Figure 1 point repetitions per side of the observed/obs-off gate.
constexpr int kFig1Repeats = 3;
/// The observed+profiled Figure 1 point may cost at most this many times
/// its obs-off wall time.
constexpr f64 kObservedRatioBar = 3.0;

struct Measurement {
  f64 events_per_second = 0.0;
  f64 allocs_per_event = 0.0;
};

/// Committed baseline for sim_heap_ratio; ratio 0.0 = unusable file.
struct Baseline {
  f64 ratio = 0.0;
  f64 tolerance = 0.0;  ///< Relative: the gate's floor is ratio * (1 - tolerance).
};

f64 seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<f64>(std::chrono::steady_clock::now() - t0).count();
}

/// run_experiment with Experiment construction (set-up) timed apart from
/// run(), so a point's serial set-up is attributed rather than guessed.
sim::RunResult run_experiment_timed(const sim::SimConfig& cfg, const sim::ExperimentOptions& opts,
                                    f64& setup_seconds) {
  const auto t0 = std::chrono::steady_clock::now();
  sim::Experiment exp(cfg, opts);
  setup_seconds = seconds_since(t0);
  exp.run();
  return exp.result();
}

struct ChurnTarget final : des::EventTarget {
  des::Simulator* sim = nullptr;
  des::RngStream* rng = nullptr;
  u64 fired = 0;

  void on_event(const des::EventPayload& p) override {
    ++fired;
    if (fired < kChurnEvents) sim->schedule_after(rng->uniform01(), p);
  }
};

/// The same workload through the typed-payload hot path.
u64 run_typed_churn(des::Simulator& sim, des::RngStream& rng) {
  ChurnTarget target;
  target.sim = &sim;
  target.rng = &rng;
  des::EventPayload tick;
  tick.target = &target;
  tick.kind = des::EventKind::kWorkloadOp;
  for (int i = 0; i < kChurnFanout; ++i) sim.schedule_after(rng.uniform01(), tick);
  sim.run();
  return target.fired;
}

/// The same (time, seq) churn through a bare BinaryHeapQueue push/pop
/// loop: no dispatch, clock or ledger, so the raw queue speed the
/// Simulator's own churn is measured against.
u64 run_bare_heap_churn(des::RngStream& rng) {
  des::BinaryHeapQueue queue;
  const des::EventPayload tick;
  u64 seq = 1;
  for (int i = 0; i < kChurnFanout; ++i) {
    queue.push(des::EventEntry{rng.uniform01(), seq++, 0, tick});
  }
  u64 fired = 0;
  while (!queue.empty()) {
    const des::EventEntry e = queue.pop();
    ++fired;
    if (fired < kChurnEvents) {
      queue.push(des::EventEntry{e.time + rng.uniform01(), seq++, 0, e.payload});
    }
  }
  return fired;
}

/// Times one churn run (`run_one(rng)` returns the events fired) and
/// keeps it in `best` if it is the fastest so far.
template <typename Fn>
void time_churn(Measurement& best, Fn&& run_one) {
  des::RngStream rng(1, "kernel-smoke");
  const unsigned long long allocs_before = g_allocs.load(std::memory_order_relaxed);
  const auto t0 = std::chrono::steady_clock::now();
  const u64 fired = run_one(rng);
  const f64 wall = seconds_since(t0);
  const unsigned long long allocs = g_allocs.load(std::memory_order_relaxed) - allocs_before;
  const f64 eps = static_cast<f64>(fired) / wall;
  if (eps > best.events_per_second) {
    best.events_per_second = eps;
    best.allocs_per_event = static_cast<f64>(allocs) / static_cast<f64>(fired);
  }
}

Baseline baseline_from(const std::string& path) {
  std::ifstream file(path);
  if (!file) {
    std::fprintf(stderr, "cannot read baseline %s\n", path.c_str());
    return {};
  }
  std::ostringstream text;
  text << file.rdbuf();
  try {
    const sim::JsonValue doc = sim::json_parse(text.str());
    const sim::JsonValue* ratio = doc.find("sim_heap_ratio");
    const sim::JsonValue* tolerance = doc.find("sim_heap_ratio_tolerance");
    if (ratio != nullptr && tolerance != nullptr) return {ratio->as_f64(), tolerance->as_f64()};
    std::fprintf(stderr, "baseline %s: no sim_heap_ratio / sim_heap_ratio_tolerance\n",
                 path.c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "baseline %s: %s\n", path.c_str(), e.what());
  }
  return {};
}

int run(int argc, char** argv) {
  sim::FlagSet flags("kernel_smoke [flags]");
  flags.add("out", sim::FlagType::kString, "BENCH_kernel.json", "result JSON path")
      .add("baseline", sim::FlagType::kString, "",
           "committed baseline JSON; gate sim_heap_ratio against its "
           "sim_heap_ratio within its sim_heap_ratio_tolerance")
      .add("profile-trace", sim::FlagType::kString, "",
           "write the profiled fig1 point's combined sim+host Chrome trace to <path>");
  const sim::ArgParser args = flags.parse(argc, argv);
  if (args.get_flag("help")) {
    flags.print_help(std::cout);
    return 0;
  }
  const std::string out_path = args.get_string("out", "BENCH_kernel.json");
  const std::string baseline_path = args.get_string("baseline", "");

  std::printf("kernel smoke: %llu-event churn on the binary-heap queue, best of %d\n",
              static_cast<unsigned long long>(kChurnEvents), kRepeats);
  // The three paths run interleaved, so a burst of host load hits them
  // alike. typed_obs attaches a resolved KernelProbe: every push/pop goes
  // through the branch-on-null counters. The observer lives outside the
  // measured region; counter increments must not allocate.
  obs::RunObserver observer;
  Measurement typed, bare_heap, typed_obs;
  for (int r = 0; r < kRepeats; ++r) {
    time_churn(typed, [](des::RngStream& rng) {
      des::Simulator sim(des::QueueKind::kBinaryHeap);
      return run_typed_churn(sim, rng);
    });
    time_churn(bare_heap, [](des::RngStream& rng) { return run_bare_heap_churn(rng); });
    time_churn(typed_obs, [&observer](des::RngStream& rng) {
      des::Simulator sim(des::QueueKind::kBinaryHeap);
      sim.set_probe(observer.kernel_probe());
      return run_typed_churn(sim, rng);
    });
  }
  const f64 heap_ratio = typed.events_per_second / bare_heap.events_per_second;
  const f64 obs_ratio = typed_obs.events_per_second / typed.events_per_second;
  std::printf("  bare heap loop: %.3gM events/s, %.3f allocs/event\n",
              bare_heap.events_per_second / 1e6, bare_heap.allocs_per_event);
  std::printf("  typed path:     %.3gM events/s, %.3f allocs/event\n",
              typed.events_per_second / 1e6, typed.allocs_per_event);
  std::printf("  typed+obs path: %.3gM events/s, %.3f allocs/event (%.1f%% of obs-off)\n",
              typed_obs.events_per_second / 1e6, typed_obs.allocs_per_event, 100.0 * obs_ratio);
  std::printf("  simulator/bare-heap ratio: %.3f\n", heap_ratio);

  // One Figure 1 point, end-to-end (the golden determinism config).
  sim::SimConfig cfg;
  cfg.sim_length = 50'000.0;
  cfg.t_switch = 1'000.0;
  cfg.p_switch = 1.0;
  cfg.heterogeneity = 0.0;
  cfg.seed = 42;
  sim::ExperimentOptions opts;
  opts.collect_trace_hash = true;
  sim::RunResult fig1;
  f64 fig1_wall = 0.0;
  unsigned long long fig1_allocs = 0;
  for (int rep = 0; rep < kFig1Repeats; ++rep) {
    const unsigned long long allocs_before = g_allocs.load(std::memory_order_relaxed);
    const auto t0 = std::chrono::steady_clock::now();
    fig1 = sim::run_experiment(cfg, opts);
    const f64 wall = seconds_since(t0);
    fig1_allocs = g_allocs.load(std::memory_order_relaxed) - allocs_before;
    fig1_wall = rep == 0 ? wall : std::min(fig1_wall, wall);
  }
  const f64 fig1_eps = static_cast<f64>(fig1.events_executed) / fig1_wall;
  const f64 fig1_allocs_per_event =
      static_cast<f64>(fig1_allocs) / static_cast<f64>(fig1.events_executed);
  std::printf("  fig1 point: %llu events in %.3fs (%.3gM events/s), %.4f allocs/event, "
              "hash=%016llx\n",
              static_cast<unsigned long long>(fig1.events_executed), fig1_wall, fig1_eps / 1e6,
              fig1_allocs_per_event, static_cast<unsigned long long>(fig1.trace_hash));

  // The same point with the host-time profiler AND the observer attached:
  // the trace hash must not move, and the profiler's per-kind dispatch
  // counts must reconcile with the kernel probe's des.dispatch.* counters
  // — the same events, counted by two independent mechanisms.
  obs::RunObserver prof_observer;
  obs::Profiler profiler;
  sim::ExperimentOptions prof_opts;
  prof_opts.collect_trace_hash = true;
  prof_opts.observer = &prof_observer;
  prof_opts.profiler = &profiler;
  const auto prof_t0 = std::chrono::steady_clock::now();
  const sim::RunResult fig1_prof = sim::run_experiment(cfg, prof_opts);
  f64 prof_wall = seconds_since(prof_t0);
  // Further repetitions for the observed-ratio gate, each with a fresh
  // observer and profiler; the gates below read the first run's.
  for (int rep = 1; rep < kFig1Repeats; ++rep) {
    obs::RunObserver rep_observer;
    obs::Profiler rep_profiler;
    sim::ExperimentOptions rep_opts = prof_opts;
    rep_opts.observer = &rep_observer;
    rep_opts.profiler = &rep_profiler;
    const auto rep_t0 = std::chrono::steady_clock::now();
    sim::run_experiment(cfg, rep_opts);
    prof_wall = std::min(prof_wall, seconds_since(rep_t0));
  }
  const f64 observed_ratio = fig1_wall > 0.0 ? prof_wall / fig1_wall : 0.0;
  f64 prof_dispatch_seconds = 0.0;
  for (usize k = 0; k < obs::ProfLane::kMaxEventKinds; ++k) {
    prof_dispatch_seconds += profiler.dispatch_seconds(k);
  }
  std::printf("  fig1 profiled: %.3fs wall (obs-off %.3fs, %.2fx), %.3fs in dispatch, "
              "hash=%016llx\n",
              prof_wall, fig1_wall, observed_ratio, prof_dispatch_seconds,
              static_cast<unsigned long long>(fig1_prof.trace_hash));
  const std::string profile_trace_path = args.get_string("profile-trace", "");
  if (!profile_trace_path.empty()) {
    obs::write_chrome_trace(profile_trace_path, prof_observer, &profiler);
    std::printf("  wrote %s\n", profile_trace_path.c_str());
  }

  // One large-n point (10^4 hosts, short horizon, sparse TP piggybacks):
  // the city-scale smoke. Records throughput plus the encoded vs
  // dense-equivalent control-byte split so scaling regressions land in
  // the same trajectory file as the kernel numbers.
  sim::SimConfig scale_cfg;
  scale_cfg.network.n_hosts = 10'000;
  scale_cfg.network.n_mss = 500;
  scale_cfg.sim_length = 50.0;
  scale_cfg.t_switch = 1'000.0;
  scale_cfg.p_switch = 1.0;
  scale_cfg.heterogeneity = 0.0;
  scale_cfg.seed = 42;
  sim::ExperimentOptions scale_opts;  // the library-default queue, as production runs
  const auto scale_t0 = std::chrono::steady_clock::now();
  const sim::RunResult scale = sim::run_experiment(scale_cfg, scale_opts);
  const f64 scale_wall = seconds_since(scale_t0);
  const f64 scale_eps = static_cast<f64>(scale.events_executed) / scale_wall;
  const u64 scale_encoded = scale.by_name("TP").piggyback_bytes;
  const u64 scale_dense = scale.by_name("TP").piggyback_dense_bytes;
  std::printf("  scale point: n=10^4, %llu events in %.3fs (%.3gM events/s), "
              "TP enc/dense = %llu/%llu B\n",
              static_cast<unsigned long long>(scale.events_executed), scale_wall,
              scale_eps / 1e6, static_cast<unsigned long long>(scale_encoded),
              static_cast<unsigned long long>(scale_dense));

  // The same city-scale point at n=10^5 under the spatially sharded
  // engine: shards=1 (sequential path) vs shards=4, with trace hashing on
  // so the comparison doubles as a bit-identity gate. The >= 1.8x
  // throughput bar only arms when the machine actually has >= 4 hardware
  // threads — on smaller runners the parallel engine time-slices on one
  // core and the number is meaningless, but identity must still hold.
  const unsigned hw_threads = std::thread::hardware_concurrency();
  sim::SimConfig shard_cfg;
  shard_cfg.network.n_hosts = 100'000;
  shard_cfg.network.n_mss = 512;
  shard_cfg.sim_length = 50.0;
  shard_cfg.t_switch = 1'000.0;
  shard_cfg.p_switch = 1.0;
  shard_cfg.heterogeneity = 0.0;
  shard_cfg.seed = 42;
  sim::ExperimentOptions shard_opts;  // the library-default queue, as production runs
  shard_opts.collect_trace_hash = true;
  f64 shard_seq_setup = 0.0;
  f64 shard_par_setup = 0.0;
  const auto seq_t0 = std::chrono::steady_clock::now();
  const sim::RunResult shard_seq = run_experiment_timed(shard_cfg, shard_opts, shard_seq_setup);
  const f64 shard_seq_wall = seconds_since(seq_t0);
  shard_opts.shards = 4;
  const auto par_t0 = std::chrono::steady_clock::now();
  const sim::RunResult shard_par = run_experiment_timed(shard_cfg, shard_opts, shard_par_setup);
  const f64 shard_par_wall = seconds_since(par_t0);
  const f64 shard_speedup = shard_seq_wall / shard_par_wall;
  std::printf("  shard point: n=10^5 x4 shards, %llu events, %.3fs -> %.3fs (%.2fx, "
              "%llu sync rounds, %.3fs stall), hash %016llx vs %016llx\n",
              static_cast<unsigned long long>(shard_par.events_executed), shard_seq_wall,
              shard_par_wall, shard_speedup,
              static_cast<unsigned long long>(shard_par.sync_rounds),
              shard_par.barrier_stall_seconds,
              static_cast<unsigned long long>(shard_seq.trace_hash),
              static_cast<unsigned long long>(shard_par.trace_hash));
  std::printf("  shard point set-up: %.3fs sequential, %.3fs at 4 shards\n", shard_seq_setup,
              shard_par_setup);

  std::FILE* out = std::fopen(out_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", out_path.c_str());
    return 1;
  }
  std::fprintf(out, "{\n");
  std::fprintf(out, "  \"benchmark\": \"kernel_smoke\",\n");
  std::fprintf(out, "  \"queue\": \"binary-heap\",\n");
  std::fprintf(out, "  \"churn_events\": %llu,\n",
               static_cast<unsigned long long>(kChurnEvents));
  std::fprintf(out, "  \"bare_heap_events_per_second\": %.1f,\n", bare_heap.events_per_second);
  std::fprintf(out, "  \"typed_events_per_second\": %.1f,\n", typed.events_per_second);
  std::fprintf(out, "  \"typed_allocs_per_event\": %.4f,\n", typed.allocs_per_event);
  std::fprintf(out, "  \"typed_obs_events_per_second\": %.1f,\n", typed_obs.events_per_second);
  std::fprintf(out, "  \"typed_obs_allocs_per_event\": %.4f,\n", typed_obs.allocs_per_event);
  std::fprintf(out, "  \"obs_on_off_ratio\": %.3f,\n", obs_ratio);
  std::fprintf(out, "  \"sim_heap_ratio\": %.3f,\n", heap_ratio);
  std::fprintf(out, "  \"fig1_events\": %llu,\n",
               static_cast<unsigned long long>(fig1.events_executed));
  std::fprintf(out, "  \"fig1_wall_seconds\": %.4f,\n", fig1_wall);
  std::fprintf(out, "  \"fig1_events_per_second\": %.1f,\n", fig1_eps);
  std::fprintf(out, "  \"fig1_allocs_per_event\": %.4f,\n", fig1_allocs_per_event);
  std::fprintf(out, "  \"fig1_trace_hash\": \"%016llx\",\n",
               static_cast<unsigned long long>(fig1.trace_hash));
  std::fprintf(out, "  \"fig1_prof_wall_seconds\": %.4f,\n", prof_wall);
  std::fprintf(out, "  \"fig1_prof_dispatch_seconds\": %.4f,\n", prof_dispatch_seconds);
  std::fprintf(out, "  \"fig1_observed_ratio\": %.3f,\n", observed_ratio);
  std::fprintf(out, "  \"scale_hosts\": %u,\n", scale_cfg.network.n_hosts);
  std::fprintf(out, "  \"scale_events\": %llu,\n",
               static_cast<unsigned long long>(scale.events_executed));
  std::fprintf(out, "  \"scale_wall_seconds\": %.4f,\n", scale_wall);
  std::fprintf(out, "  \"scale_events_per_second\": %.1f,\n", scale_eps);
  std::fprintf(out, "  \"scale_tp_encoded_bytes\": %llu,\n",
               static_cast<unsigned long long>(scale_encoded));
  std::fprintf(out, "  \"scale_tp_dense_bytes\": %llu,\n",
               static_cast<unsigned long long>(scale_dense));
  std::fprintf(out, "  \"hardware_threads\": %u,\n", hw_threads);
  std::fprintf(out, "  \"shard_hosts\": %u,\n", shard_cfg.network.n_hosts);
  std::fprintf(out, "  \"shard_count\": 4,\n");
  std::fprintf(out, "  \"shard_seq_wall_seconds\": %.4f,\n", shard_seq_wall);
  std::fprintf(out, "  \"shard_par_wall_seconds\": %.4f,\n", shard_par_wall);
  std::fprintf(out, "  \"shard_seq_setup_seconds\": %.4f,\n", shard_seq_setup);
  std::fprintf(out, "  \"shard_par_setup_seconds\": %.4f,\n", shard_par_setup);
  std::fprintf(out, "  \"shard_speedup\": %.3f,\n", shard_speedup);
  std::fprintf(out, "  \"shard_sync_rounds\": %llu,\n",
               static_cast<unsigned long long>(shard_par.sync_rounds));
  std::fprintf(out, "  \"shard_barrier_stall_seconds\": %.4f,\n",
               shard_par.barrier_stall_seconds);
  std::fprintf(out, "  \"shard_trace_hash\": \"%016llx\"\n",
               static_cast<unsigned long long>(shard_par.trace_hash));
  std::fprintf(out, "}\n");
  std::fclose(out);
  std::printf("wrote %s\n", out_path.c_str());

  // Gate: the typed hot path must stay allocation-free per event (with
  // and without a probe attached) and keep most of the bare heap's speed.
  if (typed.allocs_per_event > 0.01) {
    std::fprintf(stderr, "FAIL: typed path allocates (%.4f allocs/event)\n",
                 typed.allocs_per_event);
    return 1;
  }
  if (typed_obs.allocs_per_event > 0.01) {
    std::fprintf(stderr, "FAIL: typed path with probe allocates (%.4f allocs/event)\n",
                 typed_obs.allocs_per_event);
    return 1;
  }
  if (scale_encoded > scale_dense || scale.events_executed == 0) {
    std::fprintf(stderr, "FAIL: scale point broken (events=%llu, enc=%llu, dense=%llu)\n",
                 static_cast<unsigned long long>(scale.events_executed),
                 static_cast<unsigned long long>(scale_encoded),
                 static_cast<unsigned long long>(scale_dense));
    return 1;
  }
  if (heap_ratio < kHeapRatioFloor) {
    std::fprintf(stderr, "FAIL: simulator/bare-heap ratio %.3f below the %.2f floor\n",
                 heap_ratio, kHeapRatioFloor);
    return 1;
  }
  // Profiler gates: attaching it must not perturb the simulation, and its
  // per-kind dispatch counts must agree with the kernel probe's
  // des.dispatch.* counters to within one event.
  if (fig1_prof.trace_hash != fig1.trace_hash) {
    std::fprintf(stderr, "FAIL: profiled fig1 hash %016llx != unprofiled %016llx\n",
                 static_cast<unsigned long long>(fig1_prof.trace_hash),
                 static_cast<unsigned long long>(fig1.trace_hash));
    return 1;
  }
  for (usize k = 0; k < obs::ProfLane::kMaxEventKinds; ++k) {
    const u64 probe_count = prof_observer.kernel_probe()->dispatched[k]->value();
    const u64 prof_count = profiler.dispatch_count(k);
    const u64 diff = probe_count > prof_count ? probe_count - prof_count : prof_count - probe_count;
    if (diff > 1) {
      std::fprintf(stderr,
                   "FAIL: dispatch reconciliation for %s: profiler %llu vs probe %llu\n",
                   obs::prof_kind_name(k), static_cast<unsigned long long>(prof_count),
                   static_cast<unsigned long long>(probe_count));
      return 1;
    }
  }
  std::printf("profile gate: hash pinned, dispatch counts reconcile across all %zu kinds\n",
              obs::ProfLane::kMaxEventKinds);
  // Observed-ratio gate: a full observer (timeline, causal trackers and
  // their end-of-run Z-cycle pass) plus the profiler must keep a Figure 1
  // point within kObservedRatioBar of its obs-off wall time, best of
  // kFig1Repeats on each side.
  if (observed_ratio > kObservedRatioBar) {
    std::fprintf(stderr, "FAIL: observed fig1 point %.2fx its obs-off wall time (bar %.1fx)\n",
                 observed_ratio, kObservedRatioBar);
    return 1;
  }
  std::printf("observed gate: %.2fx <= %.1fx obs-off wall time\n", observed_ratio,
              kObservedRatioBar);
  // Sharded gates: bit-identity is unconditional; the throughput bar only
  // applies where 4 shards can actually run in parallel.
  if (shard_par.trace_hash != shard_seq.trace_hash ||
      shard_par.events_executed != shard_seq.events_executed) {
    std::fprintf(stderr, "FAIL: 4-shard scale point diverged from sequential "
                 "(hash %016llx vs %016llx, events %llu vs %llu)\n",
                 static_cast<unsigned long long>(shard_par.trace_hash),
                 static_cast<unsigned long long>(shard_seq.trace_hash),
                 static_cast<unsigned long long>(shard_par.events_executed),
                 static_cast<unsigned long long>(shard_seq.events_executed));
    return 1;
  }
  if (hw_threads >= 4) {
    if (shard_speedup < 1.8) {
      std::fprintf(stderr, "FAIL: 4-shard speedup %.2fx below the 1.8x bar on %u threads\n",
                   shard_speedup, hw_threads);
      return 1;
    }
    std::printf("shard gate: %.2fx >= 1.8x on %u hardware threads\n", shard_speedup, hw_threads);
  } else {
    std::printf("shard gate: skipped (%u hardware thread(s) < 4; identity still enforced)\n",
                hw_threads);
  }
  // Trajectory gate against the committed baseline: sim_heap_ratio must
  // not fall more than the committed tolerance below the committed ratio.
  // Ratios cancel the machine out, so the same baseline file gates every
  // CI runner.
  if (!baseline_path.empty()) {
    const Baseline base = baseline_from(baseline_path);
    if (base.ratio <= 0.0) {
      std::fprintf(stderr, "FAIL: baseline %s unusable\n", baseline_path.c_str());
      return 1;
    }
    const f64 floor = base.ratio * (1.0 - base.tolerance);
    if (heap_ratio < floor) {
      std::fprintf(stderr,
                   "FAIL: sim_heap_ratio %.3f below %.3f (baseline %.3f, %.0f%% tolerance)\n",
                   heap_ratio, floor, base.ratio, 100.0 * base.tolerance);
      return 1;
    }
    std::printf("baseline gate: %.3f vs committed %.3f (floor %.3f)\n", heap_ratio, base.ratio,
                floor);
  }
  std::printf("PASS\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return run(argc, argv); }
