// FIG-SCALE: city-scale population sweep — the open-system scalability
// answer, measured instead of argued.
//
// Sweeps the host count over decades (default 10 .. 100'000) at a fixed
// total event budget (the horizon shrinks as n grows) and reports, per
// point and per protocol:
//  * N_tot (the paper's checkpoint count),
//  * encoded piggyback bytes actually shipped (sparse deltas for TP),
//  * the dense-equivalent bytes the paper-literal full vectors would have
//    cost, and
//  * end-to-end kernel throughput (events/s).
//
// The dense TP encoding is O(n) state per message and O(n^2) memory in
// the population, so a 10^5-host run only completes at all because the
// sparse encoding pays for dependencies that actually formed; the
// encoded/dense ratio printed here is the measured win.
//
// Flags:
//   --point=N     run a single population instead of the sweep (CI smoke)
//   --events=B    approximate event budget per point (default 2'000'000)
//   --queue=NAME  binary-heap | sorted-list (default binary-heap, the
//                 library default)
//   --out=PATH    also write the rows as a JSON array
//   --shards=LIST shard-sweep mode: run the n=10^4 and n=10^5 points under
//                 every shard count in the comma list (e.g. 1,2,4,8),
//                 verify bit-identity against shards=1, and write
//                 events/s-vs-shards rows (BENCH_shard.json by default)
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "mobichk.hpp"

namespace {

using namespace mobichk;

struct ScaleRow {
  u32 hosts = 0;
  u32 mss = 0;
  f64 sim_length = 0.0;
  u64 events = 0;
  f64 wall_seconds = 0.0;
  u64 app_sent = 0;
  u64 tp_n_tot = 0;
  u64 tp_encoded_bytes = 0;
  u64 tp_dense_bytes = 0;
};

/// Keeps every point at roughly the same total event count so the sweep
/// finishes in minutes: horizon = budget / n, clamped to stay meaningful.
f64 horizon_for(u32 hosts, f64 event_budget) {
  return std::clamp(event_budget / static_cast<f64>(hosts) / 4.0, 50.0, 50'000.0);
}

/// Cells scale with the population (paper ratio: 2 MHs per MSS) but are
/// capped: the wired topology precomputes all-pairs hops (n_mss^2).
u32 mss_for(u32 hosts) { return std::clamp(hosts / 20u, 5u, 512u); }

ScaleRow run_point(u32 hosts, f64 event_budget, des::QueueKind queue) {
  sim::SimConfig cfg;
  cfg.network.n_hosts = hosts;
  cfg.network.n_mss = mss_for(hosts);
  cfg.sim_length = horizon_for(hosts, event_budget);
  cfg.t_switch = 1'000.0;
  cfg.p_switch = 1.0;
  cfg.heterogeneity = 0.0;
  cfg.seed = 42;

  sim::ExperimentOptions opts;
  opts.queue_kind = queue;

  const auto t0 = std::chrono::steady_clock::now();
  const sim::RunResult r = sim::run_experiment(cfg, opts);
  const f64 wall =
      std::chrono::duration<f64>(std::chrono::steady_clock::now() - t0).count();

  ScaleRow row;
  row.hosts = hosts;
  row.mss = cfg.network.n_mss;
  row.sim_length = cfg.sim_length;
  row.events = r.events_executed;
  row.wall_seconds = wall;
  row.app_sent = r.net.app_sent;
  const auto& tp = r.by_name("TP");
  row.tp_n_tot = tp.n_tot;
  row.tp_encoded_bytes = tp.piggyback_bytes;
  row.tp_dense_bytes = tp.piggyback_dense_bytes;
  return row;
}

void print_row(const ScaleRow& row) {
  const f64 eps = static_cast<f64>(row.events) / row.wall_seconds;
  const f64 ratio = row.tp_dense_bytes > 0
                        ? static_cast<f64>(row.tp_encoded_bytes) /
                              static_cast<f64>(row.tp_dense_bytes)
                        : 0.0;
  std::printf("%8u %6u %9.0f %10llu %9.3f %10.3g %10llu %14llu %14llu %8.4f\n", row.hosts,
              row.mss, row.sim_length, static_cast<unsigned long long>(row.events),
              row.wall_seconds, eps, static_cast<unsigned long long>(row.tp_n_tot),
              static_cast<unsigned long long>(row.tp_encoded_bytes),
              static_cast<unsigned long long>(row.tp_dense_bytes), ratio);
}

void write_json(const std::string& path, const std::vector<ScaleRow>& rows,
                des::QueueKind queue) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    return;
  }
  std::fprintf(out, "{\n  \"benchmark\": \"fig_scale\",\n  \"queue\": \"%s\",\n  \"rows\": [\n",
               des::queue_kind_name(queue));
  for (usize i = 0; i < rows.size(); ++i) {
    const ScaleRow& r = rows[i];
    std::fprintf(out,
                 "    {\"hosts\": %u, \"mss\": %u, \"sim_length\": %.1f, \"events\": %llu, "
                 "\"wall_seconds\": %.4f, \"events_per_second\": %.1f, \"app_sent\": %llu, "
                 "\"tp_n_tot\": %llu, \"tp_encoded_bytes\": %llu, \"tp_dense_bytes\": %llu}%s\n",
                 r.hosts, r.mss, r.sim_length, static_cast<unsigned long long>(r.events),
                 r.wall_seconds, static_cast<f64>(r.events) / r.wall_seconds,
                 static_cast<unsigned long long>(r.app_sent),
                 static_cast<unsigned long long>(r.tp_n_tot),
                 static_cast<unsigned long long>(r.tp_encoded_bytes),
                 static_cast<unsigned long long>(r.tp_dense_bytes),
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  std::printf("wrote %s\n", path.c_str());
}

struct ShardRow {
  u32 hosts = 0;
  u32 shards = 0;
  u64 events = 0;
  f64 wall_seconds = 0.0;
  f64 speedup = 1.0;        ///< events/s relative to shards=1 at this n.
  u64 trace_hash = 0;
  u64 sync_rounds = 0;
  f64 barrier_stall_seconds = 0.0;
};

/// Shard-sweep mode: events/s vs shard count at fixed populations, with a
/// bit-identity cross-check against the sequential engine (the sweep is a
/// perf artifact AND a determinism gate).
int run_shard_sweep(const std::string& shard_list, u64 point, f64 budget, des::QueueKind queue,
                    const std::string& out_path) {
  std::vector<u32> counts;
  std::istringstream ss(shard_list);
  std::string token;
  while (std::getline(ss, token, ',')) {
    if (!token.empty()) counts.push_back(static_cast<u32>(std::stoul(token)));
  }
  if (counts.empty() || counts.front() != 1) counts.insert(counts.begin(), 1);

  std::vector<u32> populations{10'000u, 100'000u};
  if (point > 0) populations = {static_cast<u32>(point)};

  std::printf("FIG-SCALE --shards — events/s vs shard count (%s queue, %u hardware threads)\n",
              des::queue_kind_name(queue), std::thread::hardware_concurrency());
  std::printf("%8s %7s %10s %9s %10s %8s %12s %10s\n", "hosts", "shards", "events", "wall(s)",
              "events/s", "speedup", "sync-rounds", "stall(s)");

  std::vector<ShardRow> rows;
  bool identical = true;
  for (const u32 n : populations) {
    sim::SimConfig cfg;
    cfg.network.n_hosts = n;
    cfg.network.n_mss = mss_for(n);
    cfg.sim_length = horizon_for(n, budget);
    cfg.t_switch = 1'000.0;
    cfg.p_switch = 1.0;
    cfg.heterogeneity = 0.0;
    cfg.seed = 42;
    u64 base_hash = 0;
    f64 base_eps = 0.0;
    for (const u32 shards : counts) {
      sim::ExperimentOptions opts;
      opts.queue_kind = queue;
      opts.collect_trace_hash = true;
      opts.shards = shards;
      const auto t0 = std::chrono::steady_clock::now();
      const sim::RunResult r = sim::run_experiment(cfg, opts);
      const f64 wall =
          std::chrono::duration<f64>(std::chrono::steady_clock::now() - t0).count();
      const f64 eps = static_cast<f64>(r.events_executed) / wall;
      ShardRow row;
      row.hosts = n;
      row.shards = shards;
      row.events = r.events_executed;
      row.wall_seconds = wall;
      row.trace_hash = r.trace_hash;
      row.sync_rounds = r.sync_rounds;
      row.barrier_stall_seconds = r.barrier_stall_seconds;
      if (shards == 1) {
        base_hash = r.trace_hash;
        base_eps = eps;
      }
      row.speedup = base_eps > 0.0 ? eps / base_eps : 1.0;
      if (r.trace_hash != base_hash) identical = false;
      rows.push_back(row);
      std::printf("%8u %7u %10llu %9.3f %10.3g %7.2fx %12llu %10.3f%s\n", n, shards,
                  static_cast<unsigned long long>(row.events), wall, eps, row.speedup,
                  static_cast<unsigned long long>(row.sync_rounds), row.barrier_stall_seconds,
                  row.trace_hash == base_hash ? "" : "  HASH MISMATCH");
    }
  }

  if (!out_path.empty()) {
    std::FILE* out = std::fopen(out_path.c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "cannot open %s for writing\n", out_path.c_str());
      return 1;
    }
    std::fprintf(out,
                 "{\n  \"benchmark\": \"fig_scale_shards\",\n  \"queue\": \"%s\",\n"
                 "  \"hardware_threads\": %u,\n  \"rows\": [\n",
                 des::queue_kind_name(queue), std::thread::hardware_concurrency());
    for (usize i = 0; i < rows.size(); ++i) {
      const ShardRow& r = rows[i];
      std::fprintf(out,
                   "    {\"hosts\": %u, \"shards\": %u, \"events\": %llu, "
                   "\"wall_seconds\": %.4f, \"events_per_second\": %.1f, \"speedup\": %.3f, "
                   "\"trace_hash\": \"%016llx\", \"sync_rounds\": %llu, "
                   "\"barrier_stall_seconds\": %.4f}%s\n",
                   r.hosts, r.shards, static_cast<unsigned long long>(r.events), r.wall_seconds,
                   static_cast<f64>(r.events) / r.wall_seconds, r.speedup,
                   static_cast<unsigned long long>(r.trace_hash),
                   static_cast<unsigned long long>(r.sync_rounds), r.barrier_stall_seconds,
                   i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(out, "  ]\n}\n");
    std::fclose(out);
    std::printf("wrote %s\n", out_path.c_str());
  }

  // The hard gate here is bit-identity: every shard count must reproduce
  // the sequential trace exactly. Throughput is recorded as a trajectory;
  // the >= 1.8x speedup bar lives in kernel_smoke, guarded on hardware
  // parallelism actually being available.
  if (!identical) {
    std::fprintf(stderr, "FAIL: sharded trace diverged from the sequential engine\n");
    return 1;
  }
  std::printf("PASS (all shard counts bit-identical to the sequential engine)\n");
  return 0;
}

int run(int argc, char** argv) {
  sim::FlagSet flags("fig_scale [flags]");
  flags.add("point", sim::FlagType::kUInt, "0", "run only this host count (0 = full sweep)")
      .add("events", sim::FlagType::kUInt, "2000000", "approximate event budget per point")
      .add("queue", sim::FlagType::kString, "binary-heap", "event queue implementation")
      .add("out", sim::FlagType::kString, "", "also write rows to this JSON path")
      .add("shards", sim::FlagType::kString, "",
           "shard-sweep mode: comma list of shard counts (e.g. 1,2,4,8)");
  const sim::ArgParser args = flags.parse(argc, argv);
  if (args.get_flag("help")) {
    flags.print_help(std::cout);
    return 0;
  }
  const u64 point = args.get_u64("point", 0);
  const f64 budget = static_cast<f64>(args.get_u64("events", 2'000'000));
  const des::QueueKind queue = des::queue_kind_from_name(args.get_string("queue", "binary-heap"));

  const std::string shard_list = args.get_string("shards", "");
  if (!shard_list.empty()) {
    return run_shard_sweep(shard_list, point, budget, queue,
                           args.get_string("out", "BENCH_shard.json"));
  }

  std::vector<u32> populations;
  if (point > 0) {
    populations.push_back(static_cast<u32>(point));
  } else {
    populations = {10u, 100u, 1'000u, 10'000u, 100'000u};
  }

  std::printf("FIG-SCALE — population sweep on the %s queue (sparse TP piggybacks)\n",
              des::queue_kind_name(queue));
  std::printf("%8s %6s %9s %10s %9s %10s %10s %14s %14s %8s\n", "hosts", "mss", "length",
              "events", "wall(s)", "events/s", "TP N_tot", "TP enc(B)", "TP dense(B)",
              "enc/dense");

  std::vector<ScaleRow> rows;
  for (const u32 n : populations) {
    rows.push_back(run_point(n, budget, queue));
    print_row(rows.back());
  }

  const std::string out_path = args.get_string("out", "");
  if (!out_path.empty()) write_json(out_path, rows, queue);

  // Sanity gates (keep this binary usable as a CI smoke): the sparse
  // encoding must never exceed the dense-equivalent cost, and every
  // requested point must actually have executed events.
  for (const ScaleRow& r : rows) {
    if (r.tp_encoded_bytes > r.tp_dense_bytes) {
      std::fprintf(stderr, "FAIL: n=%u encoded %llu > dense %llu\n", r.hosts,
                   static_cast<unsigned long long>(r.tp_encoded_bytes),
                   static_cast<unsigned long long>(r.tp_dense_bytes));
      return 1;
    }
    if (r.events == 0) {
      std::fprintf(stderr, "FAIL: n=%u executed no events\n", r.hosts);
      return 1;
    }
  }
  std::printf("PASS\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return run(argc, argv); }
