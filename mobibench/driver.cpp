// mobibench driver: runs one workload of the mobichk benchmark through the
// library's public surface (mobichk.hpp) and prints one JSON record per
// line on stdout. run.py builds this program, runs it, checks the records
// against spec.json and turns them into the benchmark's metrics.
//
//   mobibench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Records, in order:
//   {"record":"preflight",...}  the golden Fig. 1 point, run before timing
//   {"record":"reference",...}  untimed check runs, also before timing so
//                               that they warm the allocator and caches:
//                               the sequential twin of city_sharded, the
//                               unobserved twin of observed_recovery, a
//                               verified replication of paper_sweep
//   {"record":"rep",...}        one per workload repetition, for --seconds;
//                               with --trace 1 untraced and traced
//                               repetitions alternate. A repetition starts
//                               only if at least half of it is expected to
//                               fit before the deadline.
//
// A repetition's wall clock runs from its first library call to its last:
// set-up, event loop, finalize, verification and export. Traced
// repetitions additionally record spans around each public call and
// attach an obs::Profiler, so their layer numbers come from a separate
// run than the timed ones.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "mobichk.hpp"
#include "spans.hpp"

namespace mobibench {
namespace {

using namespace mobichk;

// ---------------------------------------------------------------------------
// Minimal JSON emission (one object per line).

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", static_cast<unsigned>(c));
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string hex64(u64 v) {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
  return buf;
}

class Obj {
 public:
  Obj& num(const std::string& k, double v) { return raw(k, json_number(v)); }
  Obj& count(const std::string& k, u64 v) { return raw(k, std::to_string(v)); }
  Obj& str(const std::string& k, const std::string& v) { return raw(k, json_string(v)); }
  Obj& flag(const std::string& k, bool v) { return raw(k, v ? "true" : "false"); }
  Obj& obj(const std::string& k, const Obj& v) { return raw(k, v.text()); }
  Obj& raw(const std::string& k, const std::string& json) {
    body_ += (body_.empty() ? "" : ",") + json_string(k) + ":" + json;
    return *this;
  }
  std::string text() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

std::string spans_json(const SpanLog& log) {
  std::string out = "[";
  for (const Span& s : log.spans()) {
    if (out.size() > 1) out += ",";
    out += "[" + json_string(s.name) + "," + std::to_string(s.start_ns) + "," +
           std::to_string(s.end_ns) + "," + std::to_string(s.parent) + "]";
  }
  return out + "]";
}

/// FNV-1a over a byte string: a compact fingerprint of exported documents.
u64 fnv1a(const std::string& bytes) {
  u64 h = 0xcbf29ce484222325ull;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

double seconds_since(u64 t0) { return static_cast<double>(now_ns() - t0) * 1e-9; }

// ---------------------------------------------------------------------------
// Output and check extraction shared by the workloads.

Obj run_outputs(const sim::RunResult& r) {
  Obj n_tot;
  for (const auto& p : r.protocols) n_tot.count(p.name, p.n_tot);
  Obj out;
  out.str("trace_hash", hex64(r.trace_hash)).count("events_executed", r.events_executed);
  out.obj("n_tot", n_tot);
  return out;
}

Obj run_checks(const sim::RunResult& r, u64 orphans_found) {
  Obj c;
  c.flag("invariants_ok", r.invariants_ok).count("orphans_found", orphans_found);
  return c;
}

/// Time the profiler attributes to the loop that Experiment::run drives:
/// lane 0's event handlers, queue pops and barrier waits, plus the shard
/// window the coordinator runs inline (lane 1) in a sharded run. Pushes
/// and cancels happen inside handlers and are not added again.
double prof_attributed_s(const obs::Profiler& prof, bool sharded) {
  const obs::ProfLane& main = prof.lane_ref(0);
  double s = main.queue_pop.seconds() + main.barrier.seconds();
  for (const auto& d : main.dispatch) s += d.seconds();
  if (sharded && prof.n_lanes() > 1) s += prof.lane_ref(1).window.seconds();
  return s;
}

/// Per-layer numbers of one profiled Experiment (des/net/core/storage and
/// the shard engine), under the metric names BENCHMARK.json lists.
Obj layer_numbers(const sim::RunResult& r, const obs::Profiler& prof, double run_span_s) {
  Obj o;
  obs::PhaseAccum push, pop, leg, enc, merge, storage;
  std::vector<double> dispatch(obs::ProfLane::kMaxEventKinds, 0.0);
  std::vector<double> proto(obs::ProfLane::kMaxProtoSlots, 0.0);
  double busy = 0.0, barrier = 0.0;
  u64 shard_events = 0;
  for (usize i = 0; i < prof.n_lanes(); ++i) {
    const obs::ProfLane& l = prof.lane_ref(i);
    for (usize k = 0; k < dispatch.size(); ++k) dispatch[k] += l.dispatch[k].seconds();
    for (usize k = 0; k < proto.size(); ++k) proto[k] += l.proto[k].seconds();
    for (auto [into, from] : {std::pair{&push, &l.queue_push}, std::pair{&pop, &l.queue_pop},
                              std::pair{&leg, &l.net_leg}, std::pair{&enc, &l.pb_encode},
                              std::pair{&merge, &l.pb_merge}, std::pair{&storage, &l.storage}}) {
      into->ns += from->ns;
      into->count += from->count;
    }
    if (i > 0) {  // shard lanes
      busy += l.window.seconds();
      barrier += l.barrier.seconds();
      shard_events += l.events;
    }
  }
  const double events = static_cast<double>(r.events_executed);
  o.count("des.events", r.events_executed);
  o.num("des.ns_per_event", events > 0 ? run_span_s * 1e9 / events : 0.0);
  for (usize k = 0; k < dispatch.size(); ++k) {
    o.num(std::string("des.dispatch.") + obs::prof_kind_name(k) + "_s", dispatch[k]);
  }
  o.num("des.queue.push_s", push.seconds()).num("des.queue.pop_s", pop.seconds());
  o.count("des.queue.max_pending", r.invariants.max_pending);

  const bool sharded = r.shards > 1;
  const double rounds = static_cast<double>(r.sync_rounds);
  o.count("des.shard.sync_rounds", r.sync_rounds);
  o.num("des.shard.events_per_window",
        sharded && rounds > 0 ? static_cast<double>(shard_events) / rounds / r.shards : 0.0);
  o.num("des.shard.barrier_stall_s", r.barrier_stall_seconds);
  o.num("des.shard.busy_share", busy + barrier > 0 ? busy / (busy + barrier) : 0.0);
  o.num("des.shard.imbalance_ratio", sharded ? prof.imbalance_ratio() : 0.0);

  u64 tp_bytes = 0;
  for (const auto& p : r.protocols) {
    if (p.name == "TP") tp_bytes = p.piggyback_bytes;
  }
  o.count("net.legs", leg.count).num("net.leg_s", leg.seconds());
  o.num("net.pb_encode_s", enc.seconds()).num("net.pb_merge_s", merge.seconds());
  o.count("net.app_sent", r.net.app_sent).count("net.piggyback_bytes.TP", tp_bytes);

  const auto& names = prof.slot_names();
  for (usize k = 0; k < names.size() && k < proto.size(); ++k) {
    o.num("core.proto." + names[k] + "_s", proto[k]);
  }
  for (const auto& p : r.protocols) o.count("core.n_tot." + p.name, p.n_tot);

  o.num("storage.s", storage.seconds());
  o.count("storage.upload_bytes", r.data_plane.upload_bytes);
  o.count("storage.transfers_completed", r.data_plane.transfers_completed);
  o.count("storage.fetches", r.data_plane.fetches);
  o.count("sim.faults.crashes", r.recovery.crashes_executed);
  o.count("sim.faults.undone_events", r.recovery.undone_events);

  o.num("sim.run.unattributed_s", run_span_s - prof_attributed_s(prof, sharded));
  return o;
}

// ---------------------------------------------------------------------------
// Consistency verification through core/recovery.hpp, with the sampling of
// ExperimentOptions::verify_consistency (newest-first TP anchors, evenly
// spaced indices otherwise; at most `max_lines` lines per protocol). The
// benchmark makes these calls itself so that traced runs can span them.

struct VerifyTally {
  u64 lines_checked = 0;
  u64 orphans_found = 0;
};

VerifyTally verify_lines(sim::Experiment& exp, SpanLog& spans, usize max_lines = 64) {
  SpanLog::Scope verify(spans, "verify");
  VerifyTally t;
  const core::MessageLog& messages = exp.harness().message_log();
  const std::vector<u64> current = exp.harness().current_positions();
  auto check = [&](const core::GlobalCheckpoint& cut) {
    SpanLog::Scope orphans(spans, "verify.find_orphans");
    ++t.lines_checked;
    t.orphans_found += core::find_orphans(messages, cut).size();
  };
  for (usize slot = 0; slot < exp.harness().protocol_count(); ++slot) {
    const core::CheckpointLog& log = exp.log(slot);
    const core::ProtocolKind kind = exp.kind(slot);
    if (kind == core::ProtocolKind::kTp) {
      usize budget = max_lines;
      for (net::HostId h = 0; h < log.n_hosts() && budget > 0; ++h) {
        const auto& records = log.of(h);
        for (auto it = records.rbegin(); it != records.rend() && budget > 0; ++it, --budget) {
          core::GlobalCheckpoint cut;
          {
            SpanLog::Scope line(spans, "verify.recovery_line");
            cut = core::tp_recovery_line(log, *it, current);
          }
          check(cut);
        }
      }
      continue;
    }
    // Basic-only and uncoordinated checkpointing build no recovery line.
    if (kind == core::ProtocolKind::kBasicOnly || kind == core::ProtocolKind::kUncoordinated) {
      continue;
    }
    const u64 max_index = log.max_sn();
    const auto rule = core::recovery_rule_for(kind);
    const u64 step = std::max<u64>(1, (max_index + 1) / max_lines);
    for (u64 m = 0; m <= max_index; m += step) {
      core::GlobalCheckpoint cut;
      {
        SpanLog::Scope line(spans, "verify.recovery_line");
        cut = core::index_recovery_line(log, m, rule, current);
      }
      check(cut);
    }
  }
  return t;
}

// ---------------------------------------------------------------------------
// Workloads. Each repetition returns its record; `spans` is disabled and
// `prof` null on timed repetitions.

struct Rep {
  double wall_s = 0.0;
  double setup_s = 0.0;
  u64 events = 0;
  u64 units = 1;  ///< Runs this repetition attempted (paper_sweep: replications).
  Obj outputs;
  Obj checks;
  Obj layers;
  std::string aux_spans = "[]";  ///< Spans of the run's untimed companions.
  std::string twin_outputs;      ///< Outputs of the unobserved twin, when one ran.
};

// -- golden Fig. 1 point ----------------------------------------------------

sim::SimConfig fig1_golden_config() {
  sim::SimConfig cfg;
  cfg.sim_length = 50'000.0;
  cfg.t_switch = 1'000.0;
  cfg.p_switch = 1.0;
  cfg.heterogeneity = 0.0;
  cfg.seed = 42;
  return cfg;
}

std::string preflight_record() {
  sim::ExperimentOptions opts;
  opts.collect_trace_hash = true;
  const sim::RunResult r = sim::run_experiment(fig1_golden_config(), opts);
  Obj rec;
  rec.str("record", "preflight").obj("outputs", run_outputs(r)).obj("checks", run_checks(r, 0));
  return rec.text();
}

// -- paper_sweep --------------------------------------------------------------

constexpr u32 kSweepThreads = 2;

sim::FigureSpec paper_sweep_spec(u64 seed) {
  sim::FigureSpec spec;
  spec.title = "Fig. 2 — N_tot vs T_switch, homogeneous (H=0%), P_s=0.4, P_switch=0.8";
  spec.base.sim_length = 1'000'000.0;
  spec.base.p_send = 0.4;
  spec.base.p_switch = 0.8;
  spec.base.heterogeneity = 0.0;
  // A floor of 6 replications per point: at the library's floor of 3 the
  // replication count varied 25..31 with the seed, so the seed alone moved
  // the time to the figure by +-10%; at 6 nearly every point meets the 4%
  // target at the floor (42 replications on 27 of 30 seeds, 44 on the rest).
  spec.min_seeds = 6;
  spec.seed_base = seed;
  spec.validate();
  return spec;
}

sim::ExperimentOptions paper_sweep_options() {
  sim::ExperimentOptions opts;
  opts.params.tp_encoding = core::TpEncoding::kDense;
  return opts;
}

sim::SimConfig sweep_point_config(const sim::FigureSpec& spec, usize point, u32 replication) {
  sim::SimConfig cfg = spec.base;
  cfg.t_switch = spec.t_switch_values.at(point);
  cfg.seed = spec.replication_seed(point, replication);
  return cfg;
}

Obj figure_outputs(const sim::FigureResult& fig) {
  std::string cells = "[";
  for (usize p = 0; p < fig.cells.size(); ++p) {
    cells += p > 0 ? ",[" : "[";
    for (usize k = 0; k < fig.cells[p].size(); ++k) {
      const des::Tally& t = fig.cells[p][k];
      if (k > 0) cells += ",";
      cells += "[" + std::to_string(t.count()) + "," + json_number(t.mean()) + "," +
               json_number(t.min()) + "," + json_number(t.max()) + "]";
    }
    cells += "]";
  }
  cells += "]";
  std::string seeds = "[";
  for (usize p = 0; p < fig.seeds_used.size(); ++p) {
    seeds += (p > 0 ? "," : "") + std::to_string(fig.seeds_used[p]);
  }
  seeds += "]";
  Obj out;
  out.raw("cells", cells).raw("seeds_used", seeds);
  out.count("events_executed", fig.ledger.events_executed);
  out.count("replications_run", fig.ledger.replications_run);
  out.count("replications_used", fig.ledger.replications_used);
  return out;
}

/// Times `pass` at once and then every `period`, on a thread of its own,
/// for as long as it lives. A sub-millisecond cost timed at one instant
/// reads whatever the host was doing then; sampled across a whole sweep it
/// reads the sweep's typical cost.
class PassSampler {
 public:
  PassSampler(std::function<void()> pass, std::chrono::milliseconds period)
      : thread_([this, pass = std::move(pass), period] {
          std::unique_lock<std::mutex> lock(mu_);
          do {
            lock.unlock();
            const u64 s0 = now_ns();
            std::exception_ptr error;
            try {
              pass();
            } catch (...) {
              error = std::current_exception();
            }
            const u64 s1 = now_ns();
            lock.lock();
            if (error) {
              error_ = error;
              return;
            }
            samples_.push_back({s0, s1});
          } while (!cv_.wait_for(lock, period, [this] { return stop_; }));
        }) {}
  PassSampler(const PassSampler&) = delete;
  PassSampler& operator=(const PassSampler&) = delete;
  ~PassSampler() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }

  /// Median duration of the passes that ran within [t0, t1], in seconds;
  /// rethrows a pass's exception.
  double median_between(u64 t0, u64 t1) {
    std::lock_guard<std::mutex> lock(mu_);
    if (error_) std::rethrow_exception(error_);
    std::vector<u64> ns;
    for (const auto& [start, end] : samples_) {
      if (start >= t0 && end <= t1) ns.push_back(end - start);
    }
    samples_.erase(std::remove_if(samples_.begin(), samples_.end(),
                                  [t1](const auto& s) { return s.second <= t1; }),
                   samples_.end());
    if (ns.empty()) throw std::runtime_error("no set-up pass completed during the sweep");
    std::nth_element(ns.begin(), ns.begin() + ns.size() / 2, ns.end());
    return static_cast<double>(ns[ns.size() / 2]) * 1e-9;
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::vector<std::pair<u64, u64>> samples_;  ///< [start, end] of each pass, ns.
  std::exception_ptr error_;
  std::thread thread_;  ///< Last, so that it starts after the members it uses.
};

/// Samples paper_sweep's set-up pass from the first sweep to the end of the
/// run. One thread for the whole run keeps one malloc arena: a thread per
/// sweep handed its arena to the next sweep's workers and raised the peak
/// resident set by up to 30%.
std::unique_ptr<PassSampler> g_sweep_setup;

Rep paper_sweep_rep(u64 seed, SpanLog& spans, obs::Profiler* prof) {
  Rep rep;
  const sim::ExperimentOptions opts = paper_sweep_options();
  const u64 t0 = now_ns();
  sim::FigureSpec spec;
  {
    SpanLog::Scope span(spans, "setup");
    spec = paper_sweep_spec(seed);
  }
  // run_figure builds its replications internally, so set-up is the spec
  // build plus the Experiment constructions of the floor replications.
  // A pass takes a fraction of a millisecond; it is sampled every 50 ms
  // while the sweep runs (one idle core of four) and the median reported.
  if (!g_sweep_setup) {
    g_sweep_setup = std::make_unique<PassSampler>(
        [seed, opts] {
          const sim::FigureSpec pass_spec = paper_sweep_spec(seed);
          for (usize p = 0; p < pass_spec.t_switch_values.size(); ++p) {
            for (u32 r = 0; r < pass_spec.min_seeds; ++r) {
              sim::Experiment exp(sweep_point_config(pass_spec, p, r), opts);
            }
          }
        },
        std::chrono::milliseconds(50));
  }
  const u64 f0 = now_ns();
  sim::FigureResult fig;
  {
    SpanLog::Scope span(spans, "run_figure");
    fig = sim::run_figure(spec, opts, kSweepThreads);
  }
  rep.setup_s = g_sweep_setup->median_between(f0, now_ns());
  std::ostringstream report;
  {
    SpanLog::Scope span(spans, "report");
    sim::write_json(report, fig);
  }
  rep.wall_s = seconds_since(t0);
  rep.events = fig.ledger.events_executed;
  rep.units = fig.ledger.replications_run;
  rep.outputs = figure_outputs(fig);
  Obj checks;
  checks.flag("all_cells_filled", [&] {
    for (usize p = 0; p < fig.cells.size(); ++p) {
      for (const auto& t : fig.cells[p]) {
        if (t.count() != fig.seeds_used[p]) return false;
      }
    }
    return true;
  }());
  rep.checks = checks;
  if (prof == nullptr) return rep;

  // Sweep breakdown: run_figure strips the profiler from its replications,
  // so profile one replication of the point that cost the most wall clock
  // as a standalone Experiment.
  const auto& point_wall = fig.ledger.point_wall_seconds;
  const usize slowest = static_cast<usize>(
      std::max_element(point_wall.begin(), point_wall.end()) - point_wall.begin());
  SpanLog aux(true);
  sim::ExperimentOptions popts = opts;
  popts.collect_trace_hash = true;
  popts.profiler = prof;
  double run_s = 0.0;
  {
    std::unique_ptr<sim::Experiment> exp;
    {
      SpanLog::Scope span(aux, "breakdown.setup");
      exp = std::make_unique<sim::Experiment>(sweep_point_config(spec, slowest, 0), popts);
    }
    {
      SpanLog::Scope span(aux, "breakdown.run");
      const u64 r0 = now_ns();
      exp->run();
      run_s = seconds_since(r0);
    }
    rep.layers = layer_numbers(exp->result(), *prof, run_s);
  }
  rep.aux_spans = spans_json(aux);
  double busy = 0.0;
  for (const double w : point_wall) busy += w;
  const double figure_s = spans.seconds("run_figure");
  rep.layers.count("sim.sweep.replications_run", fig.ledger.replications_run);
  rep.layers.num("sim.sweep.useful_ratio",
                 static_cast<double>(fig.ledger.replications_used) /
                     static_cast<double>(std::max<u64>(1, fig.ledger.replications_run)));
  rep.layers.num("sim.sweep.point_wall_max_s", point_wall[slowest]);
  rep.layers.num("sim.sweep.thread_busy_share",
                 figure_s > 0 ? busy / (kSweepThreads * figure_s) : 0.0);
  return rep;
}

std::string paper_sweep_reference(u64 seed) {
  // One verified replication of the first point: invariants, zero
  // orphans, and N_tot inside the sweep cell's observed range.
  const sim::FigureSpec spec = paper_sweep_spec(seed);
  sim::ExperimentOptions opts = paper_sweep_options();
  opts.collect_trace_hash = true;
  opts.verify_consistency = true;
  const sim::RunResult r = sim::run_experiment(sweep_point_config(spec, 0, 0), opts);
  u64 orphans = 0;
  for (const auto& p : r.protocols) orphans += p.orphans_found;
  Obj rec;
  rec.str("record", "reference").str("of", "replication 0 of point 0");
  rec.obj("outputs", run_outputs(r)).obj("checks", run_checks(r, orphans));
  return rec.text();
}

// -- city_sharded -------------------------------------------------------------

constexpr u32 kCityShards = 2;

sim::SimConfig city_config(u64 seed) {
  sim::SimConfig cfg;
  cfg.network.n_hosts = 100'000;
  cfg.network.n_mss = 512;  // fig_scale's cell rule: clamp(n / 20, 5, 512)
  cfg.sim_length = 50.0;
  cfg.t_switch = 1'000.0;
  cfg.p_switch = 1.0;
  cfg.heterogeneity = 0.0;
  cfg.seed = seed;
  return cfg;
}

sim::ExperimentOptions city_options(u32 shards) {
  sim::ExperimentOptions opts;
  opts.shards = shards;
  opts.collect_trace_hash = true;
  return opts;
}

Rep city_rep(u64 seed, SpanLog& spans, obs::Profiler* prof) {
  Rep rep;
  sim::ExperimentOptions opts = city_options(kCityShards);
  opts.profiler = prof;
  const u64 t0 = now_ns();
  std::unique_ptr<sim::Experiment> exp;
  {
    SpanLog::Scope span(spans, "setup");
    exp = std::make_unique<sim::Experiment>(city_config(seed), opts);
  }
  rep.setup_s = seconds_since(t0);
  {
    SpanLog::Scope span(spans, "run");
    exp->run();
  }
  std::ostringstream report;
  {
    SpanLog::Scope span(spans, "report");
    sim::write_json(report, exp->result());
  }
  rep.wall_s = seconds_since(t0);
  const sim::RunResult& r = exp->result();
  rep.events = r.events_executed;
  rep.outputs = run_outputs(r);
  rep.outputs.count("shards", r.shards);
  rep.checks = run_checks(r, 0);
  if (prof != nullptr) rep.layers = layer_numbers(r, *prof, spans.seconds("run"));
  return rep;
}

std::string city_reference(u64 seed) {
  const sim::RunResult r = sim::run_experiment(city_config(seed), city_options(1));
  Obj rec;
  rec.str("record", "reference").str("of", "shards=1");
  rec.obj("outputs", run_outputs(r)).obj("checks", run_checks(r, 0));
  return rec.text();
}

// -- observed_recovery --------------------------------------------------------

sim::SimConfig observed_config(u64 seed) {
  sim::SimConfig cfg;  // Fig. 2 network: 10 MHs, 5 MSSs
  cfg.sim_length = 50'000.0;
  cfg.t_switch = 1'000.0;
  cfg.p_send = 0.4;
  cfg.p_switch = 0.8;
  cfg.heterogeneity = 0.0;
  cfg.seed = seed;
  cfg.faults.mode = sim::CrashMode::kMhCrash;
  cfg.faults.first_crash_at = 10'000.0;
  cfg.faults.crash_interval = 10'000.0;
  cfg.faults.max_crashes = 1'000;
  return cfg;
}

sim::ExperimentOptions observed_options(obs::RunObserver* observer, obs::Profiler* prof) {
  sim::ExperimentOptions opts;
  opts.data_plane.enabled = true;  // contention storage, pre-copy migration
  opts.collect_trace_hash = true;
  opts.observer = observer;
  opts.profiler = prof;
  return opts;
}

/// One full observed_recovery run; with `observed` false it is the
/// unobserved twin (no observer, no export). The run's objects stay alive
/// so that the wall clock stops before teardown and before the benchmark
/// fingerprints the exports.
struct ObservedRun {
  std::unique_ptr<obs::RunObserver> observer;
  std::unique_ptr<sim::Experiment> exp;
  std::ostringstream jsonl, chrome;
  VerifyTally verify;
  double setup_s = 0.0;
  double wall_s = 0.0;
};

ObservedRun observed_run(u64 seed, SpanLog& spans, obs::Profiler* prof, bool observed) {
  ObservedRun out;
  const u64 t0 = now_ns();
  {
    SpanLog::Scope span(spans, "setup");
    if (observed) out.observer = std::make_unique<obs::RunObserver>();
    out.exp = std::make_unique<sim::Experiment>(observed_config(seed),
                                                observed_options(out.observer.get(), prof));
  }
  out.setup_s = seconds_since(t0);
  {
    SpanLog::Scope span(spans, "run");
    out.exp->run();
  }
  out.verify = verify_lines(*out.exp, spans);
  if (observed) {
    {
      SpanLog::Scope span(spans, "export.jsonl");
      obs::write_metrics_jsonl(out.jsonl, *out.observer);
    }
    {
      SpanLog::Scope span(spans, "export.chrome");
      obs::write_chrome_trace(out.chrome, *out.observer);
    }
  }
  std::ostringstream report;
  {
    SpanLog::Scope span(spans, "report");
    sim::write_json(report, out.exp->result());
  }
  out.wall_s = seconds_since(t0);
  return out;
}

Obj observed_outputs(const ObservedRun& run) {
  const sim::RunResult& r = run.exp->result();
  Obj out = run_outputs(r);
  out.count("crashes", r.recovery.crashes_executed);
  out.count("undone_events", r.recovery.undone_events);
  out.count("upload_bytes", r.data_plane.upload_bytes);
  out.count("transfers_completed", r.data_plane.transfers_completed);
  out.count("fetches", r.data_plane.fetches);
  out.count("lines_checked", run.verify.lines_checked);
  return out;
}

Rep observed_rep(u64 seed, SpanLog& spans, obs::Profiler* prof) {
  Rep rep;
  const ObservedRun run = observed_run(seed, spans, prof, true);
  const sim::RunResult& r = run.exp->result();
  const std::string jsonl = run.jsonl.str();
  const std::string chrome = run.chrome.str();
  rep.wall_s = run.wall_s;
  rep.setup_s = run.setup_s;
  rep.events = r.events_executed;
  rep.outputs = observed_outputs(run);
  rep.outputs.count("timeline_events", run.observer->timeline().size());
  rep.outputs.count("jsonl_bytes", jsonl.size()).str("jsonl_digest", hex64(fnv1a(jsonl)));
  rep.outputs.count("chrome_bytes", chrome.size()).str("chrome_digest", hex64(fnv1a(chrome)));
  rep.checks = run_checks(r, run.verify.orphans_found);
  if (prof == nullptr) return rep;

  // Unobserved twin, profiled the same way: the observer's own cost is
  // the difference between the two Experiment::run spans.
  SpanLog aux(true);
  obs::Profiler twin_prof;
  const ObservedRun twin = observed_run(seed, aux, &twin_prof, false);
  rep.aux_spans = spans_json(aux);
  rep.twin_outputs = observed_outputs(twin).text();
  const double run_s = spans.seconds("run");
  const double twin_run_s = aux.seconds("run");
  rep.layers = layer_numbers(r, *prof, run_s);
  rep.layers.num("obs.self_s", run_s - twin_run_s);
  rep.layers.num("obs.overhead_x", twin_run_s > 0 ? run_s / twin_run_s : 0.0);
  rep.layers.count("obs.export_bytes", jsonl.size() + chrome.size());
  rep.layers.count("obs.timeline_events", run.observer->timeline().size());
  rep.layers.count("core.lines_checked", run.verify.lines_checked);
  return rep;
}

std::string observed_reference(u64 seed) {
  SpanLog off(false);
  const ObservedRun twin = observed_run(seed, off, nullptr, false);
  Obj rec;
  rec.str("record", "reference").str("of", "unobserved");
  rec.obj("outputs", observed_outputs(twin));
  rec.obj("checks", run_checks(twin.exp->result(), twin.verify.orphans_found));
  return rec.text();
}

// ---------------------------------------------------------------------------

struct Workload {
  const char* name;
  Rep (*rep)(u64 seed, SpanLog& spans, obs::Profiler* prof);
  std::string (*reference)(u64 seed);
};

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all{
      {"paper_sweep", paper_sweep_rep, paper_sweep_reference},
      {"city_sharded", city_rep, city_reference},
      {"observed_recovery", observed_rep, observed_reference},
  };
  return all;
}

std::string rep_record(const Workload& w, u64 seed, bool traced) {
  SpanLog spans(traced);
  std::unique_ptr<obs::Profiler> prof = traced ? std::make_unique<obs::Profiler>() : nullptr;
  Obj rec;
  rec.str("record", "rep").flag("traced", traced);
  try {
    const Rep rep = w.rep(seed, spans, prof.get());
    rec.num("wall_s", rep.wall_s).num("setup_s", rep.setup_s).count("events", rep.events);
    rec.count("units", rep.units).num("peak_rss_mb", peak_rss_mb());
    rec.obj("outputs", rep.outputs).obj("checks", rep.checks);
    if (traced) {
      rec.obj("layers", rep.layers).raw("spans", spans_json(spans)).raw("aux_spans", rep.aux_spans);
      if (!rep.twin_outputs.empty()) rec.raw("twin_outputs", rep.twin_outputs);
    }
  } catch (const std::exception& e) {
    rec.str("error", e.what());
  }
  return rec.text();
}

int usage(const char* msg) {
  std::fprintf(stderr,
               "error: %s\nusage: mobibench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1>\n",
               msg);
  return 2;
}

int run(int argc, char** argv) {
  std::string workload;
  u64 seed = 0;
  double seconds = -1.0;
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0' || value.empty() || value[0] == '-') return usage("bad --seed");
    } else if (flag == "--seconds") {
      seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(seconds > 0)) return usage("bad --seconds");
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return usage("bad --trace");
      trace = value == "1";
    } else {
      return usage(("unknown flag " + flag).c_str());
    }
  }
  if (argc % 2 == 0 || seconds < 0 || trace < 0) return usage("missing flags");
  const Workload* w = nullptr;
  for (const Workload& cand : workloads()) {
    if (workload == cand.name) w = &cand;
  }
  if (w == nullptr) return usage(("unknown workload " + workload).c_str());

  std::printf("%s\n", preflight_record().c_str());
  std::string reference;
  try {
    reference = w->reference(seed);
  } catch (const std::exception& e) {
    reference = Obj().str("record", "reference").str("error", e.what()).text();
  }
  std::printf("%s\n", reference.c_str());
  std::fflush(stdout);
  // The run ends within half an iteration of the deadline either way, so
  // a workload with long repetitions does not overrun by a whole one.
  const u64 deadline = now_ns() + static_cast<u64>(seconds * 1e9);
  u64 iteration_ns = 0;
  do {
    const u64 i0 = now_ns();
    std::printf("%s\n", rep_record(*w, seed, false).c_str());
    if (trace == 1) std::printf("%s\n", rep_record(*w, seed, true).c_str());
    std::fflush(stdout);
    iteration_ns = now_ns() - i0;
  } while (now_ns() + iteration_ns / 2 < deadline);
  g_sweep_setup.reset();
  return 0;
}

}  // namespace
}  // namespace mobibench

int main(int argc, char** argv) {
  try {
    return mobibench::run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
