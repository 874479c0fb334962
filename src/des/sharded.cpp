#include "des/sharded.hpp"

#include <algorithm>
#include <cassert>
#include <chrono>

namespace mobichk::des {

namespace {

thread_local ShardContext* tls_shard = nullptr;

/// Polite spin: pause the pipeline, and back off to the scheduler when
/// the wait drags on (oversubscribed machines, TSan builds).
struct SpinWait {
  u32 spins = 0;
  void relax() noexcept {
    if (++spins % 4096 == 0) {
      std::this_thread::yield();
      return;
    }
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#elif defined(__aarch64__)
    asm volatile("yield");
#endif
  }
};

}  // namespace

ShardContext* current_shard() noexcept { return tls_shard; }
void set_current_shard(ShardContext* ctx) noexcept { tls_shard = ctx; }

// ---------------------------------------------------------------------------
// ShardTraceMux
// ---------------------------------------------------------------------------

ShardTraceMux::ShardTraceMux(u32 n_shards, TraceSink* downstream)
    : downstream_(downstream), buffers_(n_shards) {}

void ShardTraceMux::flush() {
  // K-way merge over the (already time-ordered) shard buffers; the shard
  // index breaks exact-time ties, matching the documented cross-shard
  // tie-break. Shard counts are single digits, so a linear head scan per
  // record beats a heap.
  const usize n = buffers_.size();
  std::vector<usize> head(n, 0);
  for (;;) {
    usize best = n;
    for (usize s = 0; s < n; ++s) {
      if (head[s] >= buffers_[s].recs.size()) continue;
      if (best == n || buffers_[s].recs[head[s]].time < buffers_[best].recs[head[best]].time) {
        best = s;
      }
    }
    if (best == n) break;
    downstream_->record(buffers_[best].recs[head[best]]);
    ++head[best];
  }
  for (auto& b : buffers_) b.recs.clear();
}

// ---------------------------------------------------------------------------
// ShardedSimulator
// ---------------------------------------------------------------------------

ShardedSimulator::ShardedSimulator(Simulator& main, u32 n_shards, QueueKind queue_kind,
                                   Time lookahead)
    : main_(main), lookahead_(lookahead) {
  assert(n_shards >= 1);
  assert(lookahead > 0.0 && "conservative sync needs a positive lookahead");
  shards_.reserve(n_shards);
  for (u32 s = 0; s < n_shards; ++s) shards_.push_back(std::make_unique<Simulator>(queue_kind));
  main_.set_sharded(this);
}

ShardedSimulator::~ShardedSimulator() {
  if (workers_started_) {
    quit_.store(true, std::memory_order_relaxed);
    go_gen_.fetch_add(1, std::memory_order_release);
    for (auto& w : workers_) w.join();
  }
  main_.set_sharded(nullptr);
}

void ShardedSimulator::start_workers() {
  if (workers_started_) return;
  workers_started_ = true;
  // Shard 0 runs inline on the coordinator thread; shards 1..N-1 get
  // dedicated workers. At N shards the run occupies exactly N threads.
  workers_.reserve(shards_.size() > 0 ? shards_.size() - 1 : 0);
  for (u32 s = 1; s < shards_.size(); ++s) {
    workers_.emplace_back([this, s] { worker_loop(s); });
  }
}

void ShardedSimulator::set_profiler(obs::Profiler* prof) {
  prof_ = prof;
  if (prof != nullptr) {
    prof->ensure_lanes(1 + shards_.size());
    main_.set_prof(&prof->lane_ref(0));
    for (usize s = 0; s < shards_.size(); ++s) shards_[s]->set_prof(&prof->lane_ref(1 + s));
  } else {
    main_.set_prof(nullptr);
    for (auto& sh : shards_) sh->set_prof(nullptr);
  }
}

void ShardedSimulator::worker_loop(u32 shard) {
  // prof_ is stable for the workers' whole life: set_profiler must run
  // before run_until, which is what starts these threads.
  obs::ProfLane* lane = prof_ != nullptr ? &prof_->lane_ref(1 + shard) : nullptr;
  u64 seen = 0;
  for (;;) {
    SpinWait spin;
    u64 gen;
    const u64 wait_start = lane != nullptr ? obs::prof_now_ns() : 0;
    while ((gen = go_gen_.load(std::memory_order_acquire)) == seen) spin.relax();
    seen = gen;
    if (quit_.load(std::memory_order_relaxed)) break;
    if (lane != nullptr) {
      const u64 wait_end = obs::prof_now_ns();
      lane->barrier.add(wait_end - wait_start);
      lane->record_slice(obs::ProfPhase::kBarrier, wait_start, wait_end - wait_start);
    }
    ShardContext ctx{shard, shards_[shard].get()};
    set_current_shard(&ctx);
    if (lane != nullptr) {
      obs::set_prof_tls_lane(lane);
      const u64 t0 = obs::prof_now_ns();
      shards_[shard]->run_window(window_h_, window_cap_);
      const u64 t1 = obs::prof_now_ns();
      lane->window.add(t1 - t0);
      lane->record_slice(obs::ProfPhase::kWindow, t0, t1 - t0);
      obs::set_prof_tls_lane(nullptr);
    } else {
      shards_[shard]->run_window(window_h_, window_cap_);
    }
    set_current_shard(nullptr);
    done_count_.fetch_add(1, std::memory_order_release);
  }
}

void ShardedSimulator::run_window(Time h_excl, Time cap) {
  window_h_ = h_excl;
  window_cap_ = cap;
  done_count_.store(0, std::memory_order_relaxed);
  go_gen_.fetch_add(1, std::memory_order_release);
  {
    // Shard 0 runs inline on the coordinator thread, so its lane (1 + 0)
    // sees no writes from any other thread during the window.
    ShardContext ctx{0, shards_[0].get()};
    set_current_shard(&ctx);
    if (prof_ != nullptr) {
      obs::ProfLane& lane = prof_->lane_ref(1);
      obs::set_prof_tls_lane(&lane);
      const u64 t0 = obs::prof_now_ns();
      shards_[0]->run_window(h_excl, cap);
      const u64 t1 = obs::prof_now_ns();
      lane.window.add(t1 - t0);
      lane.record_slice(obs::ProfPhase::kWindow, t0, t1 - t0);
      obs::set_prof_tls_lane(nullptr);
    } else {
      shards_[0]->run_window(h_excl, cap);
    }
    set_current_shard(nullptr);
  }
  const u32 others = static_cast<u32>(shards_.size() - 1);
  if (others > 0) {
    const auto wait_start = std::chrono::steady_clock::now();
    const u64 prof_wait_start = prof_ != nullptr ? obs::prof_now_ns() : 0;
    SpinWait spin;
    while (done_count_.load(std::memory_order_acquire) != others) spin.relax();
    barrier_stall_ +=
        std::chrono::duration<f64>(std::chrono::steady_clock::now() - wait_start).count();
    if (prof_ != nullptr) {
      obs::ProfLane& lane = prof_->lane_ref(0);
      const u64 wait_end = obs::prof_now_ns();
      lane.barrier.add(wait_end - prof_wait_start);
      lane.record_slice(obs::ProfPhase::kBarrier, prof_wait_start, wait_end - prof_wait_start);
    }
  }
}

void ShardedSimulator::run_until(Time t_end) {
  start_workers();
  for (;;) {
    const Time m = main_.next_event_time_below();
    Time s = kNoEventBelow;
    for (const auto& sh : shards_) s = std::min(s, sh->next_event_time_below());
    if (m > t_end && s > t_end) break;
    if (m <= s) {
      // The main event is the global minimum (every shard event is >= s).
      // Executing it solo keeps markers / crashes / analysis hooks
      // ordered against all shard work exactly as in the sequential run.
      main_.step_one();
      continue;
    }
    // s < m: nothing on main before the window, and no cross-shard
    // interaction can materialize before s + lookahead.
    const Time h = std::min(s + lookahead_, m);
    ++sync_rounds_;
    if (log_windows_) window_log_.push_back(h);
    run_window(h, t_end);
    if (hooks_ != nullptr) hooks_->on_window_merge(h);
  }
  main_.advance_clock_to(t_end);
  for (const auto& sh : shards_) sh->advance_clock_to(t_end);
}

u64 ShardedSimulator::events_executed() const {
  u64 total = main_.events_executed();
  for (const auto& sh : shards_) total += sh->events_executed();
  return total;
}

SimInvariants ShardedSimulator::invariants() const {
  SimInvariants sum = main_.invariants();
  for (const auto& sh : shards_) {
    const SimInvariants& i = sh->invariants();
    sum.scheduled += i.scheduled;
    sum.executed += i.executed;
    sum.cancels_requested += i.cancels_requested;
    sum.cancels_effective += i.cancels_effective;
    sum.time_regressions += i.time_regressions;
    sum.pop_order_violations += i.pop_order_violations;
    sum.max_pending = std::max(sum.max_pending, i.max_pending);
  }
  return sum;
}

bool ShardedSimulator::invariants_ok() const {
  if (!main_.invariants_ok()) return false;
  for (const auto& sh : shards_) {
    if (!sh->invariants_ok()) return false;
  }
  return true;
}

EventHandle route_schedule_after(Simulator& declared, Time dt, const EventPayload& payload) {
  if (ShardContext* c = current_shard()) return c->sim->schedule_after(dt, payload);
  ShardedSimulator* sharded = declared.sharded();
  if (sharded != nullptr) {
    switch (payload.kind) {
      case EventKind::kWorkloadOp:
      case EventKind::kHandoff:
      case EventKind::kConnectivity:
        // Per-host timers belong to the owner shard; the absolute time is
        // anchored to the coordinator clock (start-up and post-recovery
        // injections both happen coordinator-side).
        return sharded->shard_sim(sharded->shard_of(payload.a))
            .schedule_at(declared.now() + dt, payload);
      default:
        break;
    }
  }
  return declared.schedule_after(dt, payload);
}

}  // namespace mobichk::des
