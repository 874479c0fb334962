#include "obs/prof.hpp"

#include <algorithm>

namespace mobichk::obs {

namespace {

thread_local ProfLane* tls_prof_lane = nullptr;

void push_phase(std::vector<MetricSample>& out, const std::string& name, const PhaseAccum& acc) {
  out.push_back(MetricSample{name + ".seconds", acc.seconds()});
  out.push_back(MetricSample{name + ".count", static_cast<f64>(acc.count)});
}

}  // namespace

void set_prof_tls_lane(ProfLane* lane) noexcept { tls_prof_lane = lane; }
ProfLane* prof_tls_lane() noexcept { return tls_prof_lane; }

const char* prof_kind_name(usize kind) noexcept { return des::kEventKindNames[kind]; }

Profiler::Profiler() : t0_ns_(prof_now_ns()) { ensure_lanes(1); }

void Profiler::ensure_lanes(usize n) {
  while (lanes_.size() < n) lanes_.push_back(std::make_unique<ProfLane>());
}

ProfLane& Profiler::lane() noexcept {
  ProfLane* l = tls_prof_lane;
  return l != nullptr ? *l : *lanes_[0];
}

u64 Profiler::dispatch_count(usize kind) const {
  u64 total = 0;
  for (const auto& l : lanes_) total += l->dispatch[kind].count;
  return total;
}

f64 Profiler::dispatch_seconds(usize kind) const {
  u64 ns = 0;
  for (const auto& l : lanes_) ns += l->dispatch[kind].ns;
  return static_cast<f64>(ns) * 1e-9;
}

u64 Profiler::events_total() const {
  u64 total = 0;
  for (const auto& l : lanes_) total += l->events;
  return total;
}

f64 Profiler::imbalance_ratio() const {
  // Shard lanes are 1..n-1; lane 0 is the coordinator. With fewer than
  // two shard lanes (sequential run) imbalance is 1 by definition.
  if (lanes_.size() < 3) return 1.0;
  f64 max_busy = 0.0;
  f64 sum_busy = 0.0;
  for (usize i = 1; i < lanes_.size(); ++i) {
    const f64 busy = lanes_[i]->window.seconds();
    max_busy = std::max(max_busy, busy);
    sum_busy += busy;
  }
  const f64 mean = sum_busy / static_cast<f64>(lanes_.size() - 1);
  return mean > 0.0 ? max_busy / mean : 1.0;
}

std::vector<MetricSample> Profiler::snapshot() const {
  std::vector<MetricSample> out;

  // Lane-summed phase totals first (the "where did the time go" table).
  ProfLane sum;
  for (const auto& l : lanes_) {
    for (usize k = 0; k < ProfLane::kMaxEventKinds; ++k) {
      sum.dispatch[k].ns += l->dispatch[k].ns;
      sum.dispatch[k].count += l->dispatch[k].count;
    }
    auto merge = [](PhaseAccum& into, const PhaseAccum& from) {
      into.ns += from.ns;
      into.count += from.count;
    };
    merge(sum.queue_push, l->queue_push);
    merge(sum.queue_pop, l->queue_pop);
    merge(sum.queue_cancel, l->queue_cancel);
    merge(sum.net_leg, l->net_leg);
    merge(sum.pb_encode, l->pb_encode);
    merge(sum.pb_merge, l->pb_merge);
    for (usize k = 0; k < ProfLane::kMaxProtoSlots; ++k) {
      merge(sum.proto[k], l->proto[k]);
    }
    merge(sum.storage, l->storage);
    merge(sum.window, l->window);
    merge(sum.barrier, l->barrier);
    sum.events += l->events;
    sum.slices_dropped += l->slices_dropped;
  }

  for (usize k = 0; k < ProfLane::kMaxEventKinds; ++k) {
    push_phase(out, std::string("prof.dispatch.") + prof_kind_name(k), sum.dispatch[k]);
  }
  push_phase(out, "prof.queue.push", sum.queue_push);
  push_phase(out, "prof.queue.pop", sum.queue_pop);
  push_phase(out, "prof.queue.cancel", sum.queue_cancel);
  push_phase(out, "prof.net.leg", sum.net_leg);
  push_phase(out, "prof.net.pb_encode", sum.pb_encode);
  push_phase(out, "prof.net.pb_merge", sum.pb_merge);
  for (usize k = 0; k < ProfLane::kMaxProtoSlots; ++k) {
    if (sum.proto[k].count == 0) continue;  // unused slots stay out of the catalog
    const std::string label = k < slot_names_.size() && !slot_names_[k].empty()
                                  ? slot_names_[k]
                                  : "slot" + std::to_string(k);
    push_phase(out, "prof.proto." + label, sum.proto[k]);
  }
  push_phase(out, "prof.storage", sum.storage);
  out.push_back(MetricSample{"prof.events", static_cast<f64>(sum.events)});
  if (sum.slices_dropped > 0) {
    out.push_back(MetricSample{"prof.slices_dropped", static_cast<f64>(sum.slices_dropped)});
  }

  // Per-shard balance gauges (shard lanes only exist in sharded runs).
  if (lanes_.size() > 1) {
    for (usize i = 1; i < lanes_.size(); ++i) {
      const ProfLane& l = *lanes_[i];
      const std::string base = "prof.shard." + std::to_string(i - 1);
      out.push_back(MetricSample{base + ".busy_seconds", l.window.seconds()});
      out.push_back(MetricSample{base + ".barrier_seconds", l.barrier.seconds()});
      out.push_back(MetricSample{base + ".events", static_cast<f64>(l.events)});
    }
    out.push_back(MetricSample{"prof.coordinator.barrier_seconds", lanes_[0]->barrier.seconds()});
    out.push_back(MetricSample{"prof.imbalance_ratio", imbalance_ratio()});
  }
  return out;
}

}  // namespace mobichk::obs
