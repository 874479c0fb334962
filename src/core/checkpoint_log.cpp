#include "core/checkpoint_log.hpp"

#include <algorithm>
#include <cassert>
#include <limits>
#include <stdexcept>

#include "des/sharded.hpp"

namespace mobichk::core {

const CheckpointRecord& CheckpointLog::append(CheckpointRecord rec,
                                              std::span<const DepEntry> deps, u32 rank) {
  auto& vec = per_host_.at(rec.host);
  rec.ordinal = vec.size();
  assert((deps.empty() || rank > 0) && "dependency entries need a rank");
  rec.dep_rank = rank;
  rec.dep_len = static_cast<u32>(deps.size());
  rec.dep_off = 0;
  if (!deps.empty()) {
    if (deps_.empty()) {
      // Creating the arenas touches every host's slot; that is only safe
      // while no shard window runs (TP takes its initial checkpoints at
      // start-up, sequentially).
      if (des::current_shard() != nullptr) {
        throw std::logic_error("CheckpointLog: first dependency record inside a shard window");
      }
      deps_.resize(per_host_.size());
    }
    std::vector<u32>& arena = deps_[rec.host];
    const bool dense = deps.size() == rank;
    const usize need = arena.size() + deps.size() * (dense ? 2 : 3);
    if (need > std::numeric_limits<u32>::max()) {
      throw std::length_error("CheckpointLog: dependency arena exceeds 2^32 entries");
    }
    // One geometric growth step per record at most, not one per value.
    if (need > arena.capacity()) arena.reserve(std::max(need, 2 * arena.capacity()));
    rec.dep_off = static_cast<u32>(arena.size());
    for (usize i = 0; i < deps.size(); ++i) {
      const DepEntry& d = deps[i];
      assert(d.host < rank && (i == 0 || deps[i - 1].host < d.host) &&
             "dependency entries must be sorted by host and below the rank");
      if (!dense) arena.push_back(d.host);
      arena.push_back(d.ckpt);
      arena.push_back(d.loc);
    }
  }
  assert((vec.empty() || vec.back().sn <= rec.sn) && "per-host sn must be non-decreasing");
  assert((vec.empty() || vec.back().event_pos <= rec.event_pos) && "event_pos must be non-decreasing");
  ++total_;
  switch (rec.kind) {
    case CheckpointKind::kInitial: ++initial_; break;
    case CheckpointKind::kBasic: ++basic_; break;
    case CheckpointKind::kForced: ++forced_; break;
  }
  vec.push_back(rec);
  return vec.back();
}

const u32* CheckpointLog::dep_entry(const CheckpointRecord& rec, u32 j) const noexcept {
  if (rec.dep_len == 0 || rec.host >= deps_.size()) return nullptr;
  const u32* base = deps_[rec.host].data() + rec.dep_off;
  if (rec.dep_len == rec.dep_rank) {
    // Dense: entry j is the j-th (ckpt, loc) pair.
    return j < rec.dep_len ? base + 2 * static_cast<usize>(j) : nullptr;
  }
  // Sparse: (host, ckpt, loc) triples sorted by host.
  usize lo = 0, hi = rec.dep_len;
  while (lo < hi) {
    const usize mid = (lo + hi) / 2;
    if (base[3 * mid] < j) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo < rec.dep_len && base[3 * lo] == j ? base + 3 * lo + 1 : nullptr;
}

const CheckpointRecord* CheckpointLog::by_ordinal(net::HostId host, u64 ordinal) const {
  const auto& vec = per_host_.at(host);
  return ordinal < vec.size() ? &vec[ordinal] : nullptr;
}

const CheckpointRecord* CheckpointLog::first_with_sn_at_least(net::HostId host, u64 sn) const {
  const auto& vec = per_host_.at(host);
  const auto it = std::lower_bound(vec.begin(), vec.end(), sn,
                                   [](const CheckpointRecord& r, u64 s) { return r.sn < s; });
  return it == vec.end() ? nullptr : &*it;
}

const CheckpointRecord* CheckpointLog::last_with_sn(net::HostId host, u64 sn) const {
  const auto& vec = per_host_.at(host);
  const auto it = std::upper_bound(vec.begin(), vec.end(), sn,
                                   [](u64 s, const CheckpointRecord& r) { return s < r.sn; });
  if (it == vec.begin()) return nullptr;
  const CheckpointRecord* prev = &*(it - 1);
  return prev->sn == sn ? prev : nullptr;
}

const CheckpointRecord* CheckpointLog::last_at_or_before_pos(net::HostId host, u64 pos) const {
  const auto& vec = per_host_.at(host);
  const auto it =
      std::upper_bound(vec.begin(), vec.end(), pos,
                       [](u64 p, const CheckpointRecord& r) { return p < r.event_pos; });
  return it == vec.begin() ? nullptr : &*(it - 1);
}

void CheckpointLog::promote_sn(net::HostId host, u64 new_sn) {
  auto& vec = per_host_.at(host);
  assert(!vec.empty() && "promote_sn on host without checkpoints");
  assert(vec.back().sn <= new_sn && "promote_sn must not decrease sn");
  vec.back().sn = new_sn;
}

u64 CheckpointLog::max_sn(net::HostId host) const {
  const auto& vec = per_host_.at(host);
  return vec.empty() ? 0 : vec.back().sn;
}

u64 CheckpointLog::max_sn() const {
  u64 m = 0;
  for (net::HostId h = 0; h < n_hosts(); ++h) m = std::max(m, max_sn(h));
  return m;
}

}  // namespace mobichk::core
