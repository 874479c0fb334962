#include "des/event_queue.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>
#include <string>

#include "des/sorted_list_queue.hpp"

namespace mobichk::des {

namespace {
/// Cancelled entries tolerated in a structure beyond the live count before
/// a compaction pass reclaims them. Keeps stored entries <= 2*live + slack
/// so cancel-heavy runs cannot grow the queues without bound, while small
/// queues never thrash on compaction.
constexpr usize kDeadSlack = 64;
}  // namespace

// ---------------------------------------------------------------------------
// BinaryHeapQueue
// ---------------------------------------------------------------------------

EventHandle BinaryHeapQueue::push(EventEntry entry) {
  const EventHandle handle = slots_.acquire();
  if (handle.slot >= payloads_.size()) payloads_.resize(handle.slot + 1);
  payloads_[handle.slot] = entry.payload;
  heap_.push_back(Key{entry.time, entry.seq, handle.slot});
  sift_up(heap_.size() - 1);
  ++live_;
  assert(heap_.size() == live_ + dead_);
  return handle;
}

void BinaryHeapQueue::remove_top() {
  heap_.front() = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) sift_down(0);
}

void BinaryHeapQueue::drop_cancelled_top() {
  while (!heap_.empty() && slots_.is_cancelled(heap_.front().slot)) {
    slots_.release(heap_.front().slot);
    --dead_;
    remove_top();
  }
}

EventEntry BinaryHeapQueue::pop() {
  drop_cancelled_top();
  assert(!heap_.empty() && "pop() on empty queue");
  const Key top = heap_.front();
  remove_top();
  slots_.release(top.slot);
  --live_;
  assert(heap_.size() == live_ + dead_);
  return EventEntry{top.time, top.seq, top.slot, payloads_[top.slot]};
}

Time BinaryHeapQueue::peek_time() {
  drop_cancelled_top();
  assert(!heap_.empty() && "peek_time() on empty queue");
  return heap_.front().time;
}

Time BinaryHeapQueue::peek_time_below(Time bound) {
  if (live_ == 0) return kNoEventBelow;
  // Dropping cancelled tops is a pure reclaim: it releases only tombstoned
  // slots, so live handles and the eventual pop order are untouched.
  drop_cancelled_top();
  const Time t = heap_.front().time;
  return t < bound ? t : kNoEventBelow;
}

bool BinaryHeapQueue::cancel(EventHandle handle) {
  // Lazy: mark the slot and skip the entry when it surfaces. Only a
  // still-pending generation may be cancelled; a fired, unknown or
  // double-cancelled handle must neither disturb live_ nor leak a
  // tombstone.
  if (!slots_.cancel(handle)) return false;
  --live_;
  ++dead_;
  if (dead_ > live_ + kDeadSlack) compact();
  return true;
}

void BinaryHeapQueue::compact() {
  // Reclaim every cancelled entry in one pass and rebuild the heap. Pop
  // order is unaffected: the heap property plus the (time, seq) comparator
  // determine it regardless of internal layout.
  ++compactions_;
  std::erase_if(heap_, [this](const Key& k) {
    if (!slots_.is_cancelled(k.slot)) return false;
    slots_.release(k.slot);
    return true;
  });
  dead_ = 0;
  for (usize i = heap_.size() / 2; i-- > 0;) sift_down(i);
  assert(heap_.size() == live_);
}

// Hole-based sifts: the moving key is held aside while the keys it passes
// shift one level, so each step is one 24-byte copy instead of a swap.
void BinaryHeapQueue::sift_up(usize i) {
  const Key key = heap_[i];
  while (i > 0) {
    const usize parent = (i - 1) / 2;
    if (!(key < heap_[parent])) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = key;
}

void BinaryHeapQueue::sift_down(usize i) {
  const usize n = heap_.size();
  const Key key = heap_[i];
  for (;;) {
    usize child = 2 * i + 1;
    if (child >= n) break;
    if (child + 1 < n && heap_[child + 1] < heap_[child]) ++child;
    if (!(heap_[child] < key)) break;
    heap_[i] = heap_[child];
    i = child;
  }
  heap_[i] = key;
}

// ---------------------------------------------------------------------------
// CalendarQueue
// ---------------------------------------------------------------------------

namespace {
constexpr usize kMinBuckets = 2;
constexpr usize kInitialBuckets = 8;
/// Width estimation: up to this many adjacent-gap samples, spread evenly
/// over the sorted pending set. Brown's classic rule samples only the
/// first ~25 events, which mis-tunes when the near future is dense and
/// the tail sparse (or vice versa); an even sample sees the whole
/// distribution at O(1) extra cost per resize.
constexpr usize kWidthSamples = 64;
/// Scan-cost monitor: every kTuneWindow pops, compare buckets scanned to
/// pops; above kScanPerPopLimit the geometry is stale (width far off the
/// current event spacing) and a re-tune is forced.
constexpr u64 kTuneWindow = 1024;
constexpr f64 kScanPerPopLimit = 4.0;
}  // namespace

CalendarQueue::CalendarQueue() { buckets_.resize(kInitialBuckets); }

usize CalendarQueue::bucket_of(Time t) const noexcept {
  const f64 virtual_bucket = std::floor(t / bucket_width_);
  return static_cast<usize>(std::fmod(virtual_bucket, static_cast<f64>(buckets_.size())));
}

void CalendarQueue::insert_sorted(std::vector<EventEntry>& bucket, EventEntry entry) {
  // Buckets are kept sorted in *descending* (time, seq) order so the next
  // event to fire is at the back (O(1) removal).
  const auto pos = std::upper_bound(
      bucket.begin(), bucket.end(), entry,
      [](const EventEntry& a, const EventEntry& b) { return b < a; });
  bucket.insert(pos, std::move(entry));
}

void CalendarQueue::reposition(Time t) noexcept {
  cursor_time_ = t;
  const f64 year_len = bucket_width_ * static_cast<f64>(buckets_.size());
  current_year_start_ = std::floor(t / year_len) * year_len;
  current_bucket_ = bucket_of(t);
}

EventHandle CalendarQueue::push(EventEntry entry) {
  assert(entry.time >= last_popped_ && "calendar queue does not support scheduling in the past");
  // The cursor may sit past this event's year (e.g. after a jump to a far
  // minimum that was then superseded): pull it back so the scan cannot
  // skip the new event.
  if (entry.time < cursor_time_) reposition(entry.time);
  const EventHandle handle = slots_.acquire();
  entry.slot = handle.slot;
  insert_sorted(buckets_[bucket_of(entry.time)], std::move(entry));
  ++live_;
  if (live_ > 2 * buckets_.size()) resize(buckets_.size() * 2);
  return handle;
}

bool CalendarQueue::cancel(EventHandle handle) {
  // Only a still-pending generation may be cancelled: decrementing live_
  // for a fired or unknown handle made empty() report true while real
  // events were still bucketed, silently truncating the simulation.
  if (!slots_.cancel(handle)) return false;
  --live_;
  ++dead_;
  if (dead_ > live_ + kDeadSlack) compact();
  return true;
}

void CalendarQueue::purge_tail(std::vector<EventEntry>& bucket) {
  while (!bucket.empty() && slots_.is_cancelled(bucket.back().slot)) {
    slots_.release(bucket.back().slot);
    --dead_;
    bucket.pop_back();
  }
}

void CalendarQueue::compact() {
  // Erase every cancelled entry in place; buckets stay sorted, so pop
  // order is unaffected.
  ++compactions_;
  for (auto& bucket : buckets_) {
    std::erase_if(bucket, [this](const EventEntry& e) {
      if (!slots_.is_cancelled(e.slot)) return false;
      slots_.release(e.slot);
      return true;
    });
  }
  dead_ = 0;
}

usize CalendarQueue::seek_min() {
  assert(live_ > 0 && "seek_min() on empty queue");
  const usize nb = buckets_.size();
  for (;;) {
    const Time year_len = bucket_width_ * static_cast<f64>(nb);
    // Scan up to one full year starting at the cursor.
    for (usize k = 0; k < nb; ++k) {
      ++scan_steps_;
      const usize raw = current_bucket_ + k;
      const bool wrapped = raw >= nb;
      const usize b = raw % nb;
      auto& bucket = buckets_[b];
      // Purge cancelled entries at the tail (the earliest events).
      purge_tail(bucket);
      const Time year_start = current_year_start_ + (wrapped ? year_len : 0.0);
      const Time bucket_top = year_start + bucket_width_ * static_cast<f64>(b + 1);
      if (!bucket.empty() && bucket.back().time < bucket_top) {
        if (wrapped) current_year_start_ += year_len;
        current_bucket_ = b;
        // Commit the cursor time too: a later push of an earlier event
        // must see a cursor it has to pull back, even when the found
        // minimum was only peeked and not removed.
        cursor_time_ = bucket.back().time;
        return b;
      }
    }
    // Nothing due within a year: jump directly to the global minimum.
    scan_steps_ += nb;
    const EventEntry* min_entry = nullptr;
    for (auto& bucket : buckets_) {
      purge_tail(bucket);
      if (!bucket.empty() && (min_entry == nullptr || bucket.back() < *min_entry)) {
        min_entry = &bucket.back();
      }
    }
    assert(min_entry != nullptr);
    reposition(min_entry->time);
    // Loop re-runs the scan; it will now find the minimum immediately.
  }
}

EventEntry CalendarQueue::pop() {
  assert(live_ > 0 && "pop() on empty queue");
  auto& bucket = buckets_[seek_min()];
  EventEntry out = std::move(bucket.back());
  bucket.pop_back();
  cursor_time_ = out.time;
  last_popped_ = out.time;
  slots_.release(out.slot);
  --live_;
  ++pops_;
  if (live_ < buckets_.size() / 2 && buckets_.size() > kMinBuckets) {
    resize(buckets_.size() / 2);
  } else if (pops_ - pops_at_tune_ >= kTuneWindow) {
    // Scan-cost monitor: when seek_min walked too many buckets per pop
    // over the last window, the width no longer matches the live event
    // spacing — rebuild at the same bucket count with a fresh estimate.
    const u64 window_scans = scan_steps_ - scan_at_tune_;
    if (static_cast<f64>(window_scans) >
        kScanPerPopLimit * static_cast<f64>(pops_ - pops_at_tune_)) {
      ++retunes_;
      resize(buckets_.size());
    }
    pops_at_tune_ = pops_;
    scan_at_tune_ = scan_steps_;
  }
  return out;
}

Time CalendarQueue::peek_time() {
  assert(live_ > 0 && "peek_time() on empty queue");
  // seek_min commits the cursor to the minimum's bucket, which the
  // following pop re-uses; it never removes the entry, so a push of an
  // earlier event in between still pulls the cursor back.
  return buckets_[seek_min()].back().time;
}

Time CalendarQueue::peek_time_below(Time bound) {
  if (live_ == 0) return kNoEventBelow;
  // seek_min only moves the cursor and purges tombstones; the minimum
  // entry stays in place, so this probe cannot perturb pop order or
  // invalidate live handles (push pulls the cursor back when an earlier
  // event arrives later).
  const Time t = buckets_[seek_min()].back().time;
  return t < bound ? t : kNoEventBelow;
}

void CalendarQueue::resize(usize new_bucket_count) {
  // Estimate a bucket width from the spacing of the earliest events.
  std::vector<EventEntry> all;
  all.reserve(live_);
  for (auto& bucket : buckets_) {
    for (auto& e : bucket) {
      if (slots_.is_cancelled(e.slot)) {
        slots_.release(e.slot);
        --dead_;
        continue;
      }
      all.push_back(std::move(e));
    }
    bucket.clear();
  }
  assert(dead_ == 0);
  std::sort(all.begin(), all.end());
  if (all.size() >= 2) {
    // Estimate the typical event spacing from adjacent gaps sampled
    // evenly across the whole pending set, and take their median: robust
    // both to a cluster of simultaneous events (zero gaps) and to a lone
    // far-future outlier (one huge gap), either of which would wreck a
    // mean-of-first-k estimate.
    const usize samples = std::min<usize>(all.size() - 1, kWidthSamples);
    const usize stride = (all.size() - 1) / samples;
    f64 gaps[kWidthSamples];
    for (usize s = 0; s < samples; ++s) {
      const usize i = s * stride;
      gaps[s] = all[i + 1].time - all[i].time;
    }
    std::sort(gaps, gaps + samples);
    f64 gap = gaps[samples / 2];
    if (gap <= 0.0) {
      // Median gap is zero (mostly-simultaneous events): fall back to the
      // mean over the sampled span, then to the last known width.
      const f64 span = all[(samples - 1) * stride + 1].time - all[0].time;
      gap = span > 0.0 ? span / static_cast<f64>(samples) : bucket_width_ / 3.0;
    }
    bucket_width_ = 3.0 * gap;
  }
  buckets_.assign(new_bucket_count, {});
  live_ = 0;
  // Reset the cursor to the earliest pending event (or keep current epoch).
  reposition(all.empty() ? last_popped_ : all.front().time);
  for (auto& e : all) {
    insert_sorted(buckets_[bucket_of(e.time)], std::move(e));
    ++live_;
  }
}

std::unique_ptr<EventQueue> make_event_queue(QueueKind kind) {
  switch (kind) {
    case QueueKind::kBinaryHeap:
      return std::make_unique<BinaryHeapQueue>();
    case QueueKind::kCalendar:
      return std::make_unique<CalendarQueue>();
    case QueueKind::kSortedList:
      return std::make_unique<SortedListQueue>();
  }
  return std::make_unique<BinaryHeapQueue>();
}

const char* queue_kind_name(QueueKind kind) noexcept {
  switch (kind) {
    case QueueKind::kBinaryHeap:
      return "binary-heap";
    case QueueKind::kCalendar:
      return "calendar";
    case QueueKind::kSortedList:
      return "sorted-list";
  }
  return "unknown";
}

QueueKind queue_kind_from_name(std::string_view name) {
  for (const QueueKind kind : kAllQueueKinds) {
    if (name == queue_kind_name(kind)) return kind;
  }
  throw std::invalid_argument("unknown queue kind: " + std::string(name));
}

}  // namespace mobichk::des
