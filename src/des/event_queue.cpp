#include "des/event_queue.hpp"

#include <cassert>
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

std::unique_ptr<EventQueue> make_event_queue(QueueKind kind) {
  switch (kind) {
    case QueueKind::kBinaryHeap:
      return std::make_unique<BinaryHeapQueue>();
    case QueueKind::kSortedList:
      return std::make_unique<SortedListQueue>();
  }
  return std::make_unique<BinaryHeapQueue>();
}

const char* queue_kind_name(QueueKind kind) noexcept {
  switch (kind) {
    case QueueKind::kBinaryHeap:
      return "binary-heap";
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
