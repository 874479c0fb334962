// Pending-event set abstractions for the simulation kernel.
//
// Two interchangeable implementations are provided:
//  * BinaryHeapQueue  -- O(log n) push/pop, the production queue;
//  * SortedListQueue  -- an eager, obviously-correct sorted list used as
//                        the reference oracle by the determinism audit.
//
// Both order events by (time, sequence number), so a simulation produces an
// identical trace whichever queue it runs on (verified by tests and by the
// determinism audit, sim/audit.hpp).
//
// Cancellation is handle-based: push() returns an EventHandle carrying a
// slot index and a generation stamp. The slot is released (and its
// generation bumped) the moment the entry physically leaves the structure,
// so a stale handle — already fired, already cancelled, never scheduled —
// fails the generation check in O(1) without any hash-set bookkeeping.
#pragma once

#include <cassert>
#include <limits>
#include <memory>
#include <string_view>
#include <type_traits>
#include <vector>

#include "des/event.hpp"
#include "des/types.hpp"

namespace mobichk::des {

/// Handle to a scheduled event: which slot the queue filed it under and
/// the slot's generation at push time. Cancelling with a stale generation
/// (the event fired, was cancelled, or the slot was since reused) is a
/// strict no-op. A default-constructed handle is invalid (generations
/// start at 1).
struct EventHandle {
  u32 slot = 0;
  u32 gen = 0;

  /// True if this handle ever referred to an event.
  bool valid() const noexcept { return gen != 0; }
};

/// A scheduled event as stored in / returned by a queue; trivially
/// copyable.
struct EventEntry {
  Time time = 0.0;
  u64 seq = 0;  ///< Global scheduling order; breaks time ties deterministically.
  u32 slot = 0; ///< Filled by the queue at push; cancellation bookkeeping.
  EventPayload payload;  ///< Inline typed payload (no per-event allocation).

  friend bool operator<(const EventEntry& a, const EventEntry& b) noexcept {
    if (a.time != b.time) return a.time < b.time;
    return a.seq < b.seq;
  }
};

/// Generation-stamped slot registry shared by the queue implementations.
///
/// One slot per physically stored entry; state transitions are
/// free -> pending (acquire), pending -> cancelled (cancel) and
/// {pending, cancelled} -> free with a generation bump (release, at
/// physical removal). Every operation is O(1) on a flat array.
class SlotTable {
 public:
  /// Claims a slot for a new entry and returns its handle.
  EventHandle acquire() {
    u32 slot;
    if (!free_.empty()) {
      slot = free_.back();
      free_.pop_back();
    } else {
      slot = static_cast<u32>(recs_.size());
      recs_.push_back(Rec{});
    }
    recs_[slot].state = State::kPending;
    return EventHandle{slot, recs_[slot].gen};
  }

  /// pending -> cancelled. False (and no state change) when the handle is
  /// stale: wrong generation, already cancelled, or already released.
  bool cancel(EventHandle h) noexcept {
    if (h.slot >= recs_.size()) return false;
    Rec& rec = recs_[h.slot];
    if (rec.gen != h.gen || rec.state != State::kPending) return false;
    rec.state = State::kCancelled;
    return true;
  }

  /// True when `slot` holds a cancelled (tombstoned) entry.
  bool is_cancelled(u32 slot) const noexcept {
    return recs_[slot].state == State::kCancelled;
  }

  /// Frees `slot` when its entry leaves the structure; the generation bump
  /// invalidates every outstanding handle to it.
  void release(u32 slot) noexcept {
    Rec& rec = recs_[slot];
    assert(rec.state != State::kFree && "releasing a free slot");
    rec.state = State::kFree;
    ++rec.gen;
    free_.push_back(slot);
  }

  /// Slots currently allocated (capacity high-water mark, for tests).
  usize capacity() const noexcept { return recs_.size(); }

 private:
  enum class State : u8 { kFree, kPending, kCancelled };
  struct Rec {
    u32 gen = 1;  ///< 0 is reserved for the invalid handle.
    State state = State::kFree;
  };

  std::vector<Rec> recs_;
  std::vector<u32> free_;
};

/// Sentinel returned by EventQueue::peek_time_below when no live event
/// lies below the probe bound (or the queue is empty).
inline constexpr Time kNoEventBelow = std::numeric_limits<Time>::infinity();

/// Abstract pending-event set ordered by (time, seq).
class EventQueue {
 public:
  virtual ~EventQueue() = default;

  /// Inserts an event (the queue assigns entry.slot). `seq` values must be
  /// unique across the queue's life. Returns the cancellation handle.
  virtual EventHandle push(EventEntry entry) = 0;

  /// Removes and returns the minimum live event. Pre: !empty().
  virtual EventEntry pop() = 0;

  /// Time of the minimum live event without removing it. Pre: !empty().
  virtual Time peek_time() = 0;

  /// Horizon probe for shard windows: the minimum live event time if it is
  /// strictly below `bound`, else kNoEventBelow. Unlike peek_time() this is
  /// safe on an empty queue, and it never pops-and-reinserts — outstanding
  /// EventHandles stay valid and pop order is undisturbed.
  virtual Time peek_time_below(Time bound) = 0;

  /// Cancels the event behind `handle`. Returns true when a live pending
  /// event was removed; a stale handle (already fired, already cancelled,
  /// or never scheduled) is a no-op returning false and must not disturb
  /// the live count.
  virtual bool cancel(EventHandle handle) = 0;

  /// True when no live (non-cancelled) events remain.
  virtual bool empty() const = 0;

  /// Number of live events.
  virtual usize size() const = 0;

  /// Physical entries held (live + cancelled-but-unreclaimed). The
  /// tombstone bound — stored() <= 2 * size() + slack — is part of the
  /// contract and verified by the cancel-churn tests.
  virtual usize stored() const = 0;

  /// Tombstone-compaction passes run so far (0 for queues that never
  /// compact, e.g. the eager sorted list). Pull-based observability:
  /// the kernel probe reads this after the run instead of hooking the
  /// compaction path.
  virtual u64 compactions() const noexcept { return 0; }

  /// Human-readable implementation name (for benches and logs).
  virtual const char* name() const noexcept = 0;
};

/// Which queue implementation a Simulator should use. The values are
/// stable (1 was a since-removed queue): test names print them.
enum class QueueKind : u8 {
  kBinaryHeap = 0,
  kSortedList = 2,
};

/// All queue kinds, in a stable order (used by the determinism audit).
inline constexpr QueueKind kAllQueueKinds[] = {QueueKind::kBinaryHeap, QueueKind::kSortedList};

/// Stable display name for a queue kind (matches EventQueue::name()).
const char* queue_kind_name(QueueKind kind) noexcept;

/// Inverse of queue_kind_name; throws std::invalid_argument on an
/// unknown name (used when deserializing experiment options).
QueueKind queue_kind_from_name(std::string_view name);

/// Binary min-heap over (time, seq) with lazy, handle-based cancellation.
/// The heap orders only a 24-byte (time, seq, slot) key; each payload
/// waits in a slot-indexed array beside the SlotTable, so a sift moves
/// keys and never a payload. Cancelled entries stay in the heap until they
/// surface (or until a compaction pass); their count is bounded by the
/// live count plus a constant, so cancel-heavy runs cannot grow the
/// structure without bound.
class BinaryHeapQueue final : public EventQueue {
 public:
  EventHandle push(EventEntry entry) override;
  EventEntry pop() override;
  Time peek_time() override;
  Time peek_time_below(Time bound) override;
  bool cancel(EventHandle handle) override;
  bool empty() const override { return live_ == 0; }
  usize size() const override { return live_; }
  usize stored() const override { return heap_.size(); }
  u64 compactions() const noexcept override { return compactions_; }
  const char* name() const noexcept override { return "binary-heap"; }

 private:
  /// What the heap orders. The slot indexes payloads_ and slots_.
  struct Key {
    Time time;
    u64 seq;
    u32 slot;
    friend bool operator<(const Key& a, const Key& b) noexcept {
      return a.time != b.time ? a.time < b.time : a.seq < b.seq;
    }
  };
  static_assert(sizeof(Key) <= 24 && std::is_trivially_copyable_v<Key>);

  void sift_up(usize i);
  void sift_down(usize i);
  void remove_top();  ///< Moves the last key to the root and sifts it down.
  void drop_cancelled_top();
  void compact();

  std::vector<Key> heap_;
  std::vector<EventPayload> payloads_;  ///< Indexed by slot.
  SlotTable slots_;
  usize live_ = 0;  ///< Entries neither cancelled nor popped.
  usize dead_ = 0;  ///< Cancelled entries still physically in the heap.
  u64 compactions_ = 0;
};

/// Factory for the queue implementations.
std::unique_ptr<EventQueue> make_event_queue(QueueKind kind);

}  // namespace mobichk::des
