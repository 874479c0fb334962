// Reference pending-event set: one flat list kept sorted at all times,
// with eager (non-tombstoned) cancellation.
//
// Deliberately the simplest implementation that can be correct — O(n)
// push and cancel, O(1) pop — so the determinism audit (sim/audit.hpp)
// and the queue-equivalence fuzz tests can use it as an oracle against
// the optimised BinaryHeapQueue. It shares the generation-stamped
// SlotTable so handle semantics (stale handles are no-ops, slots recycle
// with a generation bump) are byte-for-byte the contract the heap must
// match.
#pragma once

#include <vector>

#include "des/event_queue.hpp"

namespace mobichk::des {

/// Sorted-list event queue: descending (time, seq) order, so the next
/// event to fire sits at the back of the vector.
class SortedListQueue final : public EventQueue {
 public:
  EventHandle push(EventEntry entry) override;
  EventEntry pop() override;
  Time peek_time() override;
  Time peek_time_below(Time bound) override;
  bool cancel(EventHandle handle) override;
  bool empty() const override { return entries_.empty(); }
  usize size() const override { return entries_.size(); }
  usize stored() const override { return entries_.size(); }
  const char* name() const noexcept override { return "sorted-list"; }

 private:
  std::vector<EventEntry> entries_;
  SlotTable slots_;
};

}  // namespace mobichk::des
