#include "des/event_queue.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <unordered_map>
#include <vector>

#include "des/distributions.hpp"
#include "des/rng.hpp"
#include "des/sorted_list_queue.hpp"

namespace mobichk::des {
namespace {

/// Bare (time, seq) entry; the queue fills in the slot.
EventEntry ev(Time t, u64 seq) {
  EventEntry e;
  e.time = t;
  e.seq = seq;
  return e;
}

class EventQueueTest : public ::testing::TestWithParam<QueueKind> {
 protected:
  std::unique_ptr<EventQueue> make() { return make_event_queue(GetParam()); }
};

TEST_P(EventQueueTest, EmptyInitially) {
  auto q = make();
  EXPECT_TRUE(q->empty());
  EXPECT_EQ(q->size(), 0u);
}

TEST_P(EventQueueTest, PopsInTimeOrder) {
  auto q = make();
  q->push(ev(3.0, 1));
  q->push(ev(1.0, 2));
  q->push(ev(2.0, 3));
  EXPECT_EQ(q->pop().time, 1.0);
  EXPECT_EQ(q->pop().time, 2.0);
  EXPECT_EQ(q->pop().time, 3.0);
  EXPECT_TRUE(q->empty());
}

TEST_P(EventQueueTest, BreaksTimeTiesBySequence) {
  auto q = make();
  q->push(ev(5.0, 30));
  q->push(ev(5.0, 10));
  q->push(ev(5.0, 20));
  EXPECT_EQ(q->pop().seq, 10u);
  EXPECT_EQ(q->pop().seq, 20u);
  EXPECT_EQ(q->pop().seq, 30u);
}

TEST_P(EventQueueTest, PeekTimeDoesNotRemove) {
  auto q = make();
  q->push(ev(2.0, 1));
  q->push(ev(1.0, 2));
  EXPECT_DOUBLE_EQ(q->peek_time(), 1.0);
  EXPECT_EQ(q->size(), 2u);
  EXPECT_DOUBLE_EQ(q->peek_time(), 1.0);  // idempotent
  EXPECT_EQ(q->pop().seq, 2u);
  EXPECT_DOUBLE_EQ(q->peek_time(), 2.0);
}

TEST_P(EventQueueTest, PeekThenEarlierPushStaysOrdered) {
  // A peek must not commit to the current minimum: a subsequent push of
  // an *earlier* event must still pop first.
  auto q = make();
  q->push(ev(10.0, 1));
  EXPECT_DOUBLE_EQ(q->peek_time(), 10.0);
  q->push(ev(2.0, 2));
  EXPECT_DOUBLE_EQ(q->peek_time(), 2.0);
  EXPECT_EQ(q->pop().seq, 2u);
  EXPECT_EQ(q->pop().seq, 1u);
}

TEST_P(EventQueueTest, PeekSkipsCancelledMinimum) {
  auto q = make();
  const EventHandle h = q->push(ev(1.0, 1));
  q->push(ev(2.0, 2));
  EXPECT_TRUE(q->cancel(h));
  EXPECT_DOUBLE_EQ(q->peek_time(), 2.0);
  EXPECT_EQ(q->pop().seq, 2u);
}

TEST_P(EventQueueTest, CancelRemovesEvent) {
  auto q = make();
  q->push(ev(1.0, 1));
  const EventHandle h2 = q->push(ev(2.0, 2));
  q->push(ev(3.0, 3));
  EXPECT_TRUE(q->cancel(h2));
  EXPECT_EQ(q->size(), 2u);
  EXPECT_EQ(q->pop().seq, 1u);
  EXPECT_EQ(q->pop().seq, 3u);
  EXPECT_TRUE(q->empty());
}

TEST_P(EventQueueTest, CancelAllLeavesEmpty) {
  auto q = make();
  const EventHandle h1 = q->push(ev(1.0, 1));
  const EventHandle h2 = q->push(ev(2.0, 2));
  EXPECT_TRUE(q->cancel(h1));
  EXPECT_TRUE(q->cancel(h2));
  EXPECT_TRUE(q->empty());
  EXPECT_EQ(q->size(), 0u);
}

TEST_P(EventQueueTest, DoubleCancelIsNoop) {
  auto q = make();
  const EventHandle h1 = q->push(ev(1.0, 1));
  q->push(ev(2.0, 2));
  EXPECT_TRUE(q->cancel(h1));
  EXPECT_FALSE(q->cancel(h1));  // double-cancel must not corrupt the live count
  EXPECT_EQ(q->size(), 1u);
  EXPECT_EQ(q->pop().seq, 2u);
}

TEST_P(EventQueueTest, CancelAfterPopIsNoop) {
  // Seed bug (kept as a regression): cancelling an event that already
  // fired decremented the live count, so empty() reported true while a
  // real event remained and the simulation silently truncated. With
  // generation stamps the fired handle is stale and the cancel a no-op.
  auto q = make();
  const EventHandle h1 = q->push(ev(1.0, 1));
  q->push(ev(2.0, 2));
  EXPECT_EQ(q->pop().seq, 1u);
  EXPECT_FALSE(q->cancel(h1));  // already fired: must be a no-op
  EXPECT_EQ(q->size(), 1u);
  ASSERT_FALSE(q->empty());
  EXPECT_EQ(q->pop().seq, 2u);
  EXPECT_TRUE(q->empty());
}

TEST_P(EventQueueTest, CancelInvalidHandleIsNoop) {
  auto q = make();
  q->push(ev(1.0, 1));
  q->push(ev(2.0, 2));
  EXPECT_FALSE(q->cancel(EventHandle{}));          // default: never scheduled
  EXPECT_FALSE(q->cancel(EventHandle{999, 1}));    // slot never allocated
  EXPECT_EQ(q->size(), 2u);
  EXPECT_EQ(q->pop().seq, 1u);
  EXPECT_EQ(q->pop().seq, 2u);
  EXPECT_TRUE(q->empty());
}

TEST_P(EventQueueTest, StaleHandleCannotCancelReusedSlot) {
  // The heart of the generation scheme: when a slot is recycled for a new
  // event, every handle minted for its previous occupant must be dead —
  // a stale cancel must not kill the new tenant.
  auto q = make();
  const EventHandle h1 = q->push(ev(1.0, 1));
  EXPECT_EQ(q->pop().seq, 1u);  // slot of h1 is now free
  const EventHandle h2 = q->push(ev(2.0, 2));
  // Same physical slot, new generation (implementation detail, but pin it
  // so the test demonstrably exercises reuse).
  ASSERT_EQ(h1.slot, h2.slot);
  ASSERT_NE(h1.gen, h2.gen);
  EXPECT_FALSE(q->cancel(h1));  // stale: must not touch the new event
  EXPECT_EQ(q->size(), 1u);
  EXPECT_EQ(q->pop().seq, 2u);

  // Same via cancellation instead of firing.
  const EventHandle h3 = q->push(ev(3.0, 3));
  EXPECT_TRUE(q->cancel(h3));
  ASSERT_TRUE(q->empty());
  const EventHandle h4 = q->push(ev(4.0, 4));
  EXPECT_FALSE(q->cancel(h3));  // handle died with the cancel
  EXPECT_EQ(q->size(), 1u);
  EXPECT_TRUE(q->cancel(h4));
  EXPECT_TRUE(q->empty());
}

TEST_P(EventQueueTest, InterleavedPushPop) {
  auto q = make();
  u64 seq = 1;
  q->push(ev(10.0, seq++));
  q->push(ev(20.0, seq++));
  EXPECT_EQ(q->pop().time, 10.0);
  q->push(ev(15.0, seq++));
  q->push(ev(12.0, seq++));
  EXPECT_EQ(q->pop().time, 12.0);
  EXPECT_EQ(q->pop().time, 15.0);
  q->push(ev(25.0, seq++));
  EXPECT_EQ(q->pop().time, 20.0);
  EXPECT_EQ(q->pop().time, 25.0);
  EXPECT_TRUE(q->empty());
}

TEST_P(EventQueueTest, HandlesManyEventsAcrossScales) {
  // Time scales spanning several orders of magnitude, pushed in
  // shuffled order.
  auto q = make();
  RngStream rng(42, "queue-test");
  std::vector<f64> times;
  f64 t = 0.0;
  for (u64 i = 0; i < 5000; ++i) {
    t += rng.uniform01() * ((i % 100 == 0) ? 1000.0 : 1.0);
    times.push_back(t);
  }
  // Insert in shuffled order.
  std::vector<usize> order(times.size());
  for (usize i = 0; i < order.size(); ++i) order[i] = i;
  for (usize i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[uniform_index(rng, i)]);
  }
  u64 seq = 1;
  for (const usize i : order) q->push(ev(times[i], seq++));
  std::sort(times.begin(), times.end());
  for (const f64 expect : times) {
    ASSERT_FALSE(q->empty());
    EXPECT_DOUBLE_EQ(q->pop().time, expect);
  }
  EXPECT_TRUE(q->empty());
}

TEST_P(EventQueueTest, SteadyStateHoldAndPop) {
  // Classic hold-model workload: pop one, push one slightly later.
  auto q = make();
  RngStream rng(7, "hold");
  u64 seq = 1;
  for (int i = 0; i < 64; ++i) q->push(ev(rng.uniform01() * 10.0, seq++));
  f64 last = 0.0;
  for (int i = 0; i < 20000; ++i) {
    EventEntry e = q->pop();
    EXPECT_GE(e.time, last);
    last = e.time;
    q->push(ev(last + rng.uniform01() * 10.0, seq++));
  }
  EXPECT_EQ(q->size(), 64u);
}

TEST_P(EventQueueTest, CancelHeavyChurnBoundsTombstones) {
  // Satellite: tombstone memory must stay bounded. Cancel ~90% of a
  // steady-state churn of kLive events; the physically stored entry
  // count must hold the documented bound stored <= 2*live + 64 at all
  // times, not grow with the total number of cancellations (50k here).
  auto q = make();
  RngStream rng(3, "churn");
  u64 seq = 1;
  f64 now = 0.0;
  constexpr usize kLive = 128;
  std::vector<EventHandle> handles;
  for (usize i = 0; i < kLive; ++i) {
    handles.push_back(q->push(ev(now + rng.uniform01(), seq++)));
  }
  for (int round = 0; round < 50000; ++round) {
    if (rng.uniform01() < 0.9) {
      const usize victim = uniform_index(rng, handles.size());
      ASSERT_TRUE(q->cancel(handles[victim]));
      handles[victim] = q->push(ev(now + rng.uniform01(), seq++));
    } else {
      const EventEntry e = q->pop();
      EXPECT_GE(e.time, now);
      now = e.time;
      // The popped entry's slot identifies which of our live handles
      // fired (live entries always occupy distinct slots).
      const auto it = std::find_if(handles.begin(), handles.end(),
                                   [&](const EventHandle& h) { return h.slot == e.slot; });
      ASSERT_NE(it, handles.end());
      *it = q->push(ev(now + rng.uniform01(), seq++));
    }
    ASSERT_EQ(q->size(), kLive);
    ASSERT_LE(q->stored(), 2 * kLive + 64) << q->name();
  }
  // Drain and verify the queue is still coherent.
  f64 last = 0.0;
  usize drained = 0;
  while (!q->empty()) {
    const EventEntry e = q->pop();
    EXPECT_GE(e.time, last);
    last = e.time;
    ++drained;
  }
  EXPECT_EQ(drained, kLive);
}

TEST_P(EventQueueTest, PeekTimeBelowEmptyQueueAndStrictBound) {
  auto q = make();
  // Unlike peek_time(), the probe is defined on an empty queue.
  EXPECT_EQ(q->peek_time_below(100.0), kNoEventBelow);
  q->push(ev(5.0, 1));
  EXPECT_DOUBLE_EQ(q->peek_time_below(10.0), 5.0);
  EXPECT_EQ(q->peek_time_below(5.0), kNoEventBelow);  // bound is strict
  EXPECT_EQ(q->peek_time_below(1.0), kNoEventBelow);
  EXPECT_EQ(q->size(), 1u);  // non-destructive
  EXPECT_EQ(q->pop().seq, 1u);
}

TEST_P(EventQueueTest, PeekTimeBelowSkipsCancelledMinimum) {
  auto q = make();
  const EventHandle a = q->push(ev(1.0, 1));
  q->push(ev(3.0, 2));
  ASSERT_TRUE(q->cancel(a));
  EXPECT_DOUBLE_EQ(q->peek_time_below(10.0), 3.0);
  EXPECT_EQ(q->peek_time_below(3.0), kNoEventBelow);
  EXPECT_EQ(q->pop().seq, 2u);
}

TEST_P(EventQueueTest, PeekTimeBelowKeepsOutstandingHandlesValid) {
  // Regression guard for the shard horizon probe: an implementation that
  // pops-and-reinserts to find the minimum would bump slot generations
  // and strand every outstanding handle. After any number of probes, the
  // original handles must still cancel their events.
  auto q = make();
  const EventHandle a = q->push(ev(2.0, 1));
  const EventHandle b = q->push(ev(4.0, 2));
  for (int i = 0; i < 8; ++i) {
    EXPECT_DOUBLE_EQ(q->peek_time_below(100.0), 2.0);
    EXPECT_EQ(q->peek_time_below(1.0), kNoEventBelow);
  }
  EXPECT_TRUE(q->cancel(a));
  EXPECT_TRUE(q->cancel(b));
  EXPECT_TRUE(q->empty());
  EXPECT_FALSE(q->cancel(a));  // second cancel through the same handle: stale
}

TEST_P(EventQueueTest, PeekTimeBelowThenEarlierPushStaysOrdered) {
  // The probe must not commit to the current minimum: an earlier push
  // afterwards must still surface first, in probe and pop order.
  auto q = make();
  q->push(ev(10.0, 1));
  EXPECT_EQ(q->peek_time_below(5.0), kNoEventBelow);
  q->push(ev(2.0, 2));
  EXPECT_DOUBLE_EQ(q->peek_time_below(5.0), 2.0);
  EXPECT_EQ(q->pop().seq, 2u);
  EXPECT_EQ(q->pop().seq, 1u);
}

TEST_P(EventQueueTest, PeekTimeBelowRandomizedAgainstLiveMinimum) {
  // Fuzz the probe against the ground truth: after every mutation, the
  // probe at a random bound must agree with the true live minimum, and
  // pending handles must remain cancellable.
  auto q = make();
  RngStream rng(7, "peek-below");
  std::vector<std::pair<f64, EventHandle>> live;  // (time, handle)
  u64 seq = 1;
  f64 now = 0.0;
  for (int round = 0; round < 4000; ++round) {
    const f64 dice = rng.uniform01();
    if (dice < 0.5 || live.empty()) {
      const f64 t = now + rng.uniform01() * 30.0;
      live.emplace_back(t, q->push(ev(t, seq++)));
    } else if (dice < 0.75) {
      const EventEntry e = q->pop();
      now = e.time;
      const auto it = std::find_if(live.begin(), live.end(),
                                   [&](const auto& p) { return p.first == e.time; });
      ASSERT_NE(it, live.end());
      live.erase(it);
    } else {
      const usize victim = uniform_index(rng, live.size());
      ASSERT_TRUE(q->cancel(live[victim].second)) << q->name();
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(victim));
    }
    f64 truth = kNoEventBelow;
    for (const auto& [t, h] : live) truth = std::min(truth, t);
    const f64 bound = now + rng.uniform01() * 40.0;
    const f64 expect = truth < bound ? truth : kNoEventBelow;
    ASSERT_EQ(q->peek_time_below(bound), expect) << q->name() << " round " << round;
    ASSERT_EQ(q->size(), live.size()) << q->name();
  }
}

INSTANTIATE_TEST_SUITE_P(AllQueues, EventQueueTest,
                         ::testing::ValuesIn(kAllQueueKinds),
                         [](const ::testing::TestParamInfo<QueueKind>& pi) {
                           switch (pi.param) {
                             case QueueKind::kBinaryHeap: return "BinaryHeap";
                             case QueueKind::kSortedList: return "SortedList";
                           }
                           return "Unknown";
                         });

TEST(SlotTable, GenerationLifecycle) {
  SlotTable table;
  const EventHandle a = table.acquire();
  EXPECT_TRUE(a.valid());
  EXPECT_FALSE(EventHandle{}.valid());
  // pending -> cancelled exactly once.
  EXPECT_TRUE(table.cancel(a));
  EXPECT_FALSE(table.cancel(a));
  EXPECT_TRUE(table.is_cancelled(a.slot));
  table.release(a.slot);
  // Slot recycles with a bumped generation; the old handle stays dead.
  const EventHandle b = table.acquire();
  EXPECT_EQ(b.slot, a.slot);
  EXPECT_EQ(b.gen, a.gen + 1);
  EXPECT_FALSE(table.cancel(a));
  EXPECT_TRUE(table.cancel(b));
  table.release(b.slot);
  EXPECT_EQ(table.capacity(), 1u);  // one physical slot served everything
}

TEST(QueueEquivalence, IdenticalPopSequences) {
  auto heap = make_event_queue(QueueKind::kBinaryHeap);
  auto oracle = make_event_queue(QueueKind::kSortedList);
  RngStream rng(11, "equiv");
  u64 seq = 1;
  f64 now = 0.0;
  for (int round = 0; round < 5000; ++round) {
    if (rng.uniform01() < 0.6 || heap->empty()) {
      const f64 t = now + rng.uniform01() * 50.0;
      heap->push(ev(t, seq));
      oracle->push(ev(t, seq));
      ++seq;
    } else {
      const EventEntry a = heap->pop();
      const EventEntry b = oracle->pop();
      EXPECT_DOUBLE_EQ(a.time, b.time);
      EXPECT_EQ(a.seq, b.seq);
      now = a.time;
    }
  }
  while (!heap->empty()) {
    ASSERT_FALSE(oracle->empty());
    const EventEntry a = heap->pop();
    const EventEntry b = oracle->pop();
    EXPECT_DOUBLE_EQ(a.time, b.time);
    EXPECT_EQ(a.seq, b.seq);
  }
  EXPECT_TRUE(oracle->empty());
}

TEST(QueueEquivalence, LargePopulationFuzzMatchesSortedOracle) {
  // n ~ 1000 live events over mixed time scales (a dense near future and
  // a far tail three decades out), then random push/pop/cancel churn: the
  // heap must reproduce the oracle's (time, seq) sequence exactly through
  // every compaction, and agree on every cancel outcome.
  BinaryHeapQueue heap;
  SortedListQueue oracle;
  RngStream rng(99, "cal-fuzz");
  u64 seq = 0;
  Time now = 0.0;
  std::vector<std::pair<EventHandle, EventHandle>> live;

  auto push_one = [&] {
    const f64 scale = rng.uniform01() < 0.8 ? 1.0 : 1000.0;
    const Time t = now + rng.uniform01() * scale;
    live.push_back({heap.push(ev(t, seq)), oracle.push(ev(t, seq))});
    ++seq;
  };

  for (int i = 0; i < 1000; ++i) push_one();
  for (int step = 0; step < 20'000; ++step) {
    const f64 r = rng.uniform01();
    if (r < 0.45 || heap.empty()) {
      push_one();
    } else if (r < 0.9) {
      const EventEntry got = heap.pop();
      const EventEntry want = oracle.pop();
      ASSERT_DOUBLE_EQ(got.time, want.time) << "step " << step;
      ASSERT_EQ(got.seq, want.seq) << "step " << step;
      now = got.time;
    } else if (!live.empty()) {
      const usize j = static_cast<usize>(rng.uniform01() * static_cast<f64>(live.size())) %
                      live.size();
      ASSERT_EQ(heap.cancel(live[j].first), oracle.cancel(live[j].second)) << "step " << step;
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(j));
    }
    ASSERT_EQ(heap.size(), oracle.size());
  }
  // Drain completely; sequences must agree to the last event.
  while (!heap.empty()) {
    const EventEntry got = heap.pop();
    const EventEntry want = oracle.pop();
    ASSERT_DOUBLE_EQ(got.time, want.time);
    ASSERT_EQ(got.seq, want.seq);
  }
  EXPECT_TRUE(oracle.empty());
}

TEST(QueueEquivalence, FuzzedScheduleCancelRescheduleAcrossAllKinds) {
  // Differential fuzz against the sorted-list oracle: every queue kind
  // sees the same schedule / pop / cancel-pending / cancel-stale stream
  // (stale = fired, double-cancelled, or recycled-slot handles) and must
  // agree on size, emptiness, cancel outcome and exact pop order.
  std::vector<std::unique_ptr<EventQueue>> queues;
  for (const QueueKind kind : kAllQueueKinds) queues.push_back(make_event_queue(kind));
  RngStream rng(23, "fuzz");
  // Per-seq handles, one per queue; pending tracks live seqs.
  std::unordered_map<u64, std::vector<EventHandle>> handles;
  std::vector<u64> pending;
  std::vector<u64> dead;  // fired or cancelled seqs; handles kept (stale)
  u64 seq = 1;
  f64 now = 0.0;
  for (int round = 0; round < 20000; ++round) {
    const f64 dice = rng.uniform01();
    if (dice < 0.55 || pending.empty()) {
      const f64 t = now + rng.uniform01() * 40.0;
      auto& hs = handles[seq];
      for (auto& q : queues) hs.push_back(q->push(ev(t, seq)));
      pending.push_back(seq);
      ++seq;
    } else if (dice < 0.80) {
      const EventEntry a = queues[0]->pop();
      for (usize k = 1; k < queues.size(); ++k) {
        const EventEntry b = queues[k]->pop();
        ASSERT_DOUBLE_EQ(a.time, b.time) << queues[k]->name();
        ASSERT_EQ(a.seq, b.seq) << queues[k]->name();
      }
      now = a.time;
      pending.erase(std::find(pending.begin(), pending.end(), a.seq));
      dead.push_back(a.seq);  // its handles are now stale
    } else if (dice < 0.92) {
      // Cancel a random pending seq: must succeed everywhere.
      const u64 victim = pending[uniform_index(rng, pending.size())];
      auto& hs = handles[victim];
      for (usize k = 0; k < queues.size(); ++k) {
        ASSERT_TRUE(queues[k]->cancel(hs[k])) << queues[k]->name();
      }
      pending.erase(std::find(pending.begin(), pending.end(), victim));
      dead.push_back(victim);
    } else if (!dead.empty()) {
      // Cancel through a stale handle — the event fired or was already
      // cancelled, and its slot may since have been recycled for a live
      // event. Must be a no-op everywhere (the recycled tenant survives).
      const u64 bogus = dead[uniform_index(rng, dead.size())];
      auto& hs = handles[bogus];
      for (usize k = 0; k < queues.size(); ++k) {
        ASSERT_FALSE(queues[k]->cancel(hs[k])) << queues[k]->name();
      }
    }
    for (auto& q : queues) {
      ASSERT_EQ(q->size(), pending.size()) << q->name();
      ASSERT_EQ(q->empty(), pending.empty()) << q->name();
    }
  }
  // Drain: every queue must agree to the last event.
  while (!queues[0]->empty()) {
    const EventEntry a = queues[0]->pop();
    for (usize k = 1; k < queues.size(); ++k) {
      ASSERT_FALSE(queues[k]->empty()) << queues[k]->name();
      const EventEntry b = queues[k]->pop();
      ASSERT_EQ(a.seq, b.seq) << queues[k]->name();
    }
    pending.erase(std::find(pending.begin(), pending.end(), a.seq));
  }
  EXPECT_TRUE(pending.empty());
  for (auto& q : queues) EXPECT_TRUE(q->empty()) << q->name();
}

TEST(QueueFactory, NamesAreDistinctAndMatchKindNames) {
  for (const QueueKind kind : kAllQueueKinds) {
    EXPECT_STREQ(make_event_queue(kind)->name(), queue_kind_name(kind));
  }
  EXPECT_STREQ(make_event_queue(QueueKind::kBinaryHeap)->name(), "binary-heap");
  EXPECT_STREQ(make_event_queue(QueueKind::kSortedList)->name(), "sorted-list");
}

}  // namespace
}  // namespace mobichk::des
