#include "des/simulator.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <type_traits>
#include <vector>

#include "des/rng.hpp"

namespace mobichk::des {
namespace {

// The queues copy entries by value; no closure rides in them.
static_assert(std::is_trivially_copyable_v<EventEntry>);
static_assert(sizeof(EventEntry) <= 56);

class SimulatorTest : public ::testing::TestWithParam<QueueKind> {};

TEST_P(SimulatorTest, StartsAtZero) {
  Simulator sim(GetParam());
  EXPECT_EQ(sim.now(), 0.0);
  EXPECT_EQ(sim.events_executed(), 0u);
  EXPECT_EQ(sim.pending(), 0u);
}

TEST_P(SimulatorTest, ExecutesInTimeOrder) {
  Simulator sim(GetParam());
  std::vector<int> order;
  sim.schedule_at(3.0, [&] { order.push_back(3); });
  sim.schedule_at(1.0, [&] { order.push_back(1); });
  sim.schedule_at(2.0, [&] { order.push_back(2); });
  EXPECT_EQ(sim.run(), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST_P(SimulatorTest, SimultaneousEventsRunInScheduleOrder) {
  Simulator sim(GetParam());
  std::vector<int> order;
  sim.schedule_at(5.0, [&] { order.push_back(1); });
  sim.schedule_at(5.0, [&] { order.push_back(2); });
  sim.schedule_at(5.0, [&] { order.push_back(3); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST_P(SimulatorTest, ClockAdvancesToEventTime) {
  Simulator sim(GetParam());
  Time seen = -1.0;
  sim.schedule_at(7.5, [&] { seen = sim.now(); });
  sim.run();
  EXPECT_DOUBLE_EQ(seen, 7.5);
  EXPECT_DOUBLE_EQ(sim.now(), 7.5);
}

TEST_P(SimulatorTest, ScheduleAfterIsRelative) {
  Simulator sim(GetParam());
  Time seen = -1.0;
  sim.schedule_at(10.0, [&] {
    sim.schedule_after(2.5, [&] { seen = sim.now(); });
  });
  sim.run();
  EXPECT_DOUBLE_EQ(seen, 12.5);
}

TEST_P(SimulatorTest, EventsCanScheduleChains) {
  Simulator sim(GetParam());
  int count = 0;
  std::function<void()> tick = [&] {
    ++count;
    if (count < 100) sim.schedule_after(1.0, tick);
  };
  sim.schedule_at(0.0, tick);
  sim.run();
  EXPECT_EQ(count, 100);
  EXPECT_DOUBLE_EQ(sim.now(), 99.0);
}

TEST_P(SimulatorTest, RunUntilStopsAtHorizon) {
  Simulator sim(GetParam());
  int fired = 0;
  for (int i = 1; i <= 10; ++i) {
    sim.schedule_at(static_cast<Time>(i), [&] { ++fired; });
  }
  EXPECT_EQ(sim.run_until(5.0), 5u);
  EXPECT_EQ(fired, 5);
  EXPECT_DOUBLE_EQ(sim.now(), 5.0);
  EXPECT_EQ(sim.pending(), 5u);
  EXPECT_EQ(sim.run_until(100.0), 5u);
  EXPECT_EQ(fired, 10);
  EXPECT_DOUBLE_EQ(sim.now(), 100.0);
}

TEST_P(SimulatorTest, RunUntilIncludesEventsAtHorizon) {
  Simulator sim(GetParam());
  int fired = 0;
  sim.schedule_at(5.0, [&] { ++fired; });
  sim.run_until(5.0);
  EXPECT_EQ(fired, 1);
}

TEST_P(SimulatorTest, CancelPreventsExecution) {
  Simulator sim(GetParam());
  int fired = 0;
  EventHandle h = sim.schedule_at(1.0, [&] { ++fired; });
  sim.schedule_at(2.0, [&] { ++fired; });
  sim.cancel(h);
  sim.run();
  EXPECT_EQ(fired, 1);
}

TEST_P(SimulatorTest, CancelFromWithinEvent) {
  Simulator sim(GetParam());
  int fired = 0;
  EventHandle victim = sim.schedule_at(2.0, [&] { ++fired; });
  sim.schedule_at(1.0, [&] { sim.cancel(victim); });
  sim.run();
  EXPECT_EQ(fired, 0);
}

TEST_P(SimulatorTest, StopEndsRun) {
  Simulator sim(GetParam());
  int fired = 0;
  sim.schedule_at(1.0, [&] { ++fired; });
  sim.schedule_at(2.0, [&] {
    ++fired;
    sim.stop();
  });
  sim.schedule_at(3.0, [&] { ++fired; });
  sim.run();
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sim.pending(), 1u);
}

TEST_P(SimulatorTest, ThrowsOnSchedulingInThePast) {
  Simulator sim(GetParam());
  sim.schedule_at(10.0, [] {});
  sim.run();
  EXPECT_THROW(sim.schedule_at(5.0, [] {}), std::invalid_argument);
}

TEST_P(SimulatorTest, InvalidHandleIsNoop) {
  Simulator sim(GetParam());
  EventHandle h;
  EXPECT_FALSE(h.valid());
  sim.cancel(h);  // must not crash
  int fired = 0;
  sim.schedule_at(1.0, [&] { ++fired; });
  sim.run();
  EXPECT_EQ(fired, 1);
}

TEST_P(SimulatorTest, CountsExecutedEvents) {
  Simulator sim(GetParam());
  for (int i = 0; i < 37; ++i) sim.schedule_at(static_cast<Time>(i), [] {});
  sim.run();
  EXPECT_EQ(sim.events_executed(), 37u);
}

TEST_P(SimulatorTest, CancelOfFiredHandleCannotTruncateTheRun) {
  // Regression for the event-queue lifetime bug: cancelling a handle
  // whose event already fired corrupted the live count, so empty()
  // reported true while real events remained and run()/run_until()
  // silently dropped the tail of the simulation.
  Simulator sim(GetParam());
  int fired = 0;
  EventHandle h = sim.schedule_at(1.0, [&] { ++fired; });
  sim.schedule_at(2.0, [&] { ++fired; });
  sim.schedule_at(3.0, [&] { ++fired; });
  EXPECT_EQ(sim.run_until(1.5), 1u);
  ASSERT_EQ(fired, 1);
  sim.cancel(h);  // h already fired: must be a no-op
  EXPECT_EQ(sim.pending(), 2u);
  EXPECT_EQ(sim.run_until(2.5), 1u);
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sim.run(), 1u);
  EXPECT_EQ(fired, 3);
  EXPECT_EQ(sim.pending(), 0u);
  EXPECT_TRUE(sim.invariants_ok());
}

TEST_P(SimulatorTest, RepeatedCancelOfFiredHandleIsStable) {
  Simulator sim(GetParam());
  int fired = 0;
  EventHandle h = sim.schedule_at(1.0, [&] { ++fired; });
  for (int i = 2; i <= 10; ++i) {
    sim.schedule_at(static_cast<Time>(i), [&] { ++fired; });
  }
  sim.run_until(1.0);
  for (int i = 0; i < 5; ++i) sim.cancel(h);
  EXPECT_EQ(sim.pending(), 9u);
  sim.run();
  EXPECT_EQ(fired, 10);
  EXPECT_EQ(sim.invariants().cancels_requested, 5u);
  EXPECT_EQ(sim.invariants().cancels_effective, 0u);
  EXPECT_EQ(sim.invariants().cancels_noop(), 5u);
  EXPECT_TRUE(sim.invariants_ok());
}

TEST_P(SimulatorTest, InvariantLedgerReconciles) {
  Simulator sim(GetParam());
  int fired = 0;
  std::vector<EventHandle> handles;
  for (int i = 1; i <= 20; ++i) {
    handles.push_back(sim.schedule_at(static_cast<Time>(i), [&] { ++fired; }));
  }
  sim.cancel(handles[4]);
  sim.cancel(handles[4]);  // double cancel: one effective, two requested
  sim.cancel(handles[9]);
  sim.cancel(EventHandle{});  // invalid handle: not even counted
  sim.run_until(12.0);
  const SimInvariants& inv = sim.invariants();
  EXPECT_EQ(inv.scheduled, 20u);
  EXPECT_EQ(inv.cancels_requested, 3u);
  EXPECT_EQ(inv.cancels_effective, 2u);
  EXPECT_EQ(inv.executed, 10u);  // events at t=1..12 minus the two cancelled
  EXPECT_EQ(inv.time_regressions, 0u);
  EXPECT_EQ(inv.max_pending, 20u);
  EXPECT_TRUE(inv.consistent(sim.pending()));
  EXPECT_TRUE(sim.invariants_ok());
  sim.run();
  EXPECT_EQ(fired, 18);
  EXPECT_TRUE(sim.invariants_ok());
}

/// Test target recording every dispatched payload.
struct RecordingTarget final : EventTarget {
  struct Hit {
    Time at;
    EventKind kind;
    u8 sub;
    u32 a;
    u64 b;
    u64 c;
  };
  Simulator* sim = nullptr;
  std::vector<Hit> hits;

  void on_event(const EventPayload& p) override {
    hits.push_back(Hit{sim->now(), p.kind, p.sub, p.a, p.b, p.c});
  }
};

EventPayload typed(EventTarget* target, EventKind kind, u8 sub = 0, u32 a = 0, u64 b = 0,
                   u64 c = 0) {
  EventPayload p;
  p.target = target;
  p.kind = kind;
  p.sub = sub;
  p.a = a;
  p.b = b;
  p.c = c;
  return p;
}

/// A binary heap that hands back its previous minimum once more on the
/// `repeat_at`-th pop: the double-pop fault the invariant ledger guards
/// against.
class RepeatingQueue final : public EventQueue {
 public:
  explicit RepeatingQueue(u64 repeat_at) : repeat_at_(repeat_at) {}

  EventHandle push(EventEntry entry) override { return inner_->push(entry); }
  EventEntry pop() override {
    if (++pops_ == repeat_at_) return last_;
    last_ = inner_->pop();
    return last_;
  }
  Time peek_time() override { return pops_ + 1 == repeat_at_ ? last_.time : inner_->peek_time(); }
  Time peek_time_below(Time bound) override { return inner_->peek_time_below(bound); }
  bool cancel(EventHandle handle) override { return inner_->cancel(handle); }
  bool empty() const override { return pops_ + 1 != repeat_at_ && inner_->empty(); }
  usize size() const override { return inner_->size(); }
  usize stored() const override { return inner_->stored(); }
  const char* name() const noexcept override { return "repeating"; }

 private:
  std::unique_ptr<EventQueue> inner_ = make_event_queue(QueueKind::kBinaryHeap);
  u64 repeat_at_;
  u64 pops_ = 0;
  EventEntry last_{};
};

TEST(SimulatorInvariants, RepeatedPopIsCaughtInEveryBuild) {
  // The third pop repeats the second event. Its (time, seq) does not
  // exceed the previous pop's, so the O(1) order check counts it and the
  // ledger stops reconciling — with assertions compiled in or not.
  Simulator sim(std::make_unique<RepeatingQueue>(3));
  RecordingTarget target;
  target.sim = &sim;
  for (u32 i = 0; i < 4; ++i) {
    sim.schedule_at(1.0 + i, typed(&target, EventKind::kWorkloadOp, 0, i));
  }
  sim.run();
  ASSERT_EQ(target.hits.size(), 5u);
  EXPECT_EQ(target.hits[1].a, target.hits[2].a);  // the repeated event fired twice
  EXPECT_EQ(sim.invariants().pop_order_violations, 1u);
  EXPECT_EQ(sim.invariants().time_regressions, 0u);
  EXPECT_FALSE(sim.invariants_ok());
}

TEST(SimulatorInvariants, PopOrderHoldsAcrossEqualTimesAndZeroDelays) {
  // Equal times pop in seq order and zero-delay reschedules land after
  // the event being run: neither may count as a violation.
  for (const QueueKind kind :
       {QueueKind::kBinaryHeap, QueueKind::kCalendar, QueueKind::kSortedList}) {
    Simulator sim(kind);
    RecordingTarget target;
    target.sim = &sim;
    for (u32 i = 0; i < 50; ++i) {
      sim.schedule_at(static_cast<Time>(i % 5), typed(&target, EventKind::kWorkloadOp));
    }
    int chained = 0;
    sim.schedule_at(2.0, [&] {
      sim.schedule_after(0.0, [&] { ++chained; });
    });
    sim.run();
    EXPECT_EQ(chained, 1);
    EXPECT_EQ(sim.invariants().pop_order_violations, 0u) << queue_kind_name(kind);
    EXPECT_TRUE(sim.invariants_ok()) << queue_kind_name(kind);
  }
}

TEST_P(SimulatorTest, TypedEventsDispatchWithOperandsIntact) {
  Simulator sim(GetParam());
  RecordingTarget target;
  target.sim = &sim;
  sim.schedule_at(2.0, typed(&target, EventKind::kMessageHop, 1, 42, 7, 99));
  sim.schedule_at(1.0, typed(&target, EventKind::kHandoff, 0, 3));
  sim.schedule_after(3.0, typed(&target, EventKind::kWorkloadOp, 2, 5, 11, 13));
  EXPECT_EQ(sim.run(), 3u);
  ASSERT_EQ(target.hits.size(), 3u);
  EXPECT_DOUBLE_EQ(target.hits[0].at, 1.0);
  EXPECT_EQ(target.hits[0].kind, EventKind::kHandoff);
  EXPECT_EQ(target.hits[0].a, 3u);
  EXPECT_DOUBLE_EQ(target.hits[1].at, 2.0);
  EXPECT_EQ(target.hits[1].kind, EventKind::kMessageHop);
  EXPECT_EQ(target.hits[1].sub, 1);
  EXPECT_EQ(target.hits[1].a, 42u);
  EXPECT_EQ(target.hits[1].b, 7u);
  EXPECT_EQ(target.hits[1].c, 99u);
  EXPECT_DOUBLE_EQ(target.hits[2].at, 3.0);
  EXPECT_EQ(target.hits[2].kind, EventKind::kWorkloadOp);
  EXPECT_TRUE(sim.invariants_ok());
}

TEST_P(SimulatorTest, TypedAndClosureEventsInterleaveInScheduleOrder) {
  // Mixed representation must not perturb (time, seq) ordering: ties at
  // the same instant fire in scheduling order regardless of kind.
  Simulator sim(GetParam());
  RecordingTarget target;
  target.sim = &sim;
  std::vector<int> order;
  sim.schedule_at(5.0, [&] { order.push_back(1); });
  sim.schedule_at(5.0, typed(&target, EventKind::kConnectivity, 0, 2));
  sim.schedule_at(5.0, [&] { order.push_back(3); });
  sim.schedule_at(5.0, typed(&target, EventKind::kConnectivity, 1, 4));
  sim.run();
  ASSERT_EQ(target.hits.size(), 2u);
  // Closures saw positions 1 and 3; typed events fired between them.
  EXPECT_EQ(order, (std::vector<int>{1, 3}));
  EXPECT_EQ(target.hits[0].a, 2u);
  EXPECT_EQ(target.hits[1].a, 4u);
}

TEST_P(SimulatorTest, TypedEventsCancelLikeClosures) {
  Simulator sim(GetParam());
  RecordingTarget target;
  target.sim = &sim;
  const EventHandle h =
      sim.schedule_at(1.0, typed(&target, EventKind::kCheckpointTransfer, 0, 8));
  sim.schedule_at(2.0, typed(&target, EventKind::kCheckpointTransfer, 1, 9));
  sim.cancel(h);
  sim.run();
  ASSERT_EQ(target.hits.size(), 1u);
  EXPECT_EQ(target.hits[0].a, 9u);
  EXPECT_EQ(sim.invariants().cancels_effective, 1u);
  EXPECT_TRUE(sim.invariants_ok());
}

TEST_P(SimulatorTest, RunUntilHorizonPeekKeepsHandlesLive) {
  // Regression guard for the peek path: an event beyond the horizon is
  // only peeked, never popped-and-repushed, so its handle must stay
  // cancellable after run_until returns.
  Simulator sim(GetParam());
  int fired = 0;
  const EventHandle h = sim.schedule_at(10.0, [&] { ++fired; });
  sim.schedule_at(1.0, [&] { ++fired; });
  EXPECT_EQ(sim.run_until(5.0), 1u);
  sim.cancel(h);  // must still refer to the t=10 event
  EXPECT_EQ(sim.pending(), 0u);
  EXPECT_EQ(sim.run(), 0u);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.invariants().cancels_effective, 1u);
  EXPECT_TRUE(sim.invariants_ok());
}

TEST_P(SimulatorTest, CancelDestroysClosureCapturesAtOnce) {
  Simulator sim(GetParam());
  const auto token = std::make_shared<int>(0);
  const EventHandle h = sim.schedule_at(1.0, [token] { ++*token; });
  sim.schedule_at(2.0, [] {});
  EXPECT_EQ(token.use_count(), 2);
  sim.cancel(h);
  EXPECT_EQ(token.use_count(), 1);  // released at cancel, not when the tombstone surfaces
  sim.cancel(h);                    // a second (no-op) cancel touches nothing
  EXPECT_EQ(sim.run(), 1u);
  EXPECT_EQ(*token, 0);
  EXPECT_EQ(token.use_count(), 1);
}

TEST_P(SimulatorTest, FiredClosureCapturesAreDestroyedAfterItRuns) {
  Simulator sim(GetParam());
  const auto token = std::make_shared<int>(0);
  long during = 0;
  sim.schedule_at(1.0, [token, &during] { during = token.use_count(); });
  EXPECT_EQ(token.use_count(), 2);
  EXPECT_EQ(sim.run(), 1u);
  EXPECT_EQ(during, 2);  // alive while running
  EXPECT_EQ(token.use_count(), 1);
}

TEST_P(SimulatorTest, ReusedSlotRunsOnlyTheNewClosure) {
  Simulator sim(GetParam());
  std::vector<int> order;
  const EventHandle old_h = sim.schedule_at(1.0, [&] { order.push_back(1); });
  sim.schedule_at(2.0, [&] { order.push_back(9); });
  sim.cancel(old_h);
  // Peeking past the cancelled entry releases its slot for reuse.
  EXPECT_EQ(sim.run_until(1.5), 0u);
  const EventHandle new_h = sim.schedule_at(3.0, [&] { order.push_back(2); });
  ASSERT_EQ(new_h.slot, old_h.slot);
  ASSERT_NE(new_h.gen, old_h.gen);
  sim.cancel(old_h);  // stale: must not reach the new closure
  EXPECT_EQ(sim.run(), 2u);
  EXPECT_EQ(order, (std::vector<int>{9, 2}));
  EXPECT_TRUE(sim.invariants_ok());
}

TEST_P(SimulatorTest, TypedAndClosureEventsInterleaveInTimeSeqOrder) {
  // Random times (with ties), random representation, random cancels: the
  // fired sequence must be the (time, seq) order of the surviving events,
  // closures and typed payloads alike, on every queue kind.
  Simulator sim(GetParam());
  RecordingTarget target;
  target.sim = &sim;
  RngStream rng(7, "interleave");
  struct Want {
    Time t;
    u32 id;
  };
  std::vector<Want> want;
  std::vector<u32> fired;
  std::vector<EventHandle> handles;
  for (u32 id = 0; id < 2000; ++id) {
    const Time t = static_cast<Time>(static_cast<int>(rng.uniform01() * 200.0));
    if (rng.uniform01() < 0.5) {
      handles.push_back(sim.schedule_at(t, [&fired, id] { fired.push_back(id); }));
    } else {
      handles.push_back(sim.schedule_at(t, typed(&target, EventKind::kWorkloadOp, 0, id)));
    }
    want.push_back(Want{t, id});
  }
  std::vector<bool> cancelled(want.size(), false);
  for (u32 id = 0; id < want.size(); id += 7) {
    sim.cancel(handles[id]);
    cancelled[id] = true;
  }
  std::erase_if(want, [&](const Want& w) { return cancelled[w.id]; });
  std::stable_sort(want.begin(), want.end(), [](const Want& a, const Want& b) { return a.t < b.t; });
  // Closures append to `fired` directly; typed events are folded in from
  // the target's hits after each step, keeping dispatch order.
  usize seen_hits = 0;
  while (sim.pending() > 0) {
    sim.step_one();
    for (; seen_hits < target.hits.size(); ++seen_hits) fired.push_back(target.hits[seen_hits].a);
  }
  ASSERT_EQ(fired.size(), want.size());
  for (usize i = 0; i < want.size(); ++i) ASSERT_EQ(fired[i], want[i].id) << "position " << i;
  EXPECT_TRUE(sim.invariants_ok());
}

INSTANTIATE_TEST_SUITE_P(AllQueues, SimulatorTest,
                         ::testing::ValuesIn(kAllQueueKinds),
                         [](const ::testing::TestParamInfo<QueueKind>& pi) {
                           switch (pi.param) {
                             case QueueKind::kBinaryHeap: return "BinaryHeap";
                             case QueueKind::kCalendar: return "Calendar";
                             case QueueKind::kSortedList: return "SortedList";
                           }
                           return "Unknown";
                         });

}  // namespace
}  // namespace mobichk::des
