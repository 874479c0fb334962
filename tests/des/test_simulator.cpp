#include "des/simulator.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <stdexcept>
#include <type_traits>
#include <vector>

namespace mobichk::des {
namespace {

// The queues copy entries by value.
static_assert(std::is_trivially_copyable_v<EventEntry>);
static_assert(sizeof(EventEntry) <= 56);

/// Test target recording every dispatched payload, then running the
/// test's optional hook on it (to schedule, cancel or stop from inside
/// an event).
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
  std::function<void(const EventPayload&)> hook;

  explicit RecordingTarget(Simulator& s) : sim(&s) {}

  void on_event(const EventPayload& p) override {
    hits.push_back(Hit{sim->now(), p.kind, p.sub, p.a, p.b, p.c});
    if (hook) hook(p);
  }

  /// The `a` operands of the fired events, in firing order.
  std::vector<u32> order() const {
    std::vector<u32> out;
    for (const Hit& h : hits) out.push_back(h.a);
    return out;
  }

  /// Schedules a kTick carrying `id` at absolute time `t`.
  EventHandle at(Time t, u32 id = 0) {
    EventPayload p;
    p.target = this;
    p.a = id;
    return sim->schedule_at(t, p);
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

class SimulatorTest : public ::testing::TestWithParam<QueueKind> {};

TEST_P(SimulatorTest, StartsAtZero) {
  Simulator sim(GetParam());
  EXPECT_EQ(sim.now(), 0.0);
  EXPECT_EQ(sim.events_executed(), 0u);
  EXPECT_EQ(sim.pending(), 0u);
}

TEST_P(SimulatorTest, ExecutesInTimeOrder) {
  Simulator sim(GetParam());
  RecordingTarget target(sim);
  target.at(3.0, 3);
  target.at(1.0, 1);
  target.at(2.0, 2);
  EXPECT_EQ(sim.run(), 3u);
  EXPECT_EQ(target.order(), (std::vector<u32>{1, 2, 3}));
}

TEST_P(SimulatorTest, SimultaneousEventsRunInScheduleOrder) {
  Simulator sim(GetParam());
  RecordingTarget target(sim);
  target.at(5.0, 1);
  target.at(5.0, 2);
  target.at(5.0, 3);
  sim.run();
  EXPECT_EQ(target.order(), (std::vector<u32>{1, 2, 3}));
}

TEST_P(SimulatorTest, ClockAdvancesToEventTime) {
  Simulator sim(GetParam());
  RecordingTarget target(sim);
  target.at(7.5);
  sim.run();
  ASSERT_EQ(target.hits.size(), 1u);
  EXPECT_DOUBLE_EQ(target.hits[0].at, 7.5);
  EXPECT_DOUBLE_EQ(sim.now(), 7.5);
}

TEST_P(SimulatorTest, ScheduleAfterIsRelative) {
  Simulator sim(GetParam());
  RecordingTarget target(sim);
  target.hook = [&](const EventPayload& p) {
    if (p.a == 0) sim.schedule_after(2.5, typed(&target, EventKind::kTick, 0, 1));
  };
  target.at(10.0);
  sim.run();
  ASSERT_EQ(target.hits.size(), 2u);
  EXPECT_DOUBLE_EQ(target.hits[1].at, 12.5);
}

TEST_P(SimulatorTest, EventsCanScheduleChains) {
  Simulator sim(GetParam());
  RecordingTarget target(sim);
  target.hook = [&](const EventPayload& p) {
    if (target.hits.size() < 100) sim.schedule_after(1.0, p);
  };
  target.at(0.0);
  sim.run();
  EXPECT_EQ(target.hits.size(), 100u);
  EXPECT_DOUBLE_EQ(sim.now(), 99.0);
}

TEST_P(SimulatorTest, RunUntilStopsAtHorizon) {
  Simulator sim(GetParam());
  RecordingTarget target(sim);
  for (int i = 1; i <= 10; ++i) target.at(static_cast<Time>(i));
  EXPECT_EQ(sim.run_until(5.0), 5u);
  EXPECT_EQ(target.hits.size(), 5u);
  EXPECT_DOUBLE_EQ(sim.now(), 5.0);
  EXPECT_EQ(sim.pending(), 5u);
  EXPECT_EQ(sim.run_until(100.0), 5u);
  EXPECT_EQ(target.hits.size(), 10u);
  EXPECT_DOUBLE_EQ(sim.now(), 100.0);
}

TEST_P(SimulatorTest, RunUntilIncludesEventsAtHorizon) {
  Simulator sim(GetParam());
  RecordingTarget target(sim);
  target.at(5.0);
  sim.run_until(5.0);
  EXPECT_EQ(target.hits.size(), 1u);
}

TEST_P(SimulatorTest, CancelPreventsExecution) {
  Simulator sim(GetParam());
  RecordingTarget target(sim);
  const EventHandle h = target.at(1.0, 1);
  target.at(2.0, 2);
  sim.cancel(h);
  sim.run();
  EXPECT_EQ(target.order(), (std::vector<u32>{2}));
}

TEST_P(SimulatorTest, CancelFromWithinEvent) {
  Simulator sim(GetParam());
  RecordingTarget target(sim);
  const EventHandle victim = target.at(2.0, 2);
  target.hook = [&](const EventPayload& p) {
    if (p.a == 1) sim.cancel(victim);
  };
  target.at(1.0, 1);
  sim.run();
  EXPECT_EQ(target.order(), (std::vector<u32>{1}));
}

TEST_P(SimulatorTest, StopEndsRun) {
  Simulator sim(GetParam());
  RecordingTarget target(sim);
  target.hook = [&](const EventPayload& p) {
    if (p.a == 2) sim.stop();
  };
  target.at(1.0, 1);
  target.at(2.0, 2);
  target.at(3.0, 3);
  sim.run();
  EXPECT_EQ(target.hits.size(), 2u);
  EXPECT_EQ(sim.pending(), 1u);
}

TEST_P(SimulatorTest, ThrowsOnSchedulingInThePast) {
  Simulator sim(GetParam());
  RecordingTarget target(sim);
  target.at(10.0);
  sim.run();
  EXPECT_THROW(target.at(5.0), std::invalid_argument);
}

TEST_P(SimulatorTest, InvalidHandleIsNoop) {
  Simulator sim(GetParam());
  EventHandle h;
  EXPECT_FALSE(h.valid());
  sim.cancel(h);  // must not crash
  RecordingTarget target(sim);
  target.at(1.0);
  sim.run();
  EXPECT_EQ(target.hits.size(), 1u);
}

TEST_P(SimulatorTest, CountsExecutedEvents) {
  Simulator sim(GetParam());
  RecordingTarget target(sim);
  for (int i = 0; i < 37; ++i) target.at(static_cast<Time>(i));
  sim.run();
  EXPECT_EQ(sim.events_executed(), 37u);
}

TEST_P(SimulatorTest, CancelOfFiredHandleCannotTruncateTheRun) {
  // Regression for the event-queue lifetime bug: cancelling a handle
  // whose event already fired corrupted the live count, so empty()
  // reported true while real events remained and run()/run_until()
  // silently dropped the tail of the simulation.
  Simulator sim(GetParam());
  RecordingTarget target(sim);
  const EventHandle h = target.at(1.0);
  target.at(2.0);
  target.at(3.0);
  EXPECT_EQ(sim.run_until(1.5), 1u);
  ASSERT_EQ(target.hits.size(), 1u);
  sim.cancel(h);  // h already fired: must be a no-op
  EXPECT_EQ(sim.pending(), 2u);
  EXPECT_EQ(sim.run_until(2.5), 1u);
  EXPECT_EQ(target.hits.size(), 2u);
  EXPECT_EQ(sim.run(), 1u);
  EXPECT_EQ(target.hits.size(), 3u);
  EXPECT_EQ(sim.pending(), 0u);
  EXPECT_TRUE(sim.invariants_ok());
}

TEST_P(SimulatorTest, RepeatedCancelOfFiredHandleIsStable) {
  Simulator sim(GetParam());
  RecordingTarget target(sim);
  const EventHandle h = target.at(1.0);
  for (int i = 2; i <= 10; ++i) target.at(static_cast<Time>(i));
  sim.run_until(1.0);
  for (int i = 0; i < 5; ++i) sim.cancel(h);
  EXPECT_EQ(sim.pending(), 9u);
  sim.run();
  EXPECT_EQ(target.hits.size(), 10u);
  EXPECT_EQ(sim.invariants().cancels_requested, 5u);
  EXPECT_EQ(sim.invariants().cancels_effective, 0u);
  EXPECT_EQ(sim.invariants().cancels_noop(), 5u);
  EXPECT_TRUE(sim.invariants_ok());
}

TEST_P(SimulatorTest, InvariantLedgerReconciles) {
  Simulator sim(GetParam());
  RecordingTarget target(sim);
  std::vector<EventHandle> handles;
  for (int i = 1; i <= 20; ++i) handles.push_back(target.at(static_cast<Time>(i)));
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
  EXPECT_EQ(target.hits.size(), 18u);
  EXPECT_TRUE(sim.invariants_ok());
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
  RecordingTarget target(sim);
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
  for (const QueueKind kind : kAllQueueKinds) {
    Simulator sim(kind);
    RecordingTarget target(sim);
    for (u32 i = 0; i < 50; ++i) {
      sim.schedule_at(static_cast<Time>(i % 5), typed(&target, EventKind::kWorkloadOp));
    }
    target.hook = [&](const EventPayload& p) {
      if (p.a == 1) sim.schedule_after(0.0, typed(&target, EventKind::kTick, 0, 2));
    };
    target.at(2.0, 1);
    sim.run();
    EXPECT_EQ(target.hits.size(), 52u) << queue_kind_name(kind);  // the chained event ran
    EXPECT_EQ(sim.invariants().pop_order_violations, 0u) << queue_kind_name(kind);
    EXPECT_TRUE(sim.invariants_ok()) << queue_kind_name(kind);
  }
}

TEST_P(SimulatorTest, TypedEventsDispatchWithOperandsIntact) {
  Simulator sim(GetParam());
  RecordingTarget target(sim);
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

TEST_P(SimulatorTest, TypedEventsCancelLikeClosures) {
  Simulator sim(GetParam());
  RecordingTarget target(sim);
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
  RecordingTarget target(sim);
  const EventHandle h = target.at(10.0);
  target.at(1.0);
  EXPECT_EQ(sim.run_until(5.0), 1u);
  sim.cancel(h);  // must still refer to the t=10 event
  EXPECT_EQ(sim.pending(), 0u);
  EXPECT_EQ(sim.run(), 0u);
  EXPECT_EQ(target.hits.size(), 1u);
  EXPECT_EQ(sim.invariants().cancels_effective, 1u);
  EXPECT_TRUE(sim.invariants_ok());
}

TEST_P(SimulatorTest, ReusedSlotRunsOnlyTheNewPayload) {
  Simulator sim(GetParam());
  RecordingTarget target(sim);
  const EventHandle old_h = target.at(1.0, 1);
  target.at(2.0, 9);
  sim.cancel(old_h);
  // Peeking past the cancelled entry releases its slot for reuse.
  EXPECT_EQ(sim.run_until(1.5), 0u);
  const EventHandle new_h = target.at(3.0, 2);
  ASSERT_EQ(new_h.slot, old_h.slot);
  ASSERT_NE(new_h.gen, old_h.gen);
  sim.cancel(old_h);  // stale: must not reach the new payload
  EXPECT_EQ(sim.run(), 2u);
  EXPECT_EQ(target.order(), (std::vector<u32>{9, 2}));
  EXPECT_TRUE(sim.invariants_ok());
}

INSTANTIATE_TEST_SUITE_P(AllQueues, SimulatorTest,
                         ::testing::ValuesIn(kAllQueueKinds),
                         [](const ::testing::TestParamInfo<QueueKind>& pi) {
                           switch (pi.param) {
                             case QueueKind::kBinaryHeap: return "BinaryHeap";
                             case QueueKind::kSortedList: return "SortedList";
                           }
                           return "Unknown";
                         });

}  // namespace
}  // namespace mobichk::des
