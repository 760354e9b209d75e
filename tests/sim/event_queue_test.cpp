#include "sim/event_queue.h"

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <vector>

namespace cellrel {
namespace {

TEST(Simulator, RunsEventsInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(SimTime::from_seconds(3.0), [&] { order.push_back(3); });
  sim.schedule_at(SimTime::from_seconds(1.0), [&] { order.push_back(1); });
  sim.schedule_at(SimTime::from_seconds(2.0), [&] { order.push_back(2); });
  EXPECT_EQ(sim.run(), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(sim.now().to_seconds(), 3.0);
}

TEST(Simulator, TiesBreakByInsertionOrder) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.schedule_at(SimTime::from_seconds(1.0), [&order, i] { order.push_back(i); });
  }
  sim.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Simulator, ScheduleAfterUsesCurrentTime) {
  Simulator sim;
  double fired_at = -1.0;
  sim.schedule_after(SimDuration::seconds(5.0), [&] {
    sim.schedule_after(SimDuration::seconds(2.0),
                       [&] { fired_at = sim.now().to_seconds(); });
  });
  sim.run();
  EXPECT_DOUBLE_EQ(fired_at, 7.0);
}

TEST(Simulator, RejectsPastAndNegative) {
  Simulator sim;
  sim.schedule_at(SimTime::from_seconds(10.0), [] {});
  sim.run();
  EXPECT_THROW(sim.schedule_at(SimTime::from_seconds(5.0), [] {}), std::invalid_argument);
  EXPECT_THROW(sim.schedule_after(SimDuration::seconds(-1.0), [] {}), std::invalid_argument);
}

TEST(Simulator, CancelPreventsExecution) {
  Simulator sim;
  int fired = 0;
  ScheduledEvent e = sim.schedule_after(SimDuration::seconds(1.0), [&] { ++fired; });
  EXPECT_TRUE(e.pending());
  e.cancel();
  EXPECT_FALSE(e.pending());
  EXPECT_EQ(sim.run(), 0u);
  EXPECT_EQ(fired, 0);
  // Popping a cancelled entry still advances the clock to its time; the
  // campaign's outputs depend on this.
  EXPECT_EQ(sim.now(), SimTime::from_seconds(1.0));
}

TEST(Simulator, CancelAfterFireIsNoop) {
  Simulator sim;
  int fired = 0;
  ScheduledEvent e = sim.schedule_after(SimDuration::seconds(1.0), [&] { ++fired; });
  sim.run();
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(e.pending());
  e.cancel();  // must not crash or double-count
  EXPECT_EQ(fired, 1);
}

TEST(Simulator, RunUntilStopsAtDeadline) {
  Simulator sim;
  std::vector<double> fired;
  for (double t : {1.0, 2.0, 3.0, 4.0}) {
    sim.schedule_at(SimTime::from_seconds(t), [&fired, t] { fired.push_back(t); });
  }
  EXPECT_EQ(sim.run_until(SimTime::from_seconds(2.5)), 2u);
  EXPECT_EQ(fired, (std::vector<double>{1.0, 2.0}));
  EXPECT_DOUBLE_EQ(sim.now().to_seconds(), 2.5);
  EXPECT_EQ(sim.pending_events(), 2u);
  EXPECT_EQ(sim.run_until(SimTime::from_seconds(10.0)), 2u);
  EXPECT_DOUBLE_EQ(sim.now().to_seconds(), 10.0);
}

TEST(Simulator, RunUntilInclusiveOfDeadline) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(SimTime::from_seconds(2.0), [&] { ++fired; });
  sim.run_until(SimTime::from_seconds(2.0));
  EXPECT_EQ(fired, 1);
}

TEST(Simulator, StepFiresExactlyOne) {
  Simulator sim;
  int fired = 0;
  sim.schedule_after(SimDuration::seconds(1.0), [&] { ++fired; });
  sim.schedule_after(SimDuration::seconds(2.0), [&] { ++fired; });
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(fired, 2);
  EXPECT_FALSE(sim.step());
}

TEST(Simulator, StepSkipsCancelled) {
  Simulator sim;
  int fired = 0;
  ScheduledEvent a = sim.schedule_after(SimDuration::seconds(1.0), [&] { ++fired; });
  sim.schedule_after(SimDuration::seconds(2.0), [&] { fired += 10; });
  a.cancel();
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(fired, 10);
}

TEST(Simulator, EventsScheduledDuringRunAreProcessed) {
  Simulator sim;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 5) sim.schedule_after(SimDuration::seconds(1.0), recurse);
  };
  sim.schedule_after(SimDuration::seconds(1.0), recurse);
  sim.run();
  EXPECT_EQ(depth, 5);
  EXPECT_DOUBLE_EQ(sim.now().to_seconds(), 5.0);
}

TEST(Simulator, CancellationFromInsideEvent) {
  Simulator sim;
  int fired = 0;
  ScheduledEvent later;
  sim.schedule_after(SimDuration::seconds(1.0), [&] { later.cancel(); });
  later = sim.schedule_after(SimDuration::seconds(2.0), [&] { ++fired; });
  sim.run();
  EXPECT_EQ(fired, 0);
}

TEST(Simulator, StaleHandleDoesNotTouchSlotReuser) {
  Simulator sim;
  int first = 0;
  int second = 0;
  ScheduledEvent stale = sim.schedule_after(SimDuration::seconds(1.0), [&] { ++first; });
  sim.run();
  // The next event reuses the freed slot; the old handle must not see it.
  ScheduledEvent fresh = sim.schedule_after(SimDuration::seconds(1.0), [&] { ++second; });
  EXPECT_FALSE(stale.pending());
  EXPECT_TRUE(fresh.pending());
  stale.cancel();
  EXPECT_TRUE(fresh.pending());
  EXPECT_EQ(sim.run(), 1u);
  EXPECT_EQ(first, 1);
  EXPECT_EQ(second, 1);
}

TEST(Simulator, StaleHandleOfCancelledEventDoesNotTouchSlotReuser) {
  Simulator sim;
  int fired = 0;
  ScheduledEvent stale = sim.schedule_after(SimDuration::seconds(1.0), [&] { fired += 100; });
  stale.cancel();
  EXPECT_EQ(sim.run(), 0u);
  ScheduledEvent fresh = sim.schedule_after(SimDuration::seconds(1.0), [&] { ++fired; });
  stale.cancel();
  EXPECT_TRUE(fresh.pending());
  EXPECT_EQ(sim.run(), 1u);
  EXPECT_EQ(fired, 1);
}

TEST(Simulator, HandleCopiesShareCancellation) {
  Simulator sim;
  int fired = 0;
  const ScheduledEvent original =
      sim.schedule_after(SimDuration::seconds(1.0), [&] { ++fired; });
  ScheduledEvent copy = original;
  EXPECT_TRUE(original.pending());
  copy.cancel();
  EXPECT_FALSE(original.pending());
  EXPECT_FALSE(copy.pending());
  EXPECT_EQ(sim.run(), 0u);
  EXPECT_EQ(fired, 0);
}

TEST(Simulator, HandleIsNotPendingInsideItsOwnCallback) {
  Simulator sim;
  ScheduledEvent self;
  bool pending_inside = true;
  self = sim.schedule_after(SimDuration::seconds(1.0), [&] {
    pending_inside = self.pending();
    self.cancel();  // a no-op: the event is already running
  });
  EXPECT_EQ(sim.run(), 1u);
  EXPECT_FALSE(pending_inside);
}

TEST(Simulator, CallbackMayGrowTheSlabWhileRunning) {
  Simulator sim;
  constexpr int kChildren = 10'000;
  // The capture is large enough to be clobbered if the running callback
  // were still read from its slot after the slab reallocated.
  std::vector<int> order;
  std::function<void(int)> record = [&order](int v) { order.push_back(v); };
  sim.schedule_after(SimDuration::seconds(1.0), [&sim, record, tag = 7] {
    for (int i = 0; i < kChildren; ++i) {
      sim.schedule_after(SimDuration::seconds(1.0), [record, i] { record(i); });
    }
    record(-tag);
  });
  EXPECT_EQ(sim.run(), static_cast<std::size_t>(kChildren) + 1);
  ASSERT_EQ(order.size(), static_cast<std::size_t>(kChildren) + 1);
  EXPECT_EQ(order.front(), -7);
  for (int i = 0; i < kChildren; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i) + 1], i);
  EXPECT_EQ(sim.now(), SimTime::from_seconds(2.0));
}

TEST(Simulator, AcceptsMoveOnlyCapture) {
  Simulator sim;
  int seen = 0;
  auto owned = std::make_unique<int>(42);
  sim.schedule_after(SimDuration::seconds(1.0), [p = std::move(owned), &seen] { seen = *p; });
  EXPECT_EQ(sim.run(), 1u);
  EXPECT_EQ(seen, 42);
}

TEST(Simulator, CancelledCaptureIsReleasedWhenPopped) {
  Simulator sim;
  auto token = std::make_shared<int>(0);
  ScheduledEvent e = sim.schedule_after(SimDuration::seconds(1.0), [token] {});
  EXPECT_EQ(token.use_count(), 2);
  e.cancel();
  sim.run();
  EXPECT_EQ(token.use_count(), 1);
}

}  // namespace
}  // namespace cellrel
