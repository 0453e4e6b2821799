#include "src/sim/scheduler.h"

#include <gtest/gtest.h>

#include <functional>
#include <vector>

#include "src/common/value.h"

namespace fargo::sim {
namespace {

TEST(SchedulerTest, ExecutesInTimeOrder) {
  SimScheduler s;
  std::vector<int> order;
  s.ScheduleAt(Millis(30), [&] { order.push_back(3); });
  s.ScheduleAt(Millis(10), [&] { order.push_back(1); });
  s.ScheduleAt(Millis(20), [&] { order.push_back(2); });
  s.RunUntilIdle();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(s.Now(), Millis(30));
}

TEST(SchedulerTest, SameTimeIsFifo) {
  SimScheduler s;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i)
    s.ScheduleAt(Millis(5), [&order, i] { order.push_back(i); });
  s.RunUntilIdle();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(SchedulerTest, PastTimesClampToNow) {
  SimScheduler s;
  s.ScheduleAt(Millis(10), [] {});
  s.RunUntilIdle();
  bool ran = false;
  s.ScheduleAt(Millis(1), [&] { ran = true; });  // in the past
  s.RunUntilIdle();
  EXPECT_TRUE(ran);
  EXPECT_EQ(s.Now(), Millis(10));  // clock never goes backwards
}

TEST(SchedulerTest, CancelPreventsExecution) {
  SimScheduler s;
  bool ran = false;
  TaskId id = s.ScheduleAfter(Millis(1), [&] { ran = true; });
  s.Cancel(id);
  s.RunUntilIdle();
  EXPECT_FALSE(ran);
}

TEST(SchedulerTest, RunForAdvancesClockExactly) {
  SimScheduler s;
  int count = 0;
  s.ScheduleAt(Millis(5), [&] { ++count; });
  s.ScheduleAt(Millis(15), [&] { ++count; });
  s.RunFor(Millis(10));
  EXPECT_EQ(count, 1);
  EXPECT_EQ(s.Now(), Millis(10));
  s.RunFor(Millis(10));
  EXPECT_EQ(count, 2);
  EXPECT_EQ(s.Now(), Millis(20));
}

TEST(SchedulerTest, RunUntilThrowsOnDrain) {
  SimScheduler s;
  s.ScheduleAfter(Millis(1), [] {});
  EXPECT_THROW(s.RunUntil([] { return false; }), FargoError);
}

TEST(SchedulerTest, RunUntilOrTimesOut) {
  SimScheduler s;
  int ticks = 0;
  // Self-rescheduling ticker keeps the queue non-empty.
  std::function<void()> tick = [&] {
    ++ticks;
    s.ScheduleAfter(Millis(1), tick);
  };
  s.ScheduleAfter(Millis(1), tick);
  bool ok = s.RunUntilOr([] { return false; }, Millis(50));
  EXPECT_FALSE(ok);
  EXPECT_EQ(s.Now(), Millis(50));
  EXPECT_GE(ticks, 49);
}

TEST(SchedulerTest, RunUntilOrStopsEarlyWhenPredicateHolds) {
  SimScheduler s;
  bool flag = false;
  s.ScheduleAfter(Millis(3), [&] { flag = true; });
  s.ScheduleAfter(Millis(100), [] {});
  EXPECT_TRUE(s.RunUntilOr([&] { return flag; }, Millis(1000)));
  EXPECT_EQ(s.Now(), Millis(3));
}

TEST(SchedulerTest, PumpInsideAPumpThrows) {
  // Handlers never block: an event that pumps the scheduler again throws,
  // whichever pump it calls, and the outer pump carries on.
  SimScheduler s;
  int threw = 0;
  bool later = false;
  s.ScheduleAfter(Millis(1), [&] {
    const std::vector<std::function<void()>> pumps = {
        [&] { s.RunOne(); },
        [&] { s.RunUntilIdle(); },
        [&] { s.RunUntil([] { return true; }); },
        [&] { s.RunUntilOr([] { return true; }, Millis(5)); },
        [&] { s.RunFor(Millis(1)); }};
    for (const auto& pump : pumps) {
      try {
        pump();
      } catch (const FargoError&) {
        ++threw;
      }
    }
  });
  s.ScheduleAfter(Millis(2), [&] { later = true; });
  s.RunUntilIdle();
  EXPECT_EQ(threw, 5);
  EXPECT_TRUE(later);
  // The outer pump ended cleanly: the next top-level pump is allowed.
  s.ScheduleAfter(Millis(1), [] {});
  EXPECT_TRUE(s.RunOne());
}

TEST(PeriodicTaskTest, FiresAtInterval) {
  SimScheduler s;
  int fires = 0;
  PeriodicTask task(s, Millis(10), [&] { ++fires; });
  s.RunFor(Millis(100));
  EXPECT_EQ(fires, 10);
}

TEST(PeriodicTaskTest, StopHaltsFiring) {
  SimScheduler s;
  int fires = 0;
  PeriodicTask task(s, Millis(10), [&] { ++fires; });
  s.RunFor(Millis(35));
  task.Stop();
  s.RunFor(Millis(100));
  EXPECT_EQ(fires, 3);
  EXPECT_FALSE(task.running());
}

TEST(PeriodicTaskTest, DestroyFromOwnCallbackIsSafe) {
  SimScheduler s;
  std::unique_ptr<PeriodicTask> task;
  int fires = 0;
  task = std::make_unique<PeriodicTask>(s, Millis(10), [&] {
    ++fires;
    task.reset();  // destroy the task from inside its own callback
  });
  s.RunFor(Millis(100));
  EXPECT_EQ(fires, 1);
}

TEST(SchedulerTest, ExecutedCounterCounts) {
  SimScheduler s;
  for (int i = 0; i < 5; ++i) s.ScheduleAfter(Millis(1), [] {});
  s.RunUntilIdle();
  EXPECT_EQ(s.executed(), 5u);
}

}  // namespace
}  // namespace fargo::sim
