// The indexed event queue (event_queue.h) alone, then the cancel contract
// it gives both engines: eager removal, exact PendingCount, stale ids are
// harmless, and the same-time FIFO tiebreak survives cancels.
#include "src/sim/event_queue.h"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "src/sim/parallel_sched.h"
#include "src/sim/scheduler.h"

namespace fargo::sim {
namespace {

TEST(EventQueueTest, PopsInTimeThenPushOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 40; ++i)
    q.Push(SimTime{(i * 7) % 5}, [&order, i] { order.push_back(i); });
  while (!q.empty()) q.Pop().fn();
  std::vector<int> want;
  for (int at = 0; at < 5; ++at)
    for (int i = 0; i < 40; ++i)
      if ((i * 7) % 5 == at) want.push_back(i);
  EXPECT_EQ(order, want);
}

TEST(EventQueueTest, CancelRemovesAtOnceAndDestroysTheClosure) {
  EventQueue q;
  auto held = std::make_shared<int>(0);
  const EventQueue::Handle h = q.Push(Seconds(30), [held] {});
  q.Push(1, [] {});
  EXPECT_EQ(held.use_count(), 2);
  EXPECT_TRUE(q.Cancel(h));
  EXPECT_EQ(held.use_count(), 1);
  EXPECT_EQ(q.size(), 1u);
  EXPECT_FALSE(q.Cancel(h));  // already cancelled
  EXPECT_EQ(q.Pop().at, 1);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueueTest, StaleHandleDoesNotCancelTheSlotsNextTask) {
  EventQueue q;
  const EventQueue::Handle first = q.Push(5, [] {});
  q.Pop();
  bool ran = false;
  const EventQueue::Handle second = q.Push(6, [&] { ran = true; });
  ASSERT_EQ(second >> 32, first >> 32) << "the freed slot is reused";
  EXPECT_NE(second, first);
  EXPECT_FALSE(q.Cancel(first));
  ASSERT_EQ(q.size(), 1u);
  q.Pop().fn();
  EXPECT_TRUE(ran);
  EXPECT_FALSE(q.Cancel(0));  // 0 never names a task
}

TEST(EventQueueTest, CancelledBarrierLeavesTheBarrierSet) {
  EventQueue q;
  constexpr SimTime kNone = -1;
  const EventQueue::Handle early = q.Push(10, [] {}, /*barrier=*/true);
  q.Push(20, [] {}, /*barrier=*/true);
  q.Push(5, [] {});
  EXPECT_EQ(q.next_barrier(kNone), 10);
  q.Cancel(early);
  EXPECT_EQ(q.next_barrier(kNone), 20);
  q.Pop();  // the plain task at 5
  EXPECT_TRUE(q.Pop().barrier);
  EXPECT_EQ(q.next_barrier(kNone), kNone);
}

TEST(EventQueueTest, FindAliasResolvesOnlyQueuedTasks) {
  EventQueue q;
  q.Push(1, [] {}, false, /*alias=*/77);
  const EventQueue::Handle h = q.Push(2, [] {}, false, /*alias=*/88);
  EXPECT_EQ(q.FindAlias(88), h);
  EXPECT_EQ(q.FindAlias(99), 0u);
  q.Pop();
  EXPECT_EQ(q.FindAlias(77), 0u);
}

TEST(EventQueueTest, ReservedTasksTakeTheirPlaceWhenLinked) {
  EventQueue q;
  std::vector<int> order;
  const EventQueue::Handle late = q.Reserve([&] { order.push_back(2); });
  const EventQueue::Handle dropped = q.Reserve([&] { order.push_back(9); });
  q.Push(7, [&] { order.push_back(1); });
  EXPECT_EQ(q.size(), 1u);  // reserved tasks are not queued yet
  EXPECT_TRUE(q.Cancel(dropped));
  EXPECT_FALSE(q.Link(dropped, 7));
  EXPECT_TRUE(q.Link(late, 7));  // same time, linked last: runs last
  EXPECT_FALSE(q.Link(late, 7));
  while (!q.empty()) q.Pop().fn();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(EventQueueTest, ClearMakesEveryHandleStale) {
  EventQueue q;
  const EventQueue::Handle h = q.Push(1, [] {});
  const EventQueue::Handle r = q.Reserve([] {});
  q.Clear();
  EXPECT_TRUE(q.empty());
  q.Push(1, [] {});
  q.Push(1, [] {});
  EXPECT_FALSE(q.Cancel(h));
  EXPECT_FALSE(q.Link(r, 1));
  EXPECT_EQ(q.size(), 2u);
}

// ---------------------------------------------------------------------------
// The cancel contract, under both engines. Each scenario runs inside an
// outer task, so under the parallel engine every id is a locality's own
// queue handle (the hot case), not a conductor alias.
// ---------------------------------------------------------------------------

class CancelContractTest : public ::testing::TestWithParam<int> {
 protected:
  CancelContractTest() {
    if (GetParam() == 0)
      sched_ = std::make_unique<SimScheduler>();
    else
      sched_ = std::make_unique<ParallelScheduler>(GetParam());
  }
  Scheduler& s() { return *sched_; }

 private:
  std::unique_ptr<Scheduler> sched_;
};

TEST_P(CancelContractTest, PendingCountIsExactAfterCancellingARunTask) {
  const TaskId id = s().ScheduleAfter(Millis(1), [] {});
  s().RunUntilIdle();
  s().Cancel(id);
  EXPECT_EQ(s().PendingCount(), 0u);
  s().ScheduleAfter(Millis(1), [] {});
  EXPECT_EQ(s().PendingCount(), 1u);
}

TEST_P(CancelContractTest, SameTimeFifoHoldsWithInterleavedCancels) {
  std::vector<int> order;
  s().ScheduleAt(1, [&] {
    std::vector<TaskId> ids;
    for (int i = 0; i < 12; ++i) {
      ids.push_back(s().ScheduleAt(10, [&order, i] { order.push_back(i); }));
      if (i % 3 == 1) s().Cancel(ids[static_cast<std::size_t>(i - 1)]);
    }
    s().Cancel(ids[11]);
  });
  s().RunUntilIdle();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 4, 5, 7, 8, 10}));
  EXPECT_EQ(s().PendingCount(), 0u);
}

TEST_P(CancelContractTest, TaskCancellingItsOwnIdIsANoOp) {
  std::atomic<int> runs{0};
  s().ScheduleAt(1, [&] {
    auto self = std::make_shared<TaskId>(0);
    *self = s().ScheduleAt(2, [&, self] {
      ++runs;
      // Scheduled first, so it may take over the running task's slot.
      s().ScheduleAt(3, [&] { ++runs; });
      s().Cancel(*self);
    });
  });
  s().RunUntilIdle();
  EXPECT_EQ(runs.load(), 2);
  EXPECT_EQ(s().PendingCount(), 0u);
}

TEST_P(CancelContractTest, StaleIdDoesNotCancelALaterTask) {
  TaskId first = 0;
  s().ScheduleAt(1, [&] { first = s().ScheduleAt(2, [] {}); });
  s().RunUntilIdle();
  std::atomic<bool> ran{false};
  s().ScheduleAt(3, [&] {
    s().ScheduleAt(4, [&] { ran.store(true); });
    s().Cancel(first);
  });
  s().RunUntilIdle();
  EXPECT_TRUE(ran.load());
}

TEST_P(CancelContractTest, ScheduleThenCancelCyclesLeaveNothingQueued) {
  s().ScheduleAt(1, [&] {
    for (int i = 0; i < 10000; ++i)
      s().Cancel(s().ScheduleAfter(Seconds(30), [] {}));
  });
  s().RunUntilIdle();
  EXPECT_EQ(s().PendingCount(), 0u);
  EXPECT_EQ(s().QueuePeak(), 1u);
  EXPECT_EQ(s().executed(), 1u);
  EXPECT_EQ(s().Now(), 1);  // no dead timer dragged the clock to 30 s
  // From the conductor as well.
  for (int i = 0; i < 10000; ++i)
    s().Cancel(s().ScheduleAfter(Seconds(30), [] {}));
  EXPECT_EQ(s().PendingCount(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Engines, CancelContractTest,
                         ::testing::Values(0, 2),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return info.param == 0
                                      ? std::string("Sim")
                                      : "Parallel" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace fargo::sim
