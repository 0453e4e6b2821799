// The indexed event queue (event_queue.h) alone, then the cancel contract
// it gives both engines: eager removal, exact PendingCount, stale ids are
// harmless, and the same-time FIFO tiebreak survives cancels. Also the
// Task closure type the queues store (task.h): inline storage, heap
// fallback, and every closure destroyed exactly once.
#include "src/sim/event_queue.h"

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <utility>
#include <vector>

#include "src/sim/parallel_sched.h"
#include "src/sim/scheduler.h"
#include "src/sim/task.h"

namespace {
/// Heap allocations made by the calling thread (this binary replaces the
/// global operator new).
thread_local std::uint64_t tl_allocs = 0;
}  // namespace

void* operator new(std::size_t n) {
  ++tl_allocs;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace fargo::sim {
namespace {

/// A move-only capture that counts how often a live instance is destroyed.
class DestroyProbe {
 public:
  explicit DestroyProbe(int* destroyed) : destroyed_(destroyed) {}
  DestroyProbe(DestroyProbe&& o) noexcept
      : destroyed_(std::exchange(o.destroyed_, nullptr)) {}
  DestroyProbe& operator=(DestroyProbe&&) = delete;
  ~DestroyProbe() {
    if (destroyed_ != nullptr) ++*destroyed_;
  }

 private:
  int* destroyed_;
};

/// Padding that makes a `[probe, pad]` closure exactly fill, or overflow,
/// the inline buffer.
constexpr std::size_t kFillPad = Task::kInlineBytes - sizeof(DestroyProbe);
using FillPad = std::array<unsigned char, kFillPad>;
using SpillPad = std::array<unsigned char, kFillPad + 1>;

template <class Pad>
auto ProbeClosure(int* destroyed) {
  return [probe = DestroyProbe(destroyed), pad = Pad{}] { (void)pad; };
}

static_assert(Task::kFitsInline<decltype(ProbeClosure<FillPad>(nullptr))>);
static_assert(!Task::kFitsInline<decltype(ProbeClosure<SpillPad>(nullptr))>);

TEST(TaskTest, AcceptsAMoveOnlyCaptureAndEmptiesTheMovedFrom) {
  int got = 0;
  Task t = [p = std::make_unique<int>(41), &got] { got = *p + 1; };
  Task moved = std::move(t);
  EXPECT_FALSE(t);
  ASSERT_TRUE(moved);
  moved();
  EXPECT_EQ(got, 42);

  EventQueue q;
  q.Push(1, [p = std::make_unique<int>(7), &got] { got = *p; });
  q.Pop().fn();
  EXPECT_EQ(got, 7);
}

TEST(TaskTest, InlineClosuresDoNotAllocateAndLargerOnesTakeTheHeap) {
  int destroyed = 0;
  const std::uint64_t before = tl_allocs;
  {
    Task a = ProbeClosure<FillPad>(&destroyed);
    Task b = std::move(a);
    b();
  }
  EXPECT_EQ(tl_allocs, before) << "a closure of exactly kInlineBytes";
  {
    Task a = ProbeClosure<SpillPad>(&destroyed);
    Task b = std::move(a);  // moves the pointer, not the closure
    b();
  }
  EXPECT_EQ(tl_allocs, before + 1) << "one byte past the buffer";

  // A closure whose move may throw is never relocated in place.
  struct ThrowingMove {
    explicit ThrowingMove(int* runs) : runs(runs) {}
    ThrowingMove(ThrowingMove&& o) noexcept(false) : runs(o.runs) {}
    void operator()() { ++*runs; }
    int* runs;
  };
  static_assert(!Task::kFitsInline<ThrowingMove>);
  int runs = 0;
  EventQueue q;
  q.Push(1, [] {});  // grows the queue
  q.Pop();
  const std::uint64_t grown = tl_allocs;
  q.Push(1, ThrowingMove(&runs));
  q.Pop().fn();
  EXPECT_EQ(tl_allocs, grown + 1);
  EXPECT_EQ(runs, 1);
  EXPECT_EQ(destroyed, 2);
}

TEST(TaskTest, AGrownQueueSchedulesInlineClosuresWithoutAllocating) {
  EventQueue q;
  int runs = 0;
  auto closure = [&runs, pad = FillPad{}] { runs += 1 + pad[0]; };
  static_assert(Task::kFitsInline<decltype(closure)>);
  q.Push(1, closure);  // grows the slab, the heap and the free list
  q.Pop().fn();
  const std::uint64_t before = tl_allocs;
  for (int i = 0; i < 100; ++i) {
    q.Push(2, closure);
    q.Pop().fn();
  }
  EXPECT_EQ(tl_allocs, before);
  EXPECT_EQ(runs, 101);
}

template <class Pad>
void ExpectEveryClosureDestroyedOnce() {
  int destroyed = 0;
  {
    EventQueue q;
    q.Push(1, ProbeClosure<Pad>(&destroyed));
    const EventQueue::Handle cancelled = q.Push(2, ProbeClosure<Pad>(&destroyed));
    q.Push(3, ProbeClosure<Pad>(&destroyed));
    q.Reserve(ProbeClosure<Pad>(&destroyed));
    {
      EventQueue::Popped popped = q.Pop();
      popped.fn();
      EXPECT_EQ(destroyed, 0) << "the popped task owns its closure";
    }
    EXPECT_EQ(destroyed, 1);  // Pop
    EXPECT_TRUE(q.Cancel(cancelled));
    EXPECT_EQ(destroyed, 2);  // Cancel
    EXPECT_FALSE(q.Cancel(cancelled));
    q.Clear();
    EXPECT_EQ(destroyed, 4);  // Clear: the queued and the reserved task
  }
  EXPECT_EQ(destroyed, 4) << "the queue's destructor found nothing left";
}

TEST(TaskTest, EveryQueuedClosureIsDestroyedExactlyOnce) {
  ExpectEveryClosureDestroyedOnce<FillPad>();
  ExpectEveryClosureDestroyedOnce<SpillPad>();
}

TEST(TaskTest, ParallelClearDestroysStagedQueuedAndHandedOffClosuresOnce) {
  int destroyed = 0;
  {
    ParallelScheduler ps(2);
    // A worker on locality 0 hands a far-future task to locality 1: it
    // waits in locality 1's inbox until the next merge.
    ps.ScheduleAt(1, [&ps, &destroyed] {
      ps.Post(1, Seconds(10), ProbeClosure<FillPad>(&destroyed));
    });
    ps.RunFor(Millis(2));
    ps.ScheduleAt(Seconds(5), ProbeClosure<FillPad>(&destroyed));  // staged
    ps.Post(0, Seconds(6), ProbeClosure<SpillPad>(&destroyed));
    EXPECT_EQ(ps.PendingCount(), 3u);
    EXPECT_EQ(destroyed, 0);
    ps.Clear();
    EXPECT_EQ(destroyed, 3);
    EXPECT_EQ(ps.PendingCount(), 0u);
  }
  EXPECT_EQ(destroyed, 3);
}

/// Cancels `*victim` in `q` when destroyed.
class CancelOnDestroy {
 public:
  CancelOnDestroy(EventQueue* q, const EventQueue::Handle* victim)
      : q_(q), victim_(victim) {}
  CancelOnDestroy(CancelOnDestroy&& o) noexcept
      : q_(std::exchange(o.q_, nullptr)), victim_(o.victim_) {}
  CancelOnDestroy& operator=(CancelOnDestroy&&) = delete;
  ~CancelOnDestroy() {
    if (q_ != nullptr) q_->Cancel(*victim_);
  }

 private:
  EventQueue* q_;
  const EventQueue::Handle* victim_;
};

TEST(TaskTest, AClosureWhoseDestructorCancelsAnotherTaskIsSafe) {
  for (int how = 0; how < 3; ++how) {
    int destroyed = 0;
    EventQueue q;
    const EventQueue::Handle victim =
        q.Push(9, ProbeClosure<FillPad>(&destroyed));
    const EventQueue::Handle h =
        q.Push(5, [c = CancelOnDestroy(&q, &victim)] {});
    q.Push(7, [] {});
    if (how == 0) {
      q.Pop().fn();  // destroyed after running, once popped
    } else if (how == 1) {
      EXPECT_TRUE(q.Cancel(h));
    } else {
      q.Clear();
    }
    EXPECT_EQ(destroyed, 1) << "case " << how;
    EXPECT_EQ(q.size(), how == 2 ? 0u : 1u) << "case " << how;
    EXPECT_FALSE(q.Cancel(victim));
    while (!q.empty()) q.Pop().fn();
  }
}

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
