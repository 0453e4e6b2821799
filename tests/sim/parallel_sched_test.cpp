// ParallelScheduler: the FARGO_PARALLEL locality engine, tested as a
// scheduler in isolation (runtime-level equivalence lives in
// tests/integration/parallel_equivalence_test.cpp). The conductor — this
// test's thread — owns the pumps; everything asserted between pumps is
// safe to read because the workers are parked on the round barrier.
#include "src/sim/parallel_sched.h"

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <tuple>
#include <vector>

#include "src/common/value.h"

namespace fargo::sim {
namespace {

TEST(ParallelSchedulerTest, RunsEventsAtTheirVirtualTime) {
  ParallelScheduler sched(2);
  std::vector<std::pair<int, SimTime>> order;
  std::mutex mu;
  auto record = [&](int tag) {
    return [&, tag] {
      std::lock_guard<std::mutex> lock(mu);
      order.emplace_back(tag, sched.Now());
    };
  };
  sched.ScheduleAt(30, record(3));
  sched.ScheduleAt(10, record(1));
  sched.ScheduleAt(20, record(2));
  sched.RunUntilIdle();
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], (std::pair<int, SimTime>{1, 10}));
  EXPECT_EQ(order[1], (std::pair<int, SimTime>{2, 20}));
  EXPECT_EQ(order[2], (std::pair<int, SimTime>{3, 30}));
  EXPECT_EQ(sched.Now(), 30);
  EXPECT_EQ(sched.executed(), 3u);
  EXPECT_EQ(sched.PendingCount(), 0u);
}

TEST(ParallelSchedulerTest, MatchesSimSchedulerOnAChainedWorkload) {
  // The same recursive workload — each event schedules two more until a
  // depth limit — must produce identical virtual end times, executed
  // counts and per-timestamp hit totals in both engines.
  auto run = [](Scheduler& s) {
    std::mutex mu;
    std::map<SimTime, int> hits;
    std::function<void(int)> spawn = [&](int depth) {
      {
        std::lock_guard<std::mutex> lock(mu);
        ++hits[s.Now()];
      }
      if (depth == 0) return;
      s.ScheduleAfter(5, [&spawn, depth] { spawn(depth - 1); });
      s.ScheduleAfter(7, [&spawn, depth] { spawn(depth - 1); });
    };
    s.ScheduleAt(0, [&spawn] { spawn(6); });
    s.RunUntilIdle();
    return std::make_tuple(s.Now(), s.executed(), hits);
  };
  SimScheduler sim;
  ParallelScheduler par(4);
  EXPECT_EQ(run(sim), run(par));
}

TEST(ParallelSchedulerTest, DeterministicAcrossRunsForFixedN) {
  // The engine's determinism contract is per-locality: each locality
  // drains its inbox in sorted (at, src, seq) order, so the execution
  // order WITHIN a locality is a pure function of the workload. (The
  // cross-locality interleaving is concurrent by design — same-time events
  // on different localities genuinely race, which is what mode-invariance
  // of observables, not event order, accounts for.)
  constexpr int kLoc = 3;
  auto run = [] {
    ParallelScheduler s(kLoc);
    std::mutex mu;
    // Recorded per executing locality, keyed by the task's affinity.
    std::array<std::vector<std::uint64_t>, kLoc> order;
    for (std::uint64_t i = 0; i < 64; ++i) {
      s.Post(i, 10 + (i % 4), [&, i] {
        {
          std::lock_guard<std::mutex> lock(mu);
          order[i % kLoc].push_back(i);
        }
        // Fan one hop to another locality from inside a worker.
        if (i % 8 == 0)
          s.Post(i + 1, s.Now(), [&, i] {
            std::lock_guard<std::mutex> lock2(mu);
            order[(i + 1) % kLoc].push_back(1000 + i);
          });
      });
    }
    s.RunUntilIdle();
    return order;
  };
  const auto a = run();
  const auto b = run();
  std::size_t total = 0;
  for (int l = 0; l < kLoc; ++l) {
    EXPECT_EQ(a[static_cast<std::size_t>(l)], b[static_cast<std::size_t>(l)])
        << "locality " << l << " diverged between identical runs";
    total += a[static_cast<std::size_t>(l)].size();
  }
  EXPECT_EQ(total, 64u + 8u);
}

TEST(ParallelSchedulerTest, PostRoutesToTheOwningLocality) {
  ParallelScheduler sched(4);
  EXPECT_EQ(sched.localities(), 4);
  EXPECT_EQ(sched.LocalityOf(0), 0);
  EXPECT_EQ(sched.LocalityOf(5), 1);
  EXPECT_EQ(sched.LocalityOf(7), 3);
  // Worker-side cross-locality posts are the sanctioned handoff (and the
  // thing the telemetry counts — conductor staging is not a handoff).
  std::atomic<int> ran{0};
  sched.Post(0, 1, [&] {
    for (std::uint64_t dest = 1; dest < 4; ++dest)
      sched.Post(dest, sched.Now(),
                 [&] { ran.fetch_add(1, std::memory_order_relaxed); });
  });
  sched.RunUntilIdle();
  EXPECT_EQ(ran.load(), 3);
  EXPECT_GE(sched.telemetry().handoffs, 3u);
  EXPECT_GT(sched.telemetry().rounds, 0u);
}

TEST(ParallelSchedulerTest, WorkersMayNotPump) {
  // Pumping is a conductor privilege: a locality worker calling RunUntil &
  // friends must throw instead of deadlocking the round barrier.
  ParallelScheduler sched(2);
  std::atomic<bool> threw{false};
  sched.ScheduleAt(1, [&] {
    try {
      sched.RunUntilIdle();
    } catch (const FargoError&) {
      threw.store(true, std::memory_order_relaxed);
    }
  });
  sched.RunUntilIdle();
  EXPECT_TRUE(threw.load());
}

TEST(ParallelSchedulerTest, ConductorPumpInsideAPumpThrows) {
  // The conductor runs a RunUntil predicate between rounds: a pump from
  // there is a pump inside a running pump, and throws like on the sim.
  ParallelScheduler sched(2);
  sched.ScheduleAt(1, [] {});
  sched.ScheduleAt(2, [] {});
  int threw = 0;
  sched.RunUntil([&] {
    try {
      sched.RunOne();
    } catch (const FargoError&) {
      ++threw;
    }
    return sched.Now() >= 2;
  });
  EXPECT_GE(threw, 1);
  // The outer pump ended cleanly: the next top-level pump is allowed.
  sched.ScheduleAt(3, [] {});
  EXPECT_TRUE(sched.RunOne());
  EXPECT_EQ(sched.Now(), 3);
}

TEST(ParallelSchedulerTest, NoPumpScopeRejectsConductorPumps) {
  ParallelScheduler sched(2);
  Scheduler::NoPumpScope guard(sched);
  EXPECT_THROW(sched.RunUntilIdle(), FargoError);
}

TEST(ParallelSchedulerTest, CancelStopsLocalAndCrossLocalityTasks) {
  ParallelScheduler sched(2);
  std::atomic<int> ran{0};
  auto bump = [&] { ran.fetch_add(1, std::memory_order_relaxed); };
  // Conductor-staged tasks for both localities, one of each cancelled.
  TaskId keep0 = sched.Post(0, 10, bump);
  TaskId kill0 = sched.Post(0, 10, bump);
  TaskId keep1 = sched.Post(1, 10, bump);
  TaskId kill1 = sched.Post(1, 10, bump);
  (void)keep0;
  (void)keep1;
  sched.Cancel(kill0);
  sched.Cancel(kill1);
  // A worker cancelling a task it posted to the *other* locality: the
  // cancellation must chase the handoff.
  sched.ScheduleAt(5, [&] {
    TaskId cross = sched.Post(1, 10, bump);
    sched.Cancel(cross);
  });
  sched.RunUntilIdle();
  EXPECT_EQ(ran.load(), 2);
  // Cancelling an already-run id is a harmless no-op.
  sched.Cancel(keep0);
}

TEST(ParallelSchedulerTest, ClearDiscardsQueuedWorkWithoutRunningIt) {
  ParallelScheduler sched(3);
  auto hits = std::make_shared<std::atomic<int>>(0);
  for (std::uint64_t i = 0; i < 12; ++i)
    sched.Post(i, 100, [hits] { hits->fetch_add(1); });
  EXPECT_GT(sched.PendingCount(), 0u);
  sched.Clear();
  EXPECT_EQ(sched.PendingCount(), 0u);
  sched.RunUntilIdle();
  EXPECT_EQ(hits->load(), 0);
  // The engine stays usable after a Clear.
  sched.ScheduleAt(200, [hits] { hits->fetch_add(10); });
  sched.RunUntilIdle();
  EXPECT_EQ(hits->load(), 10);
}

TEST(ParallelSchedulerTest, RunUntilOrStopsAtDeadlineOrPredicate) {
  ParallelScheduler sched(2);
  std::atomic<bool> flag{false};
  sched.ScheduleAt(50, [&] { flag.store(true); });
  sched.ScheduleAt(500, [] {});
  EXPECT_TRUE(sched.RunUntilOr([&] { return flag.load(); }, 1000));
  EXPECT_EQ(sched.Now(), 50);
  flag.store(false);
  EXPECT_FALSE(sched.RunUntilOr([&] { return flag.load(); }, 200));
  EXPECT_EQ(sched.Now(), 200);
  EXPECT_EQ(sched.PendingCount(), 1u);  // the 500 event still waits
}

TEST(ParallelSchedulerTest, RunForAdvancesTheClockPastAnEmptyQueue) {
  ParallelScheduler sched(2);
  std::atomic<int> ran{0};
  sched.ScheduleAt(30, [&] { ran.fetch_add(1); });
  sched.RunFor(100);
  EXPECT_EQ(ran.load(), 1);
  EXPECT_EQ(sched.Now(), 100);
  sched.RunFor(50);
  EXPECT_EQ(sched.Now(), 150);
}

TEST(ParallelSchedulerTest, ExceptionsFromWorkersSurfaceAtThePump) {
  // A task that throws must not kill the worker thread or hang the
  // barrier; the error belongs to the conductor's pump call.
  ParallelScheduler sched(2);
  std::atomic<int> after{0};
  sched.ScheduleAt(1, [] { throw FargoError("task exploded"); });
  sched.ScheduleAt(2, [&] { after.fetch_add(1); });
  try {
    sched.RunUntilIdle();
  } catch (const FargoError&) {
    // Acceptable: the engine may surface the task's error.
  }
  // Either way the engine survives and keeps executing.
  sched.RunUntilIdle();
  EXPECT_EQ(after.load(), 1);
}

TEST(ParallelSchedulerTest, TelemetryCountsHandoffTraffic) {
  ParallelScheduler sched(2, /*handoff_capacity=*/4);
  std::atomic<int> ran{0};
  // Locality 0 fans 32 same-time tasks to locality 1: with capacity 4 the
  // inbox must spill, and the engine must neither block nor lose work.
  sched.Post(0, 1, [&] {
    for (int i = 0; i < 32; ++i)
      sched.Post(1, sched.Now(), [&] { ran.fetch_add(1); });
  });
  sched.RunUntilIdle();
  EXPECT_EQ(ran.load(), 32);
  const auto t = sched.telemetry();
  EXPECT_GE(t.handoffs, 32u);
  EXPECT_GT(t.overflows, 0u);
  EXPECT_GE(t.max_queue_depth, 32u);
}

TEST(ParallelSchedulerTest, AffinityScopeRoutesConductorWork) {
  // Core entry points hold an AffinityScope so conductor-side ScheduleAt
  // lands on the Core's home locality; verify the ambient key is honored
  // by checking cross-locality ordering: two same-time tasks with the same
  // ambient key must run in FIFO order (same locality queue), which would
  // be unordered if each landed on a default locality.
  ParallelScheduler sched(4);
  std::vector<int> order;
  std::mutex mu;
  {
    Scheduler::AffinityScope aff(3);
    for (int i = 0; i < 16; ++i)
      sched.ScheduleAt(10, [&, i] {
        std::lock_guard<std::mutex> lock(mu);
        order.push_back(i);
      });
  }
  sched.RunUntilIdle();
  ASSERT_EQ(order.size(), 16u);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

// ---------------------------------------------------------------------------
// Lookahead windows: with a lookahead L, RunFor/RunUntilIdle run one round
// over [t, t + L - 1] instead of stepping every timestamp.
// ---------------------------------------------------------------------------

constexpr SimTime kLookahead = 10;

/// Four independent chains hop across `kLoc` affinities. Every delay is a
/// multiple of 4 and chain c starts at time c, so no two events share a
/// timestamp: per-locality order and Now() values are fully determined,
/// and must be the sim's. Cross-locality hops are at least the lookahead
/// away; local hops are shorter, so windows hold several events each.
template <int kLoc>
std::array<std::vector<std::pair<int, SimTime>>, kLoc> RunChains(
    Scheduler& s) {
  std::mutex mu;
  std::array<std::vector<std::pair<int, SimTime>>, kLoc> seen;
  std::function<void(int, std::uint64_t, int)> hop =
      [&](int chain, std::uint64_t aff, int left) {
        {
          std::lock_guard<std::mutex> lock(mu);
          seen[aff % kLoc].emplace_back(chain, s.Now());
        }
        if (left == 0) return;
        const bool cross = (left + chain) % 3 != 0;
        const std::uint64_t next = cross ? aff + 1 : aff;
        const SimTime delay = cross ? 12 + 4 * (left % 2) : 4;
        s.Post(next, s.Now() + delay,
               [&hop, chain, next, left] { hop(chain, next, left - 1); });
      };
  for (int c = 0; c < 4; ++c)
    s.Post(static_cast<std::uint64_t>(c), c,
           [&hop, c] { hop(c, static_cast<std::uint64_t>(c), 40); });
  s.RunUntilIdle();
  return seen;
}

TEST(ParallelSchedulerTest,
     WindowsMatchTheSimOnAChainedCrossLocalityWorkload) {
  SimScheduler sim;
  const auto want = RunChains<3>(sim);
  ParallelScheduler par(3);
  par.SetLookahead([] { return kLookahead; });
  const auto got = RunChains<3>(par);
  for (std::size_t l = 0; l < want.size(); ++l)
    EXPECT_EQ(got[l], want[l]) << "locality " << l;
  EXPECT_EQ(par.Now(), sim.Now());
  EXPECT_EQ(par.executed(), sim.executed());
  // The windows did the work: far fewer rounds than distinct timestamps.
  EXPECT_LT(par.telemetry().rounds, sim.executed() / 2);
}

TEST(ParallelSchedulerTest,
     CrossLocalityPostInsideTheWindowIsALookaheadViolation) {
  ParallelScheduler sched(2);
  sched.SetLookahead([] { return kLookahead; });
  sched.Post(0, 5, [&] { sched.Post(1, sched.Now() + 3, [] {}); });
  try {
    sched.RunUntilIdle();
    FAIL() << "expected a lookahead violation";
  } catch (const FargoError& e) {
    EXPECT_NE(std::string(e.what()).find("lookahead violation"),
              std::string::npos)
        << e.what();
  }
}

TEST(ParallelSchedulerTest,
     CrossLocalityCancelInsideAWindowIsALookaheadViolation) {
  ParallelScheduler sched(2);
  sched.SetLookahead([] { return kLookahead; });
  const TaskId far = sched.Post(1, 100, [] {});
  sched.Post(0, 5, [&sched, far] { sched.Cancel(far); });
  EXPECT_THROW(sched.RunUntilIdle(), FargoError);
}

TEST(ParallelSchedulerTest, AffinityLessConductorTaskCapsTheWindow) {
  // The closure at 30 has no affinity, so it may read any locality's state:
  // it must see locality 1 exactly as of time 30, never its event at 50,
  // although 10..50 all fit in one lookahead window.
  ParallelScheduler sched(2);
  sched.SetLookahead([] { return SimTime{100}; });
  std::atomic<int> progress{0};
  sched.Post(1, 10, [&] { progress.store(1); });
  sched.Post(1, 50, [&] { progress.store(2); });
  int seen = -1;
  SimTime at = -1;
  sched.ScheduleAt(30, [&] {
    seen = progress.load();
    at = sched.Now();
  });
  sched.RunUntilIdle();
  EXPECT_EQ(seen, 1);
  EXPECT_EQ(at, 30);
  EXPECT_EQ(progress.load(), 2);
  // [10, 29], then the barrier's own round, then [50, ...].
  EXPECT_EQ(sched.telemetry().rounds, 3u);
}

TEST(ParallelSchedulerTest, OneLocalityTimestampCostsOneRound) {
  // No quiet confirmation round: work that stays on its locality — even
  // same-time follow-ups it schedules itself — finishes in one round.
  ParallelScheduler sched(2);
  sched.SetLookahead([] { return kLookahead; });
  std::atomic<int> ran{0};
  sched.Post(0, 20, [&] {
    ran.fetch_add(1);
    sched.ScheduleAt(sched.Now(), [&] { ran.fetch_add(1); });
  });
  sched.RunUntilIdle();
  EXPECT_EQ(ran.load(), 2);
  EXPECT_EQ(sched.telemetry().rounds, 1u);
  EXPECT_EQ(sched.Now(), 20);
}

// ---------------------------------------------------------------------------
// Eager cancel across localities: ids minted outside the owning locality
// (conductor staging, handoffs) still reach their task.
// ---------------------------------------------------------------------------

TEST(ParallelSchedulerTest, WorkersCancelTasksStagedByTheConductor) {
  ParallelScheduler sched(2);
  std::atomic<int> ran{0};
  const TaskId far = sched.Post(1, 100, [&] { ran.fetch_add(1); });
  const TaskId near = sched.Post(1, 100, [&] { ran.fetch_add(1); });
  sched.Post(0, 10, [&sched, far] { sched.Cancel(far); });   // other locality
  sched.Post(1, 10, [&sched, near] { sched.Cancel(near); });  // its own
  sched.RunUntilIdle();
  EXPECT_EQ(ran.load(), 0);
  EXPECT_EQ(sched.PendingCount(), 0u);
  EXPECT_EQ(sched.Now(), 10);  // the cancelled tasks never ran at 100
}

TEST(ParallelSchedulerTest, WorkersCancelHandedOffTasks) {
  ParallelScheduler sched(2);
  std::atomic<int> ran{0};
  TaskId by_sender = 0;
  TaskId by_owner = 0;
  sched.Post(0, 10, [&] {
    by_sender = sched.Post(1, 100, [&] { ran.fetch_add(1); });
    by_owner = sched.Post(1, 100, [&] { ran.fetch_add(1); });
  });
  sched.RunFor(5);
  sched.Post(0, 20, [&] { sched.Cancel(by_sender); });
  sched.Post(1, 20, [&] { sched.Cancel(by_owner); });
  sched.RunUntilIdle();
  EXPECT_EQ(ran.load(), 0);
  EXPECT_EQ(sched.PendingCount(), 0u);
  EXPECT_EQ(sched.Now(), 20);
}

TEST(ParallelSchedulerTest, ConductorCancelsAHandoffStillInAnInbox) {
  // A predicate pump may stop while a handoff sits in an inbox; a cancel
  // from the conductor must still catch it at the merge.
  ParallelScheduler sched(2);
  std::atomic<bool> sent{false};
  std::atomic<int> ran{0};
  TaskId handoff = 0;
  sched.Post(0, 10, [&] {
    handoff = sched.Post(1, 50, [&] { ran.fetch_add(1); });
    sent.store(true);
  });
  sched.RunUntil([&] { return sent.load(); });
  EXPECT_EQ(sched.PendingCount(), 1u);
  sched.Cancel(handoff);
  sched.RunUntilIdle();
  EXPECT_EQ(ran.load(), 0);
  EXPECT_EQ(sched.PendingCount(), 0u);
}

TEST(ParallelSchedulerTest, CancelledBarrierTaskNoLongerCapsTheWindow) {
  ParallelScheduler sched(2);
  sched.SetLookahead([] { return SimTime{100}; });
  std::atomic<int> ran{0};
  auto bump = [&] { ran.fetch_add(1); };
  // Queued barrier: merged into locality 0 by the round at 10.
  sched.Post(1, 10, bump);
  const TaskId queued = sched.ScheduleAt(60, bump);
  sched.Post(1, 50, bump);
  sched.Post(1, 90, bump);
  sched.RunUntil([&] { return ran.load() == 1; });
  EXPECT_EQ(sched.telemetry().rounds, 1u);
  sched.Cancel(queued);
  sched.RunUntilIdle();
  EXPECT_EQ(ran.load(), 3);
  // One window [50, 149]; a barrier left at 60 would split it in three.
  EXPECT_EQ(sched.telemetry().rounds, 2u);

  // Staged barrier, cancelled before any round merged it.
  const TaskId staged = sched.ScheduleAt(200, bump);
  sched.Post(1, 160, bump);
  sched.Post(1, 240, bump);
  sched.Cancel(staged);
  sched.RunUntilIdle();
  EXPECT_EQ(ran.load(), 5);
  EXPECT_EQ(sched.telemetry().rounds, 3u);  // one window [160, 259]
}

}  // namespace
}  // namespace fargo::sim
