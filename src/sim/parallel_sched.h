// FARGO_PARALLEL: the real-parallel locality engine (motr reqh/fop-style).
//
// N worker threads, each *owning* a disjoint set of Cores by affinity
// (`affinity % localities()`), execute InvocationUnits/MovementUnits as
// non-blocking state machines. The engine is a conservative parallel
// discrete-event scheduler with link-latency lookahead (Chandy–Misra):
//
//  - The *conductor* (whichever thread calls the Run* pumps — tests, shell,
//    benches) picks the earliest pending timestamp `t` and releases the
//    workers for one barrier-synchronized *round* over a window of virtual
//    time [t, hi].
//  - During a round each worker drains its own event queue (event_queue.h,
//    the one SimScheduler runs on) of events due at or before `hi`, in
//    time order; on a worker, Now() is the time of the task it is
//    executing. A continuation targeting another Core's ownership domain
//    is never run in place: it is handed off to the owning locality through
//    a bounded MPSC inbox (handoff.h) and merged at the start of the next
//    round.
//  - Cancel removes a task from its queue at once, with no tombstone. A
//    task a locality queued for itself (RPC, formation, expiry and
//    route-wait timers: the hot case) is named by its queue handle, and
//    so is conductor-staged work, whose slot the conductor reserves while
//    the workers are parked; the merge links it into the heap. Only
//    handoffs carry a producer-minted alias, which the destination
//    resolves by scanning its queue (rare: cancelled timers are local).
//    The conductor cancels in place while the workers are parked; a
//    worker cancelling another locality's task stages the cancel, and
//    the owner applies it when it next merges.
//  - Every cross-locality task is a network delivery, due no earlier than
//    the sender's Now() + the minimum inter-Core link latency L (the
//    *lookahead*, SetLookahead). So RunFor and RunUntilIdle run windows
//    hi = min(t + L - 1, pump limit, next barrier task - 1): nothing a
//    locality does inside the window can reach another locality inside
//    it. A worker that posts across localities into the current window, or
//    cancels across localities during one, throws "lookahead violation" at
//    the pump — a task never runs late unnoticed.
//  - *Barrier tasks* — affinity-less conductor ScheduleAt (link flaps, test
//    closures), what those schedule without affinity, and Post(..., true)
//    (scheduled crashes/restarts) — touch state other Cores read. Windows
//    end before them and they run in a round of their own timestamp, as do
//    the predicate pumps (RunUntil, RunUntilOr, RunOne), so "pump, then
//    assert" stops exactly where the sim engine stops.
//  - A round has a successor at the same horizon only if a locality handed
//    off a task due inside it or staged a cross-locality cancel; later
//    handoffs are folded into the next window's start through each
//    locality's published earliest handoff. An event scheduled for time T
//    runs at Now() == T, never early, never late — the sim engine's
//    virtual-time semantics.
//
// Determinism: each locality's inbox is drained in sorted
// (time, source-locality, source-seq) order, every producer stamps a
// private monotone seq, and window bounds are a function of queue contents
// only, so the execution order per locality is a pure function of the
// workload — two runs with the same FARGO_PARALLEL=N are identical. (Sim
// and parallel interleave same-time events across *different* Cores
// differently; what is mode-invariant is the observable behavior — ledger
// contents, exactly-once, wire traffic per link — not internal event
// order. See DESIGN.md §5.1.)
//
// Pumping is a conductor privilege: a worker entering RunUntil & friends
// throws FargoError (scheduler.h PumpGuard). Between rounds the workers
// are parked on the barrier, so the conductor may freely inspect Cores,
// metrics and futures — that is the happens-before edge that keeps the
// existing single-threaded test/driver idiom (pump, then assert) safe
// without any locking in test code.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <vector>

#include "src/sim/scheduler.h"

namespace fargo::sim {

// fargo: domain(sim)
class ParallelScheduler final : public Scheduler {
 public:
  /// `localities` worker threads (≥ 1). `handoff_capacity` sizes each
  /// MPSC inbox's lock-free slot array (overflow spills, never blocks).
  explicit ParallelScheduler(int localities,
                             std::size_t handoff_capacity = 1024);
  ~ParallelScheduler() override;

  /// The lookahead source: the smallest virtual delay with which work on
  /// one locality can reach another (Runtime wires the network's minimum
  /// inter-Core link latency). Read by the conductor before each window.
  /// Unset or ≤ 1 keeps per-timestamp rounds.
  void SetLookahead(std::function<SimTime()> lookahead) {
    lookahead_ = std::move(lookahead);
  }

  /// On a worker: the time of the task being executed. Elsewhere: the
  /// global clock.
  SimTime Now() const override;
  TaskId ScheduleAt(SimTime t, Task fn) override;
  TaskId Post(std::uint64_t affinity, SimTime t, Task fn,
              bool barrier = false) override;
  void Cancel(TaskId id) override;
  bool RunOne() override;
  void RunUntilIdle() override;
  void RunUntil(const std::function<bool()>& pred) override;
  bool RunUntilOr(const std::function<bool()>& pred,
                  SimTime deadline) override;
  void RunFor(SimTime d) override;
  /// Queued, staged and handed-off tasks. A cancel a worker addressed to
  /// another locality counts its task until that locality next merges.
  std::size_t PendingCount() const override;
  std::size_t QueuePeak() const override;
  void Clear() override;
  std::uint64_t executed() const override;
  int localities() const override { return num_localities_; }

  /// The locality that owns `affinity` (Cores: `core.id % localities()`).
  int LocalityOf(std::uint64_t affinity) const {
    return static_cast<int>(affinity % static_cast<std::uint64_t>(
                                           num_localities_));
  }

  /// Engine telemetry, mirrored into the metrics registry by Runtime
  /// (`locality.*`). Safe to read between pumps.
  struct Telemetry {
    std::uint64_t handoffs = 0;   ///< cross-locality tasks enqueued
    std::uint64_t overflows = 0;  ///< handoffs past the lock-free bound
    std::uint64_t rounds = 0;     ///< barrier rounds driven
    std::uint64_t max_queue_depth = 0;  ///< largest single inbox drain
  };
  Telemetry telemetry() const;

 private:
  struct Locality;  // defined in parallel_sched.cpp (owns the thread)
  static constexpr SimTime kNoDue = std::numeric_limits<SimTime>::max();

  void EnsureStarted();
  void WorkerLoop(int idx);
  TaskId WorkerEnqueue(int dest, SimTime t, Task&& fn, bool barrier);
  TaskId StageEnqueue(int dest, SimTime t, Task&& fn, bool barrier);
  /// Drives rounds over the window [lo, hi] until none hands off work due
  /// inside it. If `pred` is given it is checked between rounds; returns
  /// true the moment it holds.
  bool RunRounds(SimTime lo, SimTime hi, const std::function<bool()>* pred);
  /// Earliest due time across locality queues, handoffs in flight and
  /// conductor staging (kNoDue when drained).
  SimTime NextDue() const;
  /// Earliest barrier task, same sources.
  SimTime NextBarrier() const;
  /// End of the lookahead window opening at `lo` (≤ `limit`).
  SimTime WindowEnd(SimTime lo, SimTime limit) const;
  std::uint64_t ExecutedLocked() const;
  /// Recomputes staged_due_/staged_barrier_ after a staged task is
  /// cancelled.
  void RestageBounds();

  const int num_localities_;
  const std::size_t handoff_capacity_;
  std::vector<std::unique_ptr<Locality>> locs_;
  std::function<SimTime()> lookahead_;

  SimTime now_ = 0;  ///< written by the conductor while workers are parked

  // Barrier state lives behind an opaque impl so <thread> stays out of the
  // header (the determinism lint confines threading to src/sim/).
  struct Barrier;
  std::unique_ptr<Barrier> barrier_;
  bool started_ = false;
  std::uint64_t conductor_seq_ = 0;  ///< conductor merge-key counter
  // Conductor staging since the last round (every round merges it all).
  SimTime staged_due_ = kNoDue;
  SimTime staged_barrier_ = kNoDue;
  std::uint64_t rounds_ = 0;
};

}  // namespace fargo::sim
