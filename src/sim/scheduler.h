// Deterministic discrete-event scheduler.
//
// All Cores, the network, continuous profiling, and asynchronous event
// notification run on one of these. Virtual time only advances when events
// are executed, so every test and benchmark is exactly reproducible.
//
// `Scheduler` is the engine interface; two implementations exist:
//
//  - `SimScheduler` (this file): the single-threaded deterministic pump.
//    Default for tests, benches and CI — one indexed event queue
//    (event_queue.h), FIFO seq tiebreak, bit-identical runs.
//  - `ParallelScheduler` (parallel_sched.h): N locality worker threads in
//    conservative time-stepped rounds, selected by `FARGO_PARALLEL=N`.
//    Same virtual-time semantics, same observable results (DESIGN.md
//    §localities), run-to-run deterministic for a fixed N.
//
// Handlers never block (DESIGN.md §5): RPC machinery, complet methods and
// listeners are written as scheduled continuations. Only the outermost
// caller pumps (RunUntil and friends), and one rule enforces it on both
// engines: entering a pump while a pump of the same scheduler is running
// throws, as does a pump from a locality worker thread or from inside a
// NoPumpScope.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>

#include "src/common/time.h"
#include "src/sim/event_queue.h"
#include "src/sim/task.h"

namespace fargo::sim {

/// Handle used to cancel a scheduled task: generation-checked, so it names
/// its task only while that task is pending (event_queue.h). 0 never names
/// a task.
using TaskId = std::uint64_t;

namespace detail {
/// -1 on the conductor/main thread; the owning locality index on a
/// ParallelScheduler worker thread. Workers must never pump.
extern thread_local int tl_worker_locality;
/// Per-thread NoPumpScope nesting count. The no-pump invariant is a
/// property of the *calling thread*'s stack, so the counter is
/// thread-local rather than per-scheduler.
extern thread_local int tl_no_pump;
}  // namespace detail

// fargo: domain(sim)
class Scheduler {
 public:
  Scheduler() = default;
  virtual ~Scheduler() = default;
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Current simulated time.
  virtual SimTime Now() const = 0;

  /// Schedules `fn` at absolute time `t` (clamped to Now()). In the
  /// parallel engine the task lands on the calling thread's locality (or
  /// the ambient AffinityScope's, if one is active).
  virtual TaskId ScheduleAt(SimTime t, Task fn) = 0;

  /// Schedules `fn` after `delay` from now.
  TaskId ScheduleAfter(SimTime delay, Task fn) {
    return ScheduleAt(Now() + delay, std::move(fn));
  }

  /// Affinity-routed scheduling: runs `fn` at `t` on the locality that owns
  /// `affinity` (localities partition Cores by `key % localities()`). This
  /// is the *sanctioned cross-locality handoff*: a continuation that
  /// touches another Core's ownership domain must be posted to that Core's
  /// home locality rather than run in place. The sim engine ignores the
  /// key — Post degrades to ScheduleAt, which is what makes the two modes
  /// observably equivalent.
  ///
  /// `barrier` marks a task that flips state other Cores read (a scheduled
  /// crash or restart): the parallel engine ends every lookahead window
  /// before it and runs it in a round of its own timestamp. The sim engine
  /// ignores the flag too.
  virtual TaskId Post(std::uint64_t affinity, SimTime t, Task fn,
                      bool barrier = false) {
    (void)affinity;
    (void)barrier;
    return ScheduleAt(t, std::move(fn));
  }

  /// Post after `delay` from now (see Post).
  TaskId PostAfter(std::uint64_t affinity, SimTime delay, Task fn) {
    return Post(affinity, Now() + delay, std::move(fn));
  }

  /// Cancels a pending task and destroys its closure at once; a no-op if
  /// it already ran, was already cancelled, or `id` is stale.
  virtual void Cancel(TaskId id) = 0;

  /// Executes the next due event, advancing the clock. Returns false when
  /// the queue is empty. (Parallel engine: executes the next *timestamp*,
  /// which may run many events across localities.)
  virtual bool RunOne() = 0;

  /// Runs events until the queue drains.
  virtual void RunUntilIdle() = 0;

  /// Runs events until `pred()` holds; throws FargoError if the queue
  /// drains first (a lost reply would otherwise hang forever).
  virtual void RunUntil(const std::function<bool()>& pred) = 0;

  /// Like RunUntil, but gives up at absolute time `deadline`. Returns true
  /// if the predicate held, false on timeout or drain.
  virtual bool RunUntilOr(const std::function<bool()>& pred,
                          SimTime deadline) = 0;

  /// Runs all events due up to Now()+d, then advances the clock to it.
  virtual void RunFor(SimTime d) = 0;

  /// Number of pending events (cancelled ones are gone from the queue).
  virtual std::size_t PendingCount() const = 0;

  /// The most tasks one event queue has held at once (mirrored into the
  /// `sched.queue_peak` max-gauge by Runtime). The parallel engine reports
  /// its fullest locality queue.
  virtual std::size_t QueuePeak() const = 0;

  /// Discards every pending event without running it. Used at runtime
  /// teardown: queued closures may hold references into Cores, so they
  /// must be destroyed while the Cores still exist.
  virtual void Clear() = 0;

  /// Total number of events executed (telemetry for benchmarks).
  virtual std::uint64_t executed() const = 0;

  /// Number of locality worker threads. 0 = deterministic single-threaded
  /// sim (the conductor thread executes events itself).
  virtual int localities() const { return 0; }

  /// RAII: while alive, entering any pump loop *on this thread* throws
  /// FargoError. The async RPC machinery holds one of these across its
  /// bookkeeping so a blocking call can never sneak back into the
  /// continuation path. Always on (the default build defines NDEBUG, so a
  /// plain assert would be vacuous); the check is a single integer test
  /// per pump entry.
  // fargo: domain(sim)
  class NoPumpScope {
   public:
    explicit NoPumpScope(Scheduler&);
    ~NoPumpScope();
    NoPumpScope(const NoPumpScope&) = delete;
    NoPumpScope& operator=(const NoPumpScope&) = delete;
  };

  /// RAII: while alive, ScheduleAt on this thread routes to the locality
  /// owning `affinity` instead of the calling thread's own locality. Core
  /// public entry points hold one so that work started from the conductor
  /// (tests, shell, benches) lands on the Core's home locality. A no-op
  /// under the sim engine. Scopes nest; the innermost wins.
  // fargo: domain(sim)
  class AffinityScope {
   public:
    explicit AffinityScope(std::uint64_t affinity);
    ~AffinityScope();
    AffinityScope(const AffinityScope&) = delete;
    AffinityScope& operator=(const AffinityScope&) = delete;

    /// The calling thread's ambient affinity, if an AffinityScope is
    /// active. Returns false otherwise.
    static bool Current(std::uint64_t& affinity);

   private:
    static thread_local std::uint64_t ambient_key_;
    static thread_local bool ambient_set_;
    std::uint64_t prev_key_;
    bool prev_set_;
  };

 protected:
  /// RAII around every pump loop: rejects entry while another pump of this
  /// scheduler runs (a handler that blocked), from inside a NoPumpScope, or
  /// from a locality worker.
  // fargo: domain(sim)
  class PumpGuard {
   public:
    explicit PumpGuard(Scheduler& s);
    ~PumpGuard() { sched_.pumping_ = false; }
    PumpGuard(const PumpGuard&) = delete;
    PumpGuard& operator=(const PumpGuard&) = delete;

   private:
    Scheduler& sched_;
  };

 private:
  bool pumping_ = false;
};

/// The single-threaded deterministic pump: one event queue ordered by
/// (time, FIFO seq). The default engine for tests, benches and CI.
// fargo: domain(sim)
class SimScheduler final : public Scheduler {
 public:
  SimScheduler() = default;

  SimTime Now() const override { return now_; }
  TaskId ScheduleAt(SimTime t, Task fn) override;
  void Cancel(TaskId id) override { queue_.Cancel(id); }
  bool RunOne() override;
  void RunUntilIdle() override;
  void RunUntil(const std::function<bool()>& pred) override;
  bool RunUntilOr(const std::function<bool()>& pred,
                  SimTime deadline) override;
  void RunFor(SimTime d) override;
  std::size_t PendingCount() const override { return queue_.size(); }
  std::size_t QueuePeak() const override { return queue_.peak(); }
  void Clear() override { queue_.Clear(); }
  std::uint64_t executed() const override { return executed_; }

 private:
  /// Runs the head task if it is due by `limit`; false otherwise.
  bool RunDue(SimTime limit);

  SimTime now_ = 0;
  std::uint64_t executed_ = 0;
  EventQueue queue_;
};

/// A self-rescheduling task; used by continuous profiling, heartbeats and
/// periodic script rules. Destroying or stopping the task is safe at any
/// point — including from within its own callback (the callback's state is
/// kept alive by the in-flight event).
// fargo: domain(sim)
class PeriodicTask {
 public:
  /// Ticks follow ScheduleAfter's routing: the arming thread's locality
  /// (or ambient AffinityScope), and each tick re-arms from where it runs.
  PeriodicTask(Scheduler& sched, SimTime interval, std::function<void()> fn);
  /// Ticks are Post()ed to `owner`'s home locality — the Core whose state
  /// `fn` touches — whichever thread arms the task.
  PeriodicTask(Scheduler& sched, std::uint64_t owner, SimTime interval,
               std::function<void()> fn);
  ~PeriodicTask();
  PeriodicTask(const PeriodicTask&) = delete;
  PeriodicTask& operator=(const PeriodicTask&) = delete;

  void Stop();
  bool running() const { return impl_->running; }
  SimTime interval() const { return impl_->interval; }

 private:
  struct Impl {
    Scheduler& sched;
    SimTime interval;
    std::function<void()> fn;
    std::optional<std::uint64_t> owner;
    bool running = true;
  };
  static void Arm(const std::shared_ptr<Impl>& impl);

  std::shared_ptr<Impl> impl_;
};

}  // namespace fargo::sim
