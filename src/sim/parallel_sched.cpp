#include "src/sim/parallel_sched.h"

#include <algorithm>
#include <condition_variable>
#include <limits>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/common/value.h"  // FargoError
#include "src/sim/handoff.h"

namespace fargo::sim {

namespace {

constexpr std::uint32_t kConductorRank = 0xFFFFFFFFu;

// TaskId layout: [8b destination locality | 56b task]. The destination
// routes Cancel. A task a locality queued for itself, or the conductor
// reserved in its queue while staging it, is named by its EventQueue
// handle (bit 55 clear). A task handed off by another locality gets its
// id from the producer before the destination queue holds it: an
// *alias*, bit 55 set, then an 8b producer tag (worker i + 1) and a 47b
// per-producer counter, so ids are unique without shared state. The
// destination stores the alias in the task's slot and resolves a cancel
// by alias with a scan of its queue; such cancels are rare (the timers
// that get cancelled are all local).
constexpr TaskId kAliasBit = TaskId{1} << 55;
constexpr TaskId kTaskMask = (TaskId{1} << 56) - 1;

TaskId MakeAlias(int dest, unsigned producer_tag, std::uint64_t n) {
  return (static_cast<TaskId>(dest) << 56) | kAliasBit |
         (static_cast<TaskId>(producer_tag & 0xFFu) << 47) |
         (n & ((TaskId{1} << 47) - 1));
}
int IdDest(TaskId id) { return static_cast<int>(id >> 56); }

/// The TaskId of `dest`'s queue handle `h`.
TaskId MakeHandleId(int dest, EventQueue::Handle h) {
  if (h & ~(kTaskMask & ~kAliasBit))
    throw FargoError("locality " + std::to_string(dest) +
                     " event queue outgrew its TaskId slot bits");
  return (static_cast<TaskId>(dest) << 56) | h;
}

/// Cancels the task `id` names in `q` (its destination's queue), if queued.
void CancelIn(EventQueue& q, TaskId id) {
  if (id & kAliasBit) {
    if (const EventQueue::Handle h = q.FindAlias(id)) q.Cancel(h);
    return;
  }
  q.Cancel(id & kTaskMask);
}

/// Routing context while a worker executes a round; null sched otherwise.
struct WorkerCtx {
  ParallelScheduler* sched = nullptr;
  int loc = -1;
  std::uint64_t round = 0;
  SimTime lo = 0;  ///< the round's window
  SimTime hi = 0;
  SimTime now = 0;          ///< time of the task being executed
  bool in_barrier = false;  ///< executing a barrier task
};
thread_local WorkerCtx tl_ctx;

}  // namespace

struct ParallelScheduler::Barrier {
  std::mutex mu;
  std::condition_variable cv_go;
  std::condition_variable cv_done;
  std::uint64_t go_round = 0;  ///< bumped by the conductor to release a round
  SimTime lo = 0;              ///< the round's window [lo, hi]
  SimTime hi = 0;
  int arrived = 0;             ///< workers parked since the last release
  bool stop = false;
};

struct ParallelScheduler::Locality {
  explicit Locality(std::size_t cap) : inbox0(cap), inbox1(cap) {}

  HandoffQueue& inbox(unsigned parity) { return parity ? inbox1 : inbox0; }

  /// Republishes the queue's head and earliest barrier (conductor, after
  /// touching the queue between rounds).
  void Publish() {
    next_due = queue.empty() ? kNoDue : queue.top_at();
    next_barrier = queue.next_barrier(kNoDue);
  }

  // -- worker-confined (the conductor touches these only while every
  // -- worker is parked; the barrier mutex is the happens-before edge) ----
  EventQueue queue;
  std::uint64_t merge_seq = 0;  ///< producer stamp on outgoing handoffs
  std::uint64_t alias_seq = 1;  ///< alias counter (producer-private)
  std::uint64_t handoffs = 0;   ///< cross-locality tasks sent

  // Ping-pong MPSC inboxes: producers fill inbox(round & 1) during round
  // `round`; the owner drains inbox((round + 1) & 1) — last round's —
  // exclusively at the start of its round (see handoff.h).
  HandoffQueue inbox0;
  HandoffQueue inbox1;

  // Conductor-side scheduling between pumps, and cancels from elsewhere.
  // Cancels ping-pong like the inboxes: one made during round `round`
  // goes to cancels(round & 1) and is applied next round, after the
  // handoffs it may chase are merged.
  mutable std::mutex staging_mu;
  std::vector<HandoffQueue::Item> staged;
  std::vector<TaskId> staged_cancels[2];
  std::vector<TaskId>& cancels(std::uint64_t round) {
    return staged_cancels[round & 1];
  }

  // Round results, published at park under the barrier mutex.
  SimTime next_due = kNoDue;      ///< head of the queue
  SimTime next_barrier = kNoDue;  ///< earliest queued barrier task
  SimTime sent_due = kNoDue;      ///< earliest task handed off this round
  SimTime sent_barrier = kNoDue;  ///< earliest barrier handed off
  SimTime last_run = 0;           ///< time of the latest executed task
  std::uint64_t executed = 0;
  bool again = false;  ///< handed off work due inside the round's window
  std::exception_ptr error;

  std::thread thread;
};

ParallelScheduler::ParallelScheduler(int localities,
                                     std::size_t handoff_capacity)
    : num_localities_(localities < 1 ? 1 : localities),
      handoff_capacity_(handoff_capacity),
      barrier_(std::make_unique<Barrier>()) {
  locs_.reserve(static_cast<std::size_t>(num_localities_));
  for (int i = 0; i < num_localities_; ++i)
    locs_.push_back(std::make_unique<Locality>(handoff_capacity_));
}

ParallelScheduler::~ParallelScheduler() {
  if (started_) {
    {
      std::lock_guard<std::mutex> lk(barrier_->mu);
      barrier_->stop = true;
    }
    barrier_->cv_go.notify_all();
    for (auto& l : locs_)
      if (l->thread.joinable()) l->thread.join();
  }
}

void ParallelScheduler::EnsureStarted() {
  if (started_) return;
  started_ = true;
  for (int i = 0; i < num_localities_; ++i)
    locs_[static_cast<std::size_t>(i)]->thread =
        std::thread([this, i] { WorkerLoop(i); });
}

void ParallelScheduler::WorkerLoop(int idx) {
  detail::tl_worker_locality = idx;
  Locality& self = *locs_[static_cast<std::size_t>(idx)];
  Barrier& b = *barrier_;
  std::uint64_t seen = 0;
  std::unique_lock<std::mutex> lk(b.mu);
  for (;;) {
    b.cv_go.wait(lk, [&] { return b.stop || b.go_round != seen; });
    if (b.stop) return;
    seen = b.go_round;
    const SimTime lo = b.lo;
    const SimTime hi = b.hi;
    lk.unlock();

    std::uint64_t exec = 0;
    std::exception_ptr err;
    tl_ctx = WorkerCtx{this, idx, seen, lo, hi, lo, false};
    self.sent_due = kNoDue;
    self.sent_barrier = kNoDue;
    self.again = false;

    // Merge: conductor-staged work, cross-thread cancels, and the inbox
    // the producers filled last round — in deterministic (at, src, seq)
    // order, so the queue insertion order (the same-time tiebreak) is a
    // pure function of the workload, not of thread timing.
    std::vector<HandoffQueue::Item> batch;
    std::vector<TaskId> cancels;
    {
      std::lock_guard<std::mutex> sl(self.staging_mu);
      batch.swap(self.staged);
      cancels.swap(self.cancels(seen + 1));
    }
    self.inbox((seen + 1) & 1).DrainInto(batch);
    std::sort(batch.begin(), batch.end(),
              [](const HandoffQueue::Item& a, const HandoffQueue::Item& b) {
                if (a.at != b.at) return a.at < b.at;
                if (a.src != b.src) return a.src < b.src;
                return a.seq < b.seq;
              });
    for (auto& item : batch) {
      if (item.src == kConductorRank)
        self.queue.Link(item.id & kTaskMask, item.at);
      else
        self.queue.Push(item.at, std::move(item.fn), item.barrier, item.id);
    }
    for (TaskId id : cancels) CancelIn(self.queue, id);

    // Execute everything due inside the window, in time order. Locally
    // scheduled work due inside it runs within this round (matching the
    // sim's run-to-completion); handoffs land in peers' inboxes for the
    // next round.
    try {
      while (!self.queue.empty() && self.queue.top_at() <= hi) {
        EventQueue::Popped task = self.queue.Pop();
        ++exec;
        tl_ctx.now = task.at;
        tl_ctx.in_barrier = task.barrier;
        self.last_run = task.at;
        task.fn();
      }
    } catch (...) {
      err = std::current_exception();
    }
    tl_ctx = WorkerCtx{};

    lk.lock();
    self.executed += exec;
    self.Publish();
    if (err && !self.error) self.error = err;
    if (++b.arrived == num_localities_) b.cv_done.notify_all();
  }
}

SimTime ParallelScheduler::Now() const {
  return tl_ctx.sched == this ? tl_ctx.now : now_;
}

TaskId ParallelScheduler::ScheduleAt(SimTime t, Task fn) {
  if (t < Now()) t = Now();
  std::uint64_t aff = 0;
  const bool has_aff = Scheduler::AffinityScope::Current(aff);
  // Affinity-less work is a window barrier when it comes from the
  // conductor or from a barrier task: it may touch any Core.
  if (tl_ctx.sched == this) {
    if (has_aff)
      return WorkerEnqueue(LocalityOf(aff), t, std::move(fn), false);
    return WorkerEnqueue(tl_ctx.loc, t, std::move(fn), tl_ctx.in_barrier);
  }
  if (has_aff) return StageEnqueue(LocalityOf(aff), t, std::move(fn), false);
  return StageEnqueue(0, t, std::move(fn), true);
}

TaskId ParallelScheduler::Post(std::uint64_t affinity, SimTime t, Task fn,
                               bool barrier) {
  if (t < Now()) t = Now();
  const int dest = LocalityOf(affinity);
  if (tl_ctx.sched == this)
    return WorkerEnqueue(dest, t, std::move(fn), barrier);
  return StageEnqueue(dest, t, std::move(fn), barrier);
}

TaskId ParallelScheduler::WorkerEnqueue(int dest, SimTime t, Task&& fn,
                                        bool barrier) {
  // Inside a window another locality may already have run past `t`, and a
  // barrier must never run inside one.
  if (tl_ctx.hi > tl_ctx.lo && t <= tl_ctx.hi &&
      (dest != tl_ctx.loc || barrier))
    throw FargoError(
        "lookahead violation: locality " + std::to_string(tl_ctx.loc) +
        " posted a " + (barrier ? "barrier task" : "task") +
        " for locality " + std::to_string(dest) + " due at " +
        std::to_string(t) + " inside the window [" +
        std::to_string(tl_ctx.lo) + ", " + std::to_string(tl_ctx.hi) +
        "] (cross-locality work must be at least the lookahead away)");
  Locality& self = *locs_[static_cast<std::size_t>(tl_ctx.loc)];
  if (dest == tl_ctx.loc)
    return MakeHandleId(dest, self.queue.Push(t, std::move(fn), barrier));
  const TaskId id =
      MakeAlias(dest, static_cast<unsigned>(tl_ctx.loc) + 1, self.alias_seq++);
  locs_[static_cast<std::size_t>(dest)]
      ->inbox(tl_ctx.round & 1)
      .Push(HandoffQueue::Item{t, static_cast<std::uint32_t>(tl_ctx.loc),
                               self.merge_seq++, id, std::move(fn), barrier});
  ++self.handoffs;
  self.sent_due = std::min(self.sent_due, t);
  if (barrier) self.sent_barrier = std::min(self.sent_barrier, t);
  if (t <= tl_ctx.hi) self.again = true;
  return id;
}

TaskId ParallelScheduler::StageEnqueue(int dest, SimTime t, Task&& fn,
                                       bool barrier) {
  // Workers are parked: reserve the task's slot in its destination queue
  // now, so its id is a real handle; the merge links it into the heap.
  Locality& loc = *locs_[static_cast<std::size_t>(dest)];
  const TaskId id =
      MakeHandleId(dest, loc.queue.Reserve(std::move(fn), barrier));
  staged_due_ = std::min(staged_due_, t);
  if (barrier) staged_barrier_ = std::min(staged_barrier_, t);
  std::lock_guard<std::mutex> sl(loc.staging_mu);
  loc.staged.push_back(
      HandoffQueue::Item{t, kConductorRank, conductor_seq_++, id, {}, barrier});
  return id;
}

void ParallelScheduler::Cancel(TaskId id) {
  const int dest = IdDest(id);
  if (dest >= num_localities_) return;
  Locality& loc = *locs_[static_cast<std::size_t>(dest)];
  if (tl_ctx.sched != this) {
    // The conductor: every worker is parked, so cancel in place.
    std::lock_guard<std::mutex> sl(loc.staging_mu);
    auto it = std::find_if(
        loc.staged.begin(), loc.staged.end(),
        [id](const HandoffQueue::Item& item) { return item.id == id; });
    if (it != loc.staged.end()) {  // staged, never merged
      loc.queue.Cancel(id & kTaskMask);
      loc.staged.erase(it);
      RestageBounds();
      return;
    }
    const std::size_t before = loc.queue.size();
    CancelIn(loc.queue, id);
    loc.Publish();
    // A handoff still in an inbox (a predicate pump stopped mid-timestamp)
    // is cancelled at its merge.
    if (loc.queue.size() == before && (id & kAliasBit))
      loc.cancels(barrier_->go_round).push_back(id);
    return;
  }
  if (dest == tl_ctx.loc) {
    CancelIn(loc.queue, id);
    return;
  }
  if (tl_ctx.hi > tl_ctx.lo)
    throw FargoError("lookahead violation: locality " +
                     std::to_string(tl_ctx.loc) +
                     " cancelled a task of locality " + std::to_string(dest) +
                     " inside the window [" + std::to_string(tl_ctx.lo) +
                     ", " + std::to_string(tl_ctx.hi) + "]");
  // Another locality's task: it applies the cancel when it merges next
  // round, after that round's handoffs (this one may chase one of them).
  {
    std::lock_guard<std::mutex> sl(loc.staging_mu);
    loc.cancels(tl_ctx.round).push_back(id);
  }
  locs_[static_cast<std::size_t>(tl_ctx.loc)]->again = true;
}

void ParallelScheduler::RestageBounds() {
  staged_due_ = kNoDue;
  staged_barrier_ = kNoDue;
  for (const auto& l : locs_)
    for (const auto& item : l->staged) {
      staged_due_ = std::min(staged_due_, item.at);
      if (item.barrier) staged_barrier_ = std::min(staged_barrier_, item.at);
    }
}

bool ParallelScheduler::RunRounds(SimTime lo, SimTime hi,
                                  const std::function<bool()>* pred) {
  Barrier& b = *barrier_;
  for (;;) {
    bool again = false;
    std::exception_ptr err;
    {
      std::unique_lock<std::mutex> lk(b.mu);
      b.arrived = 0;
      b.lo = lo;
      b.hi = hi;
      ++b.go_round;
      b.cv_go.notify_all();
      b.cv_done.wait(lk, [&] { return b.arrived == num_localities_; });
      for (auto& l : locs_) {
        again = again || l->again;
        now_ = std::max(now_, l->last_run);
        if (l->error && !err) {
          err = l->error;
          l->error = nullptr;
        }
      }
    }
    ++rounds_;
    staged_due_ = kNoDue;
    staged_barrier_ = kNoDue;
    if (err) std::rethrow_exception(err);
    if (pred && (*pred)()) return true;
    if (!again) return false;
  }
}

SimTime ParallelScheduler::NextDue() const {
  SimTime m = staged_due_;
  for (const auto& l : locs_) m = std::min({m, l->next_due, l->sent_due});
  return m;
}

SimTime ParallelScheduler::NextBarrier() const {
  SimTime m = staged_barrier_;
  for (const auto& l : locs_)
    m = std::min({m, l->next_barrier, l->sent_barrier});
  return m;
}

SimTime ParallelScheduler::WindowEnd(SimTime lo, SimTime limit) const {
  const SimTime lookahead = lookahead_ ? lookahead_() : 0;
  const SimTime barrier = NextBarrier();
  if (lookahead <= 1 || barrier <= lo) return lo;
  return std::min({lo + (lookahead - 1), limit, barrier - 1});
}

std::uint64_t ParallelScheduler::ExecutedLocked() const {
  std::uint64_t total = 0;
  for (const auto& l : locs_) total += l->executed;
  return total;
}

bool ParallelScheduler::RunOne() {
  PumpGuard guard(*this);
  EnsureStarted();
  const std::uint64_t before = ExecutedLocked();
  while (ExecutedLocked() == before) {
    const SimTime due = NextDue();
    if (due == kNoDue) return false;
    if (due > now_) now_ = due;
    // A round can run nothing when a worker's cross-locality cancel
    // removed its only task at merge; then try the next timestamp.
    RunRounds(now_, now_, nullptr);
  }
  return true;
}

void ParallelScheduler::RunUntilIdle() {
  PumpGuard guard(*this);
  EnsureStarted();
  for (SimTime due = NextDue(); due != kNoDue; due = NextDue())
    RunRounds(due, WindowEnd(due, kNoDue), nullptr);
}

void ParallelScheduler::RunUntil(const std::function<bool()>& pred) {
  PumpGuard guard(*this);
  EnsureStarted();
  for (;;) {
    if (pred()) return;
    const SimTime due = NextDue();
    if (due == kNoDue)
      throw FargoError("scheduler drained while awaiting a condition "
                       "(lost message or dead peer?)");
    if (due > now_) now_ = due;
    if (RunRounds(now_, now_, &pred)) return;
  }
}

bool ParallelScheduler::RunUntilOr(const std::function<bool()>& pred,
                                   SimTime deadline) {
  PumpGuard guard(*this);
  EnsureStarted();
  for (;;) {
    if (pred()) return true;
    const SimTime due = NextDue();
    if (due == kNoDue || due > deadline) {
      // No more events before the deadline: advance to it and give up.
      if (deadline > now_) now_ = deadline;
      return pred();
    }
    if (due > now_) now_ = due;
    if (RunRounds(now_, now_, &pred)) return true;
  }
}

void ParallelScheduler::RunFor(SimTime d) {
  PumpGuard guard(*this);
  EnsureStarted();
  const SimTime limit = now_ + d;
  for (SimTime due = NextDue(); due <= limit; due = NextDue())
    RunRounds(due, WindowEnd(due, limit), nullptr);
  now_ = limit;
}

std::size_t ParallelScheduler::PendingCount() const {
  std::size_t total = 0;
  for (const auto& l : locs_) {
    total += l->queue.size();
    {
      std::lock_guard<std::mutex> sl(l->staging_mu);
      total += l->staged.size();
    }
    total += l->inbox0.ApproxSize() + l->inbox1.ApproxSize();
  }
  return total;
}

void ParallelScheduler::Clear() {
  // Workers are parked between pumps; the barrier mutex from their park is
  // the happens-before edge that makes their queues safe to touch here.
  // Discarded closures are destroyed on this (conductor) thread, while the
  // Cores they may reference still exist.
  std::vector<HandoffQueue::Item> discard;
  for (auto& l : locs_) {
    {
      std::lock_guard<std::mutex> sl(l->staging_mu);
      l->staged.clear();
      l->cancels(0).clear();
      l->cancels(1).clear();
    }
    l->inbox0.DrainInto(discard);
    l->inbox1.DrainInto(discard);
    l->queue.Clear();
    l->next_due = kNoDue;
    l->next_barrier = kNoDue;
    l->sent_due = kNoDue;
    l->sent_barrier = kNoDue;
  }
  staged_due_ = kNoDue;
  staged_barrier_ = kNoDue;
}

std::uint64_t ParallelScheduler::executed() const { return ExecutedLocked(); }

std::size_t ParallelScheduler::QueuePeak() const {
  std::size_t peak = 0;
  for (const auto& l : locs_) peak = std::max(peak, l->queue.peak());
  return peak;
}

ParallelScheduler::Telemetry ParallelScheduler::telemetry() const {
  Telemetry t;
  t.rounds = rounds_;
  for (const auto& l : locs_) {
    t.handoffs += l->handoffs;
    t.overflows += l->inbox0.overflows() + l->inbox1.overflows();
    t.max_queue_depth = std::max(
        {t.max_queue_depth,
         static_cast<std::uint64_t>(l->inbox0.max_depth()),
         static_cast<std::uint64_t>(l->inbox1.max_depth())});
  }
  return t;
}

}  // namespace fargo::sim
