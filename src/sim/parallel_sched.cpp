#include "src/sim/parallel_sched.h"

#include <algorithm>
#include <condition_variable>
#include <limits>
#include <mutex>
#include <queue>
#include <set>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "src/common/value.h"  // FargoError
#include "src/sim/handoff.h"

namespace fargo::sim {

namespace {

constexpr std::uint32_t kConductorRank = 0xFFFFFFFFu;

// TaskId layout: [8b destination locality | 8b producer tag | 48b counter].
// The destination routes Cancel; the producer tag + per-producer counter
// make ids unique without shared state (tag 0 = conductor, i+1 = worker i).
TaskId MakeId(int dest, unsigned producer_tag, std::uint64_t n) {
  return (static_cast<TaskId>(dest) << 56) |
         (static_cast<TaskId>(producer_tag & 0xFFu) << 48) |
         (n & 0x0000FFFFFFFFFFFFull);
}
int IdDest(TaskId id) { return static_cast<int>(id >> 56); }

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
  struct Entry {
    SimTime at;
    std::uint64_t prio;  // local insertion order: same-time FIFO tiebreak
    TaskId id;
    bool barrier;
    std::function<void()> fn;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.at != b.at) return a.at > b.at;
      return a.prio > b.prio;
    }
  };

  explicit Locality(std::size_t cap) : inbox0(cap), inbox1(cap) {}

  HandoffQueue& inbox(unsigned parity) { return parity ? inbox1 : inbox0; }

  void Push(SimTime at, TaskId id, bool barrier, std::function<void()> fn) {
    if (barrier) barriers.insert(at);
    queue.push(Entry{at, prio_seq++, id, barrier, std::move(fn)});
  }
  Entry Pop() {
    Entry e = std::move(const_cast<Entry&>(queue.top()));
    queue.pop();
    if (e.barrier) barriers.erase(barriers.find(e.at));
    return e;
  }

  // -- worker-confined (the conductor touches these only while every
  // -- worker is parked; the barrier mutex is the happens-before edge) ----
  std::priority_queue<Entry, std::vector<Entry>, Later> queue;
  std::multiset<SimTime> barriers;  ///< due times of queued barrier tasks
  std::unordered_set<TaskId> cancelled;
  std::uint64_t prio_seq = 0;   ///< queue insertion order
  std::uint64_t merge_seq = 0;  ///< producer stamp on outgoing handoffs
  std::uint64_t id_seq = 1;     ///< TaskId counter (producer-private)
  std::uint64_t handoffs = 0;   ///< cross-locality tasks sent

  // Ping-pong MPSC inboxes: producers fill inbox(round & 1) during round
  // `round`; the owner drains inbox((round + 1) & 1) — last round's —
  // exclusively at the start of its round (see handoff.h).
  HandoffQueue inbox0;
  HandoffQueue inbox1;

  // Conductor-side scheduling between pumps + cross-thread cancels.
  mutable std::mutex staging_mu;
  std::vector<HandoffQueue::Item> staged;
  std::vector<TaskId> staged_cancels;

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
      cancels.swap(self.staged_cancels);
    }
    self.inbox((seen + 1) & 1).DrainInto(batch);
    std::sort(batch.begin(), batch.end(),
              [](const HandoffQueue::Item& a, const HandoffQueue::Item& b) {
                if (a.at != b.at) return a.at < b.at;
                if (a.src != b.src) return a.src < b.src;
                return a.seq < b.seq;
              });
    for (auto& item : batch)
      self.Push(item.at, item.id, item.barrier, std::move(item.fn));
    for (TaskId id : cancels) self.cancelled.insert(id);

    // Execute everything due inside the window, in time order. Locally
    // scheduled work due inside it runs within this round (matching the
    // sim's run-to-completion); handoffs land in peers' inboxes for the
    // next round.
    try {
      while (!self.queue.empty() && self.queue.top().at <= hi) {
        Locality::Entry e = self.Pop();
        if (auto it = self.cancelled.find(e.id);
            it != self.cancelled.end()) {
          self.cancelled.erase(it);
          continue;
        }
        ++exec;
        tl_ctx.now = e.at;
        tl_ctx.in_barrier = e.barrier;
        self.last_run = e.at;
        e.fn();
      }
    } catch (...) {
      err = std::current_exception();
    }
    // Prune cancelled heads so next_due names a live event (a cancelled
    // timestamp must not drag the global clock forward).
    while (!self.queue.empty()) {
      auto it = self.cancelled.find(self.queue.top().id);
      if (it == self.cancelled.end()) break;
      self.cancelled.erase(it);
      self.Pop();
    }
    tl_ctx = WorkerCtx{};

    lk.lock();
    self.executed += exec;
    self.next_due = self.queue.empty() ? kNoDue : self.queue.top().at;
    self.next_barrier =
        self.barriers.empty() ? kNoDue : *self.barriers.begin();
    if (err && !self.error) self.error = err;
    if (++b.arrived == num_localities_) b.cv_done.notify_all();
  }
}

SimTime ParallelScheduler::Now() const {
  return tl_ctx.sched == this ? tl_ctx.now : now_;
}

TaskId ParallelScheduler::ScheduleAt(SimTime t, std::function<void()> fn) {
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

TaskId ParallelScheduler::Post(std::uint64_t affinity, SimTime t,
                               std::function<void()> fn, bool barrier) {
  if (t < Now()) t = Now();
  const int dest = LocalityOf(affinity);
  if (tl_ctx.sched == this)
    return WorkerEnqueue(dest, t, std::move(fn), barrier);
  return StageEnqueue(dest, t, std::move(fn), barrier);
}

TaskId ParallelScheduler::WorkerEnqueue(int dest, SimTime t,
                                        std::function<void()> fn,
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
  const TaskId id =
      MakeId(dest, static_cast<unsigned>(tl_ctx.loc) + 1, self.id_seq++);
  if (dest == tl_ctx.loc) {
    self.Push(t, id, barrier, std::move(fn));
    return id;
  }
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

TaskId ParallelScheduler::StageEnqueue(int dest, SimTime t,
                                       std::function<void()> fn,
                                       bool barrier) {
  const TaskId id = MakeId(dest, 0, conductor_ids_++);
  staged_due_ = std::min(staged_due_, t);
  if (barrier) staged_barrier_ = std::min(staged_barrier_, t);
  Locality& loc = *locs_[static_cast<std::size_t>(dest)];
  std::lock_guard<std::mutex> sl(loc.staging_mu);
  loc.staged.push_back(HandoffQueue::Item{t, kConductorRank, conductor_seq_++,
                                          id, std::move(fn), barrier});
  return id;
}

void ParallelScheduler::Cancel(TaskId id) {
  const int dest = IdDest(id);
  if (dest < 0 || dest >= num_localities_) return;
  const bool worker = tl_ctx.sched == this;
  if (worker && dest == tl_ctx.loc) {
    locs_[static_cast<std::size_t>(dest)]->cancelled.insert(id);
    return;
  }
  if (worker && tl_ctx.hi > tl_ctx.lo)
    throw FargoError("lookahead violation: locality " +
                     std::to_string(tl_ctx.loc) +
                     " cancelled a task of locality " + std::to_string(dest) +
                     " inside the window [" + std::to_string(tl_ctx.lo) +
                     ", " + std::to_string(tl_ctx.hi) + "]");
  Locality& loc = *locs_[static_cast<std::size_t>(dest)];
  {
    std::lock_guard<std::mutex> sl(loc.staging_mu);
    loc.staged_cancels.push_back(id);
  }
  if (worker)
    locs_[static_cast<std::size_t>(tl_ctx.loc)]->again = true;
  else
    staged_cancels_ = true;
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
    staged_cancels_ = false;
    if (err) std::rethrow_exception(err);
    if (pred && (*pred)()) return true;
    if (!again) return false;
  }
}

SimTime ParallelScheduler::NextDue() const {
  // Conductor cancels are merged by a round at the current clock first,
  // so the due time that follows names a live event (as the sim's would).
  if (staged_cancels_) return now_;
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
    RunRounds(now_, now_, nullptr);  // a cancelled-only timestamp loops
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
    const std::size_t q = l->queue.size();
    const std::size_t c = l->cancelled.size();
    total += q > c ? q - c : 0;
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
      l->staged_cancels.clear();
    }
    l->inbox0.DrainInto(discard);
    l->inbox1.DrainInto(discard);
    l->queue = {};
    l->barriers.clear();
    l->cancelled.clear();
    l->next_due = kNoDue;
    l->next_barrier = kNoDue;
    l->sent_due = kNoDue;
    l->sent_barrier = kNoDue;
  }
  staged_due_ = kNoDue;
  staged_barrier_ = kNoDue;
  staged_cancels_ = false;
}

std::uint64_t ParallelScheduler::executed() const { return ExecutedLocked(); }

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
