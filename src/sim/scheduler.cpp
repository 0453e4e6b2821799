#include "src/sim/scheduler.h"

#include <limits>

#include "src/common/value.h"  // FargoError

namespace fargo::sim {

namespace detail {
thread_local int tl_worker_locality = -1;
thread_local int tl_no_pump = 0;
}  // namespace detail

thread_local std::uint64_t Scheduler::AffinityScope::ambient_key_ = 0;
thread_local bool Scheduler::AffinityScope::ambient_set_ = false;

// The scopes touch the thread_local statics only here, in the defining
// translation unit: gcc's UBSan flags inline accesses from other units
// (through the TLS wrapper) as null-pointer loads.
Scheduler::NoPumpScope::NoPumpScope(Scheduler&) { ++detail::tl_no_pump; }
Scheduler::NoPumpScope::~NoPumpScope() { --detail::tl_no_pump; }

Scheduler::AffinityScope::AffinityScope(std::uint64_t affinity)
    : prev_key_(ambient_key_), prev_set_(ambient_set_) {
  ambient_key_ = affinity;
  ambient_set_ = true;
}

Scheduler::AffinityScope::~AffinityScope() {
  ambient_key_ = prev_key_;
  ambient_set_ = prev_set_;
}

bool Scheduler::AffinityScope::Current(std::uint64_t& affinity) {
  if (!ambient_set_) return false;
  affinity = ambient_key_;
  return true;
}

Scheduler::PumpGuard::PumpGuard(Scheduler& s) : sched_(s) {
  if (detail::tl_worker_locality >= 0)
    throw FargoError(
        "scheduler pump from a locality worker thread (only the conductor "
        "may pump; handlers must be non-blocking state machines)");
  if (detail::tl_no_pump > 0)
    throw FargoError(
        "re-entrant scheduler pump inside a no-pump section (the async "
        "invocation pipeline must use continuations, not blocking waits)");
  if (sched_.pumping_)
    throw FargoError(
        "scheduler pump inside a running pump (handlers never block: a "
        "complet method or listener returns a future instead of waiting)");
  sched_.pumping_ = true;
}

TaskId SimScheduler::ScheduleAt(SimTime t, Task fn) {
  if (t < now_) t = now_;
  return queue_.Push(t, std::move(fn));
}

bool SimScheduler::RunDue(SimTime limit) {
  if (queue_.empty() || queue_.top_at() > limit) return false;
  EventQueue::Popped task = queue_.Pop();
  now_ = std::max(now_, task.at);
  ++executed_;
  task.fn();
  return true;
}

bool SimScheduler::RunOne() {
  PumpGuard guard(*this);
  return RunDue(std::numeric_limits<SimTime>::max());
}

void SimScheduler::RunUntilIdle() {
  PumpGuard guard(*this);
  while (RunDue(std::numeric_limits<SimTime>::max())) {
  }
}

void SimScheduler::RunUntil(const std::function<bool()>& pred) {
  PumpGuard guard(*this);
  while (!pred()) {
    if (!RunDue(std::numeric_limits<SimTime>::max()))
      throw FargoError("scheduler drained while awaiting a condition "
                       "(lost message or dead peer?)");
  }
}

bool SimScheduler::RunUntilOr(const std::function<bool()>& pred,
                              SimTime deadline) {
  PumpGuard guard(*this);
  while (!pred()) {
    if (!RunDue(deadline)) {
      // No more events before the deadline: advance to it and give up.
      now_ = std::max(now_, deadline);
      return pred();
    }
  }
  return true;
}

void SimScheduler::RunFor(SimTime d) {
  PumpGuard guard(*this);
  const SimTime limit = now_ + d;
  while (RunDue(limit)) {
  }
  now_ = limit;
}

PeriodicTask::PeriodicTask(Scheduler& sched, SimTime interval,
                           std::function<void()> fn)
    : impl_(std::make_shared<Impl>(
          Impl{sched, interval, std::move(fn), std::nullopt})) {
  Arm(impl_);
}

PeriodicTask::PeriodicTask(Scheduler& sched, std::uint64_t owner,
                           SimTime interval, std::function<void()> fn)
    : impl_(std::make_shared<Impl>(
          Impl{sched, interval, std::move(fn), owner})) {
  Arm(impl_);
}

PeriodicTask::~PeriodicTask() { Stop(); }

void PeriodicTask::Arm(const std::shared_ptr<Impl>& impl) {
  auto tick = [impl] {
    if (!impl->running) return;
    impl->fn();
    if (impl->running) Arm(impl);
  };
  if (impl->owner)
    impl->sched.PostAfter(*impl->owner, impl->interval, std::move(tick));
  else
    impl->sched.ScheduleAfter(impl->interval, std::move(tick));
}

void PeriodicTask::Stop() { impl_->running = false; }

}  // namespace fargo::sim
