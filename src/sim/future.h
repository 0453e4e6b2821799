// Promise/Future: the continuation primitive under the asynchronous
// invocation pipeline (DESIGN.md §5).
//
// A Promise<T> is the producer end, a Future<T> the consumer end of one
// shared settlement slot. Settlement is *first-wins* and idempotent: the
// machinery may race a reply against a timeout against a cancel, and
// whichever settles first sticks. Continuations never run inline — they are
// scheduled as ordinary zero-delay events on the owning Scheduler, so
// resolution order is exactly scheduler order (deterministic), user code
// runs outside the settling call stack, and the pipeline itself never needs
// to pump the scheduler re-entrantly.
#pragma once

#include <exception>
#include <memory>
#include <optional>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/common/time.h"
#include "src/common/value.h"
#include "src/sim/scheduler.h"
#include "src/sim/task.h"

namespace fargo::sim {

/// Completion-only payload (Future<Unit> ~ "future<void>").
struct Unit {};

template <class T>
class Future;
template <class T>
class Promise;

namespace detail {

template <class T>
struct FutureState {
  Scheduler* sched = nullptr;
  bool settled = false;
  std::optional<T> value;
  std::exception_ptr error;
  /// The first continuation, held inline: most futures get exactly one.
  Task first;
  /// The second and later continuations, in registration order.
  std::vector<Task> continuations;
  TaskId expiry = 0;  ///< pending ExpireAfter task, cancelled on settle

  /// Queues `fn` to be scheduled on settlement. Requires !settled.
  void AddContinuation(Task&& fn) {
    if (!first)
      first = std::move(fn);
    else
      continuations.push_back(std::move(fn));
  }

  void FireContinuations() {
    settled = true;
    if (expiry != 0) {
      sched->Cancel(expiry);
      expiry = 0;
    }
    if (!first) return;
    sched->ScheduleAfter(0, std::move(first));
    for (Task& fn : continuations) sched->ScheduleAfter(0, std::move(fn));
    continuations.clear();
  }

  bool SettleValue(T v) {
    if (settled) return false;
    value.emplace(std::move(v));
    FireContinuations();
    return true;
  }

  bool SettleError(std::exception_ptr e) {
    if (settled) return false;
    error = std::move(e);
    FireContinuations();
    return true;
  }
};

template <class>
struct IsFuture : std::false_type {};
template <class U>
struct IsFuture<Future<U>> : std::true_type {};

}  // namespace detail

/// Consumer end. Copies alias the same settlement slot. A
/// default-constructed Future is invalid and must not be observed.
template <class T>
// fargo: domain(sim)
class Future {
 public:
  using value_type = T;

  Future() = default;
  /// A future over `state`, which may live inside a larger record that
  /// the pointer shares ownership of (an aliasing shared_ptr).
  explicit Future(std::shared_ptr<detail::FutureState<T>> state)
      : state_(std::move(state)) {}

  bool valid() const { return state_ != nullptr; }
  bool settled() const { return State().settled; }
  /// Settled with a value (as opposed to an error).
  bool ok() const { return State().settled && State().value.has_value(); }

  /// The settled value; throws if unsettled or settled with an error.
  const T& value() const {
    Require();
    return *State().value;
  }

  /// Moves the value out, or rethrows the settlement error. The synchronous
  /// API wrappers pump the scheduler until settled(), then Take().
  T Take() {
    Require();
    return std::move(*State().value);
  }

  /// The settlement error; null when unsettled or resolved.
  std::exception_ptr error() const { return State().error; }

  Scheduler& scheduler() const { return *State().sched; }

  /// Runs `fn(*this)` after settlement, as its own scheduled event. If the
  /// future is already settled the continuation still runs asynchronously
  /// (zero-delay event), never inline.
  template <class F>
  void OnSettle(F fn) const {
    Task bound = [state = state_, fn = std::move(fn)]() mutable {
      fn(Future<T>(std::move(state)));
    };
    if (State().settled) {
      State().sched->ScheduleAfter(0, std::move(bound));
    } else {
      State().AddContinuation(std::move(bound));
    }
  }

  /// Monadic chain: on success runs `fn(value&)` and settles the returned
  /// future with its result; errors (the upstream one, or one thrown by
  /// `fn`) propagate. `fn` may return a plain value, void (mapped to Unit),
  /// or another Future (flattened).
  template <class F>
  auto Then(F fn) const {
    using R = std::invoke_result_t<F, T&>;
    if constexpr (detail::IsFuture<R>::value) {
      using V = typename R::value_type;
      Promise<V> next(*State().sched);
      OnSettle([fn = std::move(fn), next](Future<T> f) mutable {
        if (!f.ok()) {
          next.Reject(f.error());
          return;
        }
        try {
          R inner = fn(f.MutableValue());
          inner.OnSettle([next](Future<V> g) mutable {
            if (g.ok()) {
              next.Resolve(g.Take());
            } else {
              next.Reject(g.error());
            }
          });
        } catch (...) {
          next.Reject(std::current_exception());
        }
      });
      return next.future();
    } else if constexpr (std::is_void_v<R>) {
      // Spelled via R so the type stays dependent (Promise is only
      // forward-declared above this point).
      using U = std::conditional_t<std::is_void_v<R>, Unit, Unit>;
      Promise<U> next(*State().sched);
      OnSettle([fn = std::move(fn), next](Future<T> f) mutable {
        if (!f.ok()) {
          next.Reject(f.error());
          return;
        }
        try {
          fn(f.MutableValue());
          next.Resolve(Unit{});
        } catch (...) {
          next.Reject(std::current_exception());
        }
      });
      return next.future();
    } else {
      Promise<R> next(*State().sched);
      OnSettle([fn = std::move(fn), next](Future<T> f) mutable {
        if (!f.ok()) {
          next.Reject(f.error());
          return;
        }
        try {
          next.Resolve(fn(f.MutableValue()));
        } catch (...) {
          next.Reject(std::current_exception());
        }
      });
      return next.future();
    }
  }

  /// Error recovery: on failure runs `fn(error)` and settles with its
  /// result (plain T or Future<T>, flattened); successes pass through.
  template <class F>
  Future<T> OrElse(F fn) const {
    using R = std::invoke_result_t<F, std::exception_ptr>;
    Promise<T> next(*State().sched);
    OnSettle([fn = std::move(fn), next](Future<T> f) mutable {
      if (f.ok()) {
        next.Resolve(f.Take());
        return;
      }
      try {
        if constexpr (detail::IsFuture<R>::value) {
          R inner = fn(f.error());
          inner.OnSettle([next](Future<T> g) mutable {
            if (g.ok()) {
              next.Resolve(g.Take());
            } else {
              next.Reject(g.error());
            }
          });
        } else {
          next.Resolve(fn(f.error()));
        }
      } catch (...) {
        next.Reject(std::current_exception());
      }
    });
    return next.future();
  }

  /// Arms a deadline: if the future is still unsettled `delay` from now it
  /// is rejected with UnreachableError(`what`). The task is cancelled on
  /// settlement, so an armed future keeps the scheduler queue non-empty —
  /// which is exactly what lets the sync wrappers pump with RunUntil and
  /// still terminate. Returns *this for chaining.
  Future<T> ExpireAfter(SimTime delay, std::string what) const {
    if (State().settled) return *this;
    State().expiry = State().sched->ScheduleAfter(
        delay, [state = state_, what = std::move(what)] {
          state->expiry = 0;
          state->SettleError(
              std::make_exception_ptr(UnreachableError(what)));
        });
    return *this;
  }

  /// Rejects the future if unsettled (first-wins with the producer).
  /// Returns true if this call settled it.
  bool Cancel(const std::string& why = "cancelled") const {
    return State().SettleError(std::make_exception_ptr(FargoError(why)));
  }

  /// Mutable access for continuation plumbing (Then moves out of it).
  T& MutableValue() {
    Require();
    return *State().value;
  }

 private:
  void Require() const {
    detail::FutureState<T>& s = State();
    if (!s.settled) throw FargoError("future observed before settlement");
    if (!s.value.has_value()) std::rethrow_exception(s.error);
  }

  detail::FutureState<T>& State() const {
    if (!state_) throw FargoError("operation on an invalid future");
    return *state_;
  }

  std::shared_ptr<detail::FutureState<T>> state_;
};

/// Producer end. Copyable (copies alias the slot) so continuations can
/// share it; settlement stays first-wins.
template <class T>
// fargo: domain(sim)
class Promise {
 public:
  explicit Promise(Scheduler& sched)
      : state_(std::make_shared<detail::FutureState<T>>()) {
    state_->sched = &sched;
  }

  Future<T> future() const { return Future<T>(state_); }

  bool settled() const { return state_->settled; }

  /// Settles with a value; no-op (returns false) if already settled.
  bool Resolve(T value) { return state_->SettleValue(std::move(value)); }

  /// Settles with an error; no-op (returns false) if already settled.
  bool Reject(std::exception_ptr e) { return state_->SettleError(std::move(e)); }

  template <class E>
  bool RejectWith(E e) {
    return Reject(std::make_exception_ptr(std::move(e)));
  }

 private:
  std::shared_ptr<detail::FutureState<T>> state_;
};

/// An already-resolved future (immediate values entering an async chain).
template <class T>
Future<T> MakeReadyFuture(Scheduler& sched, T value) {
  Promise<T> p(sched);
  p.Resolve(std::move(value));
  return p.future();
}

/// An already-rejected future.
template <class T, class E>
Future<T> MakeErrorFuture(Scheduler& sched, E error) {
  Promise<T> p(sched);
  p.RejectWith(std::move(error));
  return p.future();
}

/// The message of a settlement error, for logging a rejected future.
inline std::string ErrorMessage(const std::exception_ptr& error) {
  try {
    std::rethrow_exception(error);
  } catch (const std::exception& e) {
    return e.what();
  } catch (...) {
    return "unknown error";
  }
}

/// Pumps `sched` until `f` settles, then returns the value or rethrows the
/// settlement error — the single place blocking-RPC semantics live now.
/// Every async pipeline arms deadline tasks for its failure paths, so the
/// pump always terminates.
template <class T>
T Await(Future<T> f) {
  Scheduler& sched = f.scheduler();
  sched.RunUntil([&f] { return f.settled(); });
  return f.Take();
}

}  // namespace fargo::sim
