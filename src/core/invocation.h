// The Invocation unit (Fig 1, §3.1): routes method invocations from stubs
// through tracker chains to the target anchor, implements the parameter
// passing scheme, and shortens chains on return.
//
// Invocations run as an explicit asynchronous state machine: each call is
// one heap-allocated AsyncCall record, which embeds the state of the future
// the caller holds, driven entirely by scheduled continuations (send →
// timeout → backoff → resend → reply). The executor never blocks either: a
// sync method concludes at once, an async method (and __fargo.move)
// concludes from its pending future's settle. The synchronous Invoke is a
// thin wrapper for the outermost caller: it pumps the scheduler until the
// call's future settles, and throws if a pump is already running.
#pragma once

#include <cstdint>
#include <exception>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/common/ids.h"
#include "src/common/value.h"
#include "src/core/core.h"
#include "src/core/wire.h"
#include "src/monitor/trace.h"
#include "src/net/network.h"
#include "src/sim/future.h"

namespace fargo::core {

// fargo: domain(core)
class InvocationUnit {
 public:
  explicit InvocationUnit(Core& core) : core_(core) {}

  /// Invokes `method` on the complet named by `handle`. Dispatches directly
  /// when the target is hosted here; otherwise forwards along the tracker
  /// chain, blocks for the reply, and repoints this Core's tracker to the
  /// target's answered location (chain shortening, §3.1).
  ///
  /// When the Core's RetryPolicy allows more than one attempt, retry-safe
  /// failures (timeouts and transport-flagged error replies, both of which
  /// mean the method never executed) are retried with exponential backoff.
  /// Retries reuse the original correlation and session key, and executors
  /// detect duplicates by slot replay (src/net/session.h), so a method runs
  /// at most once per Invoke call.
  ///
  /// On a transport failure (severed chain, dead Core) with the home
  /// registry enabled, the target's home is consulted and the invocation
  /// retried once along the fresh route — safe because UnreachableError
  /// means the request never executed.
  InvokeResult Invoke(const ComletHandle& handle, std::string_view method,
                      std::vector<Value> args);

  /// Asynchronous form of Invoke: returns immediately with a future that
  /// settles when the invocation completes (value) or fails (the same
  /// exceptions Invoke throws). Multiple InvokeAsync calls pipeline: N
  /// concurrent invocations over a high-latency link complete in ~1 RTT
  /// instead of N RTTs.
  sim::Future<InvokeResult> InvokeAsync(const ComletHandle& handle,
                                        std::string_view method,
                                        std::vector<Value> args);

  /// One-way invocation: routes exactly like Invoke but returns
  /// immediately; the result (or error) is discarded. The paper's Core
  /// starts a thread per invocation — this is the sender-side analogue for
  /// fire-and-forget interactions.
  void Post(const ComletHandle& handle, std::string_view method,
            std::vector<Value> args);

  /// Request arriving from the network: execute here, forward to the next
  /// tracker hop, or park if the target is in transit to this Core.
  void HandleRequest(net::Message msg);

  /// Reply arriving at the origin.
  void HandleReply(net::Message msg);

  /// Chain-shortening notification: repoint our tracker for a complet.
  void HandleTrackerUpdate(net::Message msg);

  /// Tracker-change callback (wired by the Core): wakes invocations parked
  /// on a missing route once the target lands or a forward appears.
  void NotifyRouteChanged(ComletId id);

  /// Maximum forwarding hops before a request is failed (routing-loop
  /// safety net).
  void SetMaxHops(int n) { max_hops_ = n; }

  /// Ablation switch: disables automatic chain shortening (§3.1) at this
  /// Core — no origin repoint, no TrackerUpdate fan-out when executing.
  void SetChainShortening(bool on) { shortening_ = on; }

 private:
  /// One origin-side invocation in flight: a stable heap record shared by
  /// the waiter map, the attempt/backoff timers, and the reply path — so
  /// bookkeeping survives map rehashes (nested invocations insert into the
  /// same map) and late replies can be told apart from live ones.
  struct AsyncCall {
    explicit AsyncCall(sim::Scheduler& s) { state.sched = &s; }
    /// The invocation as it will travel the wire, built ONCE per call:
    /// attempts mutate only `req.trace` and `req.handle.last_known` in
    /// place, so resends never re-copy the method name or the argument
    /// values (they used to, per attempt). Local dispatch reads the same
    /// fields, so the record is also the single owner of handle/method/args.
    wire::InvokeRequest req;
    /// The call's settlement slot, embedded so that one allocation holds
    /// the whole record: the caller's future shares ownership of the call
    /// (an aliasing shared_ptr, see StartCall).
    sim::detail::FutureState<InvokeResult> state;
    monitor::Tracer::Opened root{};  ///< the invocation's root span
    SimTime begin = 0;
    std::uint64_t corr = 0;
    /// Session slot leased for this call (net/session.h): every resend
    /// reuses it, so the executor recognizes duplicates by slot replay.
    /// Released when the call settles.
    net::SessionKey skey;
    int attempt = 0;
    int max_attempts = 1;
    sim::TaskId timer = 0;  ///< pending timeout or backoff task
  };

  /// One invocation parked on a missing route (target in transit to us).
  struct RouteWait {
    std::shared_ptr<AsyncCall> call;
    sim::TaskId timer = 0;  ///< deadline task
  };

  /// One routed attempt sequence: opens the root span and dispatches
  /// locally, parks on the route, or goes remote. (The directory fallback
  /// in InvokeAsync wraps this.) Takes ownership of `args`.
  sim::Future<InvokeResult> StartCall(const ComletHandle& handle,
                                      const std::string& method,
                                      std::vector<Value> args);

  /// The run step every executor shares: runs `method` on the complet
  /// hosted here, inside trace context `ctx`, and hands its outcome to the
  /// conclude step. A sync method (or ping/methods) comes back finished; an
  /// async method and __fargo.move come back pending, and conclude from the
  /// pending future's settle.
  MethodResult Run(ComletId target, const std::string& method,
                   const std::vector<Value>& args,
                   const wire::TraceContext& ctx);
  /// The outcome a settled pending future carries.
  static MethodResult Settled(sim::Future<Value>& f);
  /// Starts a hosted complet's async move from __fargo.move's arguments;
  /// argument errors and a vanished target come back as a rejected future.
  sim::Future<Value> StartMove(ComletId target,
                               const std::vector<Value>& args);

  /// Origin side of a call whose target is hosted here: run, then conclude
  /// into the call's future (ConcludeLocal).
  void DispatchLocalCall(const std::shared_ptr<AsyncCall>& call);
  void ConcludeLocal(const std::shared_ptr<AsyncCall>& call,
                     MethodResult&& out);
  void AwaitRoute(const std::shared_ptr<AsyncCall>& call, SimTime deadline);
  void ResumeAfterRoute(const std::shared_ptr<AsyncCall>& call,
                        SimTime deadline);
  void BeginRemote(const std::shared_ptr<AsyncCall>& call);
  void SendAttempt(const std::shared_ptr<AsyncCall>& call);
  void OnAttemptTimeout(const std::shared_ptr<AsyncCall>& call);
  void ArmBackoffResend(const std::shared_ptr<AsyncCall>& call);

  /// Completion: closes the root span, records metrics, settles the future.
  void FinalizeOk(const std::shared_ptr<AsyncCall>& call, InvokeResult res);
  void FinalizeError(const std::shared_ptr<AsyncCall>& call,
                     std::exception_ptr error, monitor::SpanOutcome outcome);

  /// Executor-side handling of a decoded request. `msg` is the carrier the
  /// request arrived in (payload only needed if the request parks); the
  /// same-Core loopback fast path calls this directly with an empty-payload
  /// carrier, skipping wire encode/decode entirely.
  void ProcessRequest(wire::InvokeRequest rq, net::Message msg);

  /// Routes `rq` at this Core: execute, park, or forward. Under the sharded
  /// directory, a non-hosting Core only chains along its own tracker hint
  /// when that hint is strictly fresher than the stamp the request was
  /// routed by; otherwise (`allow_lookup`) it asks the home shard once,
  /// merges the answer into its tracker, and re-routes — bounding steady-
  /// state delivery at two hops however long the underlying chain is.
  void RouteRequest(wire::InvokeRequest rq, net::Message msg,
                    bool allow_lookup);
  /// One chain hop: re-parents the trace, stamps the request with the
  /// routing knowledge's epoch, and forwards to `entry.next`.
  void ForwardRequest(wire::InvokeRequest rq, const net::Message& msg,
                      TrackerEntry& entry);

  /// Executor side of a routed request: opens the exec span, runs, and
  /// concludes (Conclude) — inline, or from the pending future's settle
  /// when the Core has not restarted meanwhile.
  void ExecuteAndReply(const wire::InvokeRequest& rq,
                       std::uint64_t correlation,
                       const net::SessionKey& skey);
  /// Executor conclude step: closes the exec span, then either completes a
  /// one-way slot (exec record, SlotAck) or replies to the origin; shortens
  /// the chain unless a two-way call failed.
  void Conclude(const wire::InvokeRequest& rq, std::uint64_t correlation,
                const net::SessionKey& skey,
                const monitor::Tracer::Opened& exec, MethodResult&& out);
  void SendShorteningUpdates(const wire::InvokeRequest& rq,
                             const wire::TraceContext& ctx);

  Core& core_;
  int max_hops_ = 64;
  bool shortening_ = true;
  std::unordered_map<std::uint64_t, std::shared_ptr<AsyncCall>> waiters_;
  std::unordered_map<ComletId, std::vector<std::shared_ptr<RouteWait>>>
      route_waiters_;
};

}  // namespace fargo::core
