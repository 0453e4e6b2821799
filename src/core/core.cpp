#include "src/core/core.h"

#include <algorithm>
#include <fstream>
#include <set>

#include "src/common/log.h"
#include "src/core/directory.h"
#include "src/core/heartbeat.h"
#include "src/core/invocation.h"
#include "src/core/movement.h"
#include "src/core/relocator.h"
#include "src/core/persistence.h"
#include "src/core/runtime.h"
#include "src/core/wal.h"
#include "src/core/wire.h"
#include "src/monitor/events.h"
#include "src/monitor/profiler.h"
#include "src/serial/frame.h"
#include "src/serial/graph.h"
#include "src/serial/value_codec.h"

namespace fargo::core {

namespace {
// kControl payload subkinds (heartbeats + WAL move-in pruning + session
// slot releases). Values 1 and 2 carried the retired home-registry
// protocol (now the kDirectory* message family) and stay reserved.
constexpr std::uint8_t kCtrlPing = 3;
constexpr std::uint8_t kCtrlPong = 4;
constexpr std::uint8_t kCtrlMoveAck = 5;
constexpr std::uint8_t kCtrlSlotAck = 6;
}  // namespace

Core::Core(Runtime& runtime, CoreId id, std::string name)
    : runtime_(runtime), id_(id), name_(std::move(name)), tracer_(id) {
  directory_ = std::make_unique<Directory>(*this);
  invocation_ = std::make_unique<InvocationUnit>(*this);
  movement_ = std::make_unique<MovementUnit>(*this);
  profiler_ = std::make_unique<monitor::Profiler>(*this);
  events_ = std::make_unique<monitor::EventBus>(*this);
  start_time_ = scheduler().Now();
  // Resolve hot-path instruments once; recording is then lock-free.
  monitor::Registry& reg = runtime_.metrics();
  inst_.invocations = &reg.counter("invoke.count");
  inst_.invoke_errors = &reg.counter("invoke.errors");
  inst_.execs = &reg.counter("invoke.exec");
  inst_.retries = &reg.counter("rpc.retries");
  inst_.session_replays = &reg.counter("session.replays");
  inst_.session_suppressed = &reg.counter("session.suppressed");
  inst_.session_stale = &reg.counter("session.stale");
  inst_.formation_flushes = &reg.counter("formation.flushes");
  inst_.formation_frames = &reg.counter("formation.frames");
  inst_.formation_batched = &reg.counter("formation.batched_items");
  inst_.late_replies = &reg.counter("rpc.late_replies");
  inst_.moves = &reg.counter("move.count");
  inst_.hb_pings = &reg.counter("hb.pings");
  inst_.bytes_copied = &reg.counter("net.bytes_copied");
  inst_.dir_publishes = &reg.counter("dir.publishes");
  inst_.dir_lookups = &reg.counter("dir.lookups");
  inst_.dir_hint_hit = &reg.counter("dir.hint.hit");
  inst_.dir_hint_miss = &reg.counter("dir.hint.miss");
  inst_.dir_hint_stale = &reg.counter("dir.hint.stale");
  inst_.invoke_latency =
      &reg.histogram("invoke.latency_ns", monitor::Registry::LatencyBounds());
  inst_.invoke_hops =
      &reg.histogram("invoke.hops", monitor::Registry::CountBounds());
  inst_.chain_len =
      &reg.histogram("tracker.chain_len", monitor::Registry::CountBounds());
  inst_.move_duration =
      &reg.histogram("move.duration_ns", monitor::Registry::LatencyBounds());
  inst_.move_bytes =
      &reg.histogram("move.bytes", monitor::Registry::SizeBounds());
  tracer_.SetEnabled(runtime_.tracing());
  // Route changes wake invocations parked on a missing/in-transit route
  // (the async pipeline's replacement for polling the table from a pump).
  trackers_.SetChangeHook([this](ComletId cid) {
    if (invocation_) invocation_->NotifyRouteChanged(cid);
  });
  // Durable Cores log every forwarding repoint; replay reapplies them so a
  // recovered Core still routes around complets that left before the crash.
  trackers_.SetForwardHook(
      [this](ComletId cid, CoreId next, const std::string& type) {
        if (wal_) {
          wal_->AppendTracker(cid, next, type);
          wal_->LazySync();
        }
      });
  // Outbound batching: every remote send funnels through the formation.
  // The hook keeps net/ monitor-agnostic (mirrors Network's DropHook).
  sessions_.SetEpoch(restart_epoch_ + 1);
  formation_ = std::make_unique<net::Formation>(id_, scheduler(), network());
  formation_->SetFlushHook([this](CoreId, net::Formation::Lane,
                                  std::size_t items, std::size_t) {
    inst_.formation_flushes->Inc();
    if (items > 1) {
      inst_.formation_frames->Inc();
      inst_.formation_batched->Inc(items);
      tracer_.RecordInstant(monitor::SpanKind::kControl, "batch_flush",
                            wire::TraceContext{}, scheduler().Now());
    }
  });
  network().Register(id_, [this](net::Message m) { HandleMessage(std::move(m)); });
}

Core::~Core() {
  if (alive_) network().Unregister(id_);
}

net::Network& Core::network() { return runtime_.network(); }
sim::Scheduler& Core::scheduler() { return runtime_.scheduler(); }
monitor::Registry& Core::metrics() { return runtime_.metrics(); }

std::size_t Core::DumpTrace(const std::string& path) const {
  std::ofstream os(path);
  if (!os) throw FargoError("cannot open trace file " + path);
  return monitor::WriteChromeTrace(os, {tracer_.buffer().Snapshot()},
                                   {{id_, name_}});
}

// ==== instantiation ==========================================================

ComletRefBase Core::Install(std::shared_ptr<Anchor> anchor,
                            std::uint64_t hint_epoch) {
  sim::Scheduler::AffinityScope aff(id_.value);
  if (!alive_) throw FargoError("core " + name_ + " is shut down");
  const bool fresh = !anchor->id_.valid();
  if (fresh) anchor->id_ = MintComletId();
  // A freshly minted identity has never been published: stamp it at epoch
  // 1 so the first move's proposal (2) supersedes it at the shard.
  if (fresh && hint_epoch == 0) hint_epoch = 1;
  anchor->core_ = this;
  const ComletId id = anchor->id_;
  std::string type(anchor->TypeName());
  repository_.Add(id, anchor);
  trackers_.SetLocal(id, *anchor, type, hint_epoch);
  if (wal_) {
    wal_->AppendInstall(*anchor);
    wal_->LazySync();
  }
  events_->Fire(monitor::Event{monitor::EventKind::kComletArrived, id_, id,
                               {}, 0.0});
  // Directory plane: report this arrival to the complet's home shard
  // (asynchronously; ordering races are resolved by epoch stamps on the
  // shard side). hint_epoch 0 — a reinstall that lost its stamp — goes out
  // as a host assertion the shard re-stamps.
  directory_->Publish(id, id_, hint_epoch);
  DrainParked(id);
  ComletRefBase ref;
  ref.Bind(*this, ComletHandle{id, id_, type}, nullptr);
  return ref;
}

ComletRefBase Core::NewRemote(CoreId dest, std::string_view anchor_type) {
  sim::Scheduler::AffinityScope aff(id_.value);
  if (dest == id_) {
    auto obj = serial::TypeRegistry::Instance().Create(anchor_type);
    auto anchor = std::dynamic_pointer_cast<Anchor>(obj);
    if (!anchor)
      throw FargoError(std::string(anchor_type) + " is not an anchor type");
    return Install(std::move(anchor));
  }
  serial::Writer w;
  w.WriteString(anchor_type);
  std::vector<std::uint8_t> reply =
      SendAndAwait(dest, net::MessageKind::kNewRequest, w.Take());
  serial::Reader r(reply);
  wire::CheckOk(r);
  return RefFromHandle(wire::ReadHandle(r));
}

// ==== movement ===============================================================

void Core::Move(const ComletRefBase& ref, CoreId dest) {
  Move(ref, dest, {}, {});
}

void Core::Move(const ComletRefBase& ref, CoreId dest, std::string continuation,
                std::vector<Value> args) {
  if (!ref.bound()) throw FargoError("move through an unbound reference");
  MoveId(ref.target(), dest, std::move(continuation), std::move(args));
}

void Core::MoveId(ComletId target, CoreId dest, std::string continuation,
                  std::vector<Value> args) {
  sim::Await(MoveIdAsync(target, dest, std::move(continuation),
                         std::move(args)));
}

sim::Future<sim::Unit> Core::MoveAsync(const ComletRefBase& ref, CoreId dest,
                                       std::string continuation,
                                       std::vector<Value> args) {
  if (!ref.bound())
    return sim::MakeErrorFuture<sim::Unit>(
        scheduler(), FargoError("move through an unbound reference"));
  return MoveIdAsync(ref.target(), dest, std::move(continuation),
                     std::move(args));
}

sim::Future<sim::Unit> Core::MoveIdAsync(ComletId target, CoreId dest,
                                         std::string continuation,
                                         std::vector<Value> args) {
  sim::Scheduler::AffinityScope aff(id_.value);
  if (repository_.Contains(target)) {
    return movement_->MoveLocalAsync<sim::Unit>(
        target, dest, std::move(continuation), std::move(args));
  }
  // Not hosted here: route a move command through the tracker chain to
  // wherever the complet lives, via the system move method.
  TrackerEntry* entry = trackers_.Find(target);
  ComletHandle handle{target, entry != nullptr ? entry->next : CoreId{},
                      entry != nullptr ? entry->anchor_type : std::string()};
  if (!handle.last_known.valid())
    return sim::MakeErrorFuture<sim::Unit>(
        scheduler(),
        FargoError("move: no route to complet " + ToString(target)));
  Value::List cont_args(args.begin(), args.end());
  return invocation_
      ->InvokeAsync(handle, kMoveMethod,
                    {Value(static_cast<std::int64_t>(dest.value)),
                     Value(std::move(continuation)),
                     Value(std::move(cont_args))})
      .Then([](InvokeResult&) {});
}

// ==== reflection & tracking ===================================================

MetaRef& Core::GetMetaRef(const ComletRefBase& ref) {
  if (!ref.meta()) throw FargoError("meta reference of an unbound reference");
  return *ref.meta();
}

CoreId Core::ResolveLocation(const ComletRefBase& ref) {
  sim::Scheduler::AffinityScope aff(id_.value);
  if (!ref.bound()) throw FargoError("resolve of an unbound reference");
  return invocation_->Invoke(ref.handle(), kPingMethod, {}).location;
}

ComletRefBase Core::RefFromHandle(const ComletHandle& handle, ComletId owner) {
  // Parameter-passing rule (§3.1): an anchor passed by reference arrives
  // degraded to the default link type. A reference materialized while a
  // complet's method executes belongs to that complet (ref-level profiling
  // and the live-reference registry attribute it there).
  if (!owner.valid()) owner = CurrentComlet();
  ComletRefBase ref;
  ref.Bind(*this, handle, std::make_shared<MetaRef>(handle.id), owner);
  return ref;
}

// ==== naming =================================================================

void Core::BindName(std::string name, const ComletRefBase& ref) {
  sim::Scheduler::AffinityScope aff(id_.value);
  if (!ref.bound()) throw FargoError("binding a name to an unbound reference");
  if (wal_) {
    wal_->AppendBind(name, ref.handle());
    wal_->LazySync();
  }
  naming_.Bind(std::move(name), ref.handle());
}

std::optional<ComletHandle> Core::LookupAt(CoreId where,
                                           const std::string& name) {
  sim::Scheduler::AffinityScope aff(id_.value);
  if (where == id_) return naming_.Lookup(name);
  serial::Writer w;
  w.WriteString(name);
  std::vector<std::uint8_t> reply =
      SendAndAwait(where, net::MessageKind::kNameRequest, w.Take());
  serial::Reader r(reply);
  wire::CheckOk(r);
  if (!r.ReadBool()) return std::nullopt;
  return wire::ReadHandle(r);
}

// ==== parameter passing helpers ==============================================

ObjectBlob Core::CaptureObject(const serial::Serializable& root) {
  serial::Writer body;
  auto hook = [this](serial::GraphWriter& gw, const void* p) {
    const auto* ref = static_cast<const ComletRefBase*>(p);
    serial::Writer& raw = gw.raw();
    // Copy the reference, not the complet; degrade to link by omitting the
    // relocator (§3.1).
    ComletHandle handle = ref->handle();
    if (const TrackerEntry* e = trackers_.Find(handle.id)) {
      handle.last_known = e->is_local() ? id_ : e->next;
    }
    wire::WriteHandle(raw, handle);
  };
  serial::GraphWriter gw(body, hook);
  gw.WriteObject(&root);
  return ObjectBlob{std::string(root.TypeName()), body.Take()};
}

std::shared_ptr<serial::Serializable> Core::MaterializeObject(
    const ObjectBlob& blob) {
  serial::Reader body(blob.bytes);
  const ComletId owner = CurrentComlet();
  auto hook = [this, owner](serial::GraphReader& gr, void* p) {
    auto* ref = static_cast<ComletRefBase*>(p);
    serial::Reader& raw = gr.raw();
    ComletHandle handle = wire::ReadHandle(raw);
    ref->Bind(*this, handle, std::make_shared<MetaRef>(handle.id), owner);
  };
  serial::GraphReader gr(body, hook);
  return gr.ReadObject();
}

// ==== dispatch ===============================================================

MethodResult Core::DispatchLocal(ComletId target, std::string_view method,
                                 const std::vector<Value>& args) {
  sim::Scheduler::AffinityScope aff(id_.value);
  MethodResult result;
  std::shared_ptr<Anchor> anchor = repository_.Get(target);
  if (!anchor) {
    result.error = std::make_exception_ptr(FargoError(
        "complet " + ToString(target) + " is not hosted at " + name_));
    return result;
  }
  if (method == kPingMethod) return result;
  if (method == kMethodsMethod) {
    Value::List names;
    for (std::string& n : anchor->methods().Names())
      names.push_back(Value(std::move(n)));
    result.value = Value(std::move(names));
    return result;
  }
  exec_stack_.push_back(target);
  try {
    result = anchor->Dispatch(method, args);
  } catch (...) {
    result.error = std::current_exception();
  }
  exec_stack_.pop_back();
  if (!result.pending.valid()) {
    // Post-dispatch state image: the method may have mutated the closure,
    // also when it then threw — durability must reflect what really ran.
    LogComletState(target);
    return result;
  }
  // An async method: its continuations capture the anchor, so keep it alive
  // until the future settles, and image its state then. This continuation
  // is registered before the executor's own, so the State record precedes
  // the Exec record and its barrier.
  result.pending.OnSettle(
      // fargolint: allow(capture-this) Runtime clears pending events before destroying Cores
      [this, target, anchor = std::move(anchor),
       epoch = restart_epoch_](const sim::Future<Value>&) {
        if (alive_ && restart_epoch_ == epoch) LogComletState(target);
      });
  return result;
}

void Core::LogComletState(ComletId target) {
  if (!wal_ || wal_->replaying()) return;
  // The method may have moved the complet away (or shut it down): only a
  // still-hosted anchor has state worth imaging here.
  std::shared_ptr<Anchor> anchor = repository_.Get(target);
  if (!anchor) return;
  wal_->AppendState(*anchor);
  wal_->LazySync();
}

// ==== messaging ==============================================================

ComletId Core::MintComletId() {
  const ComletId id{id_, ++next_comlet_seq_};
  if (wal_) wal_->NoteSequences(next_comlet_seq_, next_correlation_);
  return id;
}

std::uint64_t Core::NextCorrelation() {
  const std::uint64_t corr = ++next_correlation_;
  if (wal_) wal_->NoteSequences(next_comlet_seq_, next_correlation_);
  return corr;
}

sim::Future<std::vector<std::uint8_t>> Core::SendAsync(
    CoreId to, net::MessageKind kind, std::vector<std::uint8_t> payload) {
  sim::Scheduler::AffinityScope aff(id_.value);
  auto rpc = std::make_shared<PendingRpc>(scheduler());
  rpc->to = to;
  rpc->kind = kind;
  rpc->payload = std::move(payload);
  rpc->corr = NextCorrelation();
  // Lease a session slot for the request's lifetime: every attempt reuses
  // the key, and the executor's replay window deduplicates by it.
  rpc->skey = sessions_.Acquire(id_, to);
  rpc->max_attempts = std::max(1, retry_policy_.max_attempts);
  pending_replies_[rpc->corr] = rpc;
  if (wal_ && !wal_->SequencesDurable()) {
    // Identity gate (docs/PROTOCOL.md §Durability): the correlation just
    // minted (and any identities the payload carries) must sit below a
    // durable kWalMeta promise before a peer may observe them — otherwise
    // a crash can re-issue them and alias the peer's dedup cache. Hold the
    // first attempt until the covering barrier settles.
    const std::uint64_t epoch = restart_epoch_;
    wal_->WhenSequencesDurable().OnSettle(
        // fargolint: allow(capture-this) Runtime clears pending events before destroying Cores
        [this, rpc, epoch](sim::Future<sim::Unit>) {
          if (!alive_ || restart_epoch_ != epoch) {
            rpc->promise.RejectWith(UnreachableError(
                "core restarted before its identity barrier"));
            return;
          }
          if (!rpc->promise.settled()) SendRpcAttempt(rpc);
        });
    return rpc->promise.future();
  }
  SendRpcAttempt(rpc);
  return rpc->promise.future();
}

// Every attempt reuses the correlation and session key, so the receiver's
// replay window recognizes retries of this request and a late reply to any
// attempt resolves the future. A timeout is retry-safe by the transport
// contract: either the request never executed, or its reply will be
// replayed from the receiver's slot cache when the retry lands.
void Core::SendRpcAttempt(const std::shared_ptr<PendingRpc>& rpc) {
  // The RPC machinery runs as scheduled continuations; it must never pump.
  sim::Scheduler::NoPumpScope no_pump(scheduler());
  ++rpc->attempt;
  if (rpc->attempt > 1) {
    ++rpc_retries_;
    inst_.retries->Inc();
    tracer_.RecordInstant(monitor::SpanKind::kRetry, net::ToString(rpc->kind),
                          tracer_.Current(), scheduler().Now(),
                          static_cast<std::uint32_t>(rpc->attempt - 1));
  }
  net::Message msg;
  msg.from = id_;
  msg.to = rpc->to;
  msg.kind = rpc->kind;
  msg.correlation = rpc->corr;
  msg.session = rpc->skey;
  // Retention copy: every attempt but the last keeps the payload for a
  // possible resend; the final attempt surrenders it to the wire.
  if (rpc->attempt == rpc->max_attempts) {
    msg.payload = std::move(rpc->payload);
  } else {
    inst_.bytes_copied->Inc(rpc->payload.size());
    msg.payload = rpc->payload;
  }
  if (rpc->kind == net::MessageKind::kRecoveryQuery) {
    // Recovery traffic must not sit behind a formation deadline: the Core
    // is blocked mid-recovery until the in-doubt move resolves.
    network().Send(std::move(msg));
  } else if (rpc->kind == net::MessageKind::kDirectoryLookup) {
    // Directory traffic rides the priority lane: a lookup unblocking a
    // forwarded invocation must not share a frame with bulk traffic.
    formation_->Enqueue(std::move(msg), net::Formation::Lane::kPriority);
  } else {
    formation_->Enqueue(std::move(msg), net::Formation::Lane::kImmediate);
  }
  rpc->timer = scheduler().ScheduleAfter(
      // fargolint: allow(capture-this) Runtime clears pending events before destroying Cores
      rpc_timeout_, [this, rpc] { OnRpcTimeout(rpc); });
}

void Core::OnRpcTimeout(const std::shared_ptr<PendingRpc>& rpc) {
  if (rpc->promise.settled()) return;
  if (rpc->attempt >= rpc->max_attempts) {
    pending_replies_.erase(rpc->corr);
    sessions_.Release(rpc->skey);
    rpc->promise.RejectWith(
        UnreachableError(std::string(net::ToString(rpc->kind)) + " to " +
                         ToString(rpc->to) + " timed out"));
    return;
  }
  // Back off while still listening: the original reply may yet arrive and
  // settle the future, in which case the resend below is a no-op.
  rpc->timer = scheduler().ScheduleAfter(
      // fargolint: allow(capture-this) Runtime clears pending events before destroying Cores
      retry_policy_.BackoffAfter(rpc->attempt, rpc->corr), [this, rpc] {
        if (!rpc->promise.settled()) SendRpcAttempt(rpc);
      });
}

std::vector<std::uint8_t> Core::SendAndAwait(
    CoreId to, net::MessageKind kind, std::vector<std::uint8_t> payload) {
  return sim::Await(SendAsync(to, kind, std::move(payload)));
}

void Core::Reply(CoreId to, net::MessageKind kind, std::uint64_t correlation,
                 std::vector<std::uint8_t> payload, net::SessionKey skey) {
  sim::Scheduler::AffinityScope aff(id_.value);
  // If this answers a request admitted through its session key, remember
  // the reply in the slot so duplicates can be re-answered without
  // re-executing. The cached copy is the at-most-once tax; it is charged
  // to the copy metric.
  const bool fresh = replay_.Complete(skey, kind, payload);
  if (fresh) inst_.bytes_copied->Inc(payload.size());
  net::Message msg;
  msg.from = id_;
  msg.to = to;
  msg.kind = kind;
  msg.correlation = correlation;
  msg.session = skey;
  msg.payload = std::move(payload);
  if (wal_ && !wal_->replaying()) {
    // Durable executor: a peer must never observe an effect whose records
    // could still be lost. Log fresh replies, then release *every* reply —
    // fresh, replayed or sessionless — only after a write barrier covers
    // everything appended so far. A replayed answer must not race ahead of
    // the first copy still parked behind its own barrier, and a sessionless
    // answer (directory lookups, recovery queries) must not advertise state
    // whose records are still volatile.
    if (fresh) wal_->AppendExec(skey, kind, msg.payload);
    const std::uint64_t epoch = restart_epoch_;
    wal_->WhenDurable().OnSettle(
        // fargolint: allow(capture-this) Runtime clears pending events before destroying Cores
        [this, epoch, msg = std::move(msg)](sim::Future<sim::Unit>) mutable {
          if (!alive_ || restart_epoch_ != epoch) return;
          SendReplyOut(std::move(msg));
        });
    return;
  }
  SendReplyOut(std::move(msg));
}

void Core::SendReplyOut(net::Message msg) {
  if (msg.kind == net::MessageKind::kRecoveryReply) {
    // The querier is blocked mid-recovery; never delay its answer behind a
    // formation deadline.
    network().Send(std::move(msg));
    return;
  }
  if (msg.kind == net::MessageKind::kDirectoryReply) {
    // Directory answers ride the priority lane, like the lookups they
    // settle (an invocation may be parked on this hint).
    formation_->Enqueue(std::move(msg), net::Formation::Lane::kPriority);
    return;
  }
  formation_->Enqueue(std::move(msg), net::Formation::Lane::kImmediate);
}

bool Core::AdmitOnce(const net::Message& msg) {
  net::ReplayDirectory::AdmitResult res = replay_.Admit(msg.session);
  switch (res.outcome) {
    case net::Admission::kFresh:
      return true;
    case net::Admission::kInProgress:
      inst_.session_suppressed->Inc();
      LogDebug() << "core " << name_ << " suppressed duplicate request from "
                 << ToString(msg.from) << " corr " << msg.correlation;
      return false;
    case net::Admission::kReplay:
      inst_.session_replays->Inc();
      LogDebug() << "core " << name_ << " replayed cached reply to "
                 << ToString(msg.from) << " corr " << msg.correlation;
      // The cached reply must survive further replays: copy, and charge it.
      // The duplicate carries the live correlation (retries reuse it), so
      // the resent reply matches the origin's waiter. The session key rides
      // on the resent reply so the wire attributes it to its slot (Complete
      // no-ops on the already-done entry, so nothing is re-cached).
      inst_.bytes_copied->Inc(res.reply->size());
      Reply(msg.from, res.reply_kind, msg.correlation, *res.reply,
            msg.session);
      return false;
    case net::Admission::kStale:
      inst_.session_stale->Inc();
      LogDebug() << "core " << name_ << " dropped stale request from "
                 << ToString(msg.from) << " corr " << msg.correlation;
      return false;
  }
  return true;
}

void Core::Park(ComletId id, net::Message msg, CoreId error_reply_to) {
  sim::Scheduler::AffinityScope aff(id_.value);
  const std::uint64_t correlation = msg.correlation;
  parked_[id].push_back(std::move(msg));
  // Expiry: if the complet hasn't arrived by then, fail the request as a
  // transport error (never executed) instead of holding it forever — a
  // late arrival must not execute a request whose origin already gave up.
  // Half the RPC timeout is shorter than any origin's patience, so a parked
  // request never executes after its origin re-routed (docs/PROTOCOL.md
  // "Failure semantics").
  scheduler().ScheduleAfter(
      // fargolint: allow(capture-this) Runtime clears pending events before destroying Cores
      rpc_timeout_ / 2, [this, id, correlation, error_reply_to] {
        auto it = parked_.find(id);
        if (it == parked_.end()) return;
        auto& queue = it->second;
        for (auto msg_it = queue.begin(); msg_it != queue.end(); ++msg_it) {
          if (msg_it->correlation != correlation) continue;
          wire::TraceContext trace;
          if (msg_it->kind == net::MessageKind::kInvokeRequest) {
            try {
              trace = wire::DecodeInvokeRequest(msg_it->payload).trace;
            } catch (...) {
              // Chaos-corrupted payload: expire it untraced.
            }
          }
          queue.erase(msg_it);
          if (queue.empty()) parked_.erase(it);
          if (error_reply_to.valid()) {
            if (trace.valid()) {
              monitor::Tracer::Opened span = tracer_.OpenSpan(
                  monitor::SpanKind::kControl, "park_expired", trace,
                  scheduler().Now());
              tracer_.CloseSpan(span.token, scheduler().Now(),
                                monitor::SpanOutcome::kTransportError);
              trace = span.ctx;
            }
            Reply(error_reply_to, net::MessageKind::kInvokeReply, correlation,
                  wire::EncodeInvokeReply(wire::InvokeReply::Error(
                      /*transport=*/true,  // never executed
                      "no route to complet " + ToString(id) + " at " + name_ +
                          " (parked request expired)",
                      trace)));
          }
          return;
        }
      });
}

std::vector<const ComletRefBase*> Core::RefsOwnedBy(ComletId owner) const {
  std::vector<const ComletRefBase*> out;
  for (const ComletRefBase* ref : live_refs_)
    if (ref->owner() == owner) out.push_back(ref);
  return out;
}

std::vector<const ComletRefBase*> Core::RefsTo(ComletId target) const {
  std::vector<const ComletRefBase*> out;
  for (const ComletRefBase* ref : live_refs_)
    if (ref->target() == target) out.push_back(ref);
  return out;
}

void Core::DrainParked(ComletId id) {
  auto it = parked_.find(id);
  if (it == parked_.end()) return;
  std::vector<net::Message> msgs = std::move(it->second);
  parked_.erase(it);
  // Re-handle after the current handler completes (post-arrival ordering).
  for (net::Message& m : msgs) {
    // fargolint: allow(capture-this) Runtime clears pending events before destroying Cores
    scheduler().ScheduleAfter(0, [this, m = std::move(m)]() mutable {
      HandleMessage(std::move(m));
    });
  }
}

void Core::HandleMessage(net::Message msg) {
  sim::Scheduler::AffinityScope aff(id_.value);
  if (!alive_) return;
  // A malformed or unexpected message must not unwind into the scheduler:
  // log and drop (the sender's await times out).
  try {
    DispatchMessage(std::move(msg));
  } catch (const std::exception& e) {
    LogWarn() << "core " << name_ << " dropped a bad message: " << e.what();
  }
}

void Core::DispatchMessage(net::Message msg) {
  switch (msg.kind) {
    case net::MessageKind::kInvokeRequest:
      invocation_->HandleRequest(std::move(msg));
      return;
    case net::MessageKind::kInvokeReply:
      invocation_->HandleReply(std::move(msg));
      return;
    case net::MessageKind::kTrackerUpdate:
      invocation_->HandleTrackerUpdate(std::move(msg));
      return;
    case net::MessageKind::kMoveRequest:
      // Non-idempotent: a duplicated or retried move must install exactly
      // once; duplicates are answered from the slot's cached reply.
      if (!AdmitOnce(msg)) return;
      movement_->HandleMoveRequest(std::move(msg));
      return;
    case net::MessageKind::kMoveReply:
    case net::MessageKind::kNameReply:
    case net::MessageKind::kNewReply:
    case net::MessageKind::kRecoveryReply:
    case net::MessageKind::kDirectoryReply:
    case net::MessageKind::kControlReply: {
      auto it = pending_replies_.find(msg.correlation);
      if (it == pending_replies_.end()) {
        // Reply to an RPC that already settled (timed out, or answered by
        // an earlier duplicate): count and drop.
        inst_.late_replies->Inc();
        LogDebug() << "core " << name_ << " dropped late "
                   << net::ToString(msg.kind) << " corr " << msg.correlation;
        return;
      }
      std::shared_ptr<PendingRpc> rpc = it->second;
      pending_replies_.erase(it);
      scheduler().Cancel(rpc->timer);
      // The request settled: its slot can carry the next RPC to this peer.
      sessions_.Release(rpc->skey);
      rpc->promise.Resolve(std::move(msg.payload));
      return;
    }
    case net::MessageKind::kNameRequest:
      HandleNameRequest(msg);
      return;
    case net::MessageKind::kNewRequest:
      // Non-idempotent: a duplicated remote-new must instantiate once.
      if (!AdmitOnce(msg)) return;
      HandleNewRequest(msg);
      return;
    case net::MessageKind::kEventRegister: {
      // Non-idempotent: a duplicate would register a second listener.
      if (!AdmitOnce(msg)) return;
      serial::Reader r(msg.payload);
      const std::uint64_t token = r.ReadVarint();
      const bool has_threshold = r.ReadBool();
      const CoreId subscriber = msg.from;
      // Per-subscription notify sequence: the subscriber drops duplicated
      // or reordered-stale notifications by seq.
      auto seq = std::make_shared<std::uint64_t>(0);
      monitor::Listener forward = [this, subscriber, token,
                                   seq](const monitor::Event& e) {
        serial::Writer w;
        w.WriteVarint(token);
        w.WriteVarint(++*seq);
        monitor::WriteEventWire(w, e);
        net::Message notify;
        notify.from = id_;
        notify.to = subscriber;
        notify.kind = net::MessageKind::kEventNotify;
        notify.payload = w.Take();
        // No latency contract: notifications ride the bulk lane, where an
        // event storm collapses into a few frames.
        formation_->Enqueue(std::move(notify), net::Formation::Lane::kBulk);
      };
      monitor::SubId sub;
      if (has_threshold) {
        monitor::ProbeKey probe = monitor::ReadProbeWire(r);
        double threshold = r.ReadDouble();
        auto trigger = static_cast<monitor::Trigger>(r.ReadU8());
        SimTime interval = static_cast<SimTime>(r.ReadVarint());
        sub = events_->ListenThreshold(probe, threshold, trigger, interval,
                                       std::move(forward));
      } else {
        auto kind = static_cast<monitor::EventKind>(r.ReadU8());
        sub = events_->Listen(kind, std::move(forward));
      }
      serial::Writer ok;
      wire::WriteOk(ok);
      ok.WriteVarint(sub);
      Reply(msg.from, net::MessageKind::kControlReply, msg.correlation,
            ok.Take(), msg.session);
      return;
    }
    case net::MessageKind::kEventUnregister: {
      serial::Reader r(msg.payload);
      events_->Unlisten(r.ReadVarint());
      return;
    }
    case net::MessageKind::kEventNotify: {
      serial::Reader r(msg.payload);
      const std::uint64_t token = r.ReadVarint();
      const std::uint64_t seq = r.ReadVarint();
      monitor::Event e = monitor::ReadEventWire(r);
      auto it = remote_subs_.find(token);
      if (it == remote_subs_.end()) return;
      // Duplicate (chaos) or stale reordered notification: drop by seq.
      if (seq != 0) {
        if (seq <= it->second.last_seq) return;
        it->second.last_seq = seq;
      }
      // Asynchronous notification, like local event dispatch.
      monitor::Listener& listener = it->second.listener;
      scheduler().ScheduleAfter(0, [listener, e] { listener(e); });
      return;
    }
    case net::MessageKind::kRecoveryQuery:
      // Idempotent read over the durable move-in set; answered even by
      // Cores without a WAL of their own (from the in-memory set).
      movement_->HandleRecoveryQuery(msg);
      return;
    case net::MessageKind::kControl: {
      HandleControl(std::move(msg));
      return;
    }
    case net::MessageKind::kDirectoryPublish:
      // One-way and idempotent (epoch merge): no admission needed.
      directory_->HandlePublish(msg);
      return;
    case net::MessageKind::kDirectoryLookup:
      // Idempotent read over the shard store: answered without admission.
      directory_->HandleLookup(msg);
      return;
    case net::MessageKind::kDirectoryMap:
      directory_->HandleMap(msg);
      return;
    case net::MessageKind::kBatch:
      HandleBatch(std::move(msg));
      return;
  }
}

void Core::HandleBatch(net::Message msg) {
  serial::FrameReader frame(msg.payload);
  while (frame.HasNext()) {
    serial::Reader item = frame.Next();
    net::Message m;
    try {
      m = net::ReadBatchItem(item);
    } catch (const std::exception& e) {
      // A corrupt item poisons the rest of the frame (lengths no longer
      // line up); drop what remains — senders retry per the RPC contract.
      LogWarn() << "core " << name_ << " dropped corrupt batch item: "
                << e.what();
      return;
    }
    if (m.kind == net::MessageKind::kBatch) {
      LogWarn() << "core " << name_ << " dropped nested batch frame";
      continue;
    }
    m.from = msg.from;
    m.to = id_;
    // Per-item isolation, like HandleMessage: one bad payload must not
    // take down its frame-mates.
    try {
      DispatchMessage(std::move(m));
    } catch (const std::exception& e) {
      LogWarn() << "core " << name_ << " dropped a bad batched message: "
                << e.what();
    }
  }
}

void Core::HandleControl(net::Message msg) {
  // Control messages are requests only (answers travel as kControlReply),
  // dispatched by subkind.
  serial::Reader r(msg.payload);
  switch (r.ReadU8()) {
    case kCtrlPing: {
      // The ping may carry a trace tail; the pong answers in the same trace.
      wire::TraceContext trace = wire::ReadTraceTail(r);
      monitor::Tracer::Opened span = tracer_.RecordInstant(
          monitor::SpanKind::kControl, "hb_pong", trace, scheduler().Now());
      serial::Writer w;
      w.WriteU8(kCtrlPong);
      wire::WriteTraceTail(w, span.ctx);
      net::Message pong;
      pong.from = id_;
      pong.to = msg.from;
      pong.kind = net::MessageKind::kControl;
      pong.payload = w.Take();
      // Priority lane: the pong must not queue behind a large frame, or
      // the peer's failure detector times out on a healthy link.
      formation_->Enqueue(std::move(pong), net::Formation::Lane::kPriority);
      return;
    }
    case kCtrlPong: {
      wire::TraceContext trace = wire::ReadTraceTail(r);
      if (trace.valid())
        tracer_.RecordInstant(monitor::SpanKind::kControl, "hb_pong_rx", trace,
                              scheduler().Now());
      if (detector_) detector_->OnPong(msg.from);
      return;
    }
    case kCtrlMoveAck: {
      // The source's commit record for this move txn is durable: it will
      // never go in-doubt on it again, so the move-in mark can go.
      movement_->DropMoveIn(msg.from, r.ReadVarint());
      return;
    }
    case kCtrlSlotAck: {
      // A oneway request's slot is free: the executor ran it (or saw it as
      // a duplicate). The echoed key names the lease exactly.
      net::SessionKey key;
      key.origin = wire::ReadCoreId(r);
      key.peer = wire::ReadCoreId(r);
      key.epoch = r.ReadVarint();
      key.slot = static_cast<std::uint32_t>(r.ReadVarint());
      key.seq = r.ReadVarint();
      sessions_.Release(key);
      return;
    }
    default:
      LogDebug() << "unknown control message at " << name_;
  }
}

void Core::SendMoveAck(CoreId dest, std::uint64_t txn) {
  sim::Scheduler::AffinityScope aff(id_.value);
  serial::Writer w;
  w.WriteU8(kCtrlMoveAck);
  w.WriteVarint(txn);
  net::Message msg;
  msg.from = id_;
  msg.to = dest;
  msg.kind = net::MessageKind::kControl;
  msg.payload = w.Take();
  // Best-effort pruning hint: bulk lane (a delayed ack only leaves the
  // move-in mark unpruned a little longer).
  formation_->Enqueue(std::move(msg), net::Formation::Lane::kBulk);
}

void Core::SendSlotAck(const net::SessionKey& key) {
  serial::Writer w;
  w.WriteU8(kCtrlSlotAck);
  wire::WriteCoreId(w, key.origin);
  wire::WriteCoreId(w, key.peer);
  w.WriteVarint(key.epoch);
  w.WriteVarint(key.slot);
  w.WriteVarint(key.seq);
  net::Message msg;
  msg.from = id_;
  msg.to = key.origin;
  msg.kind = net::MessageKind::kControl;
  msg.payload = w.Take();
  // Best-effort: a lost ack only delays the origin's fallback release.
  formation_->Enqueue(std::move(msg), net::Formation::Lane::kBulk);
}

void Core::AckSlotDurable(const net::SessionKey& key) {
  if (!key.valid()) return;
  if (wal_ && !wal_->replaying()) {
    // The origin retires its slot lease on this ack; if the exec record
    // behind it were still volatile, a crash here would re-admit the
    // duplicate as fresh and run the oneway twice.
    const std::uint64_t epoch = restart_epoch_;
    wal_->WhenDurable().OnSettle(
        // fargolint: allow(capture-this) Runtime clears pending events before destroying Cores
        [this, epoch, key](sim::Future<sim::Unit>) {
          if (!alive_ || restart_epoch_ != epoch) return;
          SendSlotAck(key);
        });
    return;
  }
  SendSlotAck(key);
}

void Core::SendHeartbeatPing(CoreId peer) {
  sim::Scheduler::AffinityScope aff(id_.value);
  inst_.hb_pings->Inc();
  serial::Writer w;
  w.WriteU8(kCtrlPing);
  // Each heartbeat round is its own trace root (invalid parent mints one).
  monitor::Tracer::Opened span =
      tracer_.RecordInstant(monitor::SpanKind::kControl, "hb_ping",
                            wire::TraceContext{}, scheduler().Now());
  wire::WriteTraceTail(w, span.ctx);
  net::Message msg;
  msg.from = id_;
  msg.to = peer;
  msg.kind = net::MessageKind::kControl;
  msg.payload = w.Take();
  // Priority lane: pings race the failure-detector deadline and must never
  // wait on (or share a frame with) bulk traffic.
  formation_->Enqueue(std::move(msg), net::Formation::Lane::kPriority);
}

FailureDetector& Core::EnableHeartbeat(SimTime interval, int k_missed) {
  sim::Scheduler::AffinityScope aff(id_.value);
  detector_ = std::make_unique<FailureDetector>(*this, interval, k_missed);
  return *detector_;
}

void Core::DisableHeartbeat() { detector_.reset(); }

std::vector<CoreId> Core::RemoteSubscriptionPeers() const {
  std::set<CoreId> peers;
  // fargolint: order-insensitive(peers accumulate into an ordered std::set)
  for (const auto& [token, sub] : remote_subs_)
    if (sub.where.valid() && sub.where != id_) peers.insert(sub.where);
  return {peers.begin(), peers.end()};
}

void Core::Crash() {
  sim::Scheduler::AffinityScope aff(id_.value);
  if (!alive_) return;
  LogInfo() << "core " << name_ << " CRASHED";
  detector_.reset();  // a dead Core pings nobody
  alive_ = false;
  ++restart_epoch_;  // invalidates every continuation armed before the crash
  formation_->Discard();  // unsent batches die with the process
  network().Unregister(id_);
  if (wal_) wal_->OnCrash();
  for (ComletId id : repository_.All()) {
    std::shared_ptr<Anchor> anchor = repository_.Remove(id);
    if (anchor) anchor->core_ = nullptr;
  }
}

void Core::Restart() {
  sim::Scheduler::AffinityScope aff(id_.value);
  if (alive_) return;
  LogInfo() << "core " << name_ << " RESTARTED";
  // Everything volatile is gone: complets, routes, names, caches, parked
  // work, pending RPCs, counters. A durable Core gets its state back from
  // the WAL below; a non-durable one restarts empty (like a fresh Core).
  for (ComletId id : repository_.All()) {
    std::shared_ptr<Anchor> anchor = repository_.Remove(id);
    if (anchor) anchor->core_ = nullptr;
  }
  trackers_.Clear();
  naming_.Clear();
  replay_.Clear();
  sessions_.Clear();
  // New incarnation, new session epoch: peers treat stragglers stamped
  // with the old epoch as settled (kStale) and reset their windows on the
  // first request of the new one.
  sessions_.SetEpoch(restart_epoch_ + 1);
  formation_->Discard();
  parked_.clear();
  pending_replies_.clear();
  directory_->Clear();
  exec_stack_.clear();
  invocation_counts_.clear();
  movement_->Reset();
  next_comlet_seq_ = 0;
  next_correlation_ = 0;
  alive_ = true;
  start_time_ = scheduler().Now();
  network().Register(id_,
                     [this](net::Message m) { HandleMessage(std::move(m)); });
  metrics().counter("recovery.count").Inc();
  if (wal_) wal_->Recover();
  events_->Fire(monitor::Event{monitor::EventKind::kCoreRecovered, id_, {},
                               {}, 0.0, id_});
}

Wal& Core::EnableWal(SimTime checkpoint_interval) {
  sim::Scheduler::AffinityScope aff(id_.value);
  if (!wal_) {
    wal_ = std::make_unique<Wal>(*this, runtime_.storage(), checkpoint_interval);
    // A Core made durable mid-life starts from a checkpoint of everything
    // it already holds — complets, name bindings, trackers, homes. Without
    // it, recovery could only see what was logged after this instant.
    wal_->Checkpoint();
  }
  return *wal_;
}

void Core::RestoreComlet(ComletId id, const std::vector<std::uint8_t>& image) {
  std::shared_ptr<Anchor> anchor = DecodeComletImage(*this, id, image);
  repository_.Remove(id);  // later records replace earlier replayed images
  anchor->core_ = this;
  repository_.Add(id, anchor);
  trackers_.SetLocal(id, *anchor, std::string(anchor->TypeName()));
}

void Core::HandleNameRequest(const net::Message& msg) {
  serial::Reader r(msg.payload);
  std::string name = r.ReadString();
  serial::Writer w;
  wire::WriteOk(w);
  std::optional<ComletHandle> handle = naming_.Lookup(name);
  w.WriteBool(handle.has_value());
  if (handle) wire::WriteHandle(w, *handle);
  Reply(msg.from, net::MessageKind::kNameReply, msg.correlation, w.Take());
}

void Core::HandleNewRequest(const net::Message& msg) {
  serial::Reader r(msg.payload);
  std::string type = r.ReadString();
  serial::Writer w;
  try {
    auto obj = serial::TypeRegistry::Instance().Create(type);
    auto anchor = std::dynamic_pointer_cast<Anchor>(obj);
    if (!anchor) throw FargoError(type + " is not an anchor type");
    ComletRefBase ref = Install(std::move(anchor));
    wire::WriteOk(w);
    wire::WriteHandle(w, ref.handle());
  } catch (const std::exception& e) {
    serial::Writer err;
    wire::WriteError(err, e.what());
    Reply(msg.from, net::MessageKind::kNewReply, msg.correlation, err.Take(),
          msg.session);
    return;
  }
  Reply(msg.from, net::MessageKind::kNewReply, msg.correlation, w.Take(),
        msg.session);
}

// ==== distributed events ======================================================

monitor::SubId Core::ListenAt(CoreId where, monitor::EventKind kind,
                              monitor::Listener listener) {
  sim::Scheduler::AffinityScope aff(id_.value);
  const monitor::SubId token = next_token_++;
  if (where == id_) {
    monitor::SubId sub = events_->Listen(kind, std::move(listener));
    remote_subs_[token] = RemoteSub{where, sub, nullptr};
    return token;
  }
  serial::Writer w;
  w.WriteVarint(token);
  w.WriteBool(false);
  w.WriteU8(static_cast<std::uint8_t>(kind));
  std::vector<std::uint8_t> reply =
      SendAndAwait(where, net::MessageKind::kEventRegister, w.Take());
  serial::Reader r(reply);
  wire::CheckOk(r);
  remote_subs_[token] = RemoteSub{where, r.ReadVarint(), std::move(listener)};
  return token;
}

monitor::SubId Core::ListenThresholdAt(CoreId where,
                                       const monitor::ProbeKey& probe,
                                       double threshold,
                                       monitor::Trigger trigger,
                                       SimTime interval,
                                       monitor::Listener listener) {
  sim::Scheduler::AffinityScope aff(id_.value);
  const monitor::SubId token = next_token_++;
  if (where == id_) {
    monitor::SubId sub = events_->ListenThreshold(probe, threshold, trigger,
                                                  interval, std::move(listener));
    remote_subs_[token] = RemoteSub{where, sub, nullptr};
    return token;
  }
  serial::Writer w;
  w.WriteVarint(token);
  w.WriteBool(true);
  monitor::WriteProbeWire(w, probe);
  w.WriteDouble(threshold);
  w.WriteU8(static_cast<std::uint8_t>(trigger));
  w.WriteVarint(static_cast<std::uint64_t>(interval));
  std::vector<std::uint8_t> reply =
      SendAndAwait(where, net::MessageKind::kEventRegister, w.Take());
  serial::Reader r(reply);
  wire::CheckOk(r);
  remote_subs_[token] = RemoteSub{where, r.ReadVarint(), std::move(listener)};
  return token;
}

void Core::UnlistenAt(monitor::SubId token) {
  sim::Scheduler::AffinityScope aff(id_.value);
  auto it = remote_subs_.find(token);
  if (it == remote_subs_.end()) return;
  RemoteSub sub = std::move(it->second);
  remote_subs_.erase(it);
  if (sub.where == id_) {
    events_->Unlisten(sub.remote_id);
    return;
  }
  serial::Writer w;
  w.WriteVarint(sub.remote_id);
  net::Message msg;
  msg.from = id_;
  msg.to = sub.where;
  msg.kind = net::MessageKind::kEventUnregister;
  msg.payload = w.Take();
  formation_->Enqueue(std::move(msg), net::Formation::Lane::kImmediate);
}

// ==== shutdown ================================================================

void Core::Shutdown(SimTime grace) {
  sim::Scheduler::AffinityScope aff(id_.value);
  if (!alive_) return;
  LogInfo() << "core " << name_ << " shutting down (grace "
            << ToMillis(grace) << " ms)";
  detector_.reset();
  events_->Fire(monitor::Event{monitor::EventKind::kCoreShutdown, id_, {},
                               {}, 0.0});
  // Let shutdown listeners evacuate complets while we still serve moves.
  scheduler().RunFor(grace);
  // Final forwarding flush: hand our tracker knowledge to every peer, so
  // chains that pass through this Core keep resolving after it is gone.
  // (Abrupt crashes still sever chains — the paper defers that to a future
  // location-independent naming scheme.)
  for (const TrackerEntry* t : trackers_.All()) {
    if (t->is_local() || !t->next.valid()) continue;
    for (Core* peer : runtime_.Cores()) {
      if (peer == this || !peer->alive()) continue;
      serial::Writer upd;
      wire::WriteComletId(upd, t->target);
      wire::WriteCoreId(upd, t->next);
      upd.WriteString(t->anchor_type);
      upd.WriteVarint(t->hint_epoch);
      net::Message u;
      u.from = id_;
      u.to = peer->id();
      u.kind = net::MessageKind::kTrackerUpdate;
      u.payload = upd.Take();
      formation_->Enqueue(std::move(u), net::Formation::Lane::kPriority);
    }
  }
  // Drain everything still queued — the delay-0 flush tasks armed above
  // would fire after this Core has already detached.
  formation_->FlushAll();
  alive_ = false;
  network().Unregister(id_);
  for (ComletId id : repository_.All()) {
    std::shared_ptr<Anchor> anchor = repository_.Remove(id);
    if (anchor) anchor->core_ = nullptr;
  }
}

// ==== application profiling counters =========================================

void Core::RecordInvocation(ComletId src, ComletId dst) {
  ++invocation_counts_[{src, dst}];
}

std::uint64_t Core::InvocationCount(ComletId src, ComletId dst) const {
  auto it = invocation_counts_.find({src, dst});
  return it == invocation_counts_.end() ? 0 : it->second;
}

}  // namespace fargo::core
