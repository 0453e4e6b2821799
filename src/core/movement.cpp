#include "src/core/movement.h"

#include "src/common/log.h"
#include "src/core/directory.h"
#include "src/core/invocation.h"
#include "src/core/meta_ref.h"
#include "src/core/relocator.h"
#include "src/core/runtime.h"
#include "src/core/wal.h"
#include "src/core/wire.h"
#include "src/serial/graph.h"
#include "src/serial/value_codec.h"

namespace fargo::core {

namespace {
// Ref descriptor tags inside a migration stream (bound references only; the
// stub writes its own bound/unbound flag before the hook runs).
constexpr std::uint8_t kRefNormal = 0;  // relocator + handle
constexpr std::uint8_t kRefStamp = 1;   // relocator + anchor type (rebind)
}  // namespace

void MovementUnit::MarshalSection(
    serial::Writer& out, const Section& section, CoreId dest,
    std::vector<Section>& worklist, std::unordered_set<ComletId>& in_stream,
    std::unordered_map<ComletId, ComletId>& dup_ids,
    std::vector<ComletId>& deferred_pulls) {
  // preDeparture fires at the sending Core before marshaling (§3.3);
  // duplicated complets do not depart.
  if (!section.is_duplicate) section.anchor->PreDeparture();

  serial::Writer body;
  auto hook = [&](serial::GraphWriter& gw, const void* p) {
    const auto* ref = static_cast<const ComletRefBase*>(p);
    serial::Writer& raw = gw.raw();
    const std::shared_ptr<Relocator>& relocator =
        ref->meta()->GetRelocator();
    if (!ref->bound()) {
      // Latent typed reference (stamp that found no equivalent at this
      // site): carry the type so the destination re-attempts the rebind.
      raw.WriteU8(kRefStamp);
      gw.WriteObject(relocator.get());
      raw.WriteString(ref->anchor_type());
      ++stats_.refs_stamped;
      return;
    }
    const ComletId target = ref->target();
    const bool target_local = core_.repository().Contains(target);
    RelocContext ctx{core_, target, dest, target_local};
    RelocEffect effect = relocator->EffectOnMove(ctx);

    // A reference to a complet already travelling in this stream keeps its
    // identity regardless of requested effect; it will be local at dest.
    auto write_normal = [&](ComletId id, CoreId hint,
                            const std::string& type) {
      raw.WriteU8(kRefNormal);
      gw.WriteObject(relocator.get());
      wire::WriteHandle(raw, ComletHandle{id, hint, type});
    };

    switch (effect) {
      case RelocEffect::kMoveAlong: {
        if (in_stream.contains(target)) {
          write_normal(target, dest, ref->anchor_type());
        } else if (target_local) {
          const TrackerEntry* te = core_.trackers().Find(target);
          worklist.push_back(Section{target, ref->anchor_type(), false,
                                     (te != nullptr ? te->hint_epoch : 0) + 1,
                                     core_.repository().Get(target)});
          in_stream.insert(target);
          write_normal(target, dest, ref->anchor_type());
        } else {
          // Remote pull target: keep tracking for now; after the primary
          // move commits, a move command is routed to the target's host.
          ++stats_.deferred_remote_pulls;
          deferred_pulls.push_back(target);
          const TrackerEntry* e = core_.trackers().Find(target);
          write_normal(target, e != nullptr ? e->next : ref->handle().last_known,
                       ref->anchor_type());
        }
        ++stats_.refs_linked;
        return;
      }
      case RelocEffect::kCopyAlong: {
        if (in_stream.contains(target)) {
          write_normal(target, dest, ref->anchor_type());
          ++stats_.refs_linked;
          return;
        }
        if (!target_local) {
          // The paper leaves remote duplication unspecified; degrade to
          // tracking and say so.
          LogWarn() << "duplicate reference to remote complet "
                    << ToString(target) << " degraded to link for this move";
          break;  // falls through to kTrack handling below
        }
        ComletId copy_id;
        if (auto it = dup_ids.find(target); it != dup_ids.end()) {
          copy_id = it->second;
        } else {
          copy_id = core_.MintComletId();
          dup_ids.emplace(target, copy_id);
          worklist.push_back(Section{copy_id, ref->anchor_type(), true, 1,
                                     core_.repository().Get(target)});
          in_stream.insert(copy_id);
          ++stats_.complets_duplicated;
        }
        write_normal(copy_id, dest, ref->anchor_type());
        ++stats_.refs_linked;
        return;
      }
      case RelocEffect::kRebind: {
        raw.WriteU8(kRefStamp);
        gw.WriteObject(relocator.get());
        raw.WriteString(ref->anchor_type());
        ++stats_.refs_stamped;
        return;
      }
      case RelocEffect::kTrack:
        break;
    }

    // link semantics (also the degraded cases above): hand out our best
    // routing knowledge; tracker chains absorb any staleness.
    CoreId hint;
    if (in_stream.contains(target)) {
      hint = dest;
    } else if (target_local) {
      hint = core_.id();  // target stays behind; we keep hosting it
    } else if (const TrackerEntry* e = core_.trackers().Find(target)) {
      hint = e->next;
    } else {
      hint = ref->handle().last_known;
    }
    write_normal(target, hint, ref->anchor_type());
    ++stats_.refs_linked;
  };

  serial::GraphWriter gw(body, hook);
  gw.WriteObject(section.anchor.get());

  wire::WriteComletId(out, section.id);
  out.WriteString(section.anchor_type);
  out.WriteBool(section.is_duplicate);
  out.WriteVarint(section.epoch);
  out.WriteBytes(body.buffer());
}

template <class R>
sim::Future<R> MovementUnit::MoveLocalAsync(ComletId primary, CoreId dest,
                                            std::string continuation,
                                            std::vector<Value> args) {
  sim::Scheduler::AffinityScope aff(core_.id().value);
  sim::Scheduler& sched = core_.scheduler();
  std::shared_ptr<Anchor> anchor = core_.repository().Get(primary);
  if (!anchor)
    return sim::MakeErrorFuture<R>(
        sched, FargoError("move: complet " + ToString(primary) +
                          " is not hosted at " + ToString(core_.id())));
  if (dest == core_.id()) {
    // Already there: only the continuation runs (logged like any other).
    if (!continuation.empty())
      LogFailure(core_.DispatchLocal(primary, continuation, args),
                 "continuation", continuation + " on " + ToString(primary));
    return sim::MakeReadyFuture(sched, R{});
  }

  stats_ = MoveStats{};
  monitor::Tracer& tracer = core_.tracer();
  const SimTime move_begin = core_.scheduler().Now();
  // The movement is a span of its own: a child when triggered from inside a
  // traced execution (e.g. a routed __fargo.move), a fresh trace otherwise.
  monitor::Tracer::Opened mv =
      tracer.OpenSpan(monitor::SpanKind::kMove, anchor->TypeName(),
                      tracer.Current(), move_begin);
  const TrackerEntry* primary_entry = core_.trackers().Find(primary);
  std::vector<Section> worklist{Section{
      primary, std::string(anchor->TypeName()), false,
      (primary_entry != nullptr ? primary_entry->hint_epoch : 0) + 1, anchor}};
  std::unordered_set<ComletId> in_stream{primary};
  std::unordered_map<ComletId, ComletId> dup_ids;
  std::vector<ComletId> deferred_pulls;

  // Marshal sections; the worklist grows as pull/duplicate references are
  // discovered during traversal. All sections share one stream — a single
  // inter-Core message per movement request (§3.3).
  serial::Writer sections;
  std::size_t count = 0;
  for (std::size_t i = 0; i < worklist.size(); ++i) {
    // Copy: worklist may reallocate while this section marshals.
    Section section = worklist[i];
    MarshalSection(sections, section, dest, worklist, in_stream, dup_ids,
                   deferred_pulls);
    ++count;
  }

  // Durable sources run the move as a logged two-phase transaction; txn 0
  // means "not durable" and the destination skips its move-in mark.
  Wal* wal = core_.wal();
  const std::uint64_t txn =
      (wal != nullptr && !wal->replaying()) ? wal->NextTxnId() : 0;

  serial::Writer payload;
  // One allocation for the whole stream: header + sections + continuation.
  payload.Reserve(sections.size() + 64);
  wire::WriteComletId(payload, primary);
  payload.WriteVarint(txn);
  payload.WriteVarint(count);
  payload.WriteRaw(sections.buffer().data(), sections.buffer().size());
  payload.WriteBool(!continuation.empty());
  if (!continuation.empty()) {
    payload.WriteString(continuation);
    serial::WriteValues(payload, args);
  }
  wire::WriteTraceTail(payload, mv.ctx);
  stats_.stream_bytes = payload.size();

  // Transition: departing complets leave the repository and forward via the
  // tracker; invocations racing the stream park at `dest` until it lands.
  struct Departing {
    ComletId id;
    std::string type;
    std::uint64_t epoch = 0;  ///< the section's hint-epoch proposal
    std::shared_ptr<Anchor> anchor;
  };
  // Snapshot everything the commit/rollback continuation needs: stats_ is a
  // per-unit scratch that a concurrent move may overwrite before the reply
  // lands.
  struct Pending {
    std::vector<Departing> departing;
    std::vector<ComletId> pulls;
    monitor::Tracer::Opened mv{};
    SimTime begin = 0;
    std::size_t bytes = 0;
    std::uint64_t txn = 0;
  };
  auto pending = std::make_shared<Pending>();
  for (const Section& s : worklist) {
    if (s.is_duplicate) continue;
    pending->departing.push_back(
        Departing{s.id, s.anchor_type, s.epoch, s.anchor});
    core_.repository().Remove(s.id);
    // Stamp the departure forward with the movement's proposal: until the
    // destination's publish lands at the home shard, this Core holds the
    // freshest knowledge there is.
    core_.trackers().SetForward(s.id, dest, s.anchor_type, s.epoch);
  }
  stats_.complets_moved = pending->departing.size();
  pending->pulls = std::move(deferred_pulls);
  pending->mv = mv;
  pending->begin = move_begin;
  pending->bytes = stats_.stream_bytes;
  pending->txn = txn;

  sim::Promise<R> done(sched);
  std::vector<std::uint8_t> stream = payload.Take();

  const std::uint64_t settle_epoch = core_.restart_epoch();
  // fargolint: allow(capture-this) the unit lives inside its Core, which outlives the cleared event queue
  auto settle = [this, pending, done, dest,
                 settle_epoch](sim::Future<std::vector<std::uint8_t>> f) mutable {
        if (!core_.alive() || core_.restart_epoch() != settle_epoch) {
          // The source restarted under this move: recovery owns the
          // outcome now (in-doubt resolution against the destination).
          // Touching the repository here would resurrect departed state.
          done.Reject(std::make_exception_ptr(
              UnreachableError("source core restarted during move")));
          return;
        }
        monitor::Tracer& tracer = core_.tracer();
        Wal* wal = core_.wal();
        try {
          serial::Reader r(f.value());  // rethrows a transport failure
          wire::CheckOk(r);
        } catch (...) {
          // Roll back: the complets never left. A durable source may only
          // resume serving them once the abort record is *durable*. A
          // timeout here does not mean the destination failed to install —
          // only that the reply was lost; the destination may hold a
          // move-in mark for this txn. If the rollback served ops and then
          // crashed with the abort record still volatile, recovery would
          // find the prepare open, ask the destination, hear "installed",
          // and falsely COMMIT — dropping every op applied since the
          // rollback. Reinstall strictly above the abort barrier.
          if (wal != nullptr && pending->txn != 0) {
            wal->AppendAbort(pending->txn);
            std::exception_ptr why = std::current_exception();
            wal->Sync().OnSettle(
                // fargolint: allow(capture-this) the unit lives inside its Core, which outlives the cleared event queue
                [this, pending, done, why,
                 settle_epoch](sim::Future<sim::Unit>) mutable {
                  if (!core_.alive() ||
                      core_.restart_epoch() != settle_epoch) {
                    // Crash mid-barrier: recovery owns the outcome (commit
                    // or abort, resolved against the destination).
                    done.Reject(std::make_exception_ptr(UnreachableError(
                        "source core restarted during move rollback")));
                    return;
                  }
                  for (const Departing& d : pending->departing) {
                    core_.repository().Add(d.id, d.anchor);
                    core_.trackers().SetLocal(d.id, *d.anchor, d.type,
                                              d.epoch > 0 ? d.epoch - 1 : 0);
                    // The destination may have installed-and-published some
                    // sections before failing; re-assert so the home shard
                    // converges back onto this Core.
                    core_.directory().Publish(d.id, core_.id(), 0);
                  }
                  core_.tracer().CloseSpan(
                      pending->mv.token, core_.scheduler().Now(),
                      monitor::SpanOutcome::kTransportError, 0,
                      pending->bytes);
                  done.Reject(why);
                });
            return;
          }
          // Non-durable source: no recovery will ever second-guess this
          // rollback, so the complets can come back immediately.
          for (const Departing& d : pending->departing) {
            core_.repository().Add(d.id, d.anchor);
            core_.trackers().SetLocal(d.id, *d.anchor, d.type,
                                      d.epoch > 0 ? d.epoch - 1 : 0);
            core_.directory().Publish(d.id, core_.id(), 0);
          }
          tracer.CloseSpan(pending->mv.token, core_.scheduler().Now(),
                           monitor::SpanOutcome::kTransportError, 0,
                           pending->bytes);
          done.Reject(std::current_exception());
          return;
        }
        if (wal != nullptr && pending->txn != 0) {
          wal->AppendCommit(pending->txn);
          const std::uint64_t txn = pending->txn;
          wal->Sync().OnSettle(
              // fargolint: allow(capture-this) the unit lives inside its Core, which outlives the cleared event queue
              [this, dest, txn, settle_epoch](sim::Future<sim::Unit>) {
                if (!core_.alive() || core_.restart_epoch() != settle_epoch)
                  return;
                // The commit is durable: this source can never go in-doubt
                // on the txn again, so the destination may prune its
                // move-in mark.
                core_.SendMoveAck(dest, txn);
              });
        }
        const SimTime move_end = core_.scheduler().Now();
        tracer.CloseSpan(pending->mv.token, move_end,
                         monitor::SpanOutcome::kOk, 0, pending->bytes);
        core_.inst_.moves->Inc();
        core_.inst_.move_duration->Observe(
            static_cast<double>(move_end - pending->begin));
        core_.inst_.move_bytes->Observe(static_cast<double>(pending->bytes));

        // Committed: release the stale copies (§3.3 postDeparture) and
        // announce.
        for (const Departing& d : pending->departing) {
          d.anchor->PostDeparture();
          d.anchor->core_ = nullptr;
          core_.events().Fire(monitor::Event{
              monitor::EventKind::kComletDeparted, core_.id(), d.id, {}, 0.0});
        }

        // Remote pull targets follow with their own move requests; the move
        // future settles once they all land (or fail — logged, not fatal).
        auto remaining = std::make_shared<std::size_t>(pending->pulls.size());
        if (*remaining == 0) {
          done.Resolve(R{});
          return;
        }
        for (ComletId id : pending->pulls) {
          core_.MoveIdAsync(id, dest).OnSettle(
              [done, remaining, id](sim::Future<sim::Unit> pf) mutable {
                if (!pf.ok())
                  LogWarn() << "deferred pull of " << ToString(id)
                            << " failed: " << sim::ErrorMessage(pf.error());
                if (--*remaining == 0) done.Resolve(R{});
              });
        }
      };

  if (wal != nullptr && txn != 0) {
    // PREPARE: stage the full stream in the log, then hold the request
    // until a barrier covers it. A crash before the barrier means the
    // request was never sent — replay rebuilds the pre-move state; a crash
    // after it leaves an in-doubt prepare that recovery resolves against
    // the destination. Either way, exactly one copy survives.
    std::vector<std::pair<ComletId, std::string>> departing_meta;
    departing_meta.reserve(pending->departing.size());
    for (const Departing& d : pending->departing)
      departing_meta.emplace_back(d.id, d.type);
    core_.inst_.bytes_copied->Inc(stream.size());  // the staged copy
    wal->AppendPrepare(txn, primary, dest, std::move(departing_meta), stream);
    const std::uint64_t epoch = core_.restart_epoch();
    wal->Sync().OnSettle(
        // fargolint: allow(capture-this) the unit lives inside its Core, which outlives the cleared event queue
        [this, epoch, dest, done, settle,
         stream = std::move(stream)](sim::Future<sim::Unit>) mutable {
          if (!core_.alive() || core_.restart_epoch() != epoch) {
            done.Reject(std::make_exception_ptr(
                UnreachableError("source core crashed during move prepare")));
            return;
          }
          core_.SendAsync(dest, net::MessageKind::kMoveRequest,
                          std::move(stream))
              .OnSettle(std::move(settle));
        });
  } else {
    core_.SendAsync(dest, net::MessageKind::kMoveRequest, std::move(stream))
        .OnSettle(std::move(settle));
  }
  return done.future();
}

template sim::Future<sim::Unit> MovementUnit::MoveLocalAsync<sim::Unit>(
    ComletId, CoreId, std::string, std::vector<Value>);
template sim::Future<Value> MovementUnit::MoveLocalAsync<Value>(
    ComletId, CoreId, std::string, std::vector<Value>);

MovementUnit::DecodedSection MovementUnit::DecodeSection(serial::Reader& r) {
  DecodedSection section;
  section.id = wire::ReadComletId(r);
  section.anchor_type = r.ReadString();
  section.is_duplicate = r.ReadBool();
  section.epoch = r.ReadVarint();
  // Zero-copy: unmarshal the section straight out of the caller's buffer
  // (alive for the whole handler) instead of copying it out.
  serial::Reader body_reader = r.ReadBytesView();

  const ComletId id = section.id;
  auto hook = [this, id](serial::GraphReader& gr, void* p) {
    auto* ref = static_cast<ComletRefBase*>(p);
    serial::Reader& raw = gr.raw();
    std::uint8_t tag = raw.ReadU8();
    switch (tag) {
      case kRefNormal: {
        auto relocator = gr.ReadObjectAs<Relocator>();
        ComletHandle handle = wire::ReadHandle(raw);
        ref->Bind(core_, handle,
                  std::make_shared<MetaRef>(handle.id, relocator), id);
        return;
      }
      case kRefStamp: {
        auto relocator = gr.ReadObjectAs<Relocator>();
        std::string anchor_type = raw.ReadString();
        // Re-bind to an equivalent-type complet at this Core (§3.3);
        // unbound if none is hosted here.
        std::shared_ptr<Anchor> local =
            core_.repository().FindByType(anchor_type);
        if (local) {
          ComletHandle handle{local->id(), core_.id(), anchor_type};
          ref->Bind(core_, handle,
                    std::make_shared<MetaRef>(handle.id, relocator), id);
        } else {
          // No equivalent here: stay latent (typed but unbound) so the
          // next movement re-attempts the rebind.
          ref->Bind(core_, ComletHandle{ComletId{}, CoreId{}, anchor_type},
                    std::make_shared<MetaRef>(ComletId{}, relocator), id);
        }
        return;
      }
      default:
        throw serial::SerialError("corrupt ref descriptor in stream");
    }
  };

  serial::GraphReader gr(body_reader, hook);
  section.anchor = gr.ReadObjectAs<Anchor>();
  if (!section.anchor)
    throw FargoError("migration stream carried a null anchor");
  section.anchor->id_ = id;
  return section;
}

void MovementUnit::HandleMoveRequest(net::Message msg) {
  serial::Reader r(msg.payload);
  ComletId primary = wire::ReadComletId(r);
  std::uint64_t txn = r.ReadVarint();
  std::uint64_t count = r.ReadVarint();

  // A stream for a tombstoned txn lost a race with its own source's
  // recovery: the source already heard "not installed" from us and
  // reinstalled the complets, so installing this (chaos-delayed or
  // duplicated) copy would duplicate them. Refuse it.
  if (txn != 0 && IsDeadTxn(msg.from, txn)) {
    serial::Writer err;
    wire::WriteError(err, "move txn resolved aborted by recovery");
    core_.Reply(msg.from, net::MessageKind::kMoveReply, msg.correlation,
                err.Take(), msg.session);
    return;
  }

  std::vector<DecodedSection> installed;
  std::vector<ComletId> arrived;
  std::string continuation;
  std::vector<Value> cont_args;

  try {
    for (std::uint64_t i = 0; i < count; ++i) {
      DecodedSection section = DecodeSection(r);
      section.anchor->PreArrival();
      // Install under the movement's epoch proposal: the publish to the
      // home shard outranks every hint the old chain handed out.
      core_.Install(section.anchor, section.epoch);
      section.anchor->PostArrival();
      arrived.push_back(section.id);
      installed.push_back(std::move(section));
    }
  } catch (const std::exception& e) {
    // Unwind partial arrivals so the sender's rollback is authoritative:
    // the complets go back to living at the sender, and a durable
    // destination logs the removal so replay does not resurrect them.
    for (const DecodedSection& s : installed) {
      core_.repository().Remove(s.id);
      s.anchor->core_ = nullptr;
      // Keep the proposal's stamp: "back at the sender" is knowledge as
      // fresh as the install we are unwinding. The sender's rollback then
      // re-asserts to the home shard, healing any publish that landed.
      core_.trackers().SetForward(s.id, msg.from, s.anchor_type, s.epoch);
      if (Wal* wal = core_.wal())
        wal->AppendRemove(s.id, msg.from, s.anchor_type);
    }
    serial::Writer err;
    wire::WriteError(err, e.what());
    core_.Reply(msg.from, net::MessageKind::kMoveReply, msg.correlation,
                err.Take(), msg.session);
    return;
  }

  // Mark the transaction installed BEFORE the reply is logged/sent: every
  // durable prefix of (installs, move-in, reply) resolves consistently at
  // recovery, because the source only commits on our acked reply and only
  // asks us (kRecoveryQuery) when it never got one.
  if (txn != 0) RecordMoveIn(msg.from, txn);

  bool has_continuation = r.ReadBool();
  if (has_continuation) {
    continuation = r.ReadString();
    cont_args = serial::ReadValues(r);
  }
  wire::TraceContext trace = wire::ReadTraceTail(r);
  monitor::Tracer::Opened install = core_.tracer().OpenSpan(
      monitor::SpanKind::kInstall, ToString(primary), trace,
      core_.scheduler().Now());
  core_.tracer().CloseSpan(install.token, core_.scheduler().Now(),
                           monitor::SpanOutcome::kOk, 0, msg.payload.size());

  serial::Writer ok;
  wire::WriteOk(ok);
  wire::WriteComletList(ok, arrived);
  core_.Reply(msg.from, net::MessageKind::kMoveReply, msg.correlation,
              ok.Take(), msg.session);

  // "Call with continuation" (§3.3): the receiving Core invokes the given
  // method after unmarshaling.
  if (has_continuation) {
    monitor::TraceScope scope(core_.tracer(), install.ctx);
    LogFailure(core_.DispatchLocal(primary, continuation, cont_args),
               "continuation", continuation + " on " + ToString(primary));
  }
}

void MovementUnit::RecordMoveIn(CoreId from, std::uint64_t txn) {
  if (!move_ins_.insert({from.value, txn}).second) return;
  if (Wal* wal = core_.wal()) wal->AppendMoveIn(from, txn);
}

void MovementUnit::DropMoveIn(CoreId from, std::uint64_t txn) {
  if (move_ins_.erase({from.value, txn}) == 0) return;
  if (Wal* wal = core_.wal()) {
    wal->AppendMoveInAck(from, txn);
    wal->LazySync();
  }
}

void MovementUnit::RecordDeadTxn(CoreId from, std::uint64_t txn) {
  if (!dead_txns_.insert({from.value, txn}).second) return;
  if (Wal* wal = core_.wal()) wal->AppendMoveDead(from, txn);
}

void MovementUnit::HandleRecoveryQuery(const net::Message& msg) {
  serial::Reader r(msg.payload);
  const std::uint64_t txn = r.ReadVarint();
  const bool installed = WasMovedIn(msg.from, txn);
  // The answer is a promise either way: "installed" lets the source drop
  // its staged stream forever, "not installed" makes it reinstall and
  // resume serving — after which a late copy of the stream must never
  // install here (the tombstone). Neither promise may outrun this Core's
  // own durability. Core::Reply barriers every reply behind WhenDurable()
  // when a WAL is attached, which covers the install records (installed)
  // or the tombstone appended just above (not).
  if (!installed) RecordDeadTxn(msg.from, txn);
  serial::Writer w;
  wire::WriteOk(w);
  w.WriteBool(installed);
  core_.Reply(msg.from, net::MessageKind::kRecoveryReply, msg.correlation,
              w.Take());
}

void MovementUnit::ReinstallFromStream(const std::vector<std::uint8_t>& stream) {
  serial::Reader r(stream);
  (void)wire::ReadComletId(r);  // primary
  (void)r.ReadVarint();         // txn
  const std::uint64_t count = r.ReadVarint();
  for (std::uint64_t i = 0; i < count; ++i) {
    DecodedSection section = DecodeSection(r);
    // Duplicate sections were copies minted FOR the destination; an aborted
    // move never created them anywhere, so there is nothing to restore.
    if (section.is_duplicate) continue;
    // Idempotent against replayed aborts and races with live state.
    if (core_.repository().Contains(section.id)) continue;
    core_.Install(section.anchor);
  }
}

}  // namespace fargo::core
