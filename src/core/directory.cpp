#include "src/core/directory.h"

#include <algorithm>

#include "src/common/log.h"
#include "src/core/core.h"
#include "src/core/runtime.h"
#include "src/core/shard_map.h"
#include "src/core/tracker.h"
#include "src/core/wal.h"
#include "src/net/formation.h"

namespace fargo::core {

const ShardMap& Directory::shard_map() const {
  const ShardMap& global = core_.runtime().shard_map();
  return adopted_.version > global.version ? adopted_ : global;
}

CoreId Directory::OwnerOf(ComletId id) const {
  const ShardMap& map = shard_map();
  return map.valid() ? map.OwnerOf(id) : CoreId{};
}

void Directory::Publish(ComletId id, CoreId location, std::uint64_t epoch) {
  if (!id.valid()) return;
  const CoreId owner = OwnerOf(id);
  if (!owner.valid()) return;
  core_.inst_.dir_publishes->Inc();
  const SimTime now = core_.scheduler().Now();
  if (owner == core_.id()) {
    ApplyPublish(id, location, epoch, now, core_.id());
    return;
  }
  wire::DirectoryPublish p{id, location, epoch, now, core_.tracer().Current()};
  net::Message msg;
  msg.from = core_.id();
  msg.to = owner;
  msg.kind = net::MessageKind::kDirectoryPublish;
  msg.payload = wire::EncodeDirectoryPublish(p);
  // One-way, idempotent by epoch merge; rides the priority lane so a
  // publish racing the first lookup for the same complet is not delayed
  // behind a bulk frame.
  core_.formation().Enqueue(std::move(msg), net::Formation::Lane::kPriority);
}

sim::Future<wire::DirectoryHint> Directory::LookupAsync(ComletId id) {
  sim::Scheduler::AffinityScope aff(core_.id().value);
  if (!id.valid())
    return sim::MakeReadyFuture(core_.scheduler(), wire::DirectoryHint{});
  const CoreId owner = OwnerOf(id);
  if (!owner.valid())
    return sim::MakeReadyFuture(core_.scheduler(), wire::DirectoryHint{});
  core_.inst_.dir_lookups->Inc();
  if (owner == core_.id())
    return sim::MakeReadyFuture(core_.scheduler(), LocalHint(id));
  wire::DirectoryLookup q{id, core_.tracer().Current()};
  return core_
      .SendAsync(owner, net::MessageKind::kDirectoryLookup,
                 wire::EncodeDirectoryLookup(q))
      .Then([](std::vector<std::uint8_t>& reply) {
        serial::Reader r(reply);
        wire::CheckOk(r);
        return wire::ReadDirectoryHint(r);
      });
}

wire::DirectoryHint Directory::LocalHint(ComletId id) {
  auto it = store_.find(id);
  if (core_.repository().Contains(id)) {
    // Prefer live hosting knowledge: the shard owner itself hosts the
    // complet right now, whatever the stored record says.
    std::uint64_t epoch = it != store_.end() ? it->second.epoch : 0;
    if (const TrackerEntry* e = core_.trackers().Find(id))
      epoch = std::max(epoch, e->hint_epoch);
    return wire::DirectoryHint{true, core_.id(), epoch};
  }
  if (it == store_.end()) return wire::DirectoryHint{};
  return wire::DirectoryHint{true, it->second.location, it->second.epoch};
}

void Directory::HandlePublish(const net::Message& msg) {
  wire::DirectoryPublish p = wire::DecodeDirectoryPublish(msg.payload);
  if (p.trace.valid())
    core_.tracer().RecordInstant(monitor::SpanKind::kControl, "dir_publish",
                                 p.trace, core_.scheduler().Now());
  ApplyPublish(p.comlet, p.location, p.epoch, p.as_of, msg.from);
}

void Directory::HandleLookup(const net::Message& msg) {
  wire::DirectoryLookup q = wire::DecodeDirectoryLookup(msg.payload);
  if (q.trace.valid())
    core_.tracer().RecordInstant(monitor::SpanKind::kControl, "dir_lookup",
                                 q.trace, core_.scheduler().Now());
  serial::Writer w;
  wire::WriteOk(w);
  wire::WriteDirectoryHint(w, LocalHint(q.comlet));
  core_.Reply(msg.from, net::MessageKind::kDirectoryReply, msg.correlation,
              w.Take());
}

void Directory::HandleMap(const net::Message& msg) {
  serial::Reader r(msg.payload);
  ShardMap map = ReadShardMap(r);
  if (!map.valid() || map.version <= shard_map().version) return;
  adopted_ = std::move(map);
  LogInfo() << "core " << core_.name() << " adopted shard map v"
            << adopted_.version << " (" << adopted_.shard_count()
            << " shards)";
}

void Directory::BroadcastMap() {
  const ShardMap& map = shard_map();
  if (!map.valid()) return;
  for (Core* peer : core_.runtime().Cores()) {
    if (peer == &core_ || !peer->alive()) continue;
    serial::Writer w;
    WriteShardMap(w, map);
    net::Message msg;
    msg.from = core_.id();
    msg.to = peer->id();
    msg.kind = net::MessageKind::kDirectoryMap;
    msg.payload = w.Take();
    core_.formation().Enqueue(std::move(msg), net::Formation::Lane::kPriority);
  }
}

void Directory::ApplyPublish(ComletId id, CoreId location, std::uint64_t epoch,
                             SimTime as_of, CoreId publisher) {
  auto it = store_.find(id);
  bool changed = false;
  if (epoch == 0) {
    // Host assertion: the publisher provably hosts the complet but lost its
    // stamp (crash recovery, rollback reinstall). Hosting is ground truth —
    // keep the stored epoch when it already points there, supersede it
    // otherwise — and echo the authoritative stamp back.
    if (it == store_.end()) {
      it = store_.emplace(id, DirEntry{location, 1, as_of}).first;
      changed = true;
    } else if (it->second.location == location) {
      it->second.as_of = std::max(it->second.as_of, as_of);
    } else {
      it->second = DirEntry{location, it->second.epoch + 1, as_of};
      changed = true;
    }
    if (publisher == core_.id()) {
      core_.trackers().Stamp(id, it->second.epoch);
    } else {
      EchoStamp(id, it->second, publisher);
    }
  } else {
    if (it == store_.end()) {
      store_.emplace(id, DirEntry{location, epoch, as_of});
      changed = true;
    } else if (epoch > it->second.epoch) {
      it->second = DirEntry{location, epoch, as_of};
      changed = true;
    } else if (epoch == it->second.epoch && location == it->second.location) {
      it->second.as_of = std::max(it->second.as_of, as_of);
    } else {
      // Out-of-order publish from an older view of the world: the stored
      // stamp is newer (or equally new but elsewhere — a lost-reply retry
      // ambiguity, where the installed copy keeps winning). Ignore it.
      core_.inst_.dir_hint_stale->Inc();
      return;
    }
  }
  if (changed && core_.wal_ && !core_.wal_->replaying()) {
    const DirEntry& cur = store_[id];
    core_.wal_->AppendDirPublish(id, cur.location, cur.epoch, cur.as_of);
    core_.wal_->LazySync();
  }
}

void Directory::EchoStamp(ComletId id, const DirEntry& entry, CoreId to) {
  // kTrackerUpdate with an empty anchor type: the receiver's entry already
  // knows its type, and Stamp/MergeHint never clobber a non-empty one.
  serial::Writer w;
  wire::WriteComletId(w, id);
  wire::WriteCoreId(w, entry.location);
  w.WriteString(std::string());
  w.WriteVarint(entry.epoch);
  net::Message msg;
  msg.from = core_.id();
  msg.to = to;
  msg.kind = net::MessageKind::kTrackerUpdate;
  msg.payload = w.Take();
  core_.formation().Enqueue(std::move(msg), net::Formation::Lane::kPriority);
}

void Directory::ApplyFromWal(ComletId id, CoreId location, std::uint64_t epoch,
                             SimTime as_of) {
  auto it = store_.find(id);
  if (it == store_.end()) {
    store_.emplace(id, DirEntry{location, epoch, as_of});
    return;
  }
  // Replay folds records newest-wins by epoch (then by observation time,
  // for assertion refreshes logged at the same stamp).
  if (epoch > it->second.epoch ||
      (epoch == it->second.epoch && as_of > it->second.as_of)) {
    it->second = DirEntry{location, epoch, as_of};
  }
}

}  // namespace fargo::core
