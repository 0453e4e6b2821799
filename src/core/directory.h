// The directory plane: pluggable location resolution for complets
// (docs/PROTOCOL.md §Directory).
//
// Every complet has one *home shard* — a Core that stores its last
// published location under an epoch stamp. Hosts publish arrivals to the
// shard (kDirectoryPublish); a Core that has lost the trail asks the shard
// (kDirectoryLookup) and re-stamps its tracker from the reply. Shard
// ownership is a versioned consistent-hash map (src/core/shard_map.h)
// distributed as kDirectoryMap payloads.
//
// The shard map is the only switch. With no map the plane is off and
// tracker chains are the only routing state (severed chains stay severed —
// the paper's base system). With one (Runtime::EnableDirectory) every
// complet has a home shard; the §7 "home registry" is the one-owner map.
#pragma once

#include <cstdint>
#include <map>

#include "src/common/ids.h"
#include "src/common/time.h"
#include "src/core/shard_map.h"
#include "src/core/wire.h"
#include "src/net/network.h"
#include "src/sim/future.h"

namespace fargo::core {

class Core;

/// One shard-side location record.
struct DirEntry {
  CoreId location;
  std::uint64_t epoch = 0;
  SimTime as_of = -1;
};

// fargo: domain(core)
class Directory {
 public:
  explicit Directory(Core& core) : core_(core) {}

  /// True when this Core routes by a shard map (its own adopted one or the
  /// Runtime's): the one predicate for bounded-hop routing, publishing and
  /// the crash fallback.
  bool enabled() const { return shard_map().valid(); }

  /// The shard map this Core routes by: the higher version of the one it
  /// adopted off the wire and the Runtime's (which only the conductor
  /// writes — EnableDirectory, the shell). Per-Core, so adoption on a
  /// locality worker never writes state another Core reads.
  const ShardMap& shard_map() const;

  /// Core owning `id`'s home shard; invalid when the plane is disabled.
  CoreId OwnerOf(ComletId id) const;

  /// Publishes "`id` now lives at `location`" to the owning shard, stamped
  /// `epoch`. `epoch == 0` is a host *assertion* (recovery, reinstall): the
  /// asserting Core provably hosts the complet but does not know its stamp;
  /// the shard keeps or bumps its stored epoch and echoes the authoritative
  /// stamp back as a kTrackerUpdate. No-op when the plane is disabled.
  void Publish(ComletId id, CoreId location, std::uint64_t epoch);

  /// Asks the home shard for `id`'s location. Resolves with found = false
  /// when the shard has never heard of it (or the plane is disabled);
  /// rejects when the shard is unreachable.
  sim::Future<wire::DirectoryHint> LookupAsync(ComletId id);

  // -- wire handlers (Core::DispatchMessage) ----------------------------------
  void HandlePublish(const net::Message& msg);
  void HandleLookup(const net::Message& msg);
  void HandleMap(const net::Message& msg);

  /// Sends this Core's shard map to every other Core as a kDirectoryMap
  /// payload (higher-version-wins adoption on receipt).
  void BroadcastMap();

  /// WAL replay entry point: reapplies a logged publish without re-logging
  /// or echoing.
  void ApplyFromWal(ComletId id, CoreId location, std::uint64_t epoch,
                    SimTime as_of);

  /// Shard-side store (ordered: WAL sidecars and the shell walk it).
  const std::map<ComletId, DirEntry>& store() const { return store_; }
  /// Drops every shard entry (Core restart; WAL recovery repopulates).
  void Clear() { store_.clear(); }

 private:
  /// Answers a lookup from this Core's own state, preferring live hosting
  /// knowledge over the stored record.
  wire::DirectoryHint LocalHint(ComletId id);
  /// The shard-side merge. Stamped publishes (`epoch > 0`) apply iff
  /// strictly newer than the stored stamp (equal + same location only
  /// refreshes `as_of`); assertions (`epoch == 0`) always win on location
  /// — hosting is ground truth — and are echoed back re-stamped.
  void ApplyPublish(ComletId id, CoreId location, std::uint64_t epoch,
                    SimTime as_of, CoreId publisher);
  /// Echoes the authoritative stamp of an assertion back to the publisher.
  void EchoStamp(ComletId id, const DirEntry& entry, CoreId to);

  Core& core_;
  std::map<ComletId, DirEntry> store_;
  ShardMap adopted_;  ///< last map adopted via kDirectoryMap (HandleMap)
};

}  // namespace fargo::core
