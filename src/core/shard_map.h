// Versioned consistent-hash ring mapping complets onto directory home
// shards (docs/PROTOCOL.md §Directory). The map is plain data: it is
// built once, broadcast as a kDirectoryMap payload, and adopted with a
// simple higher-version-wins rule — no coordination protocol.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "src/common/ids.h"
#include "src/serial/bytes.h"

namespace fargo::core {

/// Deterministic 64-bit mixer (the splitmix64 finalizer). std::hash is
/// implementation-defined, and ring positions feed benchgate-gated
/// message counts, so gcc and clang must agree on every bit.
inline std::uint64_t MixU64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Ring hash of a complet id. Mixes origin and sequence separately so
/// complets minted by one Core still spread over the whole ring.
inline std::uint64_t RingHash(ComletId id) {
  return MixU64(MixU64(id.origin.value) ^ id.seq);
}

/// Consistent-hash ring over N home shards. Each shard index owns
/// `vnodes` points on a 64-bit ring; a complet belongs to the first
/// point clockwise from its own hash. Points are derived from the shard
/// *index*, not the owner identity, so replacing a crashed owner Core
/// re-homes nothing else.
// fargo: domain(core)
struct ShardMap {
  std::uint64_t version = 0;   ///< 0 = no map installed (plane disabled)
  std::vector<CoreId> owners;  ///< shard index -> owning Core
  std::uint32_t vnodes = 16;   ///< ring points per shard

  bool valid() const {
    return version != 0 && !owners.empty() && vnodes != 0;
  }
  std::size_t shard_count() const { return owners.size(); }

  /// Rebuilds the sorted ring from (owners.size(), vnodes). Must be
  /// called after mutating `owners`/`vnodes`; ReadShardMap does it.
  void Build() {
    ring_.clear();
    ring_.reserve(owners.size() * vnodes);
    for (std::uint32_t s = 0; s < owners.size(); ++s) {
      for (std::uint32_t v = 0; v < vnodes; ++v) {
        ring_.emplace_back(
            MixU64((static_cast<std::uint64_t>(s) << 32) | (v + 1)), s);
      }
    }
    std::sort(ring_.begin(), ring_.end());
  }

  /// Shard index owning `id`. Requires a built, non-empty ring.
  std::uint32_t ShardOf(ComletId id) const {
    auto it = std::upper_bound(
        ring_.begin(), ring_.end(),
        std::make_pair(RingHash(id),
                       std::numeric_limits<std::uint32_t>::max()));
    if (it == ring_.end()) it = ring_.begin();  // wrap around
    return it->second;
  }

  /// Core owning `id`'s home shard.
  CoreId OwnerOf(ComletId id) const { return owners[ShardOf(id)]; }

  friend bool operator==(const ShardMap& a, const ShardMap& b) {
    return a.version == b.version && a.owners == b.owners &&
           a.vnodes == b.vnodes;
  }

 private:
  /// (ring position, shard index), sorted. Derived from owners/vnodes.
  std::vector<std::pair<std::uint64_t, std::uint32_t>> ring_;
};

inline ShardMap MakeShardMap(std::uint64_t version,
                             std::vector<CoreId> owners,
                             std::uint32_t vnodes = 16) {
  ShardMap m;
  m.version = version;
  m.owners = std::move(owners);
  m.vnodes = vnodes;
  m.Build();
  return m;
}

inline void WriteShardMap(serial::Writer& w, const ShardMap& m) {
  w.WriteVarint(m.version);
  w.WriteVarint(m.vnodes);
  w.WriteVarint(m.owners.size());
  for (CoreId owner : m.owners) w.WriteVarint(owner.value);
}

inline ShardMap ReadShardMap(serial::Reader& r) {
  ShardMap m;
  m.version = r.ReadVarint();
  m.vnodes = static_cast<std::uint32_t>(r.ReadVarint());
  std::uint64_t n = r.ReadVarint();
  // Each owner id is at least one wire byte; a longer claim is corrupt.
  if (n > r.remaining())
    throw serial::SerialError("corrupt shard-map owner count");
  m.owners.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    CoreId owner;
    owner.value = static_cast<std::uint32_t>(r.ReadVarint());
    m.owners.push_back(owner);
  }
  m.Build();
  return m;
}

}  // namespace fargo::core
