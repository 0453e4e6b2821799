// The four open-loop workloads: their deployments and seeded op streams.
//
// An op stream is a pure function of (Spec, seed). Ops arrive as a Poisson
// process at `ops_per_vsec` per virtual second; each is due at a fixed
// virtual instant whether or not earlier ops have finished.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/time.h"
#include "src/net/network.h"

namespace perfbench {

using fargo::SimTime;

enum class OpKind : std::uint8_t { kRead, kWrite, kMove };

struct Op {
  SimTime due = 0;           ///< virtual offset from the round's first op
  std::uint32_t source = 0;  ///< issuing Core index
  std::uint32_t target = 0;  ///< complet index (account or mobile)
  std::uint32_t dest = 0;    ///< move destination Core index
  OpKind kind = OpKind::kRead;
  std::int64_t amount = 0;   ///< write amount (> 0)
  std::uint16_t pad = 0;     ///< argument padding bytes
};

struct Spec {
  std::string name;
  std::string why;
  int localities = 0;  ///< RuntimeOptions::localities (0 = sim)
  int cores = 0;
  fargo::net::LinkModel link;
  int complets = 0;       ///< accounts, or mobiles when `mobile`
  bool mobile = false;    ///< Mobile+Partner pairs instead of Accounts
  bool directory = false; ///< sharded directory over every Core
  bool durable = false;   ///< WAL on every Core, retries, chaos, one crash
  double ops_per_vsec = 0;
  SimTime duration = 0;   ///< virtual length of the op stream
  double move_share = 0;
  double write_share = 0;
  double colocated_share = 0;
  SimTime move_spacing = 0;  ///< min virtual gap between moves of a complet
  int victim = -1;           ///< Core index crashed mid-stream (durable)
  SimTime crash_at = 0;      ///< offset of the crash from the first op
  SimTime restart_after = 0;
};

/// The named workload, or nullptr.
const Spec* FindSpec(std::string_view name);
const std::vector<Spec>& AllSpecs();

/// The same deployment at a tiny size (smoke mode).
Spec Smoke(Spec spec);

/// Core hosting complet `index` at deployment time.
inline std::uint32_t HomeCore(const Spec& spec, std::uint32_t index) {
  return index % static_cast<std::uint32_t>(spec.cores);
}

std::vector<Op> Generate(const Spec& spec, std::uint64_t seed);

/// Propagation latency of the link between Cores a and b (symmetric),
/// `latency[a * cores + b]`: the spec's link latency, each link drawn
/// within +-2% of it. Heterogeneous links keep the latency percentiles a
/// continuous function of the seed instead of a few quantized values.
std::vector<SimTime> LinkLatencies(const Spec& spec, std::uint64_t seed);

}  // namespace perfbench
