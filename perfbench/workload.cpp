#include "perfbench/workload.h"

#include <cmath>

namespace perfbench {

namespace {

using fargo::Millis;
using fargo::Seconds;

std::vector<Spec> MakeSpecs() {
  std::vector<Spec> specs;

  Spec steady;
  steady.name = "invoke_steady";
  steady.why =
      "invocation hot path only; movement, directory and WAL idle, so "
      "changes there must show no change here";
  steady.cores = 8;
  steady.link = {Millis(1), 1.25e8, true};  // 1 ms, 1 Gbit/s
  steady.complets = 256;
  steady.ops_per_vsec = 20000;
  // Short rounds, so invoke_parallel's seconds-long rounds still give a
  // steady median; 11k invocations keep >10 samples beyond the p999.
  steady.duration = Millis(550);
  steady.write_share = 0.3;
  steady.colocated_share = 0.2;
  specs.push_back(steady);

  Spec relayout;
  relayout.name = "relayout";
  relayout.why =
      "moves with pulled closures, tracker chains and directory hints: the "
      "paper's dynamic layout";
  relayout.cores = 8;
  relayout.link = {Millis(10), 1.25e6, true};  // 10 ms, 10 Mbit/s
  relayout.complets = 64;
  relayout.mobile = true;
  relayout.directory = true;
  relayout.ops_per_vsec = 1000;
  relayout.duration = Seconds(15);  // >10 invokes beyond the p999
  relayout.move_share = 0.2;
  relayout.move_spacing = Millis(300);
  specs.push_back(relayout);

  Spec chaos;
  chaos.name = "durable_chaos";
  chaos.why =
      "durable deduplicated writes under drop/dup/reorder and a crash: WAL "
      "barrier, session replay, retries and recovery";
  chaos.cores = 5;
  chaos.link = {Millis(2), 1e7, true};  // 2 ms, 80 Mbit/s
  chaos.complets = 200;
  chaos.durable = true;
  chaos.ops_per_vsec = 10000;
  chaos.duration = Seconds(2);
  chaos.write_share = 0.5;
  chaos.colocated_share = 0.2;
  chaos.victim = 4;
  chaos.crash_at = Millis(800);
  chaos.restart_after = Millis(300);
  specs.push_back(chaos);

  // invoke_steady's deployment and op stream on the locality engine:
  // 3 workers + the conductor. Its deterministic metrics must equal
  // invoke_steady's, so any ops_per_s difference is engine cost.
  Spec parallel = steady;
  parallel.name = "invoke_parallel";
  parallel.why =
      "invoke_steady's op stream on 3 locality workers: barrier rounds and "
      "handoffs are the only difference";
  parallel.localities = 3;
  specs.push_back(parallel);

  // durable_chaos plus a trickle of moves. Fails its exactly-once check:
  // a write whose reply is dropped is retried after its complet moved, and
  // the new host's replay window has no record of the slot, so the write
  // runs twice. Kept runnable as the reproducer; not a gated workload.
  Spec moves = chaos;
  moves.name = "durable_chaos_moves";
  moves.why =
      "durable_chaos with moves between surviving Cores: exactly-once "
      "across movement under message loss";
  moves.move_share = 0.005;
  moves.move_spacing = Seconds(1);
  specs.push_back(moves);
  return specs;
}

/// splitmix64: the op stream must not depend on the standard library's
/// distribution implementations.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t Next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }
  std::uint32_t Below(std::uint32_t n) {
    return static_cast<std::uint32_t>(Next() % n);
  }

 private:
  std::uint64_t state_;
};

}  // namespace

const std::vector<Spec>& AllSpecs() {
  static const std::vector<Spec> specs = MakeSpecs();
  return specs;
}

const Spec* FindSpec(std::string_view name) {
  for (const Spec& s : AllSpecs())
    if (s.name == name) return &s;
  return nullptr;
}

Spec Smoke(Spec spec) {
  spec.duration = spec.duration / 20;
  spec.crash_at = spec.crash_at / 20;
  return spec;
}

std::vector<SimTime> LinkLatencies(const Spec& spec, std::uint64_t seed) {
  Rng rng(seed ^ 0x6c696e6b73ull);  // a stream apart from the ops'
  const auto n = static_cast<std::size_t>(spec.cores);
  std::vector<SimTime> latency(n * n, 0);
  for (std::size_t a = 0; a < n; ++a)
    for (std::size_t b = a + 1; b < n; ++b) {
      const double scale = 0.98 + 0.04 * rng.Unit();
      latency[a * n + b] = latency[b * n + a] = static_cast<SimTime>(
          static_cast<double>(spec.link.latency) * scale);
    }
  return latency;
}

std::vector<Op> Generate(const Spec& spec, std::uint64_t seed) {
  Rng rng(seed);
  const auto cores = static_cast<std::uint32_t>(spec.cores);
  const auto complets = static_cast<std::uint32_t>(spec.complets);
  // The crashed Core issues nothing (its stubs die with it) and hosts no
  // moving complet; everything else may.
  auto usable = [&](std::uint32_t core) {
    return static_cast<int>(core) != spec.victim;
  };
  std::vector<std::uint32_t> host(complets);
  for (std::uint32_t i = 0; i < complets; ++i) host[i] = HomeCore(spec, i);
  std::vector<SimTime> last_move(complets, -spec.move_spacing);

  auto random_core = [&](std::uint32_t avoid) {
    for (;;) {
      const std::uint32_t c = rng.Below(cores);
      if (c != avoid && usable(c)) return c;
    }
  };

  std::vector<Op> ops;
  ops.reserve(static_cast<std::size_t>(
      spec.ops_per_vsec * static_cast<double>(spec.duration) / 1e9 * 1.1));
  double t = 0;
  const double mean_gap = 1e9 / spec.ops_per_vsec;
  for (;;) {
    t += -std::log(1.0 - rng.Unit()) * mean_gap;
    if (t >= static_cast<double>(spec.duration)) break;
    Op op;
    op.due = static_cast<SimTime>(t);
    const bool move = rng.Unit() < spec.move_share;
    op.target = rng.Below(complets);
    // A complet moves again only once its previous move has had time to
    // settle, so no op of the stream fails by racing another move.
    if (move && usable(host[op.target]) &&
        op.due - last_move[op.target] >= spec.move_spacing) {
      op.kind = OpKind::kMove;
      op.source = random_core(cores);
      op.dest = random_core(host[op.target]);
      host[op.target] = op.dest;
      last_move[op.target] = op.due;
    } else {
      op.kind = rng.Unit() < spec.write_share ? OpKind::kWrite : OpKind::kRead;
      const std::uint32_t h = host[op.target];
      op.source = usable(h) && rng.Unit() < spec.colocated_share
                      ? h
                      : random_core(h);
      op.amount = 1 + static_cast<std::int64_t>(rng.Below(100));
      op.pad = static_cast<std::uint16_t>(8 + rng.Below(57));
    }
    ops.push_back(op);
  }
  return ops;
}

}  // namespace perfbench
