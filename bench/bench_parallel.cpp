// E18: FARGO_PARALLEL locality-engine scaling.
//
// The wall-clock sections measure host-CPU parallelism, which is exactly
// the thing the deterministic gate must not measure: they are Info()
// (never gated), and the acceptance shape (>= 2x from 1 to 4 localities on
// the engine workload) is printed for the CI artifact, not enforced.
//
// Three layers:
//   engine.*   ParallelScheduler alone: CPU-bound tasks fanned across 8
//              affinity keys, conservative rounds, no runtime on top.
//   invoke.*   the full runtime: cross-core invocations executed at each
//              owner Core's home locality (request work parallelises;
//              the conductor's pump and the network mutex do not).
//   churn.*    gated: barrier rounds and cross-locality handoffs of the
//              invocation workload, issued in one burst and open loop
//              (spread over virtual time). Both are pure functions of the
//              workload and N, so a regression to per-timestamp stepping
//              or to an extra quiet round per timestamp fails benchgate.
#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

#include "bench/support.h"
#include "src/sim/parallel_sched.h"

using namespace fargo;
using namespace fargo::bench;

namespace {

constexpr int kAffinities = 8;     // Cores-worth of affinity keys
constexpr int kEngineTasks = 256;  // per engine run
constexpr int kSpinIters = 60000;  // ~100us of splitmix64 per task
constexpr int kInvokesPerCore = 150;
constexpr std::size_t kResizeBytes = 262144;
constexpr SimTime kOpenLoopGap = Micros(50);  // open-loop issue spacing

/// Seed-deterministic CPU burn; the sink defeats dead-code elimination.
std::uint64_t Spin(std::uint64_t seed) {
  std::uint64_t x = seed;
  std::uint64_t acc = 0;
  for (int i = 0; i < kSpinIters; ++i) {
    x += 0x9e3779b97f4a7c15ull;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    acc ^= z ^ (z >> 31);
  }
  return acc;
}

double EngineRunMs(int localities) {
  sim::ParallelScheduler sched(localities);
  std::atomic<std::uint64_t> sink{0};
  std::atomic<int> done{0};
  for (int i = 0; i < kEngineTasks; ++i)
    sched.Post(static_cast<std::uint64_t>(i % kAffinities), 1, [&sink, &done, i] {
      sink.fetch_add(Spin(static_cast<std::uint64_t>(i)),
                     std::memory_order_relaxed);
      done.fetch_add(1, std::memory_order_relaxed);
    });
  // fargolint: allow(wallclock) host-clock Info() metric, never gated
  const auto t0 = std::chrono::steady_clock::now();
  sched.RunUntilIdle();
  // fargolint: allow(wallclock) host-clock Info() metric, never gated
  const auto dt = std::chrono::steady_clock::now() - t0;
  if (done.load() != kEngineTasks) std::abort();  // lost work = bogus numbers
  return std::chrono::duration<double, std::milli>(dt).count();
}

/// Engine churn of one invocation run (`locality.*` registry deltas).
struct InvokeRun {
  double ms = 0;  ///< host wall-clock of the issue+pump region
  std::uint64_t rounds = 0;
  std::uint64_t handoffs = 0;
};

/// Cross-core invocations: Data lives on core i, the caller refs it from
/// core (i+1)%8, so every "resize" executes at the owner's home locality.
/// `open_loop` issues call k at k * kOpenLoopGap of virtual time, on its
/// caller's locality, instead of all at once from the conductor.
InvokeRun RunInvokes(int localities, bool open_loop) {
  core::Runtime rt(core::RuntimeOptions{localities});
  testing::RegisterTestComlets();
  std::vector<core::Core*> cores;
  for (int i = 0; i < kAffinities; ++i)
    cores.push_back(&rt.CreateCore("core" + std::to_string(i)));
  rt.network().SetDefaultLink({Millis(1), 1.25e8, true});
  std::vector<core::ComletRef<Data>> owned, remote;
  for (int i = 0; i < kAffinities; ++i)
    owned.push_back(cores[static_cast<std::size_t>(i)]->New<Data>());
  for (int i = 0; i < kAffinities; ++i)
    remote.push_back(cores[static_cast<std::size_t>((i + 1) % kAffinities)]
                         ->RefTo<Data>(owned[static_cast<std::size_t>(i)]
                                           .handle()));
  rt.RunUntilIdle();  // settle tracker setup outside the timed region
  const monitor::Registry& reg = rt.metrics();
  rt.SyncSerialStats();
  const std::uint64_t rounds0 = reg.CounterValue("locality.rounds");
  const std::uint64_t handoffs0 = reg.CounterValue("locality.handoffs");

  constexpr int kCalls = kAffinities * kInvokesPerCore;
  std::vector<sim::Future<Value>> futures(static_cast<std::size_t>(kCalls));
  // fargolint: allow(wallclock) host-clock Info() metric, never gated
  const auto t0 = std::chrono::steady_clock::now();
  for (int k = 0; k < kCalls; ++k) {
    const std::size_t i = static_cast<std::size_t>(k % kAffinities);
    sim::Future<Value>* slot = &futures[static_cast<std::size_t>(k)];
    if (!open_loop) {
      *slot = remote[i].InvokeAsync("resize",
                                    static_cast<std::int64_t>(kResizeBytes));
      continue;
    }
    // Each task writes only its own slot, read after the pump.
    sim::Scheduler::AffinityScope scope(
        cores[(i + 1) % kAffinities]->id().value);
    rt.scheduler().ScheduleAfter(kOpenLoopGap * k, [slot, ref = remote[i]] {
      *slot = ref.InvokeAsync("resize",
                              static_cast<std::int64_t>(kResizeBytes));
    });
  }
  rt.RunUntilIdle();
  // fargolint: allow(wallclock) host-clock Info() metric, never gated
  const auto dt = std::chrono::steady_clock::now() - t0;
  for (auto& f : futures)
    if (!f.ok()) std::abort();  // a failed invoke = bogus numbers
  rt.SyncSerialStats();
  InvokeRun run;
  run.ms = std::chrono::duration<double, std::milli>(dt).count();
  run.rounds = reg.CounterValue("locality.rounds") - rounds0;
  run.handoffs = reg.CounterValue("locality.handoffs") - handoffs0;
  return run;
}

}  // namespace

int main() {
  Report report("parallel");
  std::printf("== E18: FARGO_PARALLEL locality-engine scaling ==\n");
  // fargolint: allow(thread) reads the host cpu count for the report; spawns nothing
  const unsigned hw = std::thread::hardware_concurrency();
  std::printf("host cpus: %u (wall-clock speedups are bounded by this)\n", hw);

  std::printf("\n-- churn: %d invocations over %d cores (gated) --\n",
              kAffinities * kInvokesPerCore, kAffinities);
  TableHeader({"workload", "localities", "rounds", "handoffs"});
  for (const bool open_loop : {false, true}) {
    const std::string name = open_loop ? "open_loop" : "burst";
    for (const int n : {2, 4}) {
      const InvokeRun run = RunInvokes(n, open_loop);
      const std::string key = "churn." + name + ".n" + std::to_string(n);
      report.Gate(key + ".rounds", run.rounds);
      report.Gate(key + ".handoffs", run.handoffs);
      Row("| %8s | %10d | %6llu | %8llu |", name.c_str(), n,
          static_cast<unsigned long long>(run.rounds),
          static_cast<unsigned long long>(run.handoffs));
    }
  }
  if (DeterministicMode()) {
    // Wall-clock is not reproducible; CI's deterministic sweep keeps only
    // the gated churn section.
    std::printf("deterministic mode: wall-clock sections skipped\n");
    report.Write();
    return 0;
  }

  std::printf("\n-- engine: %d CPU-bound tasks over %d affinities --\n",
              kEngineTasks, kAffinities);
  TableHeader({"localities", "wall ms", "speedup vs 1"});
  double engine_ms1 = 0;
  for (int n : {1, 2, 4}) {
    // Warm-up run absorbs thread spawn + first-touch costs, then report
    // the median-ish second run.
    (void)EngineRunMs(n);
    const double ms = EngineRunMs(n);
    if (n == 1) engine_ms1 = ms;
    report.Info("engine.ms_" + std::to_string(n), ms);
    Row("| %10d | %7.1f | %11.2fx |", n, ms, engine_ms1 / ms);
    if (n > 1)
      report.Info("engine.speedup_1_to_" + std::to_string(n), engine_ms1 / ms);
  }

  std::printf("\n-- runtime: %d cross-core invocations over %d cores --\n",
              kAffinities * kInvokesPerCore, kAffinities);
  TableHeader({"localities", "wall ms", "speedup vs sim"});
  double invoke_sim_ms = 0;
  for (int n : {0, 1, 2, 4}) {
    const double ms = RunInvokes(n, /*open_loop=*/false).ms;
    if (n == 0) invoke_sim_ms = ms;
    const std::string key = n == 0 ? "sim" : std::to_string(n);
    report.Info("invoke.ms_" + key, ms);
    Row("| %10s | %7.1f | %13.2fx |", key.c_str(), ms, invoke_sim_ms / ms);
    if (n == 4) report.Info("invoke.speedup_sim_to_4", invoke_sim_ms / ms);
  }

  const double speedup = engine_ms1 / EngineRunMs(4);
  std::printf("\nacceptance shape (informational, never gated): engine 1->4 "
              "localities = %.2fx -> %s\n",
              speedup,
              speedup >= 2.0       ? "PASS (>= 2x)"
              : hw < 4             ? "N/A (host has too few cpus)"
                                   : "BELOW 2x (host-dependent)");
  report.Info("host.cpus", static_cast<double>(hw));
  report.Write();
  return 0;
}
