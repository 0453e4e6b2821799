// E3 (§3.1): cost of the stub/tracker split.
//
// The paper claims the split costs "a small price of an extra local method
// invocation" while keeping one tracker per target per Core. This bench
// measures wall-clock dispatch overhead (google-benchmark) and the
// tracker-sharing property.
#include <benchmark/benchmark.h>

#include "bench/support.h"

using namespace fargo;
using namespace fargo::bench;

namespace {

// Baseline: a plain virtual call on the anchor object.
void BM_DirectVirtualCall(benchmark::State& state) {
  World w(1);
  auto ref = w[0].New<Counter>();
  auto anchor = w[0].repository().Get(ref.target());
  const std::vector<Value> no_args;
  for (auto _ : state) {
    benchmark::DoNotOptimize(anchor->Dispatch("get", no_args));
  }
}
BENCHMARK(BM_DirectVirtualCall);

// Core-level dispatch (repository lookup + method map).
void BM_CoreDispatchLocal(benchmark::State& state) {
  World w(1);
  auto ref = w[0].New<Counter>();
  const std::vector<Value> no_args;
  for (auto _ : state) {
    benchmark::DoNotOptimize(w[0].DispatchLocal(ref.target(), "get", no_args));
  }
}
BENCHMARK(BM_CoreDispatchLocal);

// Full stub -> tracker -> anchor path with a colocated target: the "extra
// local method invocation" of the split.
void BM_StubCallColocated(benchmark::State& state) {
  World w(1);
  auto ref = w[0].New<Counter>();
  for (auto _ : state) {
    benchmark::DoNotOptimize(ref.Call("get"));
  }
}
BENCHMARK(BM_StubCallColocated);

// Remote invocation through the simulated network (wall-clock cost of
// serialization + routing machinery; simulated latency costs no wall time).
void BM_StubCallRemote(benchmark::State& state) {
  World w(2);
  auto target = w[0].New<Counter>();
  auto ref = w[1].RefTo<Counter>(target.handle());
  for (auto _ : state) {
    benchmark::DoNotOptimize(ref.Call("get"));
  }
}
BENCHMARK(BM_StubCallRemote);

// Argument marshaling cost by payload size.
void BM_RemoteCallPayload(benchmark::State& state) {
  World w(2);
  auto target = w[0].New<Message>("m");
  auto ref = w[1].RefTo<Message>(target.handle());
  std::string payload(static_cast<std::size_t>(state.range(0)), 'x');
  for (auto _ : state) {
    benchmark::DoNotOptimize(ref.Call("set", {Value(payload)}));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_RemoteCallPayload)->Range(64, 1 << 16);

// E12: pipelined InvokeAsync vs sequential sync Invoke over a 50 ms link.
// Sequential sync pays K round-trips; K pipelined futures share the link
// and complete in ~1 RTT + K * serialization. Simulated time, so the curve
// is deterministic and every point is gated in BENCH_invocation.json.
void PipelinedVsSyncTable(Report& report) {
  constexpr SimTime kLatency = Millis(50);
  std::printf("\n-- E12: sync loop vs pipelined InvokeAsync (50 ms link) --\n");
  TableHeader({"K", "sync (sim ms)", "pipelined (sim ms)", "speedup"});

  double single_ms = 0;
  double pipelined16_ms = 0;
  const std::vector<int> ks = {1, 2, 4, 8, 16, 32};
  for (std::size_t i = 0; i < ks.size(); ++i) {
    const int k = ks[i];
    // Sequential sync: each Invoke pumps until its own future settles.
    double sync_ms = 0;
    {
      World w(2, kLatency);
      auto target = w[0].New<Counter>();
      auto ref = w[1].RefTo<Counter>(target.handle());
      ref.Call("get");  // warm the route so every run starts shortened
      Section section(report, w, "sync_k" + std::to_string(k));
      const SimTime t0 = w.rt.scheduler().Now();
      for (int j = 0; j < k; ++j) ref.Call("get");
      section.Commit();
      // Each settled call cancels its RPC timeout; the queue must not keep
      // one dead timer per call.
      report.Gate("sync_k" + std::to_string(k) + ".queue_peak",
                  static_cast<std::uint64_t>(
                      w.rt.metrics().GaugeValue("sched.queue_peak")));
      sync_ms = ToMillis(w.rt.scheduler().Now() - t0);
    }
    // Pipelined: all K requests leave before the first reply lands.
    double pipe_ms = 0;
    {
      World w(2, kLatency);
      auto target = w[0].New<Counter>();
      auto ref = w[1].RefTo<Counter>(target.handle());
      ref.Call("get");
      Section section(report, w, "pipe_k" + std::to_string(k));
      const SimTime t0 = w.rt.scheduler().Now();
      std::vector<sim::Future<Value>> futures;
      for (int j = 0; j < k; ++j)
        futures.push_back(ref.InvokeAsync("get"));
      w.rt.RunUntilIdle();
      for (auto& f : futures) (void)f.value();  // all settled, none failed
      section.Commit();
      pipe_ms = ToMillis(w.rt.scheduler().Now() - t0);
    }
    if (k == 1) single_ms = pipe_ms;
    if (k == 16) pipelined16_ms = pipe_ms;
    Row("| %4d | %13.2f | %18.2f | %6.1fx |", k, sync_ms, pipe_ms,
        sync_ms / pipe_ms);
  }
  std::printf("acceptance: 16 pipelined in %.2f ms vs single %.2f ms -> %s\n",
              pipelined16_ms, single_ms,
              pipelined16_ms < 2 * single_ms ? "PASS (< 2x single)"
                                             : "FAIL (>= 2x single)");
}

void TrackerSharingTable(Report& report) {
  std::printf("\n-- one tracker per target per Core (stub fan-in) --\n");
  TableHeader({"stubs at core1", "trackers at core1", "naive proxies"});
  for (int stubs : {1, 10, 100, 1000}) {
    World w(2);
    auto target = w[0].New<Counter>();
    std::vector<core::ComletRef<Counter>> refs;
    for (int i = 0; i < stubs; ++i)
      refs.push_back(w[1].RefTo<Counter>(target.handle()));
    // A naive design keeps one remote-capable proxy per reference; FarGo
    // shares one tracker among all stubs of a Core.
    report.Gate("trackers_for_" + std::to_string(stubs) + "_stubs",
                w[1].trackers().size());
    Row("| %14d | %17zu | %13d |", stubs, w[1].trackers().size(), stubs);
  }
}

}  // namespace

int main(int argc, char** argv) {
  Report report("invocation");
  std::printf("== E3: stub/tracker indirection overhead (§3.1) ==\n");
  if (!DeterministicMode()) {
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
  }
  TrackerSharingTable(report);
  PipelinedVsSyncTable(report);
  report.Write();
  return 0;
}
