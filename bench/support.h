// Shared helpers for the experiment benches (E1..E13, DESIGN.md §4).
//
// Each bench binary regenerates one experiment's table(s) on the simulated
// WAN. Simulated time measures protocol behaviour (latency, messages,
// bytes); google-benchmark is used where wall-clock CPU overhead is itself
// the subject (E3, E4).
//
// Continuous benchmarking: every bench also emits a machine-readable
// BENCH_<name>.json through the Report class below, with two metric
// classes —
//   deterministic  virtual-time/count metrics (simulated ns, messages,
//                  bytes on the wire, scheduler tasks, serializer and
//                  heap allocations, payload bytes copied). The
//                  simulation is single-threaded and seed-deterministic,
//                  so these are bit-identical across machines AND
//                  compilers (heap allocations: for one standard library);
//                  CI gates them with zero tolerance (tools/benchgate).
//   wallclock      host-clock measurements. Recorded for the curious,
//                  never gated — wall time is not reproducible.
// Run with FARGO_BENCH_DETERMINISTIC=1 to skip the wall-clock sections
// (CI does); FARGO_BENCH_OUT=<dir> redirects the JSON files.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "src/fargo.h"
#include "tests/support/comlets.h"

namespace fargo::bench {

using testing::Counter;
using testing::Data;
using testing::Message;
using testing::Node;
using testing::Printer;
using testing::Worker;

/// Heap allocations (global operator new) made so far by this process:
/// bench/heap_count.cpp replaces operator new in every bench binary.
std::uint64_t HeapAllocs();

/// Prints a table header: "| col | col |" with a separator row.
inline void TableHeader(const std::vector<std::string>& cols) {
  std::string row = "|", sep = "|";
  for (const std::string& c : cols) {
    row += " " + c + " |";
    sep += std::string(c.size() + 2, '-') + "|";
  }
  std::printf("%s\n%s\n", row.c_str(), sep.c_str());
}

/// Prints one formatted row.
template <class... Args>
void Row(const char* fmt, Args... args) {
  std::printf(fmt, args...);
  std::printf("\n");
}

/// A fresh deployment with n cores on a uniform WAN.
struct World {
  /// Benches pin the deterministic sim (localities = 0) regardless of
  /// FARGO_PARALLEL: every gated metric is defined as the single-threaded
  /// sim's cost, and must not shift when the environment turns the locality
  /// engine on. Parallel-engine benches (bench_parallel) construct their
  /// Runtimes with explicit locality counts instead.
  explicit World(int n, SimTime latency = Millis(10),
                 double bytes_per_sec = 1.25e6)
      : rt(core::RuntimeOptions{0}) {
    testing::RegisterTestComlets();
    for (int i = 0; i < n; ++i)
      cores.push_back(&rt.CreateCore("core" + std::to_string(i)));
    rt.network().SetDefaultLink({latency, bytes_per_sec, true});
  }
  core::Core& operator[](std::size_t i) { return *cores[i]; }

  core::Runtime rt;
  std::vector<core::Core*> cores;
};

/// True when the bench should restrict itself to the deterministic
/// virtual-time sections (FARGO_BENCH_DETERMINISTIC=1): CI mode, where
/// wall-clock loops are wasted heat.
inline bool DeterministicMode() {
  const char* v = std::getenv("FARGO_BENCH_DETERMINISTIC");
  return v != nullptr && v[0] == '1';
}

/// Collects one bench's metrics and writes BENCH_<name>.json. Gate() values
/// are deterministic costs (lower is better) compared exactly by
/// tools/benchgate; Info() values are wall-clock, never gated.
class Report {
 public:
  explicit Report(std::string name) : name_(std::move(name)) {}

  /// Records a deterministic metric. All gated metrics are costs: benchgate
  /// fails the run if the value ever rises above the checked-in baseline.
  void Gate(const std::string& metric, std::uint64_t value) {
    gated_[metric] = value;
  }

  /// Records a host wall-clock (or otherwise non-reproducible) metric.
  void Info(const std::string& metric, double value) { info_[metric] = value; }

  /// Writes BENCH_<name>.json into $FARGO_BENCH_OUT (default: cwd).
  /// Deterministic keys are emitted sorted; the byte stream is reproducible
  /// whenever the gated values are.
  void Write() const {
    std::string dir = ".";
    if (const char* out = std::getenv("FARGO_BENCH_OUT")) dir = out;
    const std::string path = dir + "/BENCH_" + name_ + ".json";
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "bench: cannot write %s\n", path.c_str());
      return;
    }
    std::fprintf(f, "{\n  \"bench\": \"%s\",\n  \"schema\": 1,\n",
                 name_.c_str());
    std::fprintf(f, "  \"deterministic\": {");
    const char* sep = "\n";
    for (const auto& [k, v] : gated_) {
      std::fprintf(f, "%s    \"%s\": %llu", sep, k.c_str(),
                   static_cast<unsigned long long>(v));
      sep = ",\n";
    }
    std::fprintf(f, "%s  },\n", gated_.empty() ? "" : "\n");
    std::fprintf(f, "  \"wallclock\": {");
    sep = "\n";
    for (const auto& [k, v] : info_) {
      std::fprintf(f, "%s    \"%s\": %.17g", sep, k.c_str(), v);
      sep = ",\n";
    }
    std::fprintf(f, "%s  }\n}\n", info_.empty() ? "" : "\n");
    std::fclose(f);
    std::printf("[bench] wrote %s (%zu gated, %zu wallclock)\n", path.c_str(),
                gated_.size(), info_.size());
  }

 private:
  std::string name_;
  std::map<std::string, std::uint64_t> gated_;
  std::map<std::string, double> info_;
};

/// Gates the standard virtual-cost profile of a World over a region of
/// bench code: construct to snapshot, Commit() to record the deltas as
///   <prefix>.sim_ns       simulated time elapsed
///   <prefix>.net_msgs     inter-Core messages sent
///   <prefix>.net_bytes    bytes on the wire (payload + framing)
///   <prefix>.sched_tasks  scheduler events executed
///   <prefix>.allocs       serializer buffer allocations (alloc.count)
///   <prefix>.bytes_copied payload bytes copied instead of moved
///   <prefix>.heap_allocs  heap allocations, every layer (HeapAllocs)
class Section {
 public:
  Section(Report& report, World& world, std::string prefix)
      : report_(report), world_(world), prefix_(std::move(prefix)) {
    world_.rt.SyncSerialStats();
    sim_ns_ = world_.rt.Now();
    msgs_ = world_.rt.network().total_messages();
    bytes_ = world_.rt.network().total_bytes();
    tasks_ = world_.rt.scheduler().executed();
    allocs_ = world_.rt.metrics().CounterValue("alloc.count");
    copied_ = world_.rt.metrics().CounterValue("net.bytes_copied");
    heap_allocs_ = HeapAllocs();  // last: the reads above may allocate
  }

  void Commit() {
    const std::uint64_t heap_allocs = HeapAllocs();  // before the Gate()s
    world_.rt.SyncSerialStats();
    const monitor::Registry& reg = world_.rt.metrics();
    report_.Gate(prefix_ + ".sim_ns",
                 static_cast<std::uint64_t>(world_.rt.Now() - sim_ns_));
    report_.Gate(prefix_ + ".net_msgs",
                 world_.rt.network().total_messages() - msgs_);
    report_.Gate(prefix_ + ".net_bytes",
                 world_.rt.network().total_bytes() - bytes_);
    report_.Gate(prefix_ + ".sched_tasks",
                 world_.rt.scheduler().executed() - tasks_);
    report_.Gate(prefix_ + ".allocs",
                 reg.CounterValue("alloc.count") - allocs_);
    report_.Gate(prefix_ + ".bytes_copied",
                 reg.CounterValue("net.bytes_copied") - copied_);
    report_.Gate(prefix_ + ".heap_allocs", heap_allocs - heap_allocs_);
  }

 private:
  Report& report_;
  World& world_;
  std::string prefix_;
  SimTime sim_ns_ = 0;
  std::uint64_t msgs_ = 0, bytes_ = 0, tasks_ = 0, allocs_ = 0, copied_ = 0,
                heap_allocs_ = 0;
};

}  // namespace fargo::bench
