// FarGo end-to-end benchmark driver.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--smoke] [--out-dir <dir>]
//
// Repeats rounds of one seeded open-loop workload (fresh deployment each
// round) until `--seconds` of host time have passed, checks every round's
// outputs, and prints the metrics: with --trace 0 the end-to-end ones, with
// --trace 1 the per-layer ones from traced rounds interleaved with untraced
// ones. The last line of stdout is one JSON object; see METRICS.md.
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <fstream>
#include <iostream>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "perfbench/probes.h"
#include "perfbench/round.h"
#include "perfbench/workload.h"

namespace perfbench {
namespace {

struct Metric {
  std::string name;
  std::string unit;
  double value = 0;
  bool exact = false;  ///< a pure function of (workload, seed)
  std::string note;
};

/// Probe rates of the reference host (PumpProbe events/s for the sim,
/// BarrierProbe rounds/s for the locality engine). Host-time metrics are
/// scaled by (reference rate / probe rate measured while they ran).
constexpr double kReferencePumpRate = 2e6;
constexpr double kReferenceBarrierRate = 5e4;

/// Fewest set-ups the setup_s median is taken over.
constexpr std::size_t kSetupSamples = 20;

/// The end-to-end metrics the final JSON line carries (BENCHMARK.json).
const char* const kEndToEnd[] = {"ops_per_s",      "invoke_p50_ms",
                                 "invoke_p99_ms",  "invoke_p999_ms",
                                 "msgs_per_op",    "bytes_per_op",
                                 "setup_s",        "peak_rss_mb"};

/// Per-layer metrics, with units. Host-time ones are marked inexact.
struct LayerDef {
  const char* name;
  const char* unit;
  bool exact;
};
const LayerDef kLayers[] = {
    {"core.invoke.issue_ns", "ns", false},
    {"core.invoke.issue_allocs", "count", true},
    {"core.invoke.hops_mean", "count", true},
    {"core.tracker.chain_len_p99", "count", true},
    {"core.dir.hint_hit_ratio", "ratio", true},
    {"core.dir.lookups_per_op", "count", true},
    {"core.move.issue_ns", "ns", false},
    {"core.move.bytes_per_move", "B", true},
    {"core.move.duration_ms_mean", "ms", true},
    {"core.invoke.exec_per_call", "ratio", true},
    {"core.rpc.retries_per_op", "count", true},
    {"core.rpc.late_replies_per_op", "count", true},
    {"core.wal.records_per_op", "count", true},
    {"core.wal.bytes_per_op", "B", true},
    {"core.wal.fsyncs_per_op", "count", true},
    {"core.recovery.duration_ms", "ms", true},
    {"net.msgs_per_op.invoke", "count", true},
    {"net.msgs_per_op.move", "count", true},
    {"net.msgs_per_op.tracker", "count", true},
    {"net.msgs_per_op.directory", "count", true},
    {"net.msgs_per_op.recovery", "count", true},
    {"net.msgs_per_op.control", "count", true},
    {"net.batch_items_per_frame", "count", true},
    {"net.drops_per_op", "count", true},
    {"net.session.replays_per_op", "count", true},
    {"net.session.suppressed_per_op", "count", true},
    {"net.bytes_copied_per_op", "B", true},
    {"serial.allocs_per_op", "count", true},
    {"serial.closure_roundtrip_ns", "ns", false},
    {"serial.args_roundtrip_ns", "ns", false},
    {"sim.tasks_per_op", "count", true},
    {"sim.pump_ns_per_op", "ns", false},
    {"sim.locality.rounds_per_op", "count", true},
    {"sim.locality.handoffs_per_op", "count", true},
    {"sim.locality.max_queue_depth", "count", false},
    {"heap.allocs_per_op", "count", true},
    {"heap.bytes_per_op", "B", true},
    {"monitor.trace_overhead", "ratio", false},
    {"monitor.spans_per_op", "count", true},
    {"monitor.trace.exec_ms_mean", "ms", true},
    {"monitor.trace.transit_ms_mean", "ms", true},
    {"monitor.trace.evicted_spans", "count", true},
    {"monitor.trace.open_spans", "count", true},
};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;
  std::string out_dir;
};

Args Parse(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(k + " needs a value");
      return argv[++i];
    };
    if (k == "--workload") {
      a.workload = value();
      have_workload = true;
    } else if (k == "--seed") {
      a.seed = std::stoull(value());
    } else if (k == "--seconds") {
      a.seconds = std::stod(value());
    } else if (k == "--trace") {
      a.trace = std::stoi(value()) != 0;
    } else if (k == "--smoke") {
      a.smoke = true;
    } else if (k == "--out-dir") {
      a.out_dir = value();
    } else {
      throw std::invalid_argument("unknown argument " + k);
    }
  }
  if (!have_workload) throw std::invalid_argument("--workload is required");
  return a;
}

std::string Num(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// Nearest-rank percentile of sorted virtual latencies, in ms.
double PercentileMs(const std::vector<SimTime>& sorted, double q) {
  if (sorted.empty()) return 0;
  const double n = static_cast<double>(sorted.size());
  const auto rank = std::clamp<std::size_t>(
      static_cast<std::size_t>(std::ceil(q * n)), 1, sorted.size());
  return static_cast<double>(sorted[rank - 1]) / 1e6;
}

std::string Samples(const std::vector<SimTime>& v, double q) {
  const auto n = v.size();
  const auto beyond =
      n - static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  return "n=" + std::to_string(n) + ", " + std::to_string(beyond) + " beyond";
}

/// The metrics every round of one seed must reproduce exactly.
std::vector<Metric> Deterministic(const Spec& spec, const RoundResult& r) {
  const double ops = static_cast<double>(r.attempted);
  std::vector<Metric> m = {
      {"invoke_p50_ms", "ms", PercentileMs(r.invoke_lat, 0.5), true,
       Samples(r.invoke_lat, 0.5)},
      {"invoke_p99_ms", "ms", PercentileMs(r.invoke_lat, 0.99), true,
       Samples(r.invoke_lat, 0.99)},
      {"invoke_p999_ms", "ms", PercentileMs(r.invoke_lat, 0.999), true,
       Samples(r.invoke_lat, 0.999)},
      {"msgs_per_op", "count", static_cast<double>(r.msgs) / ops, true, ""},
      {"bytes_per_op", "B", static_cast<double>(r.bytes) / ops, true, ""},
      {"failed_ratio", "ratio", static_cast<double>(r.failed) / ops, true, ""},
      {"sim.tasks_per_op", "count", static_cast<double>(r.tasks) / ops, true,
       ""},
  };
  if (!r.move_lat.empty()) {
    m.push_back({"move_p50_ms", "ms", PercentileMs(r.move_lat, 0.5), true,
                 Samples(r.move_lat, 0.5)});
    m.push_back({"move_p99_ms", "ms", PercentileMs(r.move_lat, 0.99), true,
                 Samples(r.move_lat, 0.99)});
  }
  if (spec.victim >= 0)
    m.push_back({"unavailable_ms", "ms",
                 static_cast<double>(r.unavailable) / 1e6, true, ""});
  return m;
}

/// Describes the first difference between two deterministic metric sets.
std::string Diff(const std::vector<Metric>& a, const std::vector<Metric>& b) {
  if (a.size() != b.size()) return "metric sets differ";
  for (std::size_t i = 0; i < a.size(); ++i)
    if (a[i].name != b[i].name || a[i].value != b[i].value)
      return a[i].name + " " + Num(a[i].value) + " vs " + Num(b[i].value);
  return "";
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

void PrintJson(std::ostream& os, const std::vector<Metric>& metrics,
               bool with_flags) {
  os << "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    os << (i ? ", " : "") << "\"" << m.name
       << "\": {\"value\": " << Num(m.value) << ", \"unit\": \"" << m.unit
       << "\"";
    if (with_flags) os << ", \"exact\": " << (m.exact ? "true" : "false");
    os << "}";
  }
  os << "}";
}

int Main(const Args& args) {
  const Spec* found = FindSpec(args.workload);
  if (found == nullptr) {
    std::cerr << "unknown workload " << args.workload << "\n";
    return 2;
  }
  const Spec spec = args.smoke ? Smoke(*found) : *found;
  const std::vector<Op> ops = Generate(spec, args.seed);
  std::cout << "workload " << spec.name << ": " << ops.size()
            << " ops per round, " << spec.ops_per_vsec << " ops per virtual s, "
            << spec.cores << " Cores, localities " << spec.localities << "\n  ("
            << spec.why << ")\n";

  SpanLog spans(200000);  // ~13 MB of spans at most; the rest are counted
  std::vector<std::string> errors;
  auto check = [&](const RoundResult& r, const std::string& what) {
    for (const std::string& e : r.errors) errors.push_back(what + ": " + e);
  };

  // The locality engine must reproduce the sim's observables on the same
  // op stream; the sim reference runs outside every timed region.
  std::vector<Metric> reference;
  if (spec.localities > 0) {
    Spec sim_spec = spec;
    sim_spec.localities = 0;
    RoundOptions o;
    o.seed = args.seed;
    o.spans = &spans;
    const RoundResult ref = RunRound(sim_spec, ops, o);
    check(ref, "sim reference");
    reference = Deterministic(spec, ref);
  }

  std::vector<RoundResult> plain, traced;
  const int min_rounds = args.smoke ? 2 : (args.trace ? 4 : 3);
  const Clock::time_point start = Clock::now();
  std::uint64_t attempted = 0, failed = 0;
  double rss_mb = 0;
  for (int i = 0; i < 200; ++i) {
    if (i >= min_rounds && (args.smoke || SecondsSince(start) >= args.seconds))
      break;
    RoundOptions o;
    o.seed = args.seed;
    o.index = i;
    o.traced = args.trace && i % 2 == 1;
    o.spans = &spans;
    if (o.traced && traced.empty() && !args.out_dir.empty())
      o.program_trace_path =
          args.out_dir + "/" + spec.name + ".program-trace.json";
    RoundResult r = RunRound(spec, ops, o);
    if (i + 1 == min_rounds) rss_mb = PeakRssMb();
    check(r, "round " + std::to_string(i));
    attempted += r.attempted;
    failed += r.failed;
    (o.traced ? traced : plain).push_back(std::move(r));
  }

  // setup_s is a median of at least kSetupSamples set-ups: rounds that
  // take seconds (invoke_parallel) are topped up with set-up-only runs.
  std::vector<RoundResult> setups(
      plain.size() > 1 ? plain.begin() + 1 : plain.begin(), plain.end());
  while (!args.trace && !args.smoke && setups.size() < kSetupSamples) {
    RoundOptions o;
    o.seed = args.seed;
    setups.push_back(RunSetupOnly(spec, ops, o));
  }

  // Tracing adds a trace tail to invocation requests, which changes wire
  // sizes and so latencies: traced rounds agree among themselves only.
  const std::vector<Metric> exact = Deterministic(spec, plain.front());
  for (const auto* set : {&plain, &traced})
    for (const RoundResult& r : *set) {
      const std::string d =
          Diff(Deterministic(spec, set->front()), Deterministic(spec, r));
      if (!d.empty()) errors.push_back("rounds disagree: " + d);
    }
  if (!reference.empty()) {
    const std::string d = Diff(reference, exact);
    if (!d.empty())
      errors.push_back("locality engine differs from the sim: " + d);
  }

  // Host-time medians skip the first round when there are others: it runs
  // with cold caches and a fresh allocator, which no later round sees.
  auto median_of = [](const std::vector<RoundResult>& rs, auto field) {
    std::vector<double> v;
    for (std::size_t i = rs.size() > 1 ? 1 : 0; i < rs.size(); ++i)
      v.push_back(field(rs[i]));
    return Median(v);
  };
  auto raw_ops_per_s = [](const RoundResult& r) {
    return static_cast<double>(r.ok) / r.wall_s;
  };
  // Host time scaled to the reference host speed: the probe samples the
  // host at the moments the round ran, so host phases cancel out.
  const double ref_rate =
      spec.localities > 0 ? kReferenceBarrierRate : kReferencePumpRate;
  auto ops_per_s = [ref_rate](const RoundResult& r) {
    return static_cast<double>(r.ok) / r.wall_s * ref_rate / r.probe_rate;
  };
  auto setup_s = [ref_rate](const RoundResult& r) {
    return r.setup_s * r.setup_probe_rate / ref_rate;
  };
  const std::string rounds_note =
      "median of " +
      std::to_string(std::max<std::size_t>(plain.size(), 2) - 1) + " rounds";

  std::vector<Metric> report;
  report.push_back({"ops_per_s", "ops/s", median_of(plain, ops_per_s), false,
                    rounds_note + ", at reference host speed"});
  report.push_back({"ops_per_s_raw", "ops/s", median_of(plain, raw_ops_per_s),
                    false, rounds_note + ", this host as it ran"});
  for (const Metric& m : exact)
    if (m.name != "sim.tasks_per_op") report.push_back(m);
  std::vector<double> setup_norm, setup_raw;
  for (const RoundResult& r : setups) {
    setup_norm.push_back(setup_s(r));
    setup_raw.push_back(r.setup_s);
  }
  const std::string setups_note =
      "median of " + std::to_string(setups.size()) + " set-ups";
  report.push_back({"setup_s", "s", Median(setup_norm), false,
                    setups_note + ", at reference host speed"});
  report.push_back({"setup_s_raw", "s", Median(setup_raw), false,
                    setups_note + ", this host as it ran"});
  report.push_back({"peak_rss_mb", "MiB", rss_mb, false,
                    "getrusage max RSS after " + std::to_string(min_rounds) +
                        " rounds"});
  auto probe_rate = [](const RoundResult& r) { return r.probe_rate; };
  report.push_back({"host_probe_rate", "1/s", median_of(plain, probe_rate),
                    false, spec.localities > 0 ? "barrier probe rounds/s"
                                               : "pump probe events/s"});

  std::vector<Metric> layers;
  if (args.trace) {
    std::map<std::string, std::vector<double>> values;
    for (const RoundResult& r : traced)
      for (const auto& [name, v] : r.layers) values[name].push_back(v);
    for (const LayerDef& def : kLayers) {
      if (std::string(def.name) == "monitor.trace_overhead") {
        layers.push_back(
            {def.name, def.unit,
             median_of(plain, ops_per_s) / median_of(traced, ops_per_s), false,
             ""});
        continue;
      }
      auto it = values.find(def.name);
      if (it == values.end()) {
        errors.push_back(std::string("per-layer metric not measured: ") +
                         def.name);
        continue;
      }
      layers.push_back({def.name, def.unit, Median(it->second), def.exact, ""});
    }
  }

  for (const Metric& m : args.trace ? layers : report)
    std::cout << "  " << m.name << " = " << Num(m.value) << " " << m.unit
              << (m.note.empty() ? "" : "  (" + m.note + ")") << "\n";
  std::cout << "rounds: " << plain.size() << " untraced, " << traced.size()
            << " traced; " << Num(SecondsSince(start)) << " s\n";
  if (args.trace && !args.out_dir.empty()) {
    const std::string path =
        args.out_dir + "/" + spec.name + ".bench-trace.json";
    std::ofstream os(path);
    spans.WriteChrome(os);
    std::cout << "spans: " << spans.recorded() << " recorded, " << spans.kept()
              << " written to " << path << "\n";
  }
  std::cout << "report ";
  PrintJson(std::cout, args.trace ? layers : report, true);
  std::cout << "\n";

  for (const std::string& e : errors) std::cout << "CHECK FAILED " << e << "\n";
  std::vector<Metric> out;
  if (errors.empty()) {
    if (args.trace) {
      out = layers;
    } else {
      for (const char* name : kEndToEnd)
        for (const Metric& m : report)
          if (m.name == name) out.push_back(m);
    }
  }
  std::cout << "{\"correct\": " << (errors.empty() ? "true" : "false")
            << ", \"attempted\": " << attempted << ", \"failed\": " << failed
            << ", \"metrics\": ";
  PrintJson(std::cout, out, false);
  std::cout << "}" << std::endl;
  return errors.empty() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::Main(perfbench::Parse(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 2;
  }
}
