// One round: build a fresh deployment, run the op stream open-loop through
// the sim, check the outputs, and collect what the round measured.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "perfbench/probes.h"
#include "perfbench/workload.h"

namespace perfbench {

struct RoundOptions {
  std::uint64_t seed = 0;  ///< chaos stream seed (durable workloads)
  std::int64_t index = 0;  ///< round number, tags the spans
  bool traced = false;     ///< per-layer probes on
  SpanLog* spans = nullptr;  ///< required when traced
  /// Chrome trace of the program's own spans; empty = not written.
  std::string program_trace_path;
};

struct RoundResult {
  double setup_s = 0;
  double wall_s = 0;  ///< timed region: first op scheduled .. last settled
  double probe_rate = 0;        ///< SpeedProbe events/s between windows
  double setup_probe_rate = 0;  ///< SpeedProbe events/s around set-up
  std::uint64_t attempted = 0;
  std::uint64_t ok = 0;
  std::uint64_t failed = 0;
  /// Virtual due -> settle latencies, sorted. A failed op counts as
  /// missing every percentile: it sits at the end with the drain deadline.
  std::vector<SimTime> invoke_lat;
  std::vector<SimTime> move_lat;
  std::uint64_t msgs = 0;
  std::uint64_t bytes = 0;
  std::uint64_t tasks = 0;
  SimTime unavailable = 0;  ///< crash -> first success on a victim complet
  std::vector<std::string> errors;  ///< failed output checks
  std::map<std::string, double> layers;  ///< traced rounds only
};

RoundResult RunRound(const Spec& spec, const std::vector<Op>& ops,
                     const RoundOptions& options);

/// Builds the round's deployment and tears it down again, running no ops:
/// extra set-up samples for workloads whose rounds are few. Fills setup_s
/// and setup_probe_rate only.
RoundResult RunSetupOnly(const Spec& spec, const std::vector<Op>& ops,
                         const RoundOptions& options);

}  // namespace perfbench
