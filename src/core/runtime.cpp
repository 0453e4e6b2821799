#include "src/core/runtime.h"

#include <cstdlib>
#include <fstream>

#include "src/core/core.h"
#include "src/core/relocator.h"
#include "src/monitor/trace.h"
#include "src/serial/bytes.h"
#include "src/sim/parallel_sched.h"

namespace fargo::core {

namespace {
/// Engine selection (RuntimeOptions::localities). -1 defers to the
/// FARGO_PARALLEL environment variable; 0 (or unset/garbage env) is the
/// deterministic sim; N ≥ 1 spins up the locality engine.
std::unique_ptr<sim::Scheduler> MakeScheduler(int localities) {
  if (localities < 0) {
    localities = 0;
    if (const char* env = std::getenv("FARGO_PARALLEL"))
      localities = std::atoi(env);
    if (localities < 0) localities = 0;
  }
  if (localities == 0) return std::make_unique<sim::SimScheduler>();
  return std::make_unique<sim::ParallelScheduler>(localities);
}
}  // namespace

Runtime::Runtime() : Runtime(RuntimeOptions{}) {}

Runtime::Runtime(const RuntimeOptions& options)
    : scheduler_(MakeScheduler(options.localities)), network_(*scheduler_) {
  RegisterBuiltinRelocators();
  // Scheduled chaos crashes (FaultPlan::crashes) take down the whole Core,
  // not just its network registration.
  network_.SetCrashHandler([this](CoreId id) {
    if (Core* core = Find(id)) core->Crash();
  });
  // Scheduled crash+restart cycles (CoreCrash::restart_after) bring the
  // Core back up; durable Cores then recover from their WAL.
  network_.SetRestartHandler([this](CoreId id) {
    if (Core* core = Find(id)) core->Restart();
  });
  // Count every network drop, whatever its reason, in the registry. The
  // Network stays monitor-agnostic: it just calls the hook.
  network_.SetDropHook(
      [&drops = metrics_.counter("net.drops")](const net::Message&,
                                               net::DropReason) {
        drops.Inc();
      });
  // Chaos duplication is the one place the fabric copies a payload instead
  // of moving it; charge those bytes to the copy-elimination gate metric.
  network_.SetCopyHook(
      [&copied = metrics_.counter("net.bytes_copied")](std::size_t n) {
        copied.Inc(n);
      });
  // Baseline the process-global serial stats at construction, so each
  // Runtime's registry reports only its own lifetime.
  const serial::BufferStats at_boot = serial::GetBufferStats();
  synced_allocations_ = at_boot.allocations;
  synced_regrow_bytes_ = at_boot.bytes_copied;
  // Every cross-locality task is a network delivery, due at least the
  // minimum inter-Core link latency after its sender's clock: that is the
  // locality engine's lookahead window.
  if (auto* p = dynamic_cast<sim::ParallelScheduler*>(scheduler_.get()))
    p->SetLookahead([&net = network_] { return net.min_latency(); });
}

Runtime::~Runtime() {
  // Pending events may hold complet references (periodic tasks, parked
  // notifications); destroy them while the Cores they point into are
  // still alive.
  scheduler_->Clear();
  // Same hazard one layer down: a hosted complet may itself hold references
  // bound to a sibling Core (common after movement, where the final host
  // depends on the run). Cores are destroyed in creation order, so release
  // every repository while all Cores are still alive.
  for (auto& core : cores_) core->repository().Clear();
}

void Runtime::EnableDirectory(std::vector<CoreId> owners,
                              std::uint32_t vnodes) {
  if (owners.empty()) throw FargoError("EnableDirectory: empty owner set");
  if (vnodes == 0) throw FargoError("EnableDirectory: vnodes must be > 0");
  shard_map_ = MakeShardMap(shard_map_.version + 1, std::move(owners), vnodes);
}

Core& Runtime::CreateCore(std::string name) {
  const CoreId id{++next_core_id_};
  // Anything the Core schedules at boot belongs on its home locality.
  sim::Scheduler::AffinityScope aff(id.value);
  cores_.push_back(std::make_unique<Core>(*this, id, std::move(name)));
  return *cores_.back();
}

Core* Runtime::Find(CoreId id) const {
  for (const auto& core : cores_)
    if (core->id() == id) return core.get();
  return nullptr;
}

Core* Runtime::FindByName(std::string_view name) const {
  for (const auto& core : cores_)
    if (core->name() == name) return core.get();
  return nullptr;
}

std::vector<Core*> Runtime::Cores() const {
  std::vector<Core*> out;
  out.reserve(cores_.size());
  for (const auto& core : cores_) out.push_back(core.get());
  return out;
}

void Runtime::SetTracing(bool on) {
  tracing_ = on;
  for (const auto& core : cores_) core->SetTracing(on);
}

std::size_t Runtime::WriteTrace(std::ostream& os) const {
  std::vector<std::vector<monitor::Span>> spans;
  std::vector<std::pair<CoreId, std::string>> names;
  spans.reserve(cores_.size());
  names.reserve(cores_.size());
  for (const auto& core : cores_) {
    spans.push_back(core->tracer().buffer().Snapshot());
    names.emplace_back(core->id(), core->name());
  }
  return monitor::WriteChromeTrace(os, spans, names);
}

void Runtime::SyncSerialStats() {
  const serial::BufferStats now = serial::GetBufferStats();
  metrics_.counter("alloc.count").Inc(now.allocations - synced_allocations_);
  metrics_.counter("net.bytes_copied")
      .Inc(now.bytes_copied - synced_regrow_bytes_);
  synced_allocations_ = now.allocations;
  synced_regrow_bytes_ = now.bytes_copied;
  // High-water mark of the event queue: cancelled timers leave it at once,
  // so this tracks live work, not dead RPC timeouts.
  auto& peak = metrics_.gauge("sched.queue_peak");
  const auto queue_peak = static_cast<double>(scheduler_->QueuePeak());
  if (queue_peak > peak.value()) peak.Set(queue_peak);
  // Locality-engine telemetry. Only touched in parallel mode so sim-mode
  // metric dumps (and their gated fingerprints) are byte-identical to
  // before the engine existed.
  if (auto* p = dynamic_cast<sim::ParallelScheduler*>(scheduler_.get())) {
    const sim::ParallelScheduler::Telemetry t = p->telemetry();
    metrics_.counter("locality.handoffs").Inc(t.handoffs - synced_handoffs_);
    metrics_.counter("locality.handoff_overflows")
        .Inc(t.overflows - synced_overflows_);
    metrics_.counter("locality.rounds").Inc(t.rounds - synced_rounds_);
    auto& depth = metrics_.gauge("locality.queue_depth");
    if (t.max_queue_depth > depth.value()) depth.Set(t.max_queue_depth);
    synced_handoffs_ = t.handoffs;
    synced_overflows_ = t.overflows;
    synced_rounds_ = t.rounds;
  }
}

std::size_t Runtime::DumpTrace(const std::string& path) const {
  std::ofstream os(path);
  if (!os) throw FargoError("cannot open trace file " + path);
  return WriteTrace(os);
}

}  // namespace fargo::core
