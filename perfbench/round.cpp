#include "perfbench/round.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <memory>
#include <stdexcept>
#include <string>
#include <unordered_map>

#include "perfbench/comlets.h"
#include "src/core/core.h"
#include "src/core/runtime.h"
#include "src/monitor/trace.h"
#include "src/net/formation.h"
#include "src/serial/bytes.h"
#include "src/serial/frame.h"
#include "src/serial/graph.h"
#include "src/serial/value_codec.h"

namespace perfbench {

namespace {

using fargo::ComletId;
using fargo::CoreId;
using fargo::Millis;
using fargo::Seconds;
using fargo::Value;
namespace core = fargo::core;
namespace monitor = fargo::monitor;
namespace net = fargo::net;
namespace serial = fargo::serial;
namespace sim = fargo::sim;

/// Virtual width of one generator window: ops due inside it are scheduled,
/// then the sim is pumped to its end.
constexpr SimTime kWindow = Millis(5);
/// How long after the last due op every op must have settled.
constexpr SimTime kDrainLimit = Seconds(120);
/// Program spans younger than this many ring slots may still be open, so
/// harvesting between windows leaves them for a later pass.
constexpr std::uint64_t kHarvestLag = 1024;

const char* const kCounters[] = {
    "invoke.count",    "invoke.exec",      "rpc.retries",
    "rpc.late_replies", "session.replays", "session.suppressed",
    "formation.frames", "formation.batched_items", "net.drops",
    "net.bytes_copied", "alloc.count",     "dir.hint.hit",
    "dir.hint.miss",   "dir.hint.stale",   "dir.lookups",
    "wal.records",     "wal.bytes",        "wal.fsyncs",
    "locality.rounds", "locality.handoffs",
};
const char* const kHistograms[] = {
    "invoke.hops", "tracker.chain_len", "move.bytes", "move.duration_ns",
    "recovery.duration_ns",
};

/// Message groups of the per-kind tap, in report order.
const char* const kGroups[] = {"invoke",   "move",     "tracker",
                               "directory", "recovery", "control"};
constexpr std::size_t kGroupCount = std::size(kGroups);

std::size_t GroupOf(net::MessageKind kind) {
  switch (kind) {
    case net::MessageKind::kInvokeRequest:
    case net::MessageKind::kInvokeReply:
      return 0;
    case net::MessageKind::kMoveRequest:
    case net::MessageKind::kMoveReply:
      return 1;
    case net::MessageKind::kTrackerUpdate:
      return 2;
    case net::MessageKind::kDirectoryPublish:
    case net::MessageKind::kDirectoryLookup:
    case net::MessageKind::kDirectoryReply:
    case net::MessageKind::kDirectoryMap:
      return 3;
    case net::MessageKind::kRecoveryQuery:
    case net::MessageKind::kRecoveryReply:
      return 4;
    default:
      return 5;
  }
}

struct Snapshot {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, monitor::Histogram::Snapshot> hists;
  std::uint64_t msgs = 0;
  std::uint64_t bytes = 0;
  std::uint64_t tasks = 0;
};

Snapshot Take(core::Runtime& rt) {
  rt.SyncSerialStats();
  Snapshot s;
  for (const char* c : kCounters) s.counters[c] = rt.metrics().CounterValue(c);
  for (const char* h : kHistograms)
    s.hists[h] = rt.metrics().HistogramSnapshot(h);
  s.msgs = rt.network().total_messages();
  s.bytes = rt.network().total_bytes();
  s.tasks = rt.scheduler().executed();
  return s;
}

/// Histogram activity between two snapshots of the same instrument.
monitor::Histogram::Snapshot Delta(const monitor::Histogram::Snapshot& a,
                                   const monitor::Histogram::Snapshot& b) {
  monitor::Histogram::Snapshot d = b;
  if (a.counts.size() == b.counts.size())
    for (std::size_t i = 0; i < d.counts.size(); ++i)
      d.counts[i] -= a.counts[i];
  d.count -= a.count;
  d.sum -= a.sum;
  return d;
}

double Mean(const monitor::Histogram::Snapshot& s) {
  return s.count == 0 ? 0.0 : s.sum / static_cast<double>(s.count);
}

/// Upper bucket bound holding quantile `q` (the registry's convention).
double Quantile(const monitor::Histogram::Snapshot& s, double q) {
  if (s.count == 0 || s.bounds.empty()) return 0.0;
  const double rank = q * static_cast<double>(s.count);
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < s.counts.size(); ++i) {
    cumulative += s.counts[i];
    if (static_cast<double>(cumulative) >= rank)
      return i < s.bounds.size() ? s.bounds[i] : s.bounds.back();
  }
  return s.bounds.back();
}

double Ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

std::vector<Value> ArgsOf(const Op& op) {
  std::vector<Value> args;
  if (op.kind == OpKind::kWrite) args.emplace_back(op.amount);
  args.emplace_back(std::vector<std::uint8_t>(op.pad, 0x2a));
  return args;
}

class Round {
 public:
  Round(const Spec& spec, const std::vector<Op>& ops, const RoundOptions& opt)
      : spec_(spec), ops_(ops), opt_(opt), out_(ops.size()) {
    if (spec.localities > 0)
      probe_ = std::make_unique<BarrierProbe>(spec.localities);
    else
      probe_ = std::make_unique<PumpProbe>();
  }

  ~Round() {
    // Before out_ and the counters die: teardown may still touch closures
    // that refer to them.
    stubs_.clear();
    owners_.clear();
    rt_.reset();
  }
  Round(const Round&) = delete;
  Round& operator=(const Round&) = delete;

  RoundResult Run();
  /// Probed, timed Deploy(): fills setup_s and setup_probe_rate.
  void SetUp(RoundResult& r);

 private:
  struct Outcome {
    SimTime end = 0;
    bool ok = false;
    bool colocated = true;  ///< mobile + partner share the move's dest
  };

  void Deploy();
  /// Pumps until `done` reaches `want` or the deadline passes.
  bool PumpUntil(const std::atomic<std::size_t>& done, std::size_t want,
                 SimTime deadline);
  /// Pumps until every future settled; false after 60 virtual seconds.
  bool Await(const std::vector<sim::Future<Value>>& futures);
  void Issue(std::size_t i);
  void Settle(std::size_t i, bool ok);
  void TimedRegion();
  void Pump(SimTime until, bool drain);
  void CountKind(const net::Message& m);
  void Harvest(bool final);
  void Verify(RoundResult& r);
  void Collect(const Snapshot& before, const Snapshot& after, RoundResult& r);
  void SerialProbes(RoundResult& r);
  void Span(const char* name, std::uint64_t id, std::uint64_t parent,
            std::int64_t op, Clock::time_point start) {
    opt_.spans->Record({name, id, parent, op, opt_.index, start, Clock::now()});
  }

  /// Host time and heap allocations of the calls into the core layer that
  /// issue ops. Updated from locality workers.
  struct IssueStats {
    std::atomic<std::uint64_t> ns{0};
    std::atomic<std::uint64_t> allocs{0};
    std::atomic<std::uint64_t> calls{0};
    double Per(const std::atomic<std::uint64_t>& v) const {
      return Ratio(static_cast<double>(v.load()),
                   static_cast<double>(calls.load()));
    }
  };
  /// Runs `call`; in traced rounds also times it into `stats` and a span.
  template <class F>
  auto Timed(IssueStats& stats, const char* name, std::size_t op, F call) {
    if (!opt_.traced) return call();
    const std::uint64_t allocs = heap::ThisThread().allocs;
    const Clock::time_point start = Clock::now();
    auto result = call();
    stats.ns.fetch_add(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             start)
            .count()));
    stats.allocs.fetch_add(heap::ThisThread().allocs - allocs);
    stats.calls.fetch_add(1);
    Span(name, opt_.spans->NewId(), pump_span_.load(),
         static_cast<std::int64_t>(op), start);
    return result;
  }

  const Spec& spec_;
  const std::vector<Op>& ops_;
  const RoundOptions& opt_;

  std::unique_ptr<core::Runtime> rt_;
  // Destroyed before rt_: stubs unregister from their Cores.
  std::vector<core::ComletRefBase> owners_;
  std::vector<std::vector<core::ComletRefBase>> stubs_;  // [core][complet]
  std::vector<core::Core*> cores_;
  std::vector<ComletId> ids_;
  std::vector<ComletId> partners_;
  std::vector<ComletId> victim_hosted_;

  std::vector<Outcome> out_;
  std::atomic<std::size_t> settled_{0};
  std::unique_ptr<HostProbe> probe_;
  SimTime t0_ = 0;  ///< virtual instant of op offset 0

  // Traced rounds only. Issue spans run on locality workers.
  std::uint64_t round_span_ = 0;
  std::uint64_t bench_spans_at_start_ = 0;
  std::atomic<std::uint64_t> pump_span_{0};
  IssueStats invoke_issue_;
  IssueStats move_issue_;
  double pump_ns_ = 0;
  std::array<double, kGroupCount> kind_msgs_{};  // written under the tap lock
  std::vector<std::uint64_t> harvest_cursor_;
  std::uint64_t spans_evicted_ = 0;
  std::uint64_t spans_open_ = 0;
  std::uint64_t spans_harvested_ = 0;
  double exec_ns_sum_ = 0;
  std::uint64_t exec_n_ = 0;
  std::unordered_map<std::uint64_t, SimTime> root_dur_;
  std::unordered_map<std::uint64_t, SimTime> exec_dur_;
};

void Round::Deploy() {
  rt_ = std::make_unique<core::Runtime>(core::RuntimeOptions{spec_.localities});
  RegisterComlets();
  for (int c = 0; c < spec_.cores; ++c) {
    std::string name = "c";  // not "c" + ...: GCC 12 -Wrestrict false positive
    name += std::to_string(c);
    cores_.push_back(&rt_->CreateCore(std::move(name)));
  }
  rt_->network().SetDefaultLink(spec_.link);
  const std::vector<SimTime> latency = LinkLatencies(spec_, opt_.seed);
  for (std::size_t a = 0; a < cores_.size(); ++a)
    for (std::size_t b = a + 1; b < cores_.size(); ++b) {
      fargo::net::LinkModel link = spec_.link;
      link.latency = latency[a * cores_.size() + b];
      rt_->network().SetLink(cores_[a]->id(), cores_[b]->id(), link);
    }
  if (spec_.directory) {
    std::vector<CoreId> owners;
    for (core::Core* c : cores_) owners.push_back(c->id());
    rt_->EnableDirectory(owners);
  }
  if (spec_.durable) {
    // Retries must outlast the crash: 5 attempts span ~800 ms of virtual
    // time, the outage 300 ms plus recovery.
    core::RetryPolicy retry;
    retry.max_attempts = 5;
    retry.initial_backoff = Millis(20);
    for (core::Core* c : cores_) {
      c->EnableWal();
      c->SetRpcTimeout(Millis(100));
      c->SetRetryPolicy(retry);
    }
  }

  std::vector<fargo::ComletHandle> handles;
  std::vector<sim::Future<Value>> calls;
  for (int i = 0; i < spec_.complets; ++i) {
    core::Core& host = *cores_[HomeCore(spec_, static_cast<std::uint32_t>(i))];
    if (spec_.mobile) {
      core::ComletRef<Mobile> m = host.New<Mobile>();
      core::ComletRef<Partner> p = host.New<Partner>();
      calls.push_back(m.CallAsync("bind", {Value(p.handle())}));
      partners_.push_back(p.target());
      owners_.push_back(std::move(p));
      handles.push_back(m.handle());
      owners_.push_back(std::move(m));
    } else {
      core::ComletRef<Account> a = host.New<Account>();
      handles.push_back(a.handle());
      owners_.push_back(std::move(a));
    }
    ids_.push_back(handles.back().id);
  }
  // One stub per (Core, complet), each warmed by one call, so tracker
  // set-up is paid here and not by the first timed op.
  stubs_.resize(cores_.size());
  for (std::size_t c = 0; c < cores_.size(); ++c)
    for (const fargo::ComletHandle& h : handles) {
      stubs_[c].push_back(cores_[c]->RefFromHandle(h));
      calls.push_back(stubs_[c].back().CallAsync(
          spec_.mobile ? "touch" : "read",
          {Value(std::vector<std::uint8_t>(8, 0x2a))}));
    }
  // Binds are queued before the warm-up calls, so they execute first.
  if (!Await(calls) ||
      std::any_of(calls.begin(), calls.end(),
                  [](const sim::Future<Value>& f) { return !f.ok(); }))
    throw std::runtime_error("set-up calls failed");
  t0_ = (rt_->Now() / Millis(1) + 1) * Millis(1);
}

bool Round::PumpUntil(const std::atomic<std::size_t>& done, std::size_t want,
                      SimTime deadline) {
  return rt_->scheduler().RunUntilOr(
      [&done, want] { return done.load(std::memory_order_acquire) >= want; },
      deadline);
}

bool Round::Await(const std::vector<sim::Future<Value>>& futures) {
  // Shared: continuations left pending by a timeout must not dangle.
  auto done = std::make_shared<std::atomic<std::size_t>>(0);
  for (const sim::Future<Value>& f : futures)
    f.OnSettle([done](sim::Future<Value>) { done->fetch_add(1); });
  return PumpUntil(*done, futures.size(), rt_->Now() + Seconds(60));
}

void Round::Issue(std::size_t i) {
  const Op& op = ops_[i];
  if (op.kind == OpKind::kMove) {
    Timed(move_issue_, "issue.move", i, [&] {
      return cores_[op.source]->MoveIdAsync(ids_[op.target],
                                            cores_[op.dest]->id());
    }).OnSettle([this, i](sim::Future<sim::Unit> f) { Settle(i, f.ok()); });
    return;
  }
  const char* method = spec_.mobile                 ? "touch"
                       : op.kind == OpKind::kWrite ? "write"
                                                   : "read";
  std::vector<Value> args = ArgsOf(op);
  Timed(invoke_issue_, "issue.invoke", i, [&] {
    return stubs_[op.source][op.target].CallAsync(method, std::move(args));
  }).OnSettle([this, i](sim::Future<Value> f) { Settle(i, f.ok()); });
}

void Round::Settle(std::size_t i, bool ok) {
  Outcome& o = out_[i];
  o.end = rt_->Now();
  o.ok = ok;
  const Op& op = ops_[i];
  if (ok && spec_.mobile && op.kind == OpKind::kMove) {
    // Moves of one mobile are spaced apart, so nothing else moves it
    // between this settle and the check.
    const core::Repository& repo = cores_[op.dest]->repository();
    o.colocated = repo.Get(ids_[op.target]) != nullptr &&
                  repo.Get(partners_[op.target]) != nullptr;
  }
  settled_.fetch_add(1, std::memory_order_release);
}

void Round::CountKind(const net::Message& m) {
  if (m.kind != net::MessageKind::kBatch) {
    kind_msgs_[GroupOf(m.kind)] += 1;
    return;
  }
  // A formation frame counts as one message, shared among its items.
  serial::FrameReader frame(m.payload);
  const double share = 1.0 / static_cast<double>(frame.item_count());
  while (frame.HasNext()) {
    serial::Reader item = frame.Next();
    kind_msgs_[GroupOf(net::ReadBatchItem(item).kind)] += share;
  }
}

void Round::Harvest(bool final) {
  for (std::size_t k = 0; k < cores_.size(); ++k) {
    monitor::TraceBuffer& buf = cores_[k]->tracer().buffer();
    const std::uint64_t last = buf.total_added();
    const std::uint64_t upto =
        final ? last : (last > kHarvestLag ? last - kHarvestLag : 0);
    for (std::uint64_t t = harvest_cursor_[k] + 1; t <= upto; ++t) {
      const monitor::Span* s = buf.Find(t);
      if (s == nullptr) {
        ++spans_evicted_;
        continue;
      }
      if (s->outcome == monitor::SpanOutcome::kPending) {
        ++spans_open_;
        continue;
      }
      ++spans_harvested_;
      if (s->name_view().starts_with("__fargo.")) continue;  // system calls
      const SimTime dur = s->end - s->begin;
      if (s->kind == monitor::SpanKind::kRoot) root_dur_[s->trace_id] = dur;
      if (s->kind == monitor::SpanKind::kExec) {
        exec_dur_[s->trace_id] += dur;
        exec_ns_sum_ += static_cast<double>(dur);
        ++exec_n_;
      }
    }
    harvest_cursor_[k] = std::max(harvest_cursor_[k], upto);
  }
}

void Round::Pump(SimTime until, bool drain) {
  sim::Scheduler& sched = rt_->scheduler();
  Clock::time_point start;
  if (opt_.traced) {
    pump_span_.store(opt_.spans->NewId());
    start = Clock::now();
  }
  if (drain)
    PumpUntil(settled_, ops_.size(), until);
  else
    sched.RunFor(until - sched.Now());
  if (opt_.traced) {
    pump_ns_ += std::chrono::duration<double, std::nano>(Clock::now() - start)
                    .count();
    Span("pump", pump_span_.load(), round_span_, -1, start);
    Harvest(false);
  }
}

void Round::TimedRegion() {
  sim::Scheduler& sched = rt_->scheduler();
  std::size_t next = 0;
  for (SimTime w = 0; next < ops_.size(); w += kWindow) {
    const SimTime w_end = w + kWindow;
    const Clock::time_point start = Clock::now();
    for (; next < ops_.size() && ops_[next].due < w_end; ++next) {
      // The op runs on its issuing Core's locality.
      sim::Scheduler::AffinityScope scope(
          cores_[ops_[next].source]->id().value);
      sched.ScheduleAt(t0_ + ops_[next].due, [this, next] { Issue(next); });
    }
    if (opt_.traced)
      Span("generate", opt_.spans->NewId(), round_span_, -1, start);
    Pump(t0_ + w_end, false);
    if (opt_.traced) heap::SetCounting(false);  // not the program's
    probe_->RunWindowSlice();
    if (opt_.traced) heap::SetCounting(true);
  }
  Pump(t0_ + spec_.duration + kDrainLimit, true);
}

void Round::Collect(const Snapshot& b, const Snapshot& a, RoundResult& r) {
  r.msgs = a.msgs - b.msgs;
  r.bytes = a.bytes - b.bytes;
  r.tasks = a.tasks - b.tasks;
  const SimTime never = t0_ + spec_.duration + kDrainLimit;
  const SimTime crash = t0_ + spec_.crash_at;
  SimTime first_back = -1;
  for (std::size_t i = 0; i < ops_.size(); ++i) {
    const Op& op = ops_[i];
    const Outcome& o = out_[i];
    const SimTime due = t0_ + op.due;
    const SimTime lat = o.ok ? o.end - due : never - due;
    (op.kind == OpKind::kMove ? r.move_lat : r.invoke_lat).push_back(lat);
    ++r.attempted;
    (o.ok ? r.ok : r.failed) += 1;
    if (spec_.victim >= 0 && o.ok && op.kind != OpKind::kMove && due >= crash &&
        std::find(victim_hosted_.begin(), victim_hosted_.end(),
                  ids_[op.target]) != victim_hosted_.end() &&
        (first_back < 0 || o.end < first_back))
      first_back = o.end;
  }
  std::sort(r.invoke_lat.begin(), r.invoke_lat.end());
  std::sort(r.move_lat.begin(), r.move_lat.end());
  if (spec_.victim >= 0) {
    if (victim_hosted_.empty() || first_back < 0)
      r.errors.push_back("no successful invocation on a crashed-Core complet");
    else
      r.unavailable = first_back - crash;
  }
  auto c = [&](const char* name) {
    return static_cast<double>(a.counters.at(name) - b.counters.at(name));
  };
  // A crash loses the executions whose WAL records were not yet durable;
  // their retries run them again after the restart, and invoke.exec counts
  // both. Only ops in flight to the crashed Core's complets can do that.
  double lost_to_crash = 0;
  for (std::size_t i = 0; spec_.victim >= 0 && i < ops_.size(); ++i)
    if (t0_ + ops_[i].due < crash && out_[i].end > crash &&
        std::find(victim_hosted_.begin(), victim_hosted_.end(),
                  ids_[ops_[i].target]) != victim_hosted_.end())
      lost_to_crash += 1;
  if (c("invoke.exec") > c("invoke.count") + lost_to_crash)
    r.errors.push_back(
        "more executions than invocations: " +
        std::to_string(static_cast<std::uint64_t>(c("invoke.exec"))) + " > " +
        std::to_string(static_cast<std::uint64_t>(c("invoke.count"))) +
        " + " + std::to_string(static_cast<std::uint64_t>(lost_to_crash)) +
        " in flight at the crash");
  if (!opt_.traced) return;

  auto h = [&](const char* name) {
    return Delta(b.hists.at(name), a.hists.at(name));
  };
  const double ops = static_cast<double>(ops_.size());
  auto& L = r.layers;
  L["core.invoke.issue_ns"] = invoke_issue_.Per(invoke_issue_.ns);
  L["core.invoke.issue_allocs"] = invoke_issue_.Per(invoke_issue_.allocs);
  L["core.invoke.hops_mean"] = Mean(h("invoke.hops"));
  L["core.tracker.chain_len_p99"] = Quantile(h("tracker.chain_len"), 0.99);
  L["core.dir.hint_hit_ratio"] =
      Ratio(c("dir.hint.hit"),
            c("dir.hint.hit") + c("dir.hint.miss") + c("dir.hint.stale"));
  L["core.dir.lookups_per_op"] = c("dir.lookups") / ops;
  L["core.move.issue_ns"] = move_issue_.Per(move_issue_.ns);
  L["core.move.bytes_per_move"] = Mean(h("move.bytes"));
  L["core.move.duration_ms_mean"] = Mean(h("move.duration_ns")) / 1e6;
  L["core.invoke.exec_per_call"] = Ratio(c("invoke.exec"), c("invoke.count"));
  L["core.rpc.retries_per_op"] = c("rpc.retries") / ops;
  L["core.rpc.late_replies_per_op"] = c("rpc.late_replies") / ops;
  L["core.wal.records_per_op"] = c("wal.records") / ops;
  L["core.wal.bytes_per_op"] = c("wal.bytes") / ops;
  L["core.wal.fsyncs_per_op"] = c("wal.fsyncs") / ops;
  L["core.recovery.duration_ms"] = Mean(h("recovery.duration_ns")) / 1e6;
  for (std::size_t g = 0; g < kGroupCount; ++g)
    L[std::string("net.msgs_per_op.") + kGroups[g]] = kind_msgs_[g] / ops;
  L["net.batch_items_per_frame"] =
      Ratio(c("formation.batched_items"), c("formation.frames"));
  L["net.drops_per_op"] = c("net.drops") / ops;
  L["net.session.replays_per_op"] = c("session.replays") / ops;
  L["net.session.suppressed_per_op"] = c("session.suppressed") / ops;
  L["net.bytes_copied_per_op"] = c("net.bytes_copied") / ops;
  L["serial.allocs_per_op"] = c("alloc.count") / ops;
  L["sim.tasks_per_op"] = static_cast<double>(r.tasks) / ops;
  L["sim.pump_ns_per_op"] = pump_ns_ / ops;
  L["sim.locality.rounds_per_op"] = c("locality.rounds") / ops;
  L["sim.locality.handoffs_per_op"] = c("locality.handoffs") / ops;
  L["sim.locality.max_queue_depth"] =
      rt_->metrics().GaugeValue("locality.queue_depth");
  double transit = 0;
  std::uint64_t matched = 0;
  for (const auto& [trace, root] : root_dur_) {
    auto it = exec_dur_.find(trace);
    if (it == exec_dur_.end()) continue;
    transit += static_cast<double>(root - it->second);
    ++matched;
  }
  L["monitor.trace.exec_ms_mean"] =
      Ratio(exec_ns_sum_, static_cast<double>(exec_n_)) / 1e6;
  L["monitor.trace.transit_ms_mean"] =
      Ratio(transit, static_cast<double>(matched)) / 1e6;
  L["monitor.trace.evicted_spans"] = static_cast<double>(spans_evicted_);
  L["monitor.trace.open_spans"] = static_cast<double>(spans_open_);
  // The program's spans of the timed region plus the benchmark's own.
  L["monitor.spans_per_op"] =
      static_cast<double>(spans_harvested_ + spans_evicted_ + spans_open_ +
                          opt_.spans->recorded() - bench_spans_at_start_) /
      ops;
}

void Round::Verify(RoundResult& r) {
  if (settled_.load() != ops_.size())
    r.errors.push_back(std::to_string(ops_.size() - settled_.load()) +
                       " ops never settled");
  if (!spec_.durable && r.failed != 0)
    r.errors.push_back(std::to_string(r.failed) +
                       " ops failed on a fault-free workload");

  // What each complet should have seen: issued bounds above, acknowledged
  // bounds below (equal when nothing failed).
  struct Expect {
    std::int64_t sum_issued = 0, sum_acked = 0;
    std::int64_t reads_issued = 0, reads_acked = 0;
    std::int64_t writes_issued = 0, writes_acked = 0;
  };
  std::vector<Expect> expect(ids_.size());
  for (std::size_t i = 0; i < ops_.size(); ++i) {
    const Op& op = ops_[i];
    const bool ok = out_[i].ok;
    Expect& e = expect[op.target];
    if (op.kind == OpKind::kMove) {
      if (ok && !out_[i].colocated)
        r.errors.push_back("partner not co-located after move of op " +
                           std::to_string(i));
    } else if (op.kind == OpKind::kWrite) {
      e.sum_issued += op.amount;
      e.writes_issued += 1;
      if (ok) e.sum_acked += op.amount, e.writes_acked += 1;
    } else {
      e.reads_issued += 1;
      if (ok) e.reads_acked += 1;
    }
  }

  rt_->network().ClearFaults();
  std::vector<sim::Future<Value>> states;
  for (std::size_t i = 0; i < ids_.size(); ++i)
    states.push_back(stubs_[0][i].CallAsync("state"));
  Await(states);
  const auto warm = static_cast<std::int64_t>(cores_.size());
  auto within = [](std::int64_t v, std::int64_t lo, std::int64_t hi) {
    return lo <= v && v <= hi;
  };
  for (std::size_t i = 0; i < ids_.size(); ++i) {
    const std::string who = "complet " + std::to_string(i);
    if (!states[i].ok()) {
      r.errors.push_back(who + ": final state unreadable");
      continue;
    }
    const Expect& e = expect[i];
    const Value v = states[i].value();
    if (spec_.mobile) {
      if (!within(v.AsInt(), warm + e.reads_acked, warm + e.reads_issued))
        r.errors.push_back(who + ": touch count off");
    } else {
      const Value::List& s = v.AsList();
      if (!within(s[0].AsInt(), e.sum_acked, e.sum_issued) ||
          !within(s[1].AsInt(), warm + e.reads_acked, warm + e.reads_issued) ||
          !within(s[2].AsInt(), e.writes_acked, e.writes_issued))
        r.errors.push_back(
            who + ": state [" + std::to_string(s[0].AsInt()) + ", " +
            std::to_string(s[1].AsInt()) + ", " + std::to_string(s[2].AsInt()) +
            "], expected [" + std::to_string(e.sum_issued) + ", " +
            std::to_string(warm + e.reads_issued) + ", " +
            std::to_string(e.writes_issued) + "]");
    }
    // One live copy, and a mobile's partner lives beside it.
    int copies = 0;
    for (core::Core* c : cores_) {
      if (!c->repository().Get(ids_[i])) continue;
      ++copies;
      if (spec_.mobile && !c->repository().Get(partners_[i]))
        r.errors.push_back(who + ": partner not co-located at the end");
    }
    if (copies != 1)
      r.errors.push_back(who + ": " + std::to_string(copies) + " live copies");
  }
}

void Round::SerialProbes(RoundResult& r) {
  // Value-codec round trip of the workload's own argument vectors.
  std::vector<std::vector<Value>> args;
  std::size_t values = 0;
  for (const Op& op : ops_) {
    if (op.kind == OpKind::kMove) continue;
    args.push_back(ArgsOf(op));
    values += args.back().size();
    if (args.size() == 4096) break;
  }
  Clock::time_point start = Clock::now();
  std::size_t decoded = 0;
  for (const auto& a : args) {
    serial::Writer w;
    serial::WriteValues(w, a);
    const std::vector<std::uint8_t> bytes = w.Take();
    serial::Reader in(bytes);
    decoded += serial::ReadValues(in).size();
  }
  r.layers["serial.args_roundtrip_ns"] =
      std::chrono::duration<double, std::nano>(Clock::now() - start).count() /
      static_cast<double>(args.size());
  Span("probe.args_roundtrip", opt_.spans->NewId(), round_span_, -1, start);
  if (decoded != values) r.errors.push_back("argument round trip lost values");

  // GraphWriter/GraphReader round trip of the closure a move marshals.
  // References are cut with a placeholder, as the movement unit's hook
  // replaces them with handles.
  Mobile mobile;
  Partner partner;
  Account account;
  auto write_ref = [](serial::GraphWriter& w, const void*) {
    w.WriteVarint(0);
  };
  auto read_ref = [](serial::GraphReader& rd, void*) { rd.ReadVarint(); };
  constexpr int kIters = 256;
  start = Clock::now();
  for (int k = 0; k < kIters; ++k) {
    serial::Writer w;
    serial::GraphWriter gw(w, write_ref);
    if (spec_.mobile) {
      gw.WriteObject(&mobile);
      gw.WriteObject(&partner);
    } else {
      gw.WriteObject(&account);
    }
    const std::vector<std::uint8_t> bytes = w.Take();
    serial::Reader in(bytes);
    serial::GraphReader gr(in, read_ref);
    if (!gr.ReadObject() || (spec_.mobile && !gr.ReadObject()))
      r.errors.push_back("closure round trip lost an object");
  }
  r.layers["serial.closure_roundtrip_ns"] =
      std::chrono::duration<double, std::nano>(Clock::now() - start).count() /
      kIters;
  Span("probe.closure_roundtrip", opt_.spans->NewId(), round_span_, -1, start);
}

void Round::SetUp(RoundResult& r) {
  probe_->RunSetupSlice();
  const Clock::time_point start = Clock::now();
  Deploy();
  r.setup_s = SecondsSince(start);
  probe_->RunSetupSlice();
  r.setup_probe_rate = probe_->events() / probe_->seconds();
}

RoundResult Round::Run() {
  RoundResult r;
  if (opt_.traced) {
    round_span_ = opt_.spans->NewId();
    bench_spans_at_start_ = opt_.spans->recorded();
  }
  const Clock::time_point round_start = Clock::now();
  SetUp(r);
  if (opt_.traced)
    Span("setup", opt_.spans->NewId(), round_span_, -1, round_start);

  if (spec_.durable) {
    net::FaultPlan plan;
    plan.seed = opt_.seed;
    plan.drop = 0.01;
    plan.duplicate = 0.005;
    plan.reorder = 0.01;
    const CoreId victim = cores_[static_cast<std::size_t>(spec_.victim)]->id();
    plan.crashes.push_back({victim, t0_ + spec_.crash_at, spec_.restart_after});
    rt_->network().SetFaultPlan(plan);
    // Which complets the crash takes down, read just before it fires.
    sim::Scheduler::AffinityScope scope(victim.value);
    rt_->scheduler().ScheduleAt(t0_ + spec_.crash_at - 1, [this] {
      victim_hosted_ =
          cores_[static_cast<std::size_t>(spec_.victim)]->ComletsHere();
    });
  }

  const Snapshot before = Take(*rt_);
  if (opt_.traced) {
    harvest_cursor_.assign(cores_.size(), 0);
    for (std::size_t k = 0; k < cores_.size(); ++k)
      harvest_cursor_[k] = cores_[k]->tracer().buffer().total_added();
    rt_->SetTracing(true);
    rt_->network().SetTap([this](const net::Message& m) { CountKind(m); });
    heap::SetCounting(true);
  }
  const heap::Counts heap_before = heap::Total();
  const double probe_events0 = probe_->events();
  const double probe_seconds0 = probe_->seconds();
  const Clock::time_point run_start = Clock::now();
  TimedRegion();
  // The probe slices between windows are not the program's time.
  r.wall_s = SecondsSince(run_start) - (probe_->seconds() - probe_seconds0);
  r.probe_rate =
      (probe_->events() - probe_events0) / (probe_->seconds() - probe_seconds0);
  const heap::Counts heap_after = heap::Total();
  if (opt_.traced) {
    heap::SetCounting(false);
    rt_->network().SetTap(nullptr);
    rt_->SetTracing(false);
    Harvest(true);
    Span("timed", opt_.spans->NewId(), round_span_, -1, run_start);
  }
  const Snapshot after = Take(*rt_);
  Collect(before, after, r);
  if (opt_.traced) {
    const double ops = static_cast<double>(ops_.size());
    r.layers["heap.allocs_per_op"] =
        static_cast<double>(heap_after.allocs - heap_before.allocs) / ops;
    r.layers["heap.bytes_per_op"] =
        static_cast<double>(heap_after.bytes - heap_before.bytes) / ops;
  }

  const Clock::time_point verify_start = Clock::now();
  Verify(r);
  if (opt_.traced) {
    Span("verify", opt_.spans->NewId(), round_span_, -1, verify_start);
    SerialProbes(r);
    if (!opt_.program_trace_path.empty())
      rt_->DumpTrace(opt_.program_trace_path);
    Span("round", round_span_, 0, -1, round_start);
  }
  return r;
}

}  // namespace

RoundResult RunRound(const Spec& spec, const std::vector<Op>& ops,
                     const RoundOptions& options) {
  Round round(spec, ops, options);
  return round.Run();
}

RoundResult RunSetupOnly(const Spec& spec, const std::vector<Op>& ops,
                         const RoundOptions& options) {
  Round round(spec, ops, options);
  RoundResult r;
  round.SetUp(r);
  return r;
}

}  // namespace perfbench
