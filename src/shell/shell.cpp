#include "src/shell/shell.h"

#include <istream>
#include <sstream>

#include "src/core/directory.h"
#include "src/core/meta_ref.h"
#include "src/core/relocator.h"
#include "src/core/wal.h"
#include "src/monitor/profiler.h"

namespace fargo::shell {

namespace {

std::vector<std::string> Split(const std::string& line) {
  std::istringstream is(line);
  std::vector<std::string> words;
  std::string w;
  while (is >> w) words.push_back(w);
  return words;
}

}  // namespace

Shell::Shell(core::Runtime& runtime, core::Core& admin, std::ostream& out)
    : runtime_(runtime),
      admin_(admin),
      out_(out),
      engine_(runtime, admin),
      monitor_(runtime, admin, out) {}

Shell::~Shell() { *alive_ = false; }

core::Core* Shell::ResolveCore(const std::string& token) const {
  if (core::Core* c = runtime_.FindByName(token)) return c;
  std::string t = token;
  if (t.rfind("core:", 0) == 0) t = t.substr(5);
  try {
    return runtime_.Find(CoreId{static_cast<std::uint32_t>(std::stoul(t))});
  } catch (const std::exception&) {
    return nullptr;
  }
}

ComletId Shell::ResolveComlet(const std::string& token) const {
  // Accept "c<origin>.<seq>" or a name bound at any core.
  if (token.size() > 1 && token[0] == 'c' &&
      token.find('.') != std::string::npos) {
    const std::size_t dot = token.find('.');
    try {
      ComletId id;
      id.origin.value =
          static_cast<std::uint32_t>(std::stoul(token.substr(1, dot - 1)));
      id.seq = std::stoull(token.substr(dot + 1));
      if (id.valid()) return id;
    } catch (const std::exception&) {
      // fall through to name lookup
    }
  }
  for (core::Core* c : runtime_.Cores()) {
    if (!c->alive()) continue;
    if (auto h = c->naming().Lookup(token)) return h->id;
  }
  throw FargoError("unknown complet: " + token);
}

core::ComletRefBase Shell::RefToComlet(const std::string& token) {
  const ComletId id = ResolveComlet(token);
  // Find a routing hint: any core hosting or tracking it.
  for (core::Core* c : runtime_.Cores()) {
    if (!c->alive()) continue;
    if (c->repository().Contains(id))
      return admin_.RefFromHandle(ComletHandle{id, c->id(), ""});
  }
  for (core::Core* c : runtime_.Cores()) {
    if (!c->alive()) continue;
    if (const core::TrackerEntry* t = c->trackers().Find(id))
      return admin_.RefFromHandle(
          ComletHandle{id, t->is_local() ? c->id() : t->next, ""});
  }
  throw FargoError("no route to complet " + ToString(id));
}

bool Shell::Execute(const std::string& line) {
  std::vector<std::string> words = Split(line);
  if (words.empty()) return true;
  const std::string cmd = words[0];
  std::vector<std::string> args(words.begin() + 1, words.end());
  try {
    if (cmd == "quit" || cmd == "exit") return false;
    if (cmd == "help") {
      CmdHelp();
    } else if (cmd == "cores") {
      CmdCores();
    } else if (cmd == "ls") {
      CmdLs(args);
    } else if (cmd == "names") {
      CmdNames(args);
    } else if (cmd == "methods") {
      CmdMethods(args);
    } else if (cmd == "move") {
      CmdMove(args);
    } else if (cmd == "amove") {
      CmdAMove(args);
    } else if (cmd == "post") {
      CmdPost(args);
    } else if (cmd == "reftype") {
      CmdRefType(args, /*set=*/false);
    } else if (cmd == "setref") {
      CmdRefType(args, /*set=*/true);
    } else if (cmd == "profile") {
      CmdProfile(args);
    } else if (cmd == "invoke") {
      CmdInvoke(args);
    } else if (cmd == "gc") {
      CmdGc(args);
    } else if (cmd == "dir") {
      CmdDir();
    } else if (cmd == "link") {
      CmdLink(args);
    } else if (cmd == "net") {
      CmdNet();
    } else if (cmd == "chaos") {
      CmdChaos(args);
    } else if (cmd == "crash") {
      CmdCrash(args);
    } else if (cmd == "wal") {
      CmdWal(args);
    } else if (cmd == "recover") {
      CmdRecover(args);
    } else if (cmd == "heartbeat") {
      CmdHeartbeat(args);
    } else if (cmd == "shutdown") {
      CmdShutdown(args);
    } else if (cmd == "trace") {
      CmdTrace(args);
    } else if (cmd == "sessions") {
      CmdSessions(args);
    } else if (cmd == "stats") {
      CmdStats();
    } else if (cmd == "snapshot") {
      out_ << monitor_.RenderSnapshot();
    } else if (cmd == "script") {
      std::string rest;
      for (std::size_t i = 1; i < words.size(); ++i)
        rest += words[i] + " ";
      engine_.Run(rest);
    } else {
      out_ << "unknown command '" << cmd << "' (try 'help')\n";
    }
  } catch (const std::exception& e) {
    out_ << "error: " << e.what() << "\n";
  }
  return true;
}

void Shell::RunInteractive(std::istream& in, bool prompt) {
  std::string line;
  if (prompt) out_ << "fargo> " << std::flush;
  while (std::getline(in, line)) {
    if (!Execute(line)) break;
    if (prompt) out_ << "fargo> " << std::flush;
  }
}

void Shell::CmdHelp() {
  out_ << "commands: help cores ls names methods move amove reftype setref "
          "profile invoke post gc dir link net chaos crash wal recover "
          "heartbeat shutdown trace sessions stats snapshot script quit\n";
}

void Shell::CmdCores() {
  for (core::Core* c : runtime_.Cores()) {
    out_ << ToString(c->id()) << "  " << c->name() << "  "
         << (c->alive() ? "up" : "down") << "  load="
         << c->repository().size() << "  trackers=" << c->trackers().size()
         << "\n";
  }
}

void Shell::CmdLs(const std::vector<std::string>& args) {
  for (core::Core* c : runtime_.Cores()) {
    if (!c->alive()) continue;
    if (!args.empty() && ResolveCore(args[0]) != c) continue;
    for (ComletId id : c->ComletsHere()) {
      auto anchor = c->repository().Get(id);
      const core::TrackerEntry* te = c->trackers().Find(id);
      out_ << ToString(id) << "  " << (anchor ? anchor->TypeName() : "?")
           << "  @" << c->name() << "  epoch="
           << (te != nullptr ? te->hint_epoch : 0) << "\n";
    }
  }
}

void Shell::CmdNames(const std::vector<std::string>& args) {
  for (core::Core* c : runtime_.Cores()) {
    if (!c->alive()) continue;
    if (!args.empty() && ResolveCore(args[0]) != c) continue;
    for (const auto& [name, handle] : c->naming().All())
      out_ << name << " -> " << ToString(handle.id) << "  @" << c->name()
           << "\n";
  }
}

void Shell::CmdMethods(const std::vector<std::string>& args) {
  if (args.empty()) throw FargoError("usage: methods <comlet>");
  core::ComletRefBase ref = RefToComlet(args[0]);
  Value names = ref.Call("__fargo.methods");
  for (const Value& n : names.AsList()) out_ << n.AsString() << "\n";
}

void Shell::CmdMove(const std::vector<std::string>& args) {
  if (args.size() < 2) throw FargoError("usage: move <comlet> <core>");
  core::Core* dest = ResolveCore(args[1]);
  if (dest == nullptr) throw FargoError("unknown core: " + args[1]);
  core::ComletRefBase ref = RefToComlet(args[0]);
  admin_.Move(ref, dest->id());
  out_ << "moved " << ToString(ref.target()) << " to " << dest->name()
       << "\n";
}

void Shell::CmdAMove(const std::vector<std::string>& args) {
  if (args.size() < 2) throw FargoError("usage: amove <comlet> <core>");
  core::Core* dest = ResolveCore(args[1]);
  if (dest == nullptr) throw FargoError("unknown core: " + args[1]);
  core::ComletRefBase ref = RefToComlet(args[0]);
  const ComletId target = ref.target();
  const std::string dest_name = dest->name();
  admin_.MoveAsync(ref, dest->id())
      .OnSettle([this, alive = alive_, target,
                 dest_name](sim::Future<sim::Unit> f) {
        if (!*alive) return;  // the shell is gone; drop the report
        if (f.ok()) {
          out_ << "amove: " << ToString(target) << " arrived at " << dest_name
               << "\n";
          return;
        }
        out_ << "amove: " << ToString(target)
             << " failed: " << sim::ErrorMessage(f.error()) << "\n";
      });
  out_ << "amove: " << ToString(target) << " -> " << dest_name
       << " started\n";
}

void Shell::CmdRefType(const std::vector<std::string>& args, bool set) {
  // reftype <core> <owner-comlet> <target-comlet> [type]
  if (args.size() < (set ? 4u : 3u))
    throw FargoError(set ? "usage: setref <core> <owner> <target> <type>"
                         : "usage: reftype <core> <owner> <target>");
  core::Core* host = ResolveCore(args[0]);
  if (host == nullptr || !host->alive())
    throw FargoError("unknown core: " + args[0]);
  const ComletId owner = ResolveComlet(args[1]);
  const ComletId target = ResolveComlet(args[2]);
  bool found = false;
  for (const core::ComletRefBase* ref : host->RefsOwnedBy(owner)) {
    if (ref->target() != target) continue;
    found = true;
    core::MetaRef& meta = core::Core::GetMetaRef(*ref);
    if (set) {
      meta.SetRelocator(core::MakeRelocator(args[3]));
      out_ << "reference " << ToString(owner) << " -> " << ToString(target)
           << " set to " << args[3] << "\n";
    } else {
      out_ << ToString(owner) << " -> " << ToString(target) << " : "
           << meta.GetRelocator()->Kind()
           << " (invocations=" << meta.invocation_count() << ")\n";
    }
  }
  if (!found)
    out_ << "no live reference " << ToString(owner) << " -> "
         << ToString(target) << " at " << host->name() << "\n";
}

void Shell::CmdProfile(const std::vector<std::string>& args) {
  if (args.empty())
    throw FargoError(
        "usage: profile <service> <core> [peer|comlet...] — e.g. profile "
        "completLoad acadia | profile bandwidth acadia denali");
  const monitor::Service service = monitor::ParseService(args[0]);
  if (args.size() < 2) throw FargoError("profile: missing core");
  core::Core* where = ResolveCore(args[1]);
  if (where == nullptr || !where->alive())
    throw FargoError("unknown core: " + args[1]);
  monitor::ProbeKey key;
  key.service = service;
  switch (service) {
    case monitor::Service::kBandwidth:
    case monitor::Service::kLatency:
    case monitor::Service::kThroughput:
    case monitor::Service::kMessageRate: {
      if (args.size() < 3) throw FargoError("profile: missing peer core");
      core::Core* peer = ResolveCore(args[2]);
      if (peer == nullptr) throw FargoError("unknown core: " + args[2]);
      key.peer = peer->id();
      break;
    }
    case monitor::Service::kComletSize:
      if (args.size() < 3) throw FargoError("profile: missing comlet");
      key.a = ResolveComlet(args[2]);
      break;
    case monitor::Service::kInvocationRate:
      if (args.size() < 4) throw FargoError("profile: missing comlet pair");
      key.a = ResolveComlet(args[2]);
      key.b = ResolveComlet(args[3]);
      break;
    // Core-wide gauges take no extra arguments.
    case monitor::Service::kComletLoad:
    case monitor::Service::kMemoryUse:
      break;
  }
  out_ << ToString(key) << " @" << where->name() << " = "
       << where->profiler().Instant(key) << "\n";
}

std::vector<Value> Shell::ParseCallArgs(const std::vector<std::string>& args,
                                        std::size_t from) {
  std::vector<Value> call_args;
  for (std::size_t i = from; i < args.size(); ++i) {
    try {
      std::size_t used = 0;
      double d = std::stod(args[i], &used);
      if (used == args[i].size()) {
        if (d == static_cast<double>(static_cast<std::int64_t>(d)))
          call_args.push_back(Value(static_cast<std::int64_t>(d)));
        else
          call_args.push_back(Value(d));
        continue;
      }
    } catch (const std::exception&) {
      // not a number
    }
    call_args.push_back(Value(args[i]));
  }
  return call_args;
}

void Shell::CmdInvoke(const std::vector<std::string>& args) {
  if (args.size() < 2) throw FargoError("usage: invoke <comlet> <method> [args]");
  core::ComletRefBase ref = RefToComlet(args[0]);
  Value result = ref.Call(args[1], ParseCallArgs(args, 2));
  out_ << result.ToDebugString() << "\n";
}

void Shell::CmdPost(const std::vector<std::string>& args) {
  if (args.size() < 2) throw FargoError("usage: post <comlet> <method> [args]");
  core::ComletRefBase ref = RefToComlet(args[0]);
  ref.Post(args[1], ParseCallArgs(args, 2));
  out_ << "posted " << args[1] << " to " << ToString(ref.target()) << "\n";
}

void Shell::CmdGc(const std::vector<std::string>& args) {
  for (core::Core* c : runtime_.Cores()) {
    if (!c->alive()) continue;
    if (!args.empty() && ResolveCore(args[0]) != c) continue;
    out_ << c->name() << ": reclaimed " << c->trackers().CollectGarbage()
         << " trackers\n";
  }
}

void Shell::CmdDir() {
  const core::ShardMap& map = runtime_.shard_map();
  if (map.valid()) {
    out_ << "map_version=" << map.version << " shards=" << map.shard_count()
         << " vnodes=" << map.vnodes << "\n";
  } else {
    out_ << "disabled (no shard map)\n";
  }
  for (core::Core* c : runtime_.Cores()) {
    if (!c->alive() || !c->directory().enabled()) continue;
    out_ << "  shard @" << c->name()
         << ": entries=" << c->directory().store().size() << "\n";
  }
  const monitor::Registry& reg = runtime_.metrics();
  out_ << "  publishes=" << reg.CounterValue("dir.publishes")
       << " lookups=" << reg.CounterValue("dir.lookups")
       << " hint_hit=" << reg.CounterValue("dir.hint.hit")
       << " hint_miss=" << reg.CounterValue("dir.hint.miss")
       << " hint_stale=" << reg.CounterValue("dir.hint.stale") << "\n";
}

void Shell::CmdLink(const std::vector<std::string>& args) {
  if (args.size() < 4)
    throw FargoError("usage: link <coreA> <coreB> <latency_ms> <mbit_per_s>");
  core::Core* a = ResolveCore(args[0]);
  core::Core* b = ResolveCore(args[1]);
  if (a == nullptr || b == nullptr) throw FargoError("unknown core");
  net::LinkModel model;
  model.latency = static_cast<SimTime>(std::stod(args[2]) * 1e6);
  model.bytes_per_sec = std::stod(args[3]) * 1e6 / 8.0;
  runtime_.network().SetLink(a->id(), b->id(), model);
  out_ << "link " << a->name() << " <-> " << b->name() << ": "
       << std::stod(args[2]) << " ms, " << args[3] << " Mbit/s\n";
}

void Shell::CmdNet() {
  net::Network& net = runtime_.network();
  out_ << "messages=" << net.total_messages() << " bytes=" << net.total_bytes()
       << " dropped=" << net.dropped() << "\n";
  out_ << "  drops: link_down=" << net.dropped_link_down()
       << " unregistered=" << net.dropped_unregistered()
       << " chaos=" << net.dropped_chaos() << "\n";
  out_ << "  chaos: " << (net.chaos().armed() ? "armed" : "off")
       << " duplicates=" << net.duplicates() << " reorders=" << net.reorders()
       << "\n";
  for (const auto& [link, stats] : net.AllLinkStats()) {
    core::Core* a = runtime_.Find(link.first);
    core::Core* b = runtime_.Find(link.second);
    out_ << "  " << (a ? a->name() : ToString(link.first)) << " -> "
         << (b ? b->name() : ToString(link.second))
         << ": messages=" << stats.messages << " bytes=" << stats.bytes
         << " dropped=" << stats.dropped << "\n";
  }
}

void Shell::CmdChaos(const std::vector<std::string>& args) {
  if (args.size() == 1 && args[0] == "off") {
    runtime_.network().ClearFaults();
    out_ << "chaos off\n";
    return;
  }
  if (args.size() < 3)
    throw FargoError(
        "usage: chaos <drop> <dup> <reorder> [seed] | chaos off");
  net::FaultPlan plan;
  plan.drop = std::stod(args[0]);
  plan.duplicate = std::stod(args[1]);
  plan.reorder = std::stod(args[2]);
  if (args.size() > 3) plan.seed = std::stoull(args[3]);
  runtime_.network().SetFaultPlan(plan);
  out_ << "chaos armed: drop=" << plan.drop << " dup=" << plan.duplicate
       << " reorder=" << plan.reorder << " seed=" << plan.seed << "\n";
}

void Shell::CmdCrash(const std::vector<std::string>& args) {
  if (args.empty()) throw FargoError("usage: crash <core>");
  core::Core* c = ResolveCore(args[0]);
  if (c == nullptr) throw FargoError("unknown core: " + args[0]);
  c->Crash();
  out_ << c->name() << " crashed\n";
}

void Shell::CmdWal(const std::vector<std::string>& args) {
  if (args.empty())
    throw FargoError("usage: wal <core> [on [interval_ms] | checkpoint]");
  core::Core* c = ResolveCore(args[0]);
  if (c == nullptr) throw FargoError("unknown core: " + args[0]);
  if (args.size() >= 2 && args[1] == "on") {
    const SimTime interval = args.size() >= 3
                                 ? static_cast<SimTime>(std::stod(args[2]) * 1e6)
                                 : Millis(250);
    c->EnableWal(interval);
    out_ << c->name() << ": durable (checkpoint every "
         << static_cast<double>(interval) / 1e6 << " ms)\n";
    return;
  }
  core::Wal* wal = c->wal();
  if (wal == nullptr) {
    out_ << c->name() << ": not durable (try 'wal " << args[0] << " on')\n";
    return;
  }
  if (args.size() >= 2 && args[1] == "checkpoint") {
    wal->Checkpoint();
    out_ << c->name() << ": checkpoint scheduled\n";
    return;
  }
  out_ << c->name() << ": log " << wal->log_name() << "\n"
       << "  appended: " << wal->records_appended() << " records, "
       << wal->bytes_appended() << " bytes\n"
       << "  durable:  " << wal->durable_records() << " records, "
       << wal->durable_bytes() << " bytes\n"
       << "  checkpoints=" << wal->checkpoints()
       << " recoveries=" << wal->recoveries()
       << " replayed=" << wal->records_replayed()
       << " open_moves=" << wal->open_txns() << "\n";
}

void Shell::CmdRecover(const std::vector<std::string>& args) {
  if (args.empty()) throw FargoError("usage: recover <core>");
  core::Core* c = ResolveCore(args[0]);
  if (c == nullptr) throw FargoError("unknown core: " + args[0]);
  if (c->alive()) {
    out_ << c->name() << " is already up\n";
    return;
  }
  c->Restart();
  out_ << c->name() << " restarted"
       << (c->wal() ? " (log replay scheduled)" : " (no log; state lost)")
       << "\n";
}

void Shell::CmdHeartbeat(const std::vector<std::string>& args) {
  if (args.empty())
    throw FargoError(
        "usage: heartbeat <core> <interval_ms> <missed> | heartbeat <core> "
        "off");
  core::Core* c = ResolveCore(args[0]);
  if (c == nullptr || !c->alive()) throw FargoError("unknown core: " + args[0]);
  if (args.size() >= 2 && args[1] == "off") {
    c->DisableHeartbeat();
    out_ << c->name() << ": heartbeat off\n";
    return;
  }
  if (args.size() < 3)
    throw FargoError(
        "usage: heartbeat <core> <interval_ms> <missed> | heartbeat <core> "
        "off");
  const SimTime interval = static_cast<SimTime>(std::stod(args[1]) * 1e6);
  const int missed = std::stoi(args[2]);
  c->EnableHeartbeat(interval, missed);
  out_ << c->name() << ": heartbeat every " << std::stod(args[1])
       << " ms, suspect after " << missed << " misses\n";
}

void Shell::CmdShutdown(const std::vector<std::string>& args) {
  if (args.empty()) throw FargoError("usage: shutdown <core>");
  core::Core* c = ResolveCore(args[0]);
  if (c == nullptr) throw FargoError("unknown core: " + args[0]);
  c->Shutdown();
  out_ << c->name() << " down\n";
}

void Shell::CmdTrace(const std::vector<std::string>& args) {
  if (args.empty()) throw FargoError("usage: trace on|off|dump [path]");
  if (args[0] == "on") {
    runtime_.SetTracing(true);
    out_ << "tracing on\n";
  } else if (args[0] == "off") {
    runtime_.SetTracing(false);
    out_ << "tracing off\n";
  } else if (args[0] == "dump") {
    const std::string path = args.size() > 1 ? args[1] : "fargo-trace.json";
    const std::size_t events = runtime_.DumpTrace(path);
    out_ << "wrote " << events << " spans to " << path
         << " (load in chrome://tracing or Perfetto)\n";
  } else {
    throw FargoError("usage: trace on|off|dump [path]");
  }
}

void Shell::CmdSessions(const std::vector<std::string>& args) {
  std::vector<core::Core*> cores;
  if (!args.empty()) {
    core::Core* c = ResolveCore(args[0]);
    if (c == nullptr) throw FargoError("unknown core: " + args[0]);
    cores.push_back(c);
  } else {
    cores = runtime_.Cores();
  }
  for (core::Core* c : cores) {
    out_ << c->name() << " (" << ToString(c->id()) << ")"
         << (c->alive() ? "" : " [DOWN]") << "\n";
    if (!c->alive()) continue;
    const net::SessionPool& pool = c->sessions();
    out_ << "  origin: epoch=" << pool.epoch()
         << " sessions=" << pool.session_count()
         << " slots=" << pool.slots_allocated()
         << " in_flight=" << pool.slots_in_flight() << "\n";
    const net::ReplayDirectory& replay = c->replay();
    out_ << "  executor: windows=" << replay.window_count()
         << " slots=" << replay.slot_count()
         << " replays=" << replay.replays()
         << " suppressed=" << replay.suppressed()
         << " stale=" << replay.stale_drops() << "\n";
    for (const std::string& line : replay.Describe())
      out_ << "    " << line << "\n";
    const net::Formation& f = c->formation();
    out_ << "  formation: flushes=" << f.flushes() << " frames=" << f.frames()
         << " batched=" << f.batched_items()
         << " singles=" << f.single_sends() << " queued=" << f.queued()
         << "\n";
  }
}

void Shell::CmdStats() { runtime_.metrics().Dump(out_); }

}  // namespace fargo::shell
