#include "src/script/interp.h"

#include <cstdio>

#include "src/common/log.h"
#include "src/core/invocation.h"
#include "src/monitor/events.h"
#include "src/monitor/probe.h"

namespace fargo::script {

namespace {
[[noreturn]] void Fail(int line, const std::string& what) {
  throw ScriptError("script error (line " + std::to_string(line) + "): " +
                    what);
}
}  // namespace

Engine::Engine(core::Runtime& runtime, core::Core& admin)
    : runtime_(runtime), admin_(admin) {
  // Built-in administrative action (the Fig 4 capability of "examining and
  // changing the type of complet references", scriptable):
  //   retype <owner-complet> <target-complet> <link|pull|duplicate|stamp>
  RegisterAction("retype", [](Engine& eng, const std::vector<Value>& args) {
    if (args.size() != 3)
      throw ScriptError("retype needs: owner target kind");
    const ComletHandle owner = args[0].AsHandle();
    const ComletHandle target = args[1].AsHandle();
    const std::string& kind = args[2].AsString();
    core::Core* host = eng.runtime().Find(eng.ToCore(args[0]));
    if (host == nullptr || !host->alive())
      throw ScriptError("retype: owner's core is unavailable");
    bool found = false;
    for (const core::ComletRefBase* ref : host->RefsOwnedBy(owner.id)) {
      if (ref->target() != target.id) continue;
      core::Core::GetMetaRef(*ref).SetRelocator(core::MakeRelocator(kind));
      found = true;
    }
    if (!found)
      throw ScriptError("retype: no live reference " + ToString(owner.id) +
                        " -> " + ToString(target.id));
  });
}

Engine::~Engine() {
  *alive_ = false;
  try {
    Detach();
  } catch (const std::exception& e) {
    LogWarn() << "script engine detach failed: " << e.what();
  }
}

void Engine::Run(const std::string& source, std::vector<Value> args) {
  RunParsed(Parse(source), std::move(args));
}

void Engine::RunParsed(const Script& script, std::vector<Value> args) {
  args_ = std::move(args);
  Env env;
  for (const Statement& st : script.statements) {
    if (const auto* a = std::get_if<Assignment>(&st)) {
      globals_[a->var] = Eval(*a->value, env);
    } else if (const auto* r = std::get_if<Rule>(&st)) {
      AttachRule(*r);
    } else {
      Command cmd = std::get<Command>(st);
      Execute(cmd, env);
    }
  }
}

void Engine::RegisterAction(std::string name, Action action) {
  actions_[std::move(name)] = std::move(action);
}

void Engine::Detach() {
  for (AttachedRule& ar : rules_)
    for (monitor::SubId token : ar.tokens) admin_.UnlistenAt(token);
  rules_.clear();
}

Value Engine::GetVar(const std::string& name) const {
  auto it = globals_.find(name);
  return it == globals_.end() ? Value() : it->second;
}

CoreId Engine::ToCore(const Value& v) {
  if (v.IsInt()) return CoreId{static_cast<std::uint32_t>(v.AsInt())};
  if (v.IsString()) {
    core::Core* c = runtime_.FindByName(v.AsString());
    if (c == nullptr)
      throw ScriptError("unknown core name: " + v.AsString());
    return c->id();
  }
  if (v.IsHandle()) {
    // Locating a complet waits for a ping round trip, which a rule body
    // must not do (MoveFromRule locates a move destination asynchronously).
    if (in_rule_body_)
      throw ScriptError(
          "a rule body can only use a complet's location as a move "
          "destination");
    core::ComletRefBase ref = admin_.RefFromHandle(v.AsHandle());
    return admin_.ResolveLocation(ref);
  }
  throw ScriptError("value does not denote a core: " + v.ToDebugString());
}

std::vector<ComletHandle> Engine::ToComlets(const Value& v) const {
  std::vector<ComletHandle> out;
  if (v.IsHandle()) {
    out.push_back(v.AsHandle());
  } else if (v.IsList()) {
    for (const Value& e : v.AsList()) out.push_back(e.AsHandle());
  } else {
    throw ScriptError("value does not denote complet(s): " +
                      v.ToDebugString());
  }
  return out;
}

Value Engine::Eval(const Expr& e, const Env& env) {
  switch (e.kind) {
    case Expr::Kind::kLiteral:
      return e.literal;
    case Expr::Kind::kVar: {
      if (auto it = env.local.find(e.var); it != env.local.end())
        return it->second;
      if (auto it = globals_.find(e.var); it != globals_.end())
        return it->second;
      Fail(e.line, "undefined variable $" + e.var);
    }
    case Expr::Kind::kArg: {
      if (e.arg_index < 1 ||
          static_cast<std::size_t>(e.arg_index) > args_.size())
        Fail(e.line, "missing script argument %" + std::to_string(e.arg_index));
      return args_[static_cast<std::size_t>(e.arg_index) - 1];
    }
    case Expr::Kind::kIndex: {
      Value base = Eval(*e.base, env);
      const Value::List& list = base.AsList();
      if (e.index >= list.size())
        Fail(e.line, "index " + std::to_string(e.index) + " out of range");
      return list[e.index];
    }
    case Expr::Kind::kCoreOf: {
      Value base = Eval(*e.base, env);
      return Value(static_cast<std::int64_t>(ToCore(base).value));
    }
    case Expr::Kind::kHintEpochOf: {
      // The directory hint epoch a rule can act on: the stamp at the Core
      // hosting the complet when it is reachable, otherwise the admin
      // Core's own (possibly stale) hint. 0 = unstamped/unknown.
      Value base = Eval(*e.base, env);
      if (!base.IsHandle())
        Fail(e.line, "hintEpochOf needs a complet handle");
      const ComletId id = base.AsHandle().id;
      for (core::Core* c : runtime_.Cores()) {
        if (!c->alive() || !c->repository().Contains(id)) continue;
        const core::TrackerEntry* te = c->trackers().Find(id);
        return Value(static_cast<std::int64_t>(te ? te->hint_epoch : 0));
      }
      const core::TrackerEntry* te = admin_.trackers().Find(id);
      return Value(static_cast<std::int64_t>(te ? te->hint_epoch : 0));
    }
    case Expr::Kind::kComletsIn: {
      CoreId core_id = ToCore(Eval(*e.base, env));
      core::Core* c = runtime_.Find(core_id);
      Value::List handles;
      if (c != nullptr && c->alive()) {
        for (ComletId id : c->ComletsHere()) {
          auto anchor = c->repository().Get(id);
          handles.push_back(Value(ComletHandle{
              id, core_id,
              anchor ? std::string(anchor->TypeName()) : std::string()}));
        }
      }
      return Value(std::move(handles));
    }
    case Expr::Kind::kList: {
      Value::List items;
      items.reserve(e.items.size());
      for (const ExprPtr& item : e.items) items.push_back(Eval(*item, env));
      return Value(std::move(items));
    }
  }
  Fail(e.line, "corrupt expression");
}

void Engine::Execute(const Command& cmd, Env& env) {
  switch (cmd.kind) {
    case Command::Kind::kMove: {
      if (in_rule_body_) {
        MoveFromRule(cmd, env);
        return;
      }
      const CoreId dest = ToCore(Eval(*cmd.dest, env));
      MoveAll(ToComlets(Eval(*cmd.subject, env)), dest, /*async=*/false);
      return;
    }
    case Command::Kind::kLog: {
      Value v = Eval(*cmd.args.at(0), env);
      std::printf("[fargo-script] %s\n", v.ToDebugString().c_str());
      return;
    }
    case Command::Kind::kAction: {
      auto it = actions_.find(cmd.action);
      if (it == actions_.end())
        Fail(cmd.line, "unknown action '" + cmd.action + "'");
      std::vector<Value> args;
      args.reserve(cmd.args.size());
      for (const ExprPtr& a : cmd.args) args.push_back(Eval(*a, env));
      it->second(*this, args);
      return;
    }
  }
}

void Engine::MoveFromRule(const Command& cmd, Env& env) {
  // A complet-valued destination (`coreOf $c`, or `$c` itself) is located
  // by an async ping, and the moves chain on its settle.
  const Expr& dest =
      cmd.dest->kind == Expr::Kind::kCoreOf ? *cmd.dest->base : *cmd.dest;
  const Value where = Eval(dest, env);
  std::vector<ComletHandle> subjects = ToComlets(Eval(*cmd.subject, env));
  if (!where.IsHandle()) {
    MoveAll(subjects, ToCore(where), /*async=*/true);
    return;
  }
  admin_.invocation()
      .InvokeAsync(where.AsHandle(), core::kPingMethod, {})
      .OnSettle([this, alive = alive_, id = where.AsHandle().id,
                 subjects = std::move(subjects)](
                    sim::Future<core::InvokeResult> f) {
        if (!*alive) return;
        if (f.ok())
          MoveAll(subjects, f.value().location, /*async=*/true);
        else
          LogWarn() << "script move to coreOf " << ToString(id)
                    << " failed: " << sim::ErrorMessage(f.error());
      });
}

void Engine::MoveAll(const std::vector<ComletHandle>& subjects, CoreId dest,
                     bool async) {
  for (const ComletHandle& h : subjects) {
    try {
      core::ComletRefBase ref = admin_.RefFromHandle(h);
      if (!async) {
        admin_.Move(ref, dest);
        ++moves_executed_;
        continue;
      }
      admin_.MoveAsync(ref, dest).OnSettle(
          [this, alive = alive_, id = h.id](sim::Future<sim::Unit> f) {
            if (!f.ok())
              LogWarn() << "script move of " << ToString(id)
                        << " failed: " << sim::ErrorMessage(f.error());
            else if (*alive)
              ++moves_executed_;
          });
    } catch (const std::exception& e) {
      LogWarn() << "script move of " << ToString(h.id) << " failed: "
                << e.what();
    }
  }
}

void Engine::ExecuteBody(const Rule& rule, Env env) {
  ++rule_firings_;
  const bool was_in_body = in_rule_body_;
  in_rule_body_ = true;
  for (const Command& cmd : rule.body) {
    try {
      Execute(cmd, env);
    } catch (const std::exception& e) {
      LogWarn() << "script rule (line " << rule.line << ") command failed: "
                << e.what();
    }
  }
  in_rule_body_ = was_in_body;
}

void Engine::AttachRule(const Rule& rule_in) {
  auto rule = std::make_shared<Rule>(rule_in);
  AttachedRule attached;
  attached.rule = rule;
  Env env;

  if (rule->is_periodic) {
    // The body acts through the admin Core: tick on its home locality.
    attached.timer = std::make_unique<sim::PeriodicTask>(
        runtime_.scheduler(), admin_.id().value, rule->interval,
        [this, rule, alive = alive_] {
          if (!*alive) return;
          ExecuteBody(*rule, Env{});
        });
    rules_.push_back(std::move(attached));
    return;
  }

  if (!rule->is_threshold) {
    const monitor::EventKind kind = monitor::ParseEventKind(rule->event_name);
    Value at = Eval(*rule->listen_at, env);
    std::vector<CoreId> cores;
    if (at.IsList()) {
      for (const Value& v : at.AsList()) cores.push_back(ToCore(v));
    } else {
      cores.push_back(ToCore(at));
    }
    for (CoreId where : cores) {
      monitor::Listener listener = [this, rule,
                                    alive = alive_](const monitor::Event& e) {
        if (!*alive) return;
        Env fire_env;
        // Failure-detector events name the *suspected* Core in e.peer; for
        // those, "fired by" means the peer, not the detecting Core.
        if (!rule->firedby_var.empty())
          fire_env.local[rule->firedby_var] = Value(static_cast<std::int64_t>(
              e.peer.valid() ? e.peer.value : e.source.value));
        if (e.comlet.valid())
          fire_env.local["comlet"] =
              Value(ComletHandle{e.comlet, e.source, std::string()});
        fire_env.local["value"] = Value(e.value);
        fire_env.local["peer"] =
            Value(static_cast<std::int64_t>(e.peer.value));
        ExecuteBody(*rule, std::move(fire_env));
      };
      attached.tokens.push_back(admin_.ListenAt(where, kind, listener));
    }
  } else {
    const monitor::Service service = monitor::ParseService(rule->event_name);
    monitor::ProbeKey probe;
    probe.service = service;
    CoreId where;
    switch (service) {
      case monitor::Service::kInvocationRate: {
        if (!rule->from) Fail(rule->line, "methodInvokeRate needs 'from/to'");
        ComletHandle a = Eval(*rule->from, env).AsHandle();
        ComletHandle b = Eval(*rule->to, env).AsHandle();
        probe.a = a.id;
        probe.b = b.id;
        // Measure at the Core hosting the source complet: that is where the
        // reference's stub lives and where invocations are counted.
        where = ToCore(Value(a));
        break;
      }
      case monitor::Service::kBandwidth:
      case monitor::Service::kLatency:
      case monitor::Service::kThroughput:
      case monitor::Service::kMessageRate: {
        if (!rule->from) Fail(rule->line, rule->event_name + " needs 'from/to'");
        where = ToCore(Eval(*rule->from, env));
        probe.peer = ToCore(Eval(*rule->to, env));
        break;
      }
      case monitor::Service::kComletSize: {
        if (!rule->at) Fail(rule->line, "completSize needs 'at <complet>'");
        ComletHandle subject = Eval(*rule->at, env).AsHandle();
        probe.a = subject.id;
        where = ToCore(Value(subject));
        break;
      }
      case monitor::Service::kComletLoad:
      case monitor::Service::kMemoryUse: {
        if (!rule->at) Fail(rule->line, rule->event_name + " needs 'at <core>'");
        where = ToCore(Eval(*rule->at, env));
        break;
      }
    }
    const monitor::Trigger trigger =
        rule->below ? monitor::Trigger::kBelow : monitor::Trigger::kAbove;
    monitor::Listener listener = [this, rule,
                                  alive = alive_](const monitor::Event& e) {
      if (!*alive) return;
      Env fire_env;
      if (!rule->firedby_var.empty())
        fire_env.local[rule->firedby_var] =
            Value(static_cast<std::int64_t>(e.source.value));
      fire_env.local["value"] = Value(e.value);
      ExecuteBody(*rule, std::move(fire_env));
    };
    attached.tokens.push_back(admin_.ListenThresholdAt(
        where, probe, rule->threshold, trigger, rule->interval, listener));
  }

  rules_.push_back(std::move(attached));
}

}  // namespace fargo::script
