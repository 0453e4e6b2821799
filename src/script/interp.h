// The layout script engine (§4.3).
//
// Scripts are defined externally — "possibly after the application has been
// deployed" — and attached to a running system by an administrator. The
// engine runs in the context of an administrative Core: assignments and
// top-level commands execute immediately; rules subscribe to monitor events
// (locally or at remote Cores) and execute their bodies when events fire.
//
// The action vocabulary is extensible with user-registered native actions —
// the C++ rendering of the paper's "any user-defined (Java) class ...
// automatically loaded upon its invocation".
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/common/value.h"
#include "src/core/core.h"
#include "src/core/runtime.h"
#include "src/script/ast.h"
#include "src/script/parser.h"
#include "src/sim/scheduler.h"

namespace fargo::script {

class Engine {
 public:
  /// `admin` is the Core at which the engine runs (subscriptions and moves
  /// are issued from it).
  Engine(core::Runtime& runtime, core::Core& admin);
  ~Engine();
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Parses and runs `source`. `%1`, `%2`, ... in the script bind to
  /// `args[0]`, `args[1]`, ...
  void Run(const std::string& source, std::vector<Value> args = {});
  void RunParsed(const Script& script, std::vector<Value> args = {});

  /// Registers a native action usable as a command: `name expr...`.
  using Action = std::function<void(Engine&, const std::vector<Value>&)>;
  void RegisterAction(std::string name, Action action);

  /// Cancels all rule subscriptions made by this engine.
  void Detach();

  // -- introspection -----------------------------------------------------------
  std::size_t active_rules() const { return rules_.size(); }
  std::uint64_t rule_firings() const { return rule_firings_; }
  std::uint64_t moves_executed() const { return moves_executed_; }
  Value GetVar(const std::string& name) const;
  void SetVar(std::string name, Value value) {
    globals_[std::move(name)] = std::move(value);
  }

  core::Core& admin() { return admin_; }
  core::Runtime& runtime() { return runtime_; }

  // -- value coercions (used by Eval and by native actions) --------------------
  /// Accepts a core id (int), a core name (string), or a complet handle
  /// (meaning coreOf; it waits for a ping round trip, so a rule body may
  /// not pass one — there it throws ScriptError).
  CoreId ToCore(const Value& v);
  /// Accepts a single handle or a list of handles.
  std::vector<ComletHandle> ToComlets(const Value& v) const;

 private:
  struct Env {
    std::map<std::string, Value> local;
  };
  struct AttachedRule {
    std::shared_ptr<Rule> rule;
    std::vector<monitor::SubId> tokens;
    std::unique_ptr<sim::PeriodicTask> timer;  // periodic rules
  };

  Value Eval(const Expr& e, const Env& env);
  void Execute(const Command& cmd, Env& env);
  /// A rule body's `move`: never waits. A complet-valued destination is
  /// located by an async ping before the moves start.
  void MoveFromRule(const Command& cmd, Env& env);
  void MoveAll(const std::vector<ComletHandle>& subjects, CoreId dest,
               bool async);
  void ExecuteBody(const Rule& rule, Env env);
  void AttachRule(const Rule& rule);

  core::Runtime& runtime_;
  core::Core& admin_;
  /// Liveness token captured by rule listeners: an in-flight (scheduled)
  /// notification delivered after this engine died becomes a no-op instead
  /// of a use-after-free.
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
  std::map<std::string, Value> globals_;
  std::vector<Value> args_;
  std::map<std::string, Action> actions_;
  std::vector<AttachedRule> rules_;
  std::uint64_t rule_firings_ = 0;
  std::uint64_t moves_executed_ = 0;
  /// True while a rule body runs. Rule bodies fire from monitor listeners —
  /// inside scheduled events, often mid-commit of the very move or
  /// invocation that raised the event — so their `move` commands go through
  /// MoveAsync (after an async ping for a complet-valued destination)
  /// instead of blocking the listener on a pumped round-trip.
  bool in_rule_body_ = false;
};

}  // namespace fargo::script
