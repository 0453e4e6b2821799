// Complet anchors.
//
// A complet (§2) is a group of objects accessed through a single well-known
// interface object: the anchor. All external references into the complet
// point at the anchor; the complet's closure is the object graph reachable
// from the anchor, cut at other anchors.
//
// In the paper, the FarGo compiler generates a stub class per anchor. In
// C++, anchors instead expose their remote interface through a MethodMap
// (name → handler), which the invocation unit dispatches into; examples show
// optional hand-written typed stubs layered on ComletRef<T>.
#pragma once

#include <cstdint>
#include <exception>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "src/common/ids.h"
#include "src/common/value.h"
#include "src/core/fwd.h"
#include "src/serial/registry.h"
#include "src/sim/future.h"

namespace fargo::core {

/// A method's outcome as the executor sees it: its value, the error it threw
/// (caught by the dispatch), or, from an async method, the pending future
/// the call concludes from once it settles.
struct MethodResult {
  Value value;
  std::exception_ptr error;
  sim::Future<Value> pending;  ///< valid: the method has not finished yet
};

/// For dispatches nobody awaits (one-ways, move continuations, event
/// deliveries): logs "<what> <name> failed: <why>" if `out` failed, now or
/// once its pending future settles.
void LogFailure(const MethodResult& out, const char* what,
                const std::string& name);

/// Registry of remotely invocable methods of an anchor.
// fargo: domain(core)
class MethodMap {
 public:
  using Handler = std::function<MethodResult(const std::vector<Value>&)>;

  /// Registers `handler` under `name`; later registrations win (overrides).
  /// A handler returning a Value is a sync method. One returning
  /// sim::Future<Value> is an async method: it awaits other complets
  /// through CallAsync instead of blocking, and the call concludes when its
  /// future settles.
  template <class F>
  void Register(std::string name, F handler) {
    handlers_[std::move(name)] =
        [h = std::move(handler)](const std::vector<Value>& args) mutable {
          if constexpr (std::is_same_v<decltype(h(args)), sim::Future<Value>>)
            return MethodResult{Value(), nullptr, h(args)};
          else
            return MethodResult{Value(h(args)), nullptr, {}};
        };
  }

  bool Contains(std::string_view name) const {
    return handlers_.contains(std::string(name));
  }

  /// Invokes the named handler; throws FargoError for unknown methods.
  MethodResult Invoke(std::string_view name,
                      const std::vector<Value>& args) const;

  /// Sorted method names, for the shell's introspection commands.
  std::vector<std::string> Names() const;

 private:
  std::map<std::string, Handler, std::less<>> handlers_;
};

/// Base class of all complet anchors.
///
/// Subclasses must: be default-constructible, expose
/// `static constexpr std::string_view kTypeName`, be registered via
/// `serial::RegisterType<T>()`, register their methods into `methods()`
/// (typically from the default constructor), and (de)serialize their
/// closure in Serialize/Deserialize.
// fargo: domain(core)
class Anchor : public serial::Serializable {
 public:
  /// Global, movement-stable identity of this complet instance.
  ComletId id() const { return id_; }

  /// The Core currently hosting this complet (null before registration).
  Core* core() const { return core_; }

  /// Dispatches a (possibly remote) invocation. The default implementation
  /// consults the MethodMap; override for fully custom dispatch.
  virtual MethodResult Dispatch(std::string_view method,
                                const std::vector<Value>& args) {
    return methods_.Invoke(method, args);
  }

  // -- movement lifecycle callbacks (§3.3) -----------------------------------
  /// Invoked at the sending Core before the complet is marshaled.
  virtual void PreDeparture() {}
  /// Invoked at the receiving Core before unmarshaling completes (i.e.
  /// after this anchor's own state is read, before the complet is attached).
  virtual void PreArrival() {}
  /// Invoked at the receiving Core once the complet is installed.
  virtual void PostArrival() {}
  /// Invoked at the sending Core right before the stale copy is released.
  virtual void PostDeparture() {}

  const MethodMap& methods() const { return methods_; }

 protected:
  MethodMap& methods() { return methods_; }

 private:
  friend class Core;
  friend class MovementUnit;
  // Checkpoint/WAL restore re-establishes saved identities (persistence.h).
  friend std::shared_ptr<Anchor> DecodeComletImage(
      Core& core, ComletId id, const std::vector<std::uint8_t>& body);

  ComletId id_{};
  Core* core_ = nullptr;
  MethodMap methods_;
};

}  // namespace fargo::core
