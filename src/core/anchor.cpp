#include "src/core/anchor.h"

#include "src/common/log.h"

namespace fargo::core {

void LogFailure(const MethodResult& out, const char* what,
                const std::string& name) {
  if (out.error)
    LogWarn() << what << " " << name
              << " failed: " << sim::ErrorMessage(out.error);
  if (!out.pending.valid()) return;
  out.pending.OnSettle([what, name](sim::Future<Value> f) {
    if (!f.ok())
      LogWarn() << what << " " << name
                << " failed: " << sim::ErrorMessage(f.error());
  });
}

MethodResult MethodMap::Invoke(std::string_view name,
                               const std::vector<Value>& args) const {
  auto it = handlers_.find(name);
  if (it == handlers_.end())
    throw FargoError("unknown method: " + std::string(name));
  return it->second(args);
}

std::vector<std::string> MethodMap::Names() const {
  std::vector<std::string> names;
  names.reserve(handlers_.size());
  for (const auto& [name, handler] : handlers_) names.push_back(name);
  return names;
}

}  // namespace fargo::core
