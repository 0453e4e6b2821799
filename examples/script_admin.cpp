// Administration with the layout scripting language (§4.3).
//
// Deploys a small application, then attaches the paper's verbatim script —
// after deployment, as an administrator would — and lets its two rules
// manage the layout: colocation under invocation pressure, evacuation on
// core shutdown. The live terminal monitor narrates the layout changes.
//
// Build & run:  ./build/examples/script_admin
#include <cstdio>
#include <iostream>

#include "src/fargo.h"

namespace {

using namespace fargo;

class Frontend : public core::Anchor {
 public:
  static constexpr std::string_view kTypeName = "example.Frontend";
  Frontend() {
    methods().Register("attach", [this](const std::vector<Value>& args) {
      backend_ = core()->RefTo<core::Anchor>(args.at(0));
      return Value();
    });
    methods().Register("request", [this](const std::vector<Value>&) {
      return backend_.CallAsync("serve");
    });
  }
  std::string_view TypeName() const override { return kTypeName; }
  void Serialize(serial::GraphWriter& w) const override {
    backend_.SerializeTo(w);
  }
  void Deserialize(serial::GraphReader& r) override {
    backend_.DeserializeFrom(r);
  }

 private:
  core::ComletRefBase backend_;
};

class Backend : public core::Anchor {
 public:
  static constexpr std::string_view kTypeName = "example.Backend";
  Backend() {
    methods().Register("serve", [this](const std::vector<Value>&) {
      return Value(++served_);
    });
  }
  std::string_view TypeName() const override { return kTypeName; }
  void Serialize(serial::GraphWriter& w) const override {
    w.WriteInt(served_);
  }
  void Deserialize(serial::GraphReader& r) override { served_ = r.ReadInt(); }

 private:
  std::int64_t served_ = 0;
};

const bool kReg =
    serial::RegisterType<Frontend>() && serial::RegisterType<Backend>();

// The example script of §4.3, verbatim.
const char* kPaperScript = R"(
$coreList = %1
$targetCore = %2
$comps = %3
on shutdown firedby $core
 listenAt $coreList do
  move completsIn $core to $targetCore
end
on methodInvokeRate(3)
  from $comps[0] to $comps[1] do
 move $comps[0] to coreOf $comps[1]
end
)";

}  // namespace

int main() {
  (void)kReg;
  core::Runtime rt;
  core::Core& admin = rt.CreateCore("admin");
  core::Core& alpha = rt.CreateCore("alpha");
  core::Core& beta = rt.CreateCore("beta");
  core::Core& safehouse = rt.CreateCore("safehouse");
  rt.network().SetDefaultLink({fargo::Millis(20), 1.25e6, true});

  std::printf("== FarGo script administration (§4.3, verbatim script) ==\n");

  // The application, deployed with frontend and backend apart.
  auto frontend = admin.NewAt<Frontend>(alpha.id());
  auto backend = admin.NewAt<Backend>(beta.id());
  frontend.Call("attach", {Value(backend.handle())});

  shell::TextMonitor monitor(rt, admin, std::cout);
  monitor.Attach();

  // The administrator attaches the script to the running system.
  script::Engine engine(rt, admin);
  engine.Run(kPaperScript,
             {Value(Value::List{
                  Value(static_cast<std::int64_t>(alpha.id().value)),
                  Value(static_cast<std::int64_t>(beta.id().value))}),
              Value(static_cast<std::int64_t>(safehouse.id().value)),
              Value(Value::List{Value(frontend.handle()),
                                Value(backend.handle())})});
  std::printf("script attached (%zu rules); driving traffic...\n",
              engine.active_rules());

  // Traffic exceeding 3 invocations/second triggers the performance rule.
  for (int i = 0; i < 30; ++i) {
    frontend.Call("request");
    rt.RunFor(fargo::Millis(100));
  }
  std::printf("after performance rule: frontend now at %s\n",
              ToString(admin.ResolveLocation(frontend)).c_str());

  // A core announces shutdown; the reliability rule evacuates it.
  std::printf("announcing shutdown of beta...\n");
  beta.Shutdown(fargo::Millis(500));
  rt.RunFor(fargo::Millis(500));

  std::printf("\nfinal layout:\n%s", monitor.RenderSnapshot().c_str());
  std::printf("script fired %llu times, executed %llu moves; app still "
              "serving: request #%lld\n",
              static_cast<unsigned long long>(engine.rule_firings()),
              static_cast<unsigned long long>(engine.moves_executed()),
              static_cast<long long>(frontend.Call("request").AsInt()));
  return 0;
}
