// Crash recovery with persistence + the home registry (§7 future work,
// both implemented as extensions; see DESIGN.md).
//
// An order-processing service is periodically checkpointed. Its host core
// crashes without warning; the operator restores the checkpoint on a
// standby core. Clients that located the service through the home registry
// keep working transparently; state since the last checkpoint is lost
// (documented at-checkpoint consistency).
//
// Build & run:  ./build/examples/checkpoint_recovery
#include <cstdio>

#include "src/fargo.h"

namespace {

using namespace fargo;

class OrderBook : public core::Anchor {
 public:
  static constexpr std::string_view kTypeName = "example.OrderBook";
  OrderBook() {
    methods().Register("place", [this](const std::vector<Value>& args) {
      orders_ += args.at(0).AsString() + ";";
      return Value(static_cast<std::int64_t>(Count()));
    });
    methods().Register("count", [this](const std::vector<Value>&) {
      return Value(static_cast<std::int64_t>(Count()));
    });
  }
  std::string_view TypeName() const override { return kTypeName; }
  void Serialize(serial::GraphWriter& w) const override {
    w.WriteString(orders_);
  }
  void Deserialize(serial::GraphReader& r) override { orders_ = r.ReadString(); }

 private:
  std::size_t Count() const {
    std::size_t n = 0;
    for (char c : orders_)
      if (c == ';') ++n;
    return n;
  }
  std::string orders_;
};

const bool kReg = serial::RegisterType<OrderBook>();

}  // namespace

int main() {
  (void)kReg;
  core::Runtime rt;
  core::Core& registry = rt.CreateCore("registry");  // clients + homes here
  core::Core& primary = rt.CreateCore("primary");
  core::Core& standby = rt.CreateCore("standby");
  // Location-independent naming (§7): the home registry is a one-owner
  // shard map.
  rt.EnableDirectory({registry.id()});
  rt.network().SetDefaultLink({fargo::Millis(10), 1.25e6, true});

  std::printf("== FarGo checkpoint & crash recovery ==\n");

  // The service is born at the registry core (its *home*), then deployed
  // to the primary host.
  auto book = registry.New<OrderBook>();
  registry.Move(book, primary.id());
  rt.RunUntilIdle();

  for (int i = 0; i < 5; ++i)
    book.Call("place", {Value("order-" + std::to_string(i))});
  std::printf("placed 5 orders; book at %s\n",
              ToString(registry.ResolveLocation(book)).c_str());

  // Periodic checkpoint of the primary host.
  std::vector<std::uint8_t> checkpoint = core::SaveCoreImage(primary);
  std::printf("checkpoint taken: %zu bytes\n", checkpoint.size());

  // Two more orders arrive after the checkpoint... then the host dies.
  book.Call("place", {Value("order-5")});
  book.Call("place", {Value("order-6")});
  std::printf("orders before crash: %lld\n",
              static_cast<long long>(book.Call("count").AsInt()));
  primary.Crash();
  std::printf("primary CRASHED (no warning, no evacuation)\n");

  registry.SetRpcTimeout(fargo::Millis(300));
  try {
    book.Call("count");
  } catch (const UnreachableError& e) {
    std::printf("client sees: %s\n", e.what());
  }

  // Operator restores the checkpoint on the standby core. Install reports
  // the new location to the complet's home, healing client references.
  core::LoadCoreImage(standby, checkpoint);
  rt.RunUntilIdle();
  std::printf("checkpoint restored at standby\n");

  std::printf("client retries transparently: count = %lld "
              "(post-checkpoint orders lost, as documented)\n",
              static_cast<long long>(book.Call("count").AsInt()));
  book.Call("place", {Value("order-after-recovery")});
  std::printf("service is live again: count = %lld, served from %s\n",
              static_cast<long long>(book.Call("count").AsInt()),
              ToString(registry.ResolveLocation(book)).c_str());
  return 0;
}
