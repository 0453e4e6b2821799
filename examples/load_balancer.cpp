// Relocation programming with the monitoring API (§4.1/§4.2).
//
// A farm of worker complets serves requests. An admin policy, written
// directly against the Core API (not the scripting language):
//   - spreads complets away from a core whose completLoad crosses a
//     threshold (asynchronous monitor event),
//   - evacuates complets from a core announcing shutdown (reliability).
//
// Build & run:  ./build/examples/load_balancer
#include <cstdio>
#include <memory>

#include "src/fargo.h"

namespace {

using namespace fargo;

class JobWorker : public core::Anchor {
 public:
  static constexpr std::string_view kTypeName = "example.JobWorker";
  JobWorker() {
    methods().Register("run", [this](const std::vector<Value>& args) {
      ++jobs_;
      return Value(args.at(0).AsInt() * 2);
    });
    methods().Register("jobs",
                       [this](const std::vector<Value>&) { return Value(jobs_); });
  }
  std::string_view TypeName() const override { return kTypeName; }
  void Serialize(serial::GraphWriter& w) const override { w.WriteInt(jobs_); }
  void Deserialize(serial::GraphReader& r) override { jobs_ = r.ReadInt(); }

 private:
  std::int64_t jobs_ = 0;
};

const bool kReg = serial::RegisterType<JobWorker>();

void PrintLoads(core::Runtime& rt) {
  std::printf("  t=%7.1f ms  loads:", fargo::ToMillis(rt.Now()));
  for (core::Core* c : rt.Cores())
    std::printf("  %s=%zu%s", c->name().c_str(), c->repository().size(),
                c->alive() ? "" : "(down)");
  std::printf("\n");
}

}  // namespace

int main() {
  (void)kReg;
  core::Runtime rt;
  core::Core& admin = rt.CreateCore("admin");
  std::vector<core::Core*> farm;
  for (int i = 0; i < 3; ++i)
    farm.push_back(&rt.CreateCore("node" + std::to_string(i)));
  rt.network().SetDefaultLink({fargo::Millis(5), 1.25e7, true});

  std::printf("== FarGo load balancer (monitoring API) ==\n");

  // Each node's policies run on that node and act only through it: they
  // move the node's own complets without blocking, round-robin over the
  // other nodes (a listener never reads another Core's state).
  for (core::Core* node : farm) {
    std::vector<CoreId> others;
    for (core::Core* c : farm)
      if (c != node) others.push_back(c->id());
    auto turn = std::make_shared<std::size_t>(0);
    auto spread = [node, others, turn](std::size_t count) {
      std::vector<ComletId> here = node->ComletsHere();
      for (std::size_t i = 0; i < count && i < here.size(); ++i)
        node->MoveIdAsync(here[i], others[(*turn)++ % others.size()]);
    };

    // Policy 1: spread when the node gets hot (threshold monitor event).
    node->ListenThresholdAt(
        node->id(), monitor::ComletLoadProbe(), 8.0, monitor::Trigger::kAbove,
        fargo::Millis(50), [node, spread](const monitor::Event& e) {
          std::printf("  !! %s overloaded (load %.0f) -> spreading\n",
                      node->name().c_str(), e.value);
          spread(node->ComletsHere().size() / 2);
        });

    // Policy 2: reliability — evacuate a dying node (CoreShutdown event).
    node->ListenAt(node->id(), monitor::EventKind::kCoreShutdown,
                   [node, spread](const monitor::Event&) {
                     std::printf("  !! %s shutting down -> evacuating\n",
                                 node->name().c_str());
                     spread(node->ComletsHere().size());
                   });
  }

  // Deploy 12 workers, all on node0 (a deliberately bad static layout).
  std::vector<core::ComletRef<JobWorker>> workers;
  for (int i = 0; i < 12; ++i)
    workers.push_back(admin.NewAt<JobWorker>(farm[0]->id()));
  PrintLoads(rt);

  // Serve requests; the threshold event fires and the layout spreads.
  std::int64_t checksum = 0;
  for (int round = 0; round < 20; ++round) {
    for (auto& w : workers)
      checksum += w.Invoke<std::int64_t>("run", std::int64_t{round});
    rt.RunFor(fargo::Millis(100));
  }
  PrintLoads(rt);

  // Now a node dies; its complets evacuate and service continues.
  std::printf("-- announcing shutdown of node1 --\n");
  farm[1]->Shutdown(fargo::Millis(500));
  rt.RunFor(fargo::Millis(500));
  PrintLoads(rt);

  for (int round = 0; round < 5; ++round)
    for (auto& w : workers)
      checksum += w.Invoke<std::int64_t>("run", std::int64_t{round});

  std::int64_t total_jobs = 0;
  for (auto& w : workers) total_jobs += w.Invoke<std::int64_t>("jobs");
  std::printf("served %lld jobs across the farm (checksum %lld); "
              "no request was lost across 1 overload + 1 node death\n",
              static_cast<long long>(total_jobs),
              static_cast<long long>(checksum));
  return 0;
}
