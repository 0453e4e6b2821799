// End-to-end scenarios crossing every module: monitoring-driven relocation
// improving application latency, adaptation to WAN changes, and sustained
// operation under repeated reconfiguration.
#include <gtest/gtest.h>

#include "tests/support/fixture.h"

namespace fargo::testing {
namespace {

class ScenarioTest : public FargoTest {};

TEST_F(ScenarioTest, ColocationCutsRequestLatency) {
  // A worker separated from its data source by a slow WAN link; colocating
  // them removes the per-request round trip (the paper's §1 motivation).
  auto cores = MakeCores(2, Millis(40), 1.25e6);
  auto worker = cores[0]->New<Worker>();
  auto data = cores[1]->New<Data>(std::size_t{1000});
  worker.Call("bind", {Value(data.handle())});

  auto measure = [&] {
    const SimTime t0 = rt.Now();
    worker.Call("work");
    return rt.Now() - t0;
  };
  const SimTime apart = measure();
  cores[0]->MoveId(worker.target(), cores[1]->id());
  // One request crosses to reach the worker, but work() itself is local.
  const SimTime together_first = measure();
  (void)together_first;
  // Use a client stub at core1 to see pure colocated cost.
  auto local_client = cores[1]->RefFromHandle(worker.handle());
  const SimTime t0 = rt.Now();
  local_client.Call("work");
  const SimTime together = rt.Now() - t0;

  EXPECT_GE(apart, 2 * Millis(40));  // at least one WAN round trip
  EXPECT_EQ(together, 0);            // fully local after relocation
}

TEST_F(ScenarioTest, MonitorDrivenAdaptationBeatsStaticLayout) {
  // Two identical worker/data apps. One is governed by a script rule that
  // colocates on invocation pressure; the other is static. As the app runs
  // over a slow link, the governed copy ends up faster.
  auto cores = MakeCores(3, Millis(20), 1.25e6);
  core::Core& admin = *cores[0];

  auto mk = [&](core::Core& wc, core::Core& dc) {
    auto w = wc.New<Worker>();
    auto d = dc.New<Data>(std::size_t{100});
    w.Call("bind", {Value(d.handle())});
    return w;
  };
  auto governed = mk(*cores[1], *cores[2]);
  auto static_w = mk(*cores[1], *cores[2]);

  script::Engine engine(rt, admin);
  engine.Run(
      "$c = %1\n"
      "on methodInvokeRate(3) from $c[0] to $c[1] every 0.5 do\n"
      "  move $c[0] to coreOf $c[1]\nend",
      {Value(Value::List{
          Value(governed.handle()),
          Value(ComletHandle{
              std::dynamic_pointer_cast<Worker>(
                  cores[1]->repository().Get(governed.target()))
                  ->data()
                  .handle()})})});

  // Clients observe both apps from the admin core: each request crosses to
  // the worker, which consults its data source. Colocating worker+data
  // removes the inner round trip; the client hop remains either way.
  auto governed_client = admin.RefFromHandle(governed.handle());
  auto static_client = admin.RefFromHandle(static_w.handle());
  SimTime governed_time = 0, static_time = 0;
  for (int i = 0; i < 50; ++i) {
    SimTime t0 = rt.Now();
    governed_client.Call("work");
    governed_time += rt.Now() - t0;
    t0 = rt.Now();
    static_client.Call("work");
    static_time += rt.Now() - t0;
    rt.RunFor(Millis(100));
  }
  // The governed worker was moved next to its data early on.
  EXPECT_TRUE(cores[2]->repository().Contains(governed.target()));
  EXPECT_TRUE(cores[1]->repository().Contains(static_w.target()));
  EXPECT_LT(governed_time, static_time * 7 / 10);
}

TEST_F(ScenarioTest, PullGroupStaysTogetherUnderRepeatedRelocation) {
  // A pipeline of pulled complets keeps functioning while an administrator
  // bounces it around the deployment.
  auto cores = MakeCores(4);
  auto head = cores[0]->New<Node>();
  auto mid = cores[0]->New<Node>();
  auto tail = cores[0]->New<Node>();
  head.Call("setTag", {Value(1)});
  mid.Call("setTag", {Value(2)});
  tail.Call("setTag", {Value(3)});
  head.Call("setNext", {Value(mid.handle()), Value("pull")});
  mid.Call("setNext", {Value(tail.handle()), Value("pull")});

  for (int round = 0; round < 8; ++round) {
    core::Core* dest = cores[static_cast<std::size_t>((round + 1) % 4)];
    cores[0]->MoveId(head.target(), dest->id());
    // The whole group lives at dest and sums correctly.
    EXPECT_TRUE(dest->repository().Contains(mid.target())) << round;
    EXPECT_TRUE(dest->repository().Contains(tail.target())) << round;
    EXPECT_EQ(head.Invoke<std::int64_t>("sum", std::int64_t{5}), 6) << round;
  }
}

TEST_F(ScenarioTest, StampAgentReconnectsToLocalDeviceEverywhere) {
  // The paper's printer example: a mobile complet with a stamp reference
  // reconnects to the local printer at every site it visits.
  auto cores = MakeCores(3);
  std::vector<core::ComletRef<Printer>> printers;
  for (core::Core* c : cores) printers.push_back(c->New<Printer>());

  auto agent = cores[0]->New<Node>();
  agent.Call("setNext", {Value(printers[0].handle()), Value("stamp")});

  for (int hop = 1; hop < 3; ++hop) {
    cores[static_cast<std::size_t>(hop - 1)]->MoveId(
        agent.target(), cores[static_cast<std::size_t>(hop)]->id());
    auto anchor = std::dynamic_pointer_cast<Node>(
        cores[static_cast<std::size_t>(hop)]->repository().Get(
            agent.target()));
    ASSERT_NE(anchor, nullptr);
    EXPECT_EQ(anchor->next().target(),
              printers[static_cast<std::size_t>(hop)].target());
  }
}

TEST_F(ScenarioTest, HeavyChurnManyCompletsManyMoves) {
  // Stress: 40 complets shuffled across 5 cores for 10 rounds, with
  // invocations interleaved; everything stays reachable and consistent.
  auto cores = MakeCores(5, Millis(2), 1e7);
  std::vector<core::ComletRef<Counter>> counters;
  for (int i = 0; i < 40; ++i)
    counters.push_back(
        cores[static_cast<std::size_t>(i % 5)]->New<Counter>());

  std::uint64_t expected = 0;
  for (int round = 0; round < 10; ++round) {
    for (int i = 0; i < 40; ++i) {
      auto& ref = counters[static_cast<std::size_t>(i)];
      core::Core* dest = cores[static_cast<std::size_t>((i + round) % 5)];
      ref.source_core()->MoveId(ref.target(), dest->id());
      ref.Call("increment");
      ++expected;
    }
  }
  std::uint64_t total = 0;
  for (auto& ref : counters)
    total += static_cast<std::uint64_t>(ref.Invoke<std::int64_t>("get"));
  EXPECT_EQ(total, expected);
}

TEST_F(ScenarioTest, ClosureWithSharedStructureMovesIntact) {
  // A complet whose closure has aliasing and an embedded complet reference
  // keeps both across movement.
  auto cores = MakeCores(2);
  auto counter = cores[0]->New<Counter>();
  auto holder = cores[0]->New<Holder>();
  {
    auto anchor = std::dynamic_pointer_cast<Holder>(
        cores[0]->repository().Get(holder.target()));
    auto shared = std::make_shared<TreeNode>();
    shared->value = 9;
    shared->counter = counter;
    anchor->root = std::make_shared<TreeNode>();
    anchor->root->value = 1;
    anchor->root->counter = counter;  // embedded complet reference
    anchor->root->left = shared;
    anchor->root->right = shared;
  }
  EXPECT_TRUE(holder.Invoke<bool>("sharedChildren"));
  cores[0]->Move(holder, cores[1]->id());
  EXPECT_TRUE(holder.Invoke<bool>("sharedChildren"));
  EXPECT_EQ(holder.Invoke<std::int64_t>("bump"), 1);
  EXPECT_EQ(counter.Invoke<std::int64_t>("get"), 1);  // original complet
}

TEST_F(ScenarioTest, LoadBalancingViaThresholdEvents) {
  // completLoad above threshold at a core triggers spreading complets to
  // the least-loaded core (API-level relocation programming, §4).
  // The listener moves complets of the busy Core, so it runs there.
  auto cores = MakeCores(3);
  core::Core* busy = cores[1];
  busy->ListenThresholdAt(
      busy->id(), monitor::ComletLoadProbe(), 6.0, monitor::Trigger::kAbove,
      Millis(50), [busy, dest = cores[2]->id()](const monitor::Event&) {
        std::vector<ComletId> here = busy->ComletsHere();
        // Move half of the complets away.
        for (std::size_t i = 0; i < here.size() / 2; ++i)
          busy->MoveIdAsync(here[i], dest);
      });
  for (int i = 0; i < 10; ++i) cores[1]->New<Message>("m");
  rt.RunFor(Seconds(1));
  EXPECT_LE(cores[1]->repository().size(), 5u);
  EXPECT_GE(cores[2]->repository().size(), 5u);
}

}  // namespace
}  // namespace fargo::testing
