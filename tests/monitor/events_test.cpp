// Monitor events (§4.2): lifecycle events, threshold events (edge
// triggering, per-listener filtering on one sampler), distributed
// listeners, complet listeners that survive migration, shutdown evacuation.
#include <gtest/gtest.h>

#include "tests/support/fixture.h"

namespace fargo::testing {
namespace {

using monitor::ComletLoadProbe;
using monitor::Event;
using monitor::EventKind;
using monitor::InvocationRateProbe;
using monitor::Trigger;

class EventsTest : public FargoTest {};

TEST_F(EventsTest, ArrivalAndDepartureFireOnMovement) {
  auto cores = MakeCores(2);
  std::vector<std::string> log;
  cores[0]->events().Listen(EventKind::kComletDeparted,
                            [&](const Event& e) {
                              log.push_back("departed " + ToString(e.comlet));
                            });
  cores[1]->events().Listen(EventKind::kComletArrived,
                            [&](const Event& e) {
                              log.push_back("arrived " + ToString(e.comlet));
                            });
  auto msg = cores[0]->New<Message>("m");
  cores[0]->Move(msg, cores[1]->id());
  rt.RunUntilIdle();
  ASSERT_EQ(log.size(), 2u);
  // Notification is asynchronous; arrival fires at the destination during
  // the move, departure at the source after commit.
  EXPECT_NE(log[0].find(ToString(msg.target())), std::string::npos);
  EXPECT_NE(log[1].find(ToString(msg.target())), std::string::npos);
}

TEST_F(EventsTest, InstantiationFiresArrival) {
  auto cores = MakeCores(1);
  int arrivals = 0;
  cores[0]->events().Listen(EventKind::kComletArrived,
                            [&](const Event&) { ++arrivals; });
  cores[0]->New<Message>("a");
  cores[0]->New<Message>("b");
  rt.RunUntilIdle();
  EXPECT_EQ(arrivals, 2);
}

TEST_F(EventsTest, NotificationIsAsynchronous) {
  auto cores = MakeCores(1);
  bool notified = false;
  cores[0]->events().Listen(EventKind::kComletArrived,
                            [&](const Event&) { notified = true; });
  cores[0]->New<Message>("m");
  EXPECT_FALSE(notified);  // fired, not yet delivered
  rt.RunUntilIdle();
  EXPECT_TRUE(notified);
}

TEST_F(EventsTest, UnlistenStopsDelivery) {
  auto cores = MakeCores(1);
  int count = 0;
  monitor::SubId sub = cores[0]->events().Listen(
      EventKind::kComletArrived, [&](const Event&) { ++count; });
  cores[0]->New<Message>("a");
  rt.RunUntilIdle();
  cores[0]->events().Unlisten(sub);
  cores[0]->New<Message>("b");
  rt.RunUntilIdle();
  EXPECT_EQ(count, 1);
}

TEST_F(EventsTest, ThresholdFiresOnceAndRearms) {
  auto cores = MakeCores(2);
  int fires = 0;
  double seen = 0;
  cores[0]->events().ListenThreshold(
      ComletLoadProbe(), 2.5, Trigger::kAbove, Millis(10),
      [&](const Event& e) {
        ++fires;
        seen = e.value;
      });
  std::vector<core::ComletRef<Message>> kept;
  for (int i = 0; i < 5; ++i) kept.push_back(cores[0]->New<Message>("x"));
  rt.RunFor(Millis(500));
  EXPECT_EQ(fires, 1);  // edge-triggered: once per crossing
  EXPECT_GT(seen, 2.5);

  // Drop below the threshold (evacuate), then exceed again: re-armed.
  for (auto& ref : kept) cores[0]->MoveId(ref.target(), cores[1]->id());
  rt.RunFor(Millis(500));
  for (int i = 0; i < 5; ++i) kept.push_back(cores[0]->New<Message>("y"));
  rt.RunFor(Millis(500));
  EXPECT_EQ(fires, 2);
}

TEST_F(EventsTest, ManyListenersOneSampler) {
  // "This design allows many listeners without overloading the measurement
  // unit": N threshold listeners on the same probe share one sampler.
  auto cores = MakeCores(1);
  monitor::Profiler& prof = cores[0]->profiler();
  int fired = 0;
  for (int i = 0; i < 32; ++i) {
    cores[0]->events().ListenThreshold(ComletLoadProbe(), 0.5,
                                       Trigger::kAbove, Millis(10),
                                       [&](const Event&) { ++fired; });
  }
  EXPECT_EQ(prof.active_probes(), 1u);
  const auto evals_before = prof.evaluations();
  cores[0]->New<Message>("m");
  rt.RunFor(Millis(100));
  // ~10 samples regardless of 32 listeners.
  EXPECT_LE(prof.evaluations() - evals_before, 11u);
  EXPECT_EQ(fired, 32);  // but every listener was notified
}

TEST_F(EventsTest, BelowTriggerFiresOnDrop) {
  auto cores = MakeCores(2);
  rt.network().SetLink(cores[0]->id(), cores[1]->id(),
                       net::LinkModel{Millis(5), 1e6, true});
  int fires = 0;
  cores[0]->events().ListenThreshold(
      monitor::BandwidthProbe(cores[1]->id()), 2e5, Trigger::kBelow,
      Millis(10), [&](const Event&) { ++fires; });
  rt.RunFor(Millis(100));
  EXPECT_EQ(fires, 0);  // healthy link
  rt.network().SetLink(cores[0]->id(), cores[1]->id(),
                       net::LinkModel{Millis(5), 1e5, true});  // degrade
  rt.RunFor(Millis(200));
  EXPECT_EQ(fires, 1);
}

TEST_F(EventsTest, RemoteLifecycleListener) {
  auto cores = MakeCores(2);
  int arrivals = 0;
  // core0 listens to events fired *at core1* (distributed events).
  monitor::SubId token = cores[0]->ListenAt(
      cores[1]->id(), EventKind::kComletArrived,
      [&](const Event& e) {
        ++arrivals;
        EXPECT_EQ(e.source, cores[1]->id());
      });
  cores[1]->New<Message>("m");
  rt.RunUntilIdle();
  EXPECT_EQ(arrivals, 1);

  cores[0]->UnlistenAt(token);
  rt.RunUntilIdle();
  cores[1]->New<Message>("n");
  rt.RunUntilIdle();
  EXPECT_EQ(arrivals, 1);
}

TEST_F(EventsTest, RemoteThresholdListener) {
  auto cores = MakeCores(2);
  int fires = 0;
  cores[0]->ListenThresholdAt(cores[1]->id(), ComletLoadProbe(), 1.5,
                              Trigger::kAbove, Millis(10),
                              [&](const Event&) { ++fires; });
  cores[1]->New<Message>("a");
  cores[1]->New<Message>("b");
  rt.RunFor(Millis(200));
  EXPECT_EQ(fires, 1);
}

TEST_F(EventsTest, CompletListenerSurvivesMigration) {
  // A complet registers for remote events, then migrates; it keeps
  // receiving them because delivery goes through its tracked reference.
  auto cores = MakeCores(3);
  auto counter = cores[1]->New<Counter>();  // the listener complet
  monitor::Listener deliver = monitor::ComletListener(
      *cores[0], counter.handle(), "increment");
  // Re-purpose Counter.increment(event-map)? increment expects int; use a
  // dedicated wrapper: deliver event -> increment by 1 via a lambda.
  (void)deliver;
  core::Core* here = cores[0];
  here->ListenAt(here->id(), EventKind::kComletArrived,
                 [here, handle = counter.handle()](const Event&) {
                   // Invocation through the ref tracks the listener.
                   here->RefFromHandle(handle).CallAsync("increment");
                 });
  cores[0]->New<Message>("one");
  rt.RunUntilIdle();
  EXPECT_EQ(counter.Invoke<std::int64_t>("get"), 1);

  // Migrate the listener; events must still reach it.
  cores[1]->MoveId(counter.target(), cores[2]->id());
  cores[0]->New<Message>("two");
  rt.RunUntilIdle();
  EXPECT_EQ(counter.Invoke<std::int64_t>("get"), 2);
}

TEST_F(EventsTest, ShutdownEventEnablesEvacuation) {
  // The paper's reliability use case: on CoreShutdown, migrate complets to
  // a safe core to keep the application alive.
  auto cores = MakeCores(3);
  auto m1 = cores[1]->New<Message>("a");
  auto m2 = cores[1]->New<Message>("b");
  // The listener acts through the dying Core, so it is registered there.
  core::Core* dying = cores[1];
  dying->ListenAt(dying->id(), EventKind::kCoreShutdown,
                  [dying, safe = cores[2]->id()](const Event&) {
                    for (ComletId id : dying->ComletsHere())
                      dying->MoveIdAsync(id, safe);
                  });
  cores[1]->Shutdown(Millis(500));
  rt.RunUntilIdle();
  EXPECT_FALSE(cores[1]->alive());
  EXPECT_TRUE(cores[2]->repository().Contains(m1.target()));
  EXPECT_TRUE(cores[2]->repository().Contains(m2.target()));
  // The application is still alive: a client re-resolves against the
  // surviving core (stubs sourced at the dead core are gone with it).
  auto survivor = cores[0]->RefFromHandle(
      ComletHandle{m1.target(), cores[2]->id(), "test.Message"});
  EXPECT_EQ(survivor.Call("text").AsString(), "a");
}

TEST_F(EventsTest, GracefulShutdownFlushesForwardingKnowledge) {
  // Chains that pass through a gracefully shut-down core keep resolving:
  // the dying core broadcasts its tracker knowledge before detaching.
  auto cores = MakeCores(4);
  auto msg = cores[1]->New<Message>("m");
  auto observer = cores[3]->RefTo<Message>(msg.handle());  // hint: core1
  (void)observer;
  // msg evacuates itself when core1 announces shutdown.
  // The listener acts through the dying Core, so it is registered there.
  core::Core* dying = cores[1];
  dying->ListenAt(dying->id(), EventKind::kCoreShutdown,
                  [dying, safe = cores[2]->id()](const Event&) {
                    for (ComletId id : dying->ComletsHere())
                      dying->MoveIdAsync(id, safe);
                  });
  cores[1]->Shutdown(Millis(500));
  rt.RunUntilIdle();
  // The observer's stub still routes: core3 learned core1's forwarding
  // state (msg -> core2) from the shutdown flush.
  EXPECT_EQ(observer.Invoke<std::string>("text"), "m");
}

TEST_F(EventsTest, EventValueMapRoundTrip) {
  Event e;
  e.kind = EventKind::kThreshold;
  e.source = CoreId{4};
  e.comlet = ComletId{CoreId{2}, 9};
  e.probe = InvocationRateProbe(ComletId{CoreId{1}, 1}, ComletId{CoreId{1}, 2});
  e.value = 3.5;
  Event back = monitor::EventFromValue(monitor::EventToValue(e));
  EXPECT_EQ(back.kind, e.kind);
  EXPECT_EQ(back.source, e.source);
  EXPECT_EQ(back.comlet, e.comlet);
  EXPECT_EQ(back.probe.service, e.probe.service);
  EXPECT_DOUBLE_EQ(back.value, e.value);
}

}  // namespace
}  // namespace fargo::testing
