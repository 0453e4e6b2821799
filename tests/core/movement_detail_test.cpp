// Movement protocol details: continuations with complet-reference
// arguments, itineraries driven by continuations, event ordering, stats.
#include <gtest/gtest.h>

#include "tests/support/fixture.h"

namespace fargo::testing {
namespace {

class MovementDetailTest : public FargoTest {};

TEST_F(MovementDetailTest, ContinuationReceivesHandleArguments) {
  // The continuation gets a complet handle and can interact through it —
  // parameters pass by reference, degraded to link (§3.1).
  auto cores = MakeCores(2);
  auto counter = cores[0]->New<Counter>();
  auto worker = cores[0]->New<Worker>();
  auto data = cores[1]->New<Data>(std::size_t{50});
  (void)counter;
  // Move the worker, binding it to `data` on arrival via continuation.
  cores[0]->Move(worker, cores[1]->id(), "bind", {Value(data.handle())});
  rt.RunUntilIdle();
  EXPECT_TRUE(worker.Invoke<bool>("dataBound"));
  EXPECT_EQ(worker.Invoke<std::string>("refType"), "link");  // degraded
  EXPECT_EQ(worker.Invoke<std::int64_t>("work"), 50);
}

TEST_F(MovementDetailTest, ArrivalPrecedesDepartureInSimTime) {
  // The destination installs (fires arrived) before the sender commits and
  // releases the old copy (fires departed): compare local delivery times.
  auto cores = MakeCores(2);
  SimTime arrived_at = -1, departed_at = -1;
  cores[1]->events().Listen(monitor::EventKind::kComletArrived,
                            [&](const monitor::Event&) {
                              if (arrived_at < 0) arrived_at = rt.Now();
                            });
  cores[0]->events().Listen(monitor::EventKind::kComletDeparted,
                            [&](const monitor::Event&) {
                              departed_at = rt.Now();
                            });
  auto msg = cores[0]->New<Message>("m");
  cores[0]->Move(msg, cores[1]->id());
  rt.RunUntilIdle();
  ASSERT_GE(arrived_at, 0);
  ASSERT_GE(departed_at, 0);
  // Departure commits only after the destination's ack: strictly later.
  EXPECT_LT(arrived_at, departed_at);
}

TEST_F(MovementDetailTest, MoveStatsAreAccurate) {
  auto cores = MakeCores(2);
  cores[1]->New<Printer>();  // stamp target at destination
  auto worker = cores[0]->New<Worker>();
  auto pulled = cores[0]->New<Data>(std::size_t{100});
  worker.Call("bind", {Value(pulled.handle()), Value("pull")});
  auto node = cores[0]->New<Node>();
  node.Call("setNext", {Value(worker.handle()), Value("pull")});
  // node also stamps a printer? Node has one slot; use worker's stats only.
  cores[0]->Move(node, cores[1]->id());
  const core::MoveStats& s = cores[0]->movement().last_move_stats();
  EXPECT_EQ(s.complets_moved, 3u);        // node + worker + pulled data
  EXPECT_EQ(s.complets_duplicated, 0u);
  EXPECT_GE(s.refs_linked, 2u);           // the two pull edges
  EXPECT_EQ(s.refs_stamped, 0u);
  EXPECT_EQ(s.deferred_remote_pulls, 0u);
  EXPECT_GT(s.stream_bytes, 100u);
}

TEST_F(MovementDetailTest, ContinuationDrivenItinerary) {
  // A complet hops along an itinerary purely via arrival continuations
  // that issue the next self-move — the weak-mobility pattern of §3.3.
  auto cores = MakeCores(4);
  auto msg = cores[0]->New<Message>("tourist");
  // Drive: move to 1, then from 1 to 2, then 2 to 3, each as a
  // continuation chained by the test through the system move method.
  cores[0]->Move(msg, cores[1]->id(), "start", {Value("leg1")});
  rt.RunUntilIdle();
  msg.Call("__fargo.move",
           {Value(static_cast<std::int64_t>(cores[2]->id().value)),
            Value("start"), Value(Value::List{Value("leg2")})});
  rt.RunUntilIdle();
  msg.Call("__fargo.move",
           {Value(static_cast<std::int64_t>(cores[3]->id().value)),
            Value("start"), Value(Value::List{Value("leg3")})});
  rt.RunUntilIdle();
  EXPECT_TRUE(cores[3]->repository().Contains(msg.target()));
  auto anchor = std::dynamic_pointer_cast<Message>(
      cores[3]->repository().Get(msg.target()));
  ASSERT_NE(anchor, nullptr);
  EXPECT_EQ(anchor->continuations(), 3);
  EXPECT_EQ(anchor->text(), "leg3");
}

TEST_F(MovementDetailTest, FailedContinuationDoesNotFailTheMove) {
  auto cores = MakeCores(2);
  auto msg = cores[0]->New<Message>("m");
  // Unknown continuation method: the move itself still commits.
  cores[0]->Move(msg, cores[1]->id(), "no_such_method", {});
  rt.RunUntilIdle();
  EXPECT_TRUE(cores[1]->repository().Contains(msg.target()));
  EXPECT_EQ(msg.Invoke<std::string>("text"), "m");
}

TEST_F(MovementDetailTest, EmptyCompletMovesCheaply) {
  auto cores = MakeCores(2);
  auto counter = cores[0]->New<Counter>();
  cores[0]->Move(counter, cores[1]->id());
  EXPECT_LT(cores[0]->movement().last_move_stats().stream_bytes, 128u);
}

TEST_F(MovementDetailTest, BackToBackMovesOfTheSameComplet) {
  auto cores = MakeCores(3);
  auto counter = cores[0]->New<Counter>();
  cores[0]->Move(counter, cores[1]->id());
  cores[1]->MoveId(counter.target(), cores[2]->id());
  cores[2]->MoveId(counter.target(), cores[0]->id());
  EXPECT_TRUE(cores[0]->repository().Contains(counter.target()));
  EXPECT_EQ(counter.Invoke<std::int64_t>("increment"), 1);
}

TEST_F(MovementDetailTest, MovedCompletKeepsItsMethodMap) {
  // The method map is rebuilt by the anchor's constructor at the
  // destination; a full introspection round trip proves it.
  auto cores = MakeCores(2);
  auto msg = cores[0]->New<Message>("m");
  Value before = msg.Call("__fargo.methods");
  cores[0]->Move(msg, cores[1]->id());
  Value after = msg.Call("__fargo.methods");
  EXPECT_EQ(before, after);
}

}  // namespace
}  // namespace fargo::testing
