// The asynchronous invocation pipeline end to end: pipelined InvokeAsync
// sharing one round-trip, interleaved cross-core calls without nested
// pumping, MoveAsync, script rules relocating complets while invocations
// are in flight, chaos-hardened at-most-once semantics for async batches,
// async complet methods (value, error, move, durability) and late-reply
// accounting.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "src/script/interp.h"
#include "tests/support/fixture.h"

namespace fargo::testing {
namespace {

using core::ComletRef;

/// A complet with async methods: each awaits a Counter elsewhere, then
/// mutates its own state after the await.
class Tally : public core::Anchor {
 public:
  static constexpr std::string_view kTypeName = "test.Tally";
  Tally() {
    methods().Register("bind", [this](const std::vector<Value>& args) {
      source_ = core()->RefFromHandle(args.at(0).AsHandle());
      return Value();
    });
    methods().Register("pull", [this](const std::vector<Value>&) {
      // fargolint: allow(capture-this) the executor keeps the anchor alive until this method's future settles
      return source_.CallAsync("get").Then([this](Value& v) {
        total_ += v.AsInt();
        return Value(total_);
      });
    });
    methods().Register("pullThenFail", [this](const std::vector<Value>&) {
      return source_.CallAsync("get").Then([](Value&) -> Value {
        throw FargoError("tally refused the value");
      });
    });
    methods().Register("total",
                       [this](const std::vector<Value>&) { return Value(total_); });
  }
  std::string_view TypeName() const override { return kTypeName; }
  void Serialize(serial::GraphWriter& w) const override {
    source_.SerializeTo(w);
    w.WriteInt(total_);
  }
  void Deserialize(serial::GraphReader& r) override {
    source_.DeserializeFrom(r);
    total_ = r.ReadInt();
  }

 private:
  core::ComletRefBase source_;
  std::int64_t total_ = 0;
};

const bool kTallyReg = serial::RegisterType<Tally>();

class AsyncPipelineTest : public FargoTest {
 protected:
  AsyncPipelineTest() { (void)kTallyReg; }

  /// A Tally on `host` bound to a Counter holding `value` on `source`.
  core::ComletRef<Tally> MakeTally(core::Core& host, core::Core& source,
                                   std::int64_t value) {
    auto counter = source.New<Counter>();
    counter.Call("increment", {Value(value)});
    auto tally = host.New<Tally>();
    tally.Call("bind", {Value(counter.handle())});
    return tally;
  }
};

TEST_F(AsyncPipelineTest, InterleavedCrossCoreInvocationsDoNotDeadlock) {
  auto cores = MakeCores(2, Millis(20));
  auto a = cores[0]->New<Counter>();
  auto b = cores[1]->New<Counter>();

  // Each side calls the other before either round-trip completes. With the
  // old blocking RPC this required re-entrant pumping; the async pipeline
  // interleaves both conversations on a single event loop.
  auto b_from_0 = cores[0]->RefTo<Counter>(b.handle());
  auto a_from_1 = cores[1]->RefTo<Counter>(a.handle());
  sim::Future<std::int64_t> f1 = b_from_0.InvokeAsync<std::int64_t>("increment");
  sim::Future<std::int64_t> f2 = a_from_1.InvokeAsync<std::int64_t>("increment");
  EXPECT_FALSE(f1.settled());
  EXPECT_FALSE(f2.settled());

  rt.RunUntilIdle();
  ASSERT_TRUE(f1.settled());
  ASSERT_TRUE(f2.settled());
  EXPECT_EQ(f1.value(), 1);
  EXPECT_EQ(f2.value(), 1);
}

TEST_F(AsyncPipelineTest, PipelinedInvocationsShareTheRoundTrip) {
  auto cores = MakeCores(2, Millis(50));
  auto counter = cores[1]->New<Counter>();
  auto stub = cores[0]->RefTo<Counter>(counter.handle());

  // Baseline: one synchronous invocation over the 50 ms link.
  const SimTime t0 = rt.scheduler().Now();
  EXPECT_EQ(stub.Invoke<std::int64_t>("increment"), 1);
  const SimTime single = rt.scheduler().Now() - t0;
  ASSERT_GT(single, Millis(99));  // sanity: the RTT is really being paid

  // K concurrent calls issued back-to-back: they pipeline on the link and
  // complete in roughly one round-trip, not K of them.
  constexpr int kPipeline = 16;
  const SimTime t1 = rt.scheduler().Now();
  std::vector<sim::Future<std::int64_t>> futures;
  for (int i = 0; i < kPipeline; ++i)
    futures.push_back(stub.InvokeAsync<std::int64_t>("increment"));
  rt.RunUntilIdle();
  const SimTime pipelined = rt.scheduler().Now() - t1;

  std::vector<std::int64_t> got;
  for (auto& f : futures) {
    ASSERT_TRUE(f.settled());
    got.push_back(f.value());
  }
  std::sort(got.begin(), got.end());
  for (int i = 0; i < kPipeline; ++i) EXPECT_EQ(got[i], i + 2);

  // The acceptance bar: 16 pipelined calls in under 2x one call.
  EXPECT_LT(pipelined, 2 * single)
      << "pipelined=" << pipelined << " single=" << single;
}

TEST_F(AsyncPipelineTest, MoveAsyncSettlesAndRelocates) {
  auto cores = MakeCores(3);
  auto counter = cores[1]->New<Counter>();

  // A routed move issued from an administrative core that hosts nothing.
  auto stub = cores[0]->RefTo<Counter>(counter.handle());
  sim::Future<sim::Unit> moved = cores[0]->MoveAsync(stub, cores[2]->id());
  EXPECT_FALSE(moved.settled());
  rt.RunUntilIdle();
  ASSERT_TRUE(moved.settled());
  EXPECT_TRUE(moved.ok());
  EXPECT_TRUE(cores[2]->repository().Contains(counter.target()));

  // The relocated complet is still invocable through the stale stub
  // (forwarding + chain shortening, §3.1).
  EXPECT_EQ(stub.Invoke<std::int64_t>("increment"), 1);
}

TEST_F(AsyncPipelineTest, ScriptRuleMovesComletWhileInvocationsAreInFlight) {
  auto cores = MakeCores(3, Millis(20));
  auto counter = cores[1]->New<Counter>();
  auto stub = cores[0]->RefTo<Counter>(counter.handle());

  // A periodic relocation rule at the admin core: its body runs inside a
  // scheduled listener, so the move goes through MoveAsync (no nested pump)
  // while client invocations race the relocation.
  script::Engine engine(rt, *cores[0]);
  engine.SetVar("target", Value(counter.handle()));
  engine.Run("every 0.03 do move $target to core2 end");

  std::vector<sim::Future<std::int64_t>> futures;
  constexpr int kWave = 8;
  for (int i = 0; i < kWave; ++i)
    futures.push_back(stub.InvokeAsync<std::int64_t>("increment"));
  // A second wave launched mid-flight of the relocation.
  rt.scheduler().ScheduleAfter(Millis(35), [&] {
    for (int i = 0; i < kWave; ++i)
      futures.push_back(stub.InvokeAsync<std::int64_t>("increment"));
  });

  rt.RunFor(Millis(500));
  engine.Detach();  // stop the periodic rule so the world can drain
  rt.RunUntilIdle();

  EXPECT_GE(engine.moves_executed(), 1u);
  EXPECT_TRUE(cores[2]->repository().Contains(counter.target()));
  ASSERT_EQ(futures.size(), 2u * kWave);
  for (auto& f : futures) {
    ASSERT_TRUE(f.settled());
    EXPECT_TRUE(f.ok());
  }
  // Every invocation executed exactly once despite forwarding/parking.
  auto anchor = cores[2]->repository().Get(counter.target());
  ASSERT_NE(anchor, nullptr);
  EXPECT_EQ(static_cast<const Counter*>(anchor.get())->value(), 2 * kWave);
}

TEST_F(AsyncPipelineTest, ChaosPipelinedBatchesNeverDoubleExecute) {
  auto cores = MakeCores(3, Millis(2), 1e7);

  core::RetryPolicy policy;
  policy.max_attempts = 6;
  policy.initial_backoff = Millis(20);
  policy.seed = 0xA5F0;
  for (core::Core* c : cores) {
    c->SetRpcTimeout(Millis(200));
    c->SetRetryPolicy(policy);
  }

  net::FaultPlan plan;
  plan.seed = 0xA5F0;
  plan.drop = 0.05;
  plan.duplicate = 0.02;
  plan.reorder = 0.10;
  plan.reorder_jitter = Millis(10);
  rt.network().SetFaultPlan(plan);

  auto ledger = cores[0]->New<OpLedger>();
  constexpr int kBatches = 10;
  constexpr int kBatchSize = 16;
  std::int64_t successes = 0;
  std::int64_t op = 0;
  for (int b = 0; b < kBatches; ++b) {
    // Periodic re-layout between batches keeps requests racing the complet.
    if (b > 0) {
      try {
        cores[b % 3]->MoveId(ledger.target(), cores[(b + 1) % 3]->id());
      } catch (const FargoError&) {
        // Retries exhausted under chaos; the batch below still routes
        // down the tracker chain.
      }
    }
    std::vector<sim::Future<std::int64_t>> batch;
    auto stub = cores[(b + 2) % 3]->RefTo<OpLedger>(ledger.handle());
    for (int i = 0; i < kBatchSize; ++i)
      batch.push_back(stub.InvokeAsync<std::int64_t>("apply", op++));
    rt.RunUntilIdle();
    for (auto& f : batch) {
      ASSERT_TRUE(f.settled());
      if (f.ok()) ++successes;
    }
  }

  rt.network().ClearFaults();
  rt.RunUntilIdle();

  // Audit the ground truth: at-most-once must hold for async batches too.
  const OpLedger* anchor = nullptr;
  for (core::Core* c : cores) {
    if (auto a = c->repository().Get(ledger.target())) {
      anchor = static_cast<const OpLedger*>(a.get());
      break;
    }
  }
  ASSERT_NE(anchor, nullptr) << "ledger vanished under chaos";
  EXPECT_EQ(anchor->dups(), 0);
  EXPECT_GE(anchor->total(), successes);
  EXPECT_LE(anchor->total(), op);
}

TEST_F(AsyncPipelineTest, PureAsyncPipelineNeverNestsThePump) {
  auto cores = MakeCores(2, Millis(10));
  auto counter = cores[1]->New<Counter>();
  auto stub = cores[0]->RefTo<Counter>(counter.handle());

  std::vector<sim::Future<std::int64_t>> futures;
  for (int i = 0; i < 16; ++i)
    futures.push_back(stub.InvokeAsync<std::int64_t>("increment"));
  // A local (host-initiated) async move rides along: marshal/commit are
  // continuation-driven as well.
  sim::Future<sim::Unit> moved = cores[1]->MoveAsync(counter, cores[0]->id());
  rt.RunUntilIdle();

  for (auto& f : futures) {
    ASSERT_TRUE(f.settled());
    EXPECT_TRUE(f.ok());
  }
  EXPECT_TRUE(moved.ok());
  // Nothing in the async path re-entered the scheduler: a nested pump
  // would have thrown out of the top-level RunUntilIdle.
}

/// Runs under both engines whatever FARGO_PARALLEL says: 0 = sim, 2 = two
/// locality workers.
class EngineTest : public FargoTest,
                   public ::testing::WithParamInterface<int> {
 protected:
  EngineTest() : FargoTest(GetParam()) {}
};

TEST_P(EngineTest, LocalOnewayMoveNeverPumps) {
  // A one-way __fargo.move posted to a complet hosted right here is
  // dispatched from a scheduled task. The move must run async from there:
  // a blocking wait would throw (a pump inside the pump, or on a locality
  // worker), which is logged as a failed one-way.
  auto cores = MakeCores(2, Millis(10));
  auto counter = cores[0]->New<Counter>();
  ::testing::internal::CaptureStderr();
  counter.Post(std::string(core::kMoveMethod),
               {Value(static_cast<std::int64_t>(cores[1]->id().value)),
                Value(std::string()), Value(Value::List{})});
  rt.RunUntilIdle();
  const std::string log = ::testing::internal::GetCapturedStderr();

  EXPECT_TRUE(cores[1]->repository().Contains(counter.target()));
  EXPECT_FALSE(cores[0]->repository().Contains(counter.target()));
  EXPECT_EQ(log.find("failed"), std::string::npos) << log;
}

TEST_P(EngineTest, RoutedOnewayMoveConcludesLikeAnyOneway) {
  // A one-way __fargo.move posted from a Core that does not host the
  // complet is routed to its host, runs there as one exec, and hands the
  // origin's session slot back by SlotAck once the move settles — long
  // before the origin's local fallback (one RPC timeout) would.
  auto cores = MakeCores(3, Millis(10));
  auto counter = cores[1]->New<Counter>();
  auto remote = cores[0]->RefTo<Counter>(counter.handle());
  const std::uint64_t execs = rt.metrics().CounterValue("invoke.exec");
  remote.Post(std::string(core::kMoveMethod),
              {Value(static_cast<std::int64_t>(cores[2]->id().value)),
               Value(std::string()), Value(Value::List{})});
  EXPECT_EQ(cores[0]->sessions().slots_in_flight(), 1u);
  rt.RunFor(Seconds(1));

  EXPECT_TRUE(cores[2]->repository().Contains(counter.target()));
  EXPECT_FALSE(cores[1]->repository().Contains(counter.target()));
  EXPECT_EQ(rt.metrics().CounterValue("invoke.exec"), execs + 1);
  EXPECT_EQ(cores[0]->sessions().slots_in_flight(), 0u);
}

TEST_P(EngineTest, RoutedOnewayMoveToACrashedCoreFailsOnce) {
  // The move rolls back at the host: the complet stays home, the failure
  // is logged once (the one-way's only outcome), and the slot still comes
  // back to the origin.
  auto cores = MakeCores(3, Millis(10));
  cores[1]->SetRpcTimeout(Millis(200));
  auto counter = cores[1]->New<Counter>();
  auto remote = cores[0]->RefTo<Counter>(counter.handle());
  cores[2]->Crash();
  ::testing::internal::CaptureStderr();
  remote.Post(std::string(core::kMoveMethod),
              {Value(static_cast<std::int64_t>(cores[2]->id().value)),
               Value(std::string()), Value(Value::List{})});
  rt.RunFor(Seconds(5));
  const std::string log = ::testing::internal::GetCapturedStderr();

  EXPECT_TRUE(cores[1]->repository().Contains(counter.target()));
  const std::string line = "one-way invocation of __fargo.move failed";
  const std::size_t first = log.find(line);
  ASSERT_NE(first, std::string::npos) << log;
  EXPECT_EQ(log.find(line, first + 1), std::string::npos) << log;
  EXPECT_EQ(cores[0]->sessions().slots_in_flight(), 0u);
  EXPECT_EQ(counter.Invoke<std::int64_t>("increment"), 1);
}

INSTANTIATE_TEST_SUITE_P(Engines, EngineTest, ::testing::Values(0, 2),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return info.param == 0
                                      ? std::string("Sim")
                                      : "Parallel" + std::to_string(info.param);
                         });

TEST_F(AsyncPipelineTest, AsyncMethodDeliversItsValue) {
  auto cores = MakeCores(3, Millis(10));
  auto tally = MakeTally(*cores[0], *cores[2], 5);
  // Routed from another Core, and dispatched at the origin itself.
  auto remote = cores[1]->RefTo<Tally>(tally.handle());
  EXPECT_EQ(remote.Invoke<std::int64_t>("pull"), 5);
  EXPECT_EQ(tally.Invoke<std::int64_t>("pull"), 10);
  EXPECT_EQ(tally.Invoke<std::int64_t>("total"), 10);
}

TEST_F(AsyncPipelineTest, AsyncMethodDeliversItsErrorAsAnAppError) {
  auto cores = MakeCores(3, Millis(10));
  auto tally = MakeTally(*cores[0], *cores[2], 5);
  auto remote = cores[1]->RefTo<Tally>(tally.handle());
  const std::uint64_t execs = rt.metrics().CounterValue("invoke.exec");
  for (core::ComletRef<Tally>* ref : {&remote, &tally}) {
    try {
      ref->Call("pullThenFail");
      ADD_FAILURE() << "the method's error was not delivered";
    } catch (const UnreachableError& e) {
      ADD_FAILURE() << "delivered as a transport error: " << e.what();
    } catch (const FargoError& e) {
      EXPECT_NE(std::string(e.what()).find("tally refused the value"),
                std::string::npos)
          << e.what();
    }
  }
  // Each failed call ran once: two pullThenFail plus their two gets. An app
  // error is never retried.
  EXPECT_EQ(rt.metrics().CounterValue("invoke.exec"), execs + 4);
}

TEST_F(AsyncPipelineTest, PendingAsyncMethodWhoseCompletMovesAwayFinishes) {
  // The complet moves, and its move commits, while its method still awaits
  // a far peer. The executor kept the departed anchor alive, so the method
  // finishes on it and the caller gets the value; the complet lives on at
  // its new host.
  auto cores = MakeCores(3, Millis(50));
  rt.network().SetLink(cores[0]->id(), cores[1]->id(),
                       net::LinkModel{Millis(1), 1.25e6, true});
  auto tally = MakeTally(*cores[0], *cores[2], 5);
  auto remote = cores[1]->RefTo<Tally>(tally.handle());
  sim::Future<Value> pulled = remote.CallAsync("pull");
  rt.RunFor(Millis(5));  // executing at cores[0], awaiting cores[2]
  cores[0]->Move(tally, cores[1]->id());  // commits long before the answer
  EXPECT_FALSE(pulled.settled());
  rt.RunUntilIdle();
  ASSERT_TRUE(pulled.settled());
  ASSERT_TRUE(pulled.ok()) << sim::ErrorMessage(pulled.error());
  EXPECT_EQ(pulled.value().AsInt(), 5);
  EXPECT_TRUE(cores[1]->repository().Contains(tally.target()));
  EXPECT_FALSE(cores[0]->repository().Contains(tally.target()));
  EXPECT_EQ(remote.Invoke<std::int64_t>("pull"), 5);  // still serving
}

TEST_F(AsyncPipelineTest, DurableAsyncMethodRecoversItsPostAwaitState) {
  // The State record is logged when the method's future settles, before
  // the Exec record and the reply's barrier: a crash after the reply
  // recovers what the method wrote after its await.
  auto cores = MakeCores(2, Millis(10));
  cores[0]->EnableWal();
  auto tally = MakeTally(*cores[0], *cores[1], 7);
  auto remote = cores[1]->RefTo<Tally>(tally.handle());
  EXPECT_EQ(remote.Invoke<std::int64_t>("pull"), 7);  // routed executor
  EXPECT_EQ(tally.Invoke<std::int64_t>("pull"), 14);  // origin-local
  cores[0]->Crash();
  cores[0]->Restart();
  rt.RunUntilIdle();
  ASSERT_TRUE(cores[0]->repository().Contains(tally.target()));
  auto recovered = cores[1]->RefTo<Tally>(
      ComletHandle{tally.target(), cores[0]->id(), "test.Tally"});
  EXPECT_EQ(recovered.Invoke<std::int64_t>("total"), 14);
}

TEST_F(AsyncPipelineTest, LateRepliesAreCountedAndDropped) {
  auto cores = MakeCores(2, Millis(30));  // RTT 60 ms
  core::RetryPolicy one_shot;
  one_shot.max_attempts = 1;
  cores[0]->SetRetryPolicy(one_shot);
  cores[0]->SetRpcTimeout(Millis(40));  // gives up before the reply lands

  auto counter = cores[1]->New<Counter>();
  auto stub = cores[0]->RefTo<Counter>(counter.handle());
  EXPECT_THROW(stub.Invoke<std::int64_t>("increment"), UnreachableError);

  // The genuine reply is still in flight; when it lands there is no waiter.
  rt.RunUntilIdle();
  EXPECT_GE(rt.metrics().CounterValue("rpc.late_replies"), 1u);

  // The execution happened exactly once at the target — the timeout was a
  // client-side judgement, not a lost operation.
  auto anchor = cores[1]->repository().Get(counter.target());
  ASSERT_NE(anchor, nullptr);
  EXPECT_EQ(static_cast<const Counter*>(anchor.get())->value(), 1);
}

}  // namespace
}  // namespace fargo::testing
