// The sharded directory plane (docs/PROTOCOL.md §Directory): a versioned
// consistent-hash ring maps every complet onto a home shard; movement
// commits publish epoch-stamped locations; stale references recover via a
// bounded-hop route (tracker-chain hit, or one shard lookup). The chaos
// tests at the bottom crash shard owners mid-publish and require the plane
// to degrade to tracker-chain routing — never a black hole.
#include <gtest/gtest.h>

#include "src/core/shard_map.h"
#include "src/net/formation.h"
#include "src/serial/frame.h"
#include "tests/support/fixture.h"

namespace fargo::testing {
namespace {

// ---------------------------------------------------------------------------
// ShardMap: pure data, no runtime needed.
// ---------------------------------------------------------------------------

std::vector<CoreId> Owners(std::initializer_list<std::uint32_t> values) {
  std::vector<CoreId> owners;
  for (std::uint32_t v : values) owners.push_back(CoreId{v});
  return owners;
}

TEST(ShardMapTest, RingHashIsDeterministicAcrossBuilds) {
  // MixU64 is the splitmix64 finalizer; pin its best-known vector so a
  // "harmless" tweak (or an accidental std::hash) cannot slip in — ring
  // positions feed benchgate-gated message counts.
  EXPECT_EQ(core::MixU64(0), 0xe220a8397b1dcdafull);
  const ComletId id{CoreId{3}, 17};
  EXPECT_EQ(core::RingHash(id), core::RingHash(id));

  const core::ShardMap a = core::MakeShardMap(1, Owners({1, 2, 3, 4, 5}));
  const core::ShardMap b = core::MakeShardMap(1, Owners({1, 2, 3, 4, 5}));
  std::uint32_t distinct_mask = 0;
  for (std::uint64_t seq = 0; seq < 200; ++seq) {
    const ComletId c{CoreId{static_cast<std::uint32_t>(seq % 7 + 1)}, seq};
    const std::uint32_t shard = a.ShardOf(c);
    EXPECT_LT(shard, a.shard_count());
    EXPECT_EQ(shard, b.ShardOf(c));
    distinct_mask |= 1u << shard;
  }
  // 200 ids over 5 shards x 16 vnodes: the ring actually spreads load.
  EXPECT_GT(__builtin_popcount(distinct_mask), 1);
}

TEST(ShardMapTest, ReplacingAnOwnerRehomesNothing) {
  // Ring points derive from the shard *index*, not the owner identity: a
  // crashed owner can be swapped out without re-homing any complet.
  const core::ShardMap before = core::MakeShardMap(1, Owners({1, 2, 3, 4}));
  const core::ShardMap after = core::MakeShardMap(2, Owners({1, 2, 9, 4}));
  for (std::uint64_t seq = 0; seq < 300; ++seq) {
    const ComletId id{CoreId{static_cast<std::uint32_t>(seq % 5 + 1)}, seq};
    EXPECT_EQ(before.ShardOf(id), after.ShardOf(id));
    if (before.ShardOf(id) != 2)
      EXPECT_EQ(before.OwnerOf(id), after.OwnerOf(id));
    else
      EXPECT_EQ(after.OwnerOf(id), CoreId{9});
  }
}

TEST(ShardMapTest, WireRoundTripRebuildsTheRing) {
  const core::ShardMap sent = core::MakeShardMap(7, Owners({4, 8, 15}), 5);
  serial::Writer w;
  core::WriteShardMap(w, sent);
  std::vector<std::uint8_t> bytes = w.Take();
  serial::Reader r(bytes);
  const core::ShardMap got = core::ReadShardMap(r);
  EXPECT_EQ(got, sent);
  EXPECT_EQ(got.vnodes, 5u);
  for (std::uint64_t seq = 0; seq < 100; ++seq) {
    const ComletId id{CoreId{11}, seq};
    EXPECT_EQ(got.ShardOf(id), sent.ShardOf(id));  // ring rebuilt identically
  }
}

// ---------------------------------------------------------------------------
// Directory plane wiring on a live runtime.
// ---------------------------------------------------------------------------

class DirectoryTest : public FargoTest {
 protected:
  /// Sends `map` from `from` to `to` as a kDirectoryMap payload (the
  /// receiver adopts it per Core, higher version wins).
  void SendMap(const core::Core& from, const core::Core& to,
               const core::ShardMap& map) {
    serial::Writer w;
    core::WriteShardMap(w, map);
    net::Message msg;
    msg.from = from.id();
    msg.to = to.id();
    msg.kind = net::MessageKind::kDirectoryMap;
    msg.payload = w.Take();
    rt.network().Send(std::move(msg));
  }
};

TEST_F(DirectoryTest, WireMapAdoptionIsHigherVersionWins) {
  // kDirectoryMap adoption (Directory::HandleMap) keeps the higher version;
  // equal, older and invalid maps off the wire are ignored.
  auto cores = MakeCores(3);
  rt.EnableDirectory({cores[0]->id()});
  const std::uint64_t v = rt.shard_map().version;
  auto send = [&](const core::ShardMap& map) {
    SendMap(*cores[0], *cores[1], map);
    rt.RunUntilIdle();
  };
  const core::Directory& dir = cores[1]->directory();

  send(core::MakeShardMap(v + 3, {cores[1]->id(), cores[2]->id()}, 8));
  EXPECT_EQ(dir.shard_map().version, v + 3);
  EXPECT_EQ(dir.shard_map().shard_count(), 2u);

  send(core::MakeShardMap(v + 3, {cores[0]->id()}));     // equal
  send(core::MakeShardMap(v + 1, {cores[0]->id()}));     // older
  send(core::ShardMap{});                                // version 0
  send(core::MakeShardMap(v + 4, {}));                   // no owners
  send(core::MakeShardMap(v + 5, {cores[0]->id()}, 0));  // empty ring
  EXPECT_EQ(dir.shard_map().version, v + 3);
  EXPECT_EQ(dir.shard_map().shard_count(), 2u);
  EXPECT_EQ(dir.shard_map().vnodes, 8u);
  EXPECT_EQ(rt.shard_map().version, v);  // adoption is per Core
}

TEST_F(DirectoryTest, BroadcastMapReachesEveryPeer) {
  auto cores = MakeCores(4);
  rt.EnableDirectory({cores[0]->id()});
  std::uint64_t maps = 0;
  rt.network().SetTap([&maps](const net::Message& m) {
    if (m.kind == net::MessageKind::kDirectoryMap) {
      ++maps;
      return;
    }
    if (m.kind != net::MessageKind::kBatch) return;
    serial::FrameReader frame(m.payload);
    while (frame.HasNext()) {
      serial::Reader item = frame.Next();
      if (net::ReadBatchItem(item).kind == net::MessageKind::kDirectoryMap)
        ++maps;
    }
  });
  cores[0]->directory().BroadcastMap();
  rt.RunUntilIdle();
  EXPECT_EQ(maps, 3u);  // every peer got a copy; HandleMap decoded it
}

TEST_F(DirectoryTest, WireMapIsAdoptedPerCoreNotDeploymentWide) {
  // kDirectoryMap is handled on the receiving Core's locality, so adoption
  // lands in that Core's Directory; the Runtime's map stays conductor-only.
  auto cores = MakeCores(3);
  rt.EnableDirectory({cores[0]->id()});
  const std::uint64_t v = rt.shard_map().version;
  SendMap(*cores[0], *cores[1], core::MakeShardMap(v + 1, {cores[2]->id()}));
  rt.RunUntilIdle();

  const ComletId id{cores[0]->id(), 42};
  EXPECT_EQ(rt.shard_map().version, v);
  EXPECT_EQ(cores[0]->directory().shard_map().version, v);
  EXPECT_EQ(cores[0]->directory().OwnerOf(id), cores[0]->id());
  EXPECT_EQ(cores[1]->directory().shard_map().version, v + 1);
  EXPECT_EQ(cores[1]->directory().OwnerOf(id), cores[2]->id());
  // A deployment-wide map at least as new wins again (higher version).
  rt.EnableDirectory({cores[0]->id()});
  EXPECT_EQ(cores[1]->directory().OwnerOf(id), cores[0]->id());
}

TEST_F(DirectoryTest, WireAdoptedMapAloneArmsTheCrashFallback) {
  // The Runtime installs no map; every Core adopts a one-owner map off the
  // wire. Routing and the crash fallback read the same predicate, so a
  // stale observer whose chain runs through a crashed hop is rescued by
  // the shard lookup instead of timing out.
  auto cores = MakeCores(4);
  for (std::size_t i = 0; i < cores.size(); ++i)
    SendMap(*cores[(i + 1) % cores.size()], *cores[i],
            core::MakeShardMap(1, {cores[0]->id()}));
  rt.RunUntilIdle();
  ASSERT_FALSE(rt.shard_map().valid());
  for (core::Core* c : cores) ASSERT_TRUE(c->directory().enabled());

  auto beta = cores[0]->New<Message>("beta");
  cores[0]->Move(beta, cores[1]->id());
  auto observer = cores[3]->RefTo<Message>(beta.handle());
  observer.Call("print");  // observer now points straight at core1
  cores[1]->MoveId(beta.target(), cores[2]->id());
  rt.RunUntilIdle();  // the shard learns: beta @ core2
  cores[1]->Crash();

  cores[3]->SetRpcTimeout(Millis(200));
  EXPECT_EQ(observer.Invoke<std::string>("text"), "beta");
}

TEST_F(DirectoryTest, InstallAndMovementPublishEpochStampedLocations) {
  auto cores = MakeCores(4);
  rt.EnableDirectory({cores[0]->id()});  // single shard: core0 owns all
  auto msg = cores[1]->New<Message>("m");
  rt.RunUntilIdle();
  const auto& store = cores[0]->directory().store();
  auto it = store.find(msg.target());
  ASSERT_NE(it, store.end());
  EXPECT_EQ(it->second.location, cores[1]->id());
  EXPECT_EQ(it->second.epoch, 1u);  // fresh install mints epoch 1

  cores[1]->MoveId(msg.target(), cores[2]->id());
  rt.RunUntilIdle();
  it = store.find(msg.target());
  ASSERT_NE(it, store.end());
  EXPECT_EQ(it->second.location, cores[2]->id());
  EXPECT_EQ(it->second.epoch, 2u);  // each movement bumps the stamp

  cores[2]->MoveId(msg.target(), cores[3]->id());
  rt.RunUntilIdle();
  it = store.find(msg.target());
  EXPECT_EQ(it->second.location, cores[3]->id());
  EXPECT_EQ(it->second.epoch, 3u);
}

TEST_F(DirectoryTest, ShardMergeRejectsStaleStamps) {
  auto cores = MakeCores(4);
  rt.EnableDirectory({cores[0]->id()});
  const ComletId id{cores[1]->id(), 777};  // fabricated; store is pure data
  core::Directory& shard = cores[0]->directory();

  shard.Publish(id, cores[1]->id(), 5);  // owner-local: applies synchronously
  auto entry = [&] { return shard.store().at(id); };
  EXPECT_EQ(entry().epoch, 5u);

  // An out-of-order publish from an older view of the world loses.
  const std::uint64_t stale_before =
      rt.metrics().CounterValue("dir.hint.stale");
  shard.Publish(id, cores[2]->id(), 4);
  EXPECT_EQ(entry().location, cores[1]->id());
  EXPECT_EQ(entry().epoch, 5u);
  EXPECT_EQ(rt.metrics().CounterValue("dir.hint.stale"), stale_before + 1);

  // Equal stamp, same location: a retry/duplicate refresh, not stale.
  shard.Publish(id, cores[1]->id(), 5);
  EXPECT_EQ(rt.metrics().CounterValue("dir.hint.stale"), stale_before + 1);

  // Strictly newer stamp supersedes.
  shard.Publish(id, cores[2]->id(), 6);
  EXPECT_EQ(entry().location, cores[2]->id());
  EXPECT_EQ(entry().epoch, 6u);
}

TEST_F(DirectoryTest, HostAssertionSupersedesWhateverIsStored) {
  auto cores = MakeCores(4);
  rt.EnableDirectory({cores[0]->id()});
  const ComletId id{cores[1]->id(), 778};
  core::Directory& shard = cores[0]->directory();
  shard.Publish(id, cores[1]->id(), 5);

  // Epoch-0 publish = "I provably host this, but lost my stamp" (crash
  // recovery, rollback reinstall). Hosting is ground truth: it supersedes
  // the stored record and mints the next stamp.
  shard.Publish(id, cores[3]->id(), 0);
  EXPECT_EQ(shard.store().at(id).location, cores[3]->id());
  EXPECT_EQ(shard.store().at(id).epoch, 6u);

  // Re-asserting the same location refreshes without burning a stamp.
  shard.Publish(id, cores[3]->id(), 0);
  EXPECT_EQ(shard.store().at(id).epoch, 6u);
}

TEST_F(DirectoryTest, GcOfHintedForwardsFallsBackToTheShard) {
  // Satellite: TrackerTable::CollectGarbage x hinted forwards. beta moves
  // core1 -> core2 -> core3; the intermediate hop's tracker entry is
  // hinted-but-unpinned and may be reclaimed. Routing must survive on the
  // shard records alone: parked request, expiry, one directory lookup.
  auto cores = MakeCores(5);
  rt.EnableDirectory({cores[0]->id()});
  for (core::Core* c : cores) c->SetRpcTimeout(Millis(200));

  auto beta = cores[1]->New<Message>("beta");
  auto observer = cores[4]->RefTo<Message>(beta.handle());
  observer.Call("print");  // observer's hint: beta @ core1, epoch 1
  cores[1]->MoveId(beta.target(), cores[2]->id());
  rt.RunUntilIdle();
  cores[2]->MoveId(beta.target(), cores[3]->id());
  rt.RunUntilIdle();

  // core2's entry forwards to core3 with no local stubs: collectable.
  const std::size_t reclaimed = cores[2]->trackers().CollectGarbage();
  EXPECT_GE(reclaimed, 1u);
  EXPECT_EQ(cores[2]->trackers().Find(beta.target()), nullptr);

  const std::uint64_t lookups_before = rt.metrics().CounterValue("dir.lookups");
  // Route: core4 -> core1 (chain hit) -> core2 (severed: park, expire,
  // transport error) -> origin consults the home shard -> core3. The hop
  // is re-created from the shard, not lost.
  EXPECT_EQ(observer.Invoke<std::string>("text"), "beta");
  EXPECT_GE(rt.metrics().CounterValue("dir.lookups"), lookups_before + 1);

  // The observer's tracker was repaired and re-stamped by the reply hint.
  const core::TrackerEntry* t = cores[4]->trackers().Find(beta.target());
  ASSERT_NE(t, nullptr);
  EXPECT_EQ(t->next, cores[3]->id());
  EXPECT_GE(t->hint_epoch, 3u);

  core::InvokeResult steady =
      cores[4]->invocation().Invoke(observer.handle(), "text", {});
  EXPECT_EQ(steady.location, cores[3]->id());
  EXPECT_LE(steady.hops, 2);
}

TEST_F(DirectoryTest, StaleObserverPaysBoundedHopsAfterChurn) {
  auto cores = MakeCores(6);
  rt.EnableDirectory({cores[0]->id()});
  for (core::Core* c : cores) c->SetRpcTimeout(Millis(200));

  auto beta = cores[1]->New<Message>("beta");
  auto observer = cores[5]->RefTo<Message>(beta.handle());
  observer.Call("print");
  for (int hop = 1; hop <= 3; ++hop) {
    cores[hop]->MoveId(beta.target(), cores[hop + 1]->id());
    rt.RunUntilIdle();
  }

  // First resolve may walk the (monotonically stamped) chain; the piggy-
  // backed reply hint then collapses the route.
  const std::uint64_t lookups_before = rt.metrics().CounterValue("dir.lookups");
  EXPECT_EQ(observer.Invoke<std::string>("text"), "beta");
  core::InvokeResult steady =
      cores[5]->invocation().Invoke(observer.handle(), "text", {});
  EXPECT_EQ(steady.location, cores[4]->id());
  EXPECT_LE(steady.hops, 2);
  // An intact chain needs no directory traffic at all.
  EXPECT_EQ(rt.metrics().CounterValue("dir.lookups"), lookups_before);
}

// ---------------------------------------------------------------------------
// Chaos: shard owners crash mid-publish. The plane must degrade to
// tracker-chain routing and re-converge on recovery — never a black hole.
// ---------------------------------------------------------------------------

TEST_F(DirectoryTest, ShardOwnerCrashMidPublishNeverBlackHoles) {
  auto cores = MakeCores(4);
  for (core::Core* c : cores) {
    c->SetRpcTimeout(Millis(200));
    c->EnableWal(Millis(50));
  }
  rt.EnableDirectory({cores[0]->id()});

  auto beta = cores[1]->New<Message>("beta");
  auto observer = cores[3]->RefTo<Message>(beta.handle());
  observer.Call("print");
  rt.RunUntilIdle();  // install published + WAL-synced at the owner

  // Crash the owner just as the movement commits: the epoch-2 publish is
  // addressed to a dead Core and lost.
  auto moved = cores[1]->MoveIdAsync(beta.target(), cores[2]->id());
  (void)moved;
  cores[0]->Crash();
  rt.RunFor(Seconds(1));  // movement itself needs no shard; it completes
  EXPECT_TRUE(cores[2]->repository().Contains(beta.target()));

  cores[0]->Restart();
  rt.RunUntilIdle();
  // The WAL restored the shard store — to the stale pre-crash record.
  const auto& store = cores[0]->directory().store();
  auto it = store.find(beta.target());
  ASSERT_NE(it, store.end());
  EXPECT_EQ(it->second.location, cores[1]->id());
  EXPECT_EQ(it->second.epoch, 1u);

  // Stale store, stale observer: the tracker chain still routes. Never a
  // black hole.
  EXPECT_EQ(observer.Invoke<std::string>("text"), "beta");
  core::InvokeResult res =
      cores[3]->invocation().Invoke(observer.handle(), "text", {});
  EXPECT_EQ(res.location, cores[2]->id());

  // Now the HOST crashes and recovers: its directory sweep re-asserts
  // (epoch-0 publish), which repairs the stale shard record and echoes
  // the authoritative stamp back.
  cores[2]->Crash();
  rt.RunFor(Millis(100));
  cores[2]->Restart();
  rt.RunUntilIdle();
  it = store.find(beta.target());
  ASSERT_NE(it, store.end());
  EXPECT_EQ(it->second.location, cores[2]->id());
  EXPECT_GE(it->second.epoch, 2u);
  const core::TrackerEntry* t = cores[2]->trackers().Find(beta.target());
  ASSERT_NE(t, nullptr);
  EXPECT_GE(t->hint_epoch, 2u);  // the shard's echo re-stamped the host

  EXPECT_EQ(observer.Invoke<std::string>("text"), "beta");
}

class DirectoryChaosTest : public FargoTest,
                           public ::testing::WithParamInterface<std::uint64_t> {
};

TEST_P(DirectoryChaosTest, SeededOwnerCrashChurnConverges) {
  const std::uint64_t seed = GetParam();
  auto cores = MakeCores(6, Millis(2), 1e7);
  core::RetryPolicy policy;
  policy.max_attempts = 8;
  policy.initial_backoff = Millis(25);
  policy.seed = seed;
  for (core::Core* c : cores) {
    c->SetRpcTimeout(Millis(200));
    c->SetRetryPolicy(policy);
    c->EnableWal(Millis(200));
  }
  // Two home shards on core0/core1; complets live on cores 2..5.
  rt.EnableDirectory({cores[0]->id(), cores[1]->id()}, 8);

  net::FaultPlan plan;
  plan.seed = seed;
  plan.drop = 0.02;
  // Both shard owners crash mid-churn and restart from their WALs;
  // publishes addressed to a down owner are simply lost.
  plan.crashes.push_back({cores[0]->id(), Millis(700), Millis(400)});
  plan.crashes.push_back({cores[1]->id(), Millis(1900), Millis(400)});
  rt.network().SetFaultPlan(plan);

  constexpr int kComplets = 12;
  std::vector<ComletId> ids;
  std::vector<core::ComletRef<Message>> refs;  // stale-prone observers
  for (int i = 0; i < kComplets; ++i) {
    auto c = cores[2 + (i % 4)]->New<Message>("m" + std::to_string(i));
    ids.push_back(c.target());
    refs.push_back(cores[2 + ((i + 1) % 4)]->RefTo<Message>(c.handle()));
  }
  rt.RunUntilIdle();
  for (auto& ref : refs) ref.Call("print");  // warm every hint

  auto host_of = [&](ComletId id) -> core::Core* {
    core::Core* found = nullptr;
    for (core::Core* c : cores) {
      if (!c->alive() || !c->repository().Contains(id)) continue;
      EXPECT_EQ(found, nullptr) << "complet hosted twice: " << ToString(id);
      found = c;
    }
    return found;
  };

  std::uint64_t rng = core::MixU64(seed | 1);
  for (int step = 0; step < 36; ++step) {
    rng = core::MixU64(rng);
    const ComletId id = ids[rng % kComplets];
    core::Core* host = host_of(id);
    ASSERT_NE(host, nullptr);
    rng = core::MixU64(rng);
    std::size_t d = 2 + rng % 4;
    if (cores[d] == host) d = 2 + (d - 1) % 4;
    host->MoveId(id, cores[d]->id());
    rt.RunFor(Millis(100));  // advance into the crash windows
  }

  rt.network().ClearFaults();
  rt.RunFor(Seconds(3));  // restarts done, retries and publishes drained
  rt.RunUntilIdle();

  for (int i = 0; i < kComplets; ++i) {
    core::Core* host = host_of(ids[i]);
    ASSERT_NE(host, nullptr) << "complet lost: " << ToString(ids[i]);
    // However stale the observer and whatever the owners missed while
    // down, the complet stays reachable...
    EXPECT_EQ(refs[i].Invoke<std::string>("text"), "m" + std::to_string(i));
    // ...and once re-resolved, delivery is bounded-hop again.
    core::InvokeResult res = cores[2 + ((i + 1) % 4)]->invocation().Invoke(
        refs[i].handle(), "text", {});
    EXPECT_EQ(res.location, host->id());
    EXPECT_LE(res.hops, 2);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DirectoryChaosTest,
                         ::testing::Values(std::uint64_t{1}, std::uint64_t{2},
                                           std::uint64_t{3}));

}  // namespace
}  // namespace fargo::testing
