// Protocol-level assertions via the network tap: exact message sequences
// for invocation, chain shortening, and movement — the §3 wire behaviour,
// verified message by message.
#include <gtest/gtest.h>

#include <atomic>

#include "src/core/wire.h"
#include "src/net/formation.h"
#include "src/serial/frame.h"
#include "tests/support/fixture.h"

namespace fargo::testing {
namespace {

using net::MessageKind;

class ProtocolTest : public FargoTest {
 protected:
  /// Starts recording (kind, from, to) triples. Formation frames (kBatch)
  /// are unwrapped into their constituent messages: these tests assert the
  /// logical protocol shape, which batching must carry unchanged.
  void Record() {
    log.clear();
    rt.network().SetTap([this](const net::Message& m) {
      if (m.kind == MessageKind::kBatch) {
        serial::FrameReader frame(m.payload);
        while (frame.HasNext()) {
          serial::Reader item = frame.Next();
          log.push_back({net::ReadBatchItem(item).kind, m.from, m.to});
        }
        return;
      }
      log.push_back({m.kind, m.from, m.to});
    });
  }
  struct Entry {
    MessageKind kind;
    CoreId from, to;
  };
  std::size_t CountKind(MessageKind k) const {
    std::size_t n = 0;
    for (const Entry& e : log)
      if (e.kind == k) ++n;
    return n;
  }
  std::vector<Entry> log;
};

TEST_F(ProtocolTest, SimpleRemoteInvocationIsRequestPlusReply) {
  auto cores = MakeCores(2);
  auto msg = cores[0]->New<Message>("m");
  auto remote = cores[1]->RefTo<Message>(msg.handle());
  Record();
  remote.Call("text");
  ASSERT_EQ(log.size(), 2u);
  EXPECT_EQ(log[0].kind, MessageKind::kInvokeRequest);
  EXPECT_EQ(log[0].from, cores[1]->id());
  EXPECT_EQ(log[0].to, cores[0]->id());
  EXPECT_EQ(log[1].kind, MessageKind::kInvokeReply);
  EXPECT_EQ(log[1].from, cores[0]->id());
  EXPECT_EQ(log[1].to, cores[1]->id());
}

TEST_F(ProtocolTest, ChainWalkSendsOneUpdatePerIntermediateHop) {
  auto cores = MakeCores(5);
  auto beta = cores[0]->New<Message>("beta");
  auto observer = cores[4]->RefTo<Message>(beta.handle());
  for (int i = 0; i < 3; ++i)
    cores[static_cast<std::size_t>(i)]->MoveId(
        beta.target(), cores[static_cast<std::size_t>(i + 1)]->id());

  Record();
  observer.Call("text");
  rt.RunUntilIdle();
  // Requests: observer->0, 0->1, 1->2, 2->3 (4 requests), 1 direct reply,
  // tracker updates to the 3 forwarding hops (0,1,2) from core3.
  EXPECT_EQ(CountKind(MessageKind::kInvokeRequest), 4u);
  EXPECT_EQ(CountKind(MessageKind::kInvokeReply), 1u);
  EXPECT_EQ(CountKind(MessageKind::kTrackerUpdate), 3u);
  for (const Entry& e : log)
    if (e.kind == MessageKind::kTrackerUpdate)
      EXPECT_EQ(e.from, cores[3]->id());
}

TEST_F(ProtocolTest, MoveIsOneRequestOneReply) {
  auto cores = MakeCores(2);
  auto worker = cores[0]->New<Worker>();
  auto data = cores[0]->New<Data>(std::size_t{5000});
  worker.Call("bind", {Value(data.handle()), Value("pull")});
  Record();
  cores[0]->Move(worker, cores[1]->id());
  EXPECT_EQ(log.size(), 2u);
  EXPECT_EQ(log[0].kind, MessageKind::kMoveRequest);
  EXPECT_EQ(log[1].kind, MessageKind::kMoveReply);
}

TEST_F(ProtocolTest, RoutedMoveCommandUsesInvocationEnvelope) {
  auto cores = MakeCores(3);
  auto msg = cores[0]->New<Message>("m");
  auto ref = cores[2]->RefTo<Message>(msg.handle());
  Record();
  cores[2]->Move(ref, cores[1]->id());
  rt.RunUntilIdle();
  // Command: InvokeRequest core2->core0; the move itself: MoveRequest
  // core0->core1 + MoveReply; then InvokeReply core0->core2.
  EXPECT_EQ(CountKind(MessageKind::kInvokeRequest), 1u);
  EXPECT_EQ(CountKind(MessageKind::kMoveRequest), 1u);
  EXPECT_EQ(CountKind(MessageKind::kMoveReply), 1u);
  EXPECT_EQ(CountKind(MessageKind::kInvokeReply), 1u);
}

TEST_F(ProtocolTest, HomeRegistryAddsOneAsyncUpdatePerRemoteArrival) {
  auto cores = MakeCores(3);
  rt.EnableDirectory({cores[0]->id()});    // core0 is the home registry
  auto msg = cores[0]->New<Message>("m");  // home: core0; local, no message
  Record();
  cores[0]->Move(msg, cores[1]->id());
  rt.RunUntilIdle();
  // Move + reply + one kDirectoryPublish core1 -> core0 (the home shard).
  EXPECT_EQ(CountKind(MessageKind::kDirectoryPublish), 1u);
  bool saw_update = false;
  for (const Entry& e : log)
    if (e.kind == MessageKind::kDirectoryPublish &&
        e.from == cores[1]->id() && e.to == cores[0]->id())
      saw_update = true;
  EXPECT_TRUE(saw_update);
}

TEST_F(ProtocolTest, EventNotificationIsOneMessagePerRemoteListener) {
  auto cores = MakeCores(3);
  // Atomic: under FARGO_PARALLEL the two listeners' Cores live on
  // different localities and fire at the same virtual time.
  std::atomic<int> fired{0};
  cores[1]->ListenAt(cores[0]->id(), monitor::EventKind::kComletArrived,
                     [&](const monitor::Event&) { ++fired; });
  cores[2]->ListenAt(cores[0]->id(), monitor::EventKind::kComletArrived,
                     [&](const monitor::Event&) { ++fired; });
  Record();
  cores[0]->New<Message>("m");
  rt.RunUntilIdle();
  EXPECT_EQ(CountKind(MessageKind::kEventNotify), 2u);
  EXPECT_EQ(fired, 2);
}

TEST(WireTest, CompositeCodecsRoundTrip) {
  serial::Writer w;
  core::wire::WriteCoreId(w, CoreId{42});
  core::wire::WriteComletId(w, ComletId{CoreId{7}, 99});
  core::wire::WriteHandle(w, ComletHandle{ComletId{CoreId{1}, 2}, CoreId{3},
                                          "T"});
  core::wire::WriteCoreList(w, {CoreId{1}, CoreId{2}});
  core::wire::WriteComletList(w, {ComletId{CoreId{1}, 1}});
  serial::Reader r(w.buffer());
  EXPECT_EQ(core::wire::ReadCoreId(r), CoreId{42});
  EXPECT_EQ(core::wire::ReadComletId(r), (ComletId{CoreId{7}, 99}));
  ComletHandle h = core::wire::ReadHandle(r);
  EXPECT_EQ(h.id.seq, 2u);
  EXPECT_EQ(h.anchor_type, "T");
  EXPECT_EQ(core::wire::ReadCoreList(r).size(), 2u);
  EXPECT_EQ(core::wire::ReadComletList(r).size(), 1u);
  EXPECT_TRUE(r.AtEnd());
}

TEST(WireTest, CheckOkThrowsTheCarriedError) {
  serial::Writer w;
  core::wire::WriteError(w, "boom");
  serial::Reader r(w.buffer());
  try {
    core::wire::CheckOk(r);
    FAIL() << "expected FargoError";
  } catch (const FargoError& e) {
    EXPECT_STREQ(e.what(), "boom");
  }
}

TEST_F(ProtocolTest, LocalOperationsSendNothing) {
  auto cores = MakeCores(2);
  auto counter = cores[0]->New<Counter>();
  Record();
  counter.Call("increment");
  counter.Call("get");
  cores[0]->BindName("c", counter);
  cores[0]->LookupAt(cores[0]->id(), "c");
  EXPECT_TRUE(log.empty());
}

}  // namespace
}  // namespace fargo::testing
