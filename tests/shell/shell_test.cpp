// The admin shell and the terminal layout monitor (Fig 4 substitute).
#include <gtest/gtest.h>

#include <sstream>

#include "tests/support/fixture.h"

namespace fargo::testing {
namespace {

class ShellTest : public FargoTest {
 protected:
  ShellTest() {
    cores = MakeCores(3);
    shell = std::make_unique<shell::Shell>(rt, *cores[0], out);
  }

  std::string Run(const std::string& line) {
    out.str("");
    shell->Execute(line);
    return out.str();
  }

  std::vector<core::Core*> cores;
  std::ostringstream out;
  std::unique_ptr<shell::Shell> shell;
};

TEST_F(ShellTest, CoresListsEveryCore) {
  std::string s = Run("cores");
  EXPECT_NE(s.find("core0"), std::string::npos);
  EXPECT_NE(s.find("core2"), std::string::npos);
  EXPECT_NE(s.find("up"), std::string::npos);
}

TEST_F(ShellTest, LsShowsComplets) {
  auto msg = cores[1]->New<Message>("x");
  std::string s = Run("ls core1");
  EXPECT_NE(s.find(ToString(msg.target())), std::string::npos);
  EXPECT_NE(s.find("test.Message"), std::string::npos);
}

TEST_F(ShellTest, MoveByIdAndByName) {
  auto msg = cores[1]->New<Message>("x");
  cores[1]->BindName("msg", msg);

  Run("move " + ToString(msg.target()) + " core2");
  EXPECT_TRUE(cores[2]->repository().Contains(msg.target()));

  Run("move msg core0");  // resolves the bound name
  EXPECT_TRUE(cores[0]->repository().Contains(msg.target()));
}

TEST_F(ShellTest, InvokeCallsMethods) {
  auto msg = cores[1]->New<Message>("shell-text");
  std::string s = Run("invoke " + ToString(msg.target()) + " text");
  EXPECT_NE(s.find("shell-text"), std::string::npos);
}

TEST_F(ShellTest, MethodsIntrospects) {
  auto msg = cores[1]->New<Message>("x");
  std::string s = Run("methods " + ToString(msg.target()));
  EXPECT_NE(s.find("print"), std::string::npos);
  EXPECT_NE(s.find("text"), std::string::npos);
}

TEST_F(ShellTest, RefTypeInspectionAndRetyping) {
  auto worker = cores[1]->New<Worker>();
  auto data = cores[1]->New<Data>(std::size_t{10});
  worker.Call("bind", {Value(data.handle())});

  std::string s = Run("reftype core1 " + ToString(worker.target()) + " " +
                      ToString(data.target()));
  EXPECT_NE(s.find("link"), std::string::npos);

  Run("setref core1 " + ToString(worker.target()) + " " +
      ToString(data.target()) + " pull");
  s = Run("reftype core1 " + ToString(worker.target()) + " " +
          ToString(data.target()));
  EXPECT_NE(s.find("pull"), std::string::npos);

  // The retype has real effect: moving the worker drags the data along.
  Run("move " + ToString(worker.target()) + " core2");
  EXPECT_TRUE(cores[2]->repository().Contains(data.target()));
}

TEST_F(ShellTest, ProfileReadsServices) {
  cores[1]->New<Message>("x");
  std::string s = Run("profile completLoad core1");
  EXPECT_NE(s.find("= 1"), std::string::npos);
  s = Run("profile bandwidth core0 core1");
  EXPECT_NE(s.find("bandwidth"), std::string::npos);
}

TEST_F(ShellTest, LinkReshapesTheNetwork) {
  Run("link core0 core1 25 2");
  net::LinkModel m = rt.network().GetLink(cores[0]->id(), cores[1]->id());
  EXPECT_EQ(m.latency, Millis(25));
  EXPECT_NEAR(m.bytes_per_sec, 2e6 / 8, 1);
}

TEST_F(ShellTest, GcReportsReclaimedTrackers) {
  std::string s = Run("gc core0");
  EXPECT_NE(s.find("reclaimed"), std::string::npos);
}

TEST_F(ShellTest, DirFollowsTheShardMap) {
  std::string s = Run("dir");
  EXPECT_NE(s.find("disabled"), std::string::npos);
  EXPECT_EQ(s.find("shard @"), std::string::npos);

  rt.EnableDirectory({cores[0]->id()});  // core0 as the home registry
  cores[1]->New<Message>("x");
  rt.RunUntilIdle();
  s = Run("dir");
  EXPECT_NE(s.find("map_version=1 shards=1"), std::string::npos);
  EXPECT_NE(s.find("shard @core0: entries=1"), std::string::npos);
  EXPECT_NE(s.find("shard @core2: entries=0"), std::string::npos);
}

TEST_F(ShellTest, ErrorsAreReportedNotThrown) {
  EXPECT_NE(Run("move nosuch core1").find("error:"), std::string::npos);
  EXPECT_NE(Run("bogus_command").find("unknown command"), std::string::npos);
  EXPECT_NE(Run("move").find("error:"), std::string::npos);
}

TEST_F(ShellTest, QuitStopsTheLoop) {
  EXPECT_FALSE(shell->Execute("quit"));
  EXPECT_TRUE(shell->Execute(""));
}

TEST_F(ShellTest, ScriptCommandRunsInline) {
  auto msg = cores[1]->New<Message>("x");
  cores[1]->BindName("m", msg);
  Run("script move completsIn core1 to core2");
  EXPECT_TRUE(cores[2]->repository().Contains(msg.target()));
}

TEST_F(ShellTest, SnapshotRendersLayout) {
  auto worker = cores[1]->New<Worker>();
  auto data = cores[2]->New<Data>(std::size_t{10});
  worker.Call("bind", {Value(data.handle())});
  cores[1]->BindName("w", worker);
  std::string s = Run("snapshot");
  EXPECT_NE(s.find("core1"), std::string::npos);
  EXPECT_NE(s.find(ToString(worker.target())), std::string::npos);
  EXPECT_NE(s.find("<w>"), std::string::npos);
  EXPECT_NE(s.find("[link"), std::string::npos);  // the worker's reference
}

TEST_F(ShellTest, InteractiveLoopReadsUntilQuit) {
  std::istringstream in("cores\nquit\ncores\n");
  shell->RunInteractive(in, /*prompt=*/false);
  // Only the first "cores" ran; the third line was never read.
  EXPECT_NE(out.str().find("core0"), std::string::npos);
}

class TextMonitorTest : public FargoTest {};

TEST_F(TextMonitorTest, LiveEventsAreReported) {
  auto cores = MakeCores(2);
  std::ostringstream out;
  shell::TextMonitor monitor(rt, *cores[0], out);
  monitor.Attach();

  auto msg = cores[0]->New<Message>("m");
  cores[0]->Move(msg, cores[1]->id());
  rt.RunUntilIdle();

  std::string s = out.str();
  EXPECT_NE(s.find("arrived"), std::string::npos);
  EXPECT_NE(s.find("departed"), std::string::npos);
  EXPECT_GE(monitor.events_seen(), 3u);  // install + depart + arrive

  monitor.Detach();
  const auto seen = monitor.events_seen();
  cores[1]->New<Message>("quiet");
  rt.RunUntilIdle();
  EXPECT_EQ(monitor.events_seen(), seen);
}

TEST_F(TextMonitorTest, ShutdownIsAnnounced) {
  auto cores = MakeCores(2);
  std::ostringstream out;
  shell::TextMonitor monitor(rt, *cores[0], out);
  monitor.Attach();
  cores[1]->Shutdown(Millis(100));
  rt.RunUntilIdle();
  EXPECT_NE(out.str().find("shutting down"), std::string::npos);
}

}  // namespace
}  // namespace fargo::testing
