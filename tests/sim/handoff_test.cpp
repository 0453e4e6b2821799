// HandoffQueue: the bounded MPSC cross-locality inbox (src/sim/handoff.h).
// The queue's contract is phase-disciplined — producers push during one
// micro-round, the owning worker drains at the start of the next, with the
// round barrier separating the phases — so the tests exercise exactly that
// shape: concurrent producers, then a quiescent drain.
#include "src/sim/handoff.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <thread>

namespace fargo::sim {
namespace {

HandoffQueue::Item MakeItem(SimTime at, std::uint32_t src, std::uint64_t seq,
                            Task fn = nullptr) {
  HandoffQueue::Item it;
  it.at = at;
  it.src = src;
  it.seq = seq;
  it.id = seq;
  it.fn = std::move(fn);
  return it;
}

TEST(HandoffQueueTest, PushThenDrainReturnsEverythingInPushOrder) {
  HandoffQueue q(8);
  for (std::uint64_t i = 0; i < 5; ++i) q.Push(MakeItem(10, 0, i));
  EXPECT_EQ(q.ApproxSize(), 5u);
  EXPECT_FALSE(q.Empty());

  std::vector<HandoffQueue::Item> out;
  EXPECT_EQ(q.DrainInto(out), 5u);
  ASSERT_EQ(out.size(), 5u);
  for (std::uint64_t i = 0; i < 5; ++i) EXPECT_EQ(out[i].seq, i);
  EXPECT_TRUE(q.Empty());
  EXPECT_EQ(q.overflows(), 0u);
}

TEST(HandoffQueueTest, DrainResetsTheBufferForReuse) {
  HandoffQueue q(4);
  std::vector<HandoffQueue::Item> out;
  for (int round = 0; round < 3; ++round) {
    q.Push(MakeItem(1, 0, static_cast<std::uint64_t>(round)));
    out.clear();
    EXPECT_EQ(q.DrainInto(out), 1u);
    EXPECT_EQ(out[0].seq, static_cast<std::uint64_t>(round));
    EXPECT_TRUE(q.Empty());
  }
}

TEST(HandoffQueueTest, OverflowSpillsInsteadOfBlockingAndIsCounted) {
  HandoffQueue q(2);
  for (std::uint64_t i = 0; i < 7; ++i) q.Push(MakeItem(1, 0, i));
  // 2 in the slot array, 5 spilled; nothing lost, nothing blocked.
  EXPECT_EQ(q.ApproxSize(), 7u);
  EXPECT_EQ(q.overflows(), 5u);

  std::vector<HandoffQueue::Item> out;
  EXPECT_EQ(q.DrainInto(out), 7u);
  std::set<std::uint64_t> seqs;
  for (const auto& it : out) seqs.insert(it.seq);
  EXPECT_EQ(seqs.size(), 7u);  // every push survived, no duplicates
  // The overflow counter is cumulative (it feeds a monotone metric).
  EXPECT_EQ(q.overflows(), 5u);
  EXPECT_TRUE(q.Empty());
}

TEST(HandoffQueueTest, MaxDepthTracksTheLargestSingleDrain) {
  HandoffQueue q(16);
  std::vector<HandoffQueue::Item> out;
  q.Push(MakeItem(1, 0, 0));
  q.DrainInto(out);
  EXPECT_EQ(q.max_depth(), 1u);
  for (std::uint64_t i = 0; i < 6; ++i) q.Push(MakeItem(1, 0, i));
  out.clear();
  q.DrainInto(out);
  EXPECT_EQ(q.max_depth(), 6u);
  // A smaller later drain does not shrink the high-water mark.
  q.Push(MakeItem(1, 0, 9));
  out.clear();
  q.DrainInto(out);
  EXPECT_EQ(q.max_depth(), 6u);
}

TEST(HandoffQueueTest, QueuedClosuresSurviveUntilDrained) {
  // Shutdown shape: work queued but never executed must still be owned
  // somewhere (the queue) and destructible without running. Closures with
  // shared state verify the items were moved, not leaked or double-freed.
  auto hits = std::make_shared<int>(0);
  {
    HandoffQueue q(2);
    for (std::uint64_t i = 0; i < 4; ++i)
      q.Push(MakeItem(1, 0, i, [hits] { ++*hits; }));
    // Destroy with 4 queued items (2 slots + 2 spill) — nothing runs.
  }
  EXPECT_EQ(*hits, 0);

  HandoffQueue q(2);
  for (std::uint64_t i = 0; i < 4; ++i)
    q.Push(MakeItem(1, 0, i, [hits] { ++*hits; }));
  std::vector<HandoffQueue::Item> out;
  q.DrainInto(out);
  for (auto& it : out) it.fn();
  EXPECT_EQ(*hits, 4);
}

TEST(HandoffQueueTest, ConcurrentProducersLoseNothing) {
  // The TSan hammer: many producer threads race Push against one queue
  // sized to force heavy spill traffic, then (threads joined — the
  // barrier's happens-before edge) a single drain must account for every
  // item exactly once.
  constexpr int kProducers = 8;
  constexpr std::uint64_t kPerProducer = 500;
  HandoffQueue q(64);

  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&q, p] {
      for (std::uint64_t i = 0; i < kPerProducer; ++i)
        q.Push(MakeItem(1, static_cast<std::uint32_t>(p), i));
    });
  }
  for (auto& t : producers) t.join();

  std::vector<HandoffQueue::Item> out;
  EXPECT_EQ(q.DrainInto(out), kProducers * kPerProducer);
  // Exactly-once accounting per producer stream.
  std::vector<std::set<std::uint64_t>> per_src(kProducers);
  for (const auto& it : out) per_src[it.src].insert(it.seq);
  for (int p = 0; p < kProducers; ++p)
    EXPECT_EQ(per_src[static_cast<std::size_t>(p)].size(), kPerProducer)
        << "producer " << p << " lost items";
  // The deterministic merge key is available: sorting by (at, src, seq)
  // gives the same order regardless of which thread won each ticket.
  std::stable_sort(out.begin(), out.end(),
                   [](const HandoffQueue::Item& a, const HandoffQueue::Item& b) {
                     return std::tie(a.at, a.src, a.seq) <
                            std::tie(b.at, b.src, b.seq);
                   });
  for (std::size_t i = 1; i < out.size(); ++i)
    EXPECT_LE(std::tie(out[i - 1].at, out[i - 1].src, out[i - 1].seq),
              std::tie(out[i].at, out[i].src, out[i].seq));
}

}  // namespace
}  // namespace fargo::sim
