// Bounded MPSC cross-locality handoff buffer.
//
// The ParallelScheduler gives each locality a *ping-pong pair* of these:
// during micro-round m every producer locality pushes into inbox[m % 2],
// and at the start of round m+1 the owning worker drains inbox[m % 2]
// exclusively while producers have moved on to the other buffer. That
// phase discipline (enforced by the round barrier, which also provides the
// happens-before edge) means a buffer is never pushed and drained
// concurrently, so the fast path is a single fetch_add ticket into a
// pre-sized slot array — no locks, no CAS loops, no per-slot flags.
//
// The bound is the lock-free fast path, not a correctness limit: a push
// that finds the slot array full spills into a mutex-guarded overflow
// vector (counted — `locality.handoff_overflows` — so capacity tuning is
// observable) instead of blocking. Blocking would deadlock the round
// barrier: the consumer that must drain the buffer is parked until every
// producer arrives at the barrier.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <utility>
#include <vector>

#include "src/common/time.h"
#include "src/sim/task.h"

namespace fargo::sim {

// fargo: domain(sim)
class HandoffQueue {
 public:
  /// One cross-locality task. `(at, src, seq)` is the deterministic merge
  /// key: `src` is the producing locality (the conductor uses a reserved
  /// id that sorts after all workers) and `seq` the producer's private
  /// monotone counter, so the merged order is independent of thread timing.
  struct Item {
    SimTime at = 0;
    std::uint32_t src = 0;
    std::uint64_t seq = 0;
    std::uint64_t id = 0;  ///< TaskId, for cancellation
    Task fn;
    bool barrier = false;  ///< lookahead window barrier (parallel_sched.h)
  };

  explicit HandoffQueue(std::size_t capacity) : slots_(capacity) {}
  HandoffQueue(const HandoffQueue&) = delete;
  HandoffQueue& operator=(const HandoffQueue&) = delete;

  /// Producer side; callable concurrently from many threads. Never blocks:
  /// overflow beyond the slot capacity goes to the spill vector.
  void Push(Item item) {
    const std::size_t ticket =
        tickets_.fetch_add(1, std::memory_order_relaxed);
    if (ticket < slots_.size()) {
      slots_[ticket] = std::move(item);
      return;
    }
    std::lock_guard<std::mutex> lock(spill_mu_);
    spill_.push_back(std::move(item));
    ++overflows_;
  }

  /// Consumer side; requires external quiescence of producers (the round
  /// barrier). Appends every queued item to `out` and resets the buffer.
  /// Returns the number of items drained.
  std::size_t DrainInto(std::vector<Item>& out) {
    const std::size_t n =
        std::min(tickets_.load(std::memory_order_relaxed), slots_.size());
    for (std::size_t i = 0; i < n; ++i) out.push_back(std::move(slots_[i]));
    std::size_t drained = n;
    {
      std::lock_guard<std::mutex> lock(spill_mu_);
      drained += spill_.size();
      for (auto& item : spill_) out.push_back(std::move(item));
      spill_.clear();
    }
    if (drained > max_depth_) max_depth_ = drained;
    tickets_.store(0, std::memory_order_relaxed);
    return drained;
  }

  /// Conservative occupancy estimate; exact while producers are quiescent.
  std::size_t ApproxSize() const {
    const std::size_t t = tickets_.load(std::memory_order_relaxed);
    std::size_t n = std::min(t, slots_.size());
    std::lock_guard<std::mutex> lock(spill_mu_);
    return n + spill_.size();
  }

  bool Empty() const { return ApproxSize() == 0; }

  std::size_t capacity() const { return slots_.size(); }
  /// Pushes that missed the lock-free slot array (capacity pressure).
  std::uint64_t overflows() const {
    std::lock_guard<std::mutex> lock(spill_mu_);
    return overflows_;
  }
  /// Largest single drain observed (consumer-side; feeds
  /// `locality.queue_depth`).
  std::size_t max_depth() const { return max_depth_; }

 private:
  std::vector<Item> slots_;
  std::atomic<std::size_t> tickets_{0};
  mutable std::mutex spill_mu_;
  std::vector<Item> spill_;
  std::uint64_t overflows_ = 0;  ///< guarded by spill_mu_
  std::size_t max_depth_ = 0;    ///< consumer-only
};

}  // namespace fargo::sim
