// Indexed event queue: the task store both scheduler engines run on.
//
// `SimScheduler` owns one; each `ParallelScheduler` locality owns one.
//
//  - A slab holds each task's closure (a `Task`, task.h: stored inline in
//    the slot, so queueing and popping allocate nothing once the slab has
//    grown) and the slot's generation. A 4-ary
//    min-heap of small `{at, seq, slot}` items orders the tasks, and every
//    queued slot records its heap position.
//  - A `Handle` is `[32b slot | 32b generation]`. Popping or cancelling a
//    task frees its slot and bumps the generation, so a handle names its
//    task only while that task is queued: cancelling a task that already
//    ran, was already cancelled, or whose slot now holds a later task is a
//    true no-op. Generations skip 0, so handle 0 never names a task.
//  - `Cancel` removes the task from the heap in O(log n) and destroys its
//    closure at once: no tombstones, `size()` is exact.
//  - Same-time tasks pop in push order (the `seq` tiebreak), so the pop
//    order is a pure function of the pushes and cancels.
//
// Not thread-safe: each queue has one owner (the sim pump, or one
// locality — see parallel_sched.h for who may touch it when).
#pragma once

#include <cstdint>
#include <set>
#include <utility>
#include <vector>

#include "src/common/time.h"
#include "src/sim/task.h"

namespace fargo::sim {

// fargo: domain(sim)
class EventQueue {
 public:
  using Handle = std::uint64_t;

  /// A popped task.
  struct Popped {
    SimTime at = 0;
    bool barrier = false;
    Task fn;
  };

  /// Queues `fn` at `at`. `barrier` marks a lookahead-window barrier (the
  /// queue tracks the earliest one, see next_barrier()); `alias` is an
  /// opaque non-zero id the caller may look the task up by (FindAlias).
  Handle Push(SimTime at, Task&& fn, bool barrier = false,
              std::uint64_t alias = 0);

  /// Stores `fn` without queueing it: the handle is live (Cancel works)
  /// at once, and Link() queues the task later, taking its push-order
  /// place then. The parallel engine's conductor stages work this way.
  Handle Reserve(Task&& fn, bool barrier = false);
  /// Queues the reserved task `h` at `at`. Returns false, changing
  /// nothing, if it was cancelled meanwhile.
  bool Link(Handle h, SimTime at);

  bool empty() const { return heap_.empty(); }
  /// Queued tasks; exact, cancelled ones are gone.
  std::size_t size() const { return heap_.size(); }
  /// The most tasks this queue has held at once.
  std::size_t peak() const { return peak_; }
  /// Due time of the earliest task. Requires !empty().
  SimTime top_at() const { return heap_.front().at; }
  /// Due time of the earliest queued barrier task, or `none`.
  SimTime next_barrier(SimTime none) const {
    return barriers_.empty() ? none : *barriers_.begin();
  }

  /// Removes and returns the earliest task (time, then push order).
  /// Requires !empty().
  Popped Pop();

  /// Removes the task `h` names (queued or reserved) and destroys its
  /// closure. Returns false, changing nothing, if `h` names no such task.
  bool Cancel(Handle h);

  /// The handle of the queued task pushed with `alias`, or 0. A linear
  /// scan: for the rare cancel that arrives by alias.
  Handle FindAlias(std::uint64_t alias) const;

  /// Discards every queued and reserved task. Outstanding handles go
  /// stale, as if the tasks had been cancelled.
  void Clear();

 private:
  static constexpr std::uint32_t kFree = 0xFFFFFFFFu;
  static constexpr std::uint32_t kReserved = 0xFFFFFFFEu;
  static constexpr std::size_t kArity = 4;

  struct Slot {
    Task fn;
    std::uint64_t alias = 0;
    std::uint32_t gen = 1;
    std::uint32_t pos = kFree;  ///< heap index while queued, or kReserved
    bool barrier = false;
  };
  struct Item {
    SimTime at;
    std::uint64_t seq;  ///< push order: the same-time FIFO tiebreak
    std::uint32_t slot;
  };

  static bool Before(const Item& a, const Item& b) {
    return a.at != b.at ? a.at < b.at : a.seq < b.seq;
  }
  void Place(std::size_t pos, const Item& item) {
    heap_[pos] = item;
    slab_[item.slot].pos = static_cast<std::uint32_t>(pos);
  }
  std::uint32_t Claim(Task&& fn, bool barrier);
  Handle HandleOf(std::uint32_t slot) const {
    return (static_cast<Handle>(slot) << 32) | slab_[slot].gen;
  }
  /// The slot `h` names if it is queued or reserved, else nullptr.
  Slot* Live(Handle h);
  void SiftUp(std::size_t pos, Item item);
  void SiftDown(std::size_t pos, Item item);
  /// Unlinks the item at heap position `pos` and frees its slot; the
  /// slot's closure must already be moved out.
  void Remove(std::size_t pos);
  /// Frees a slot: bumps its generation and recycles it.
  void Release(std::uint32_t slot);

  std::vector<Slot> slab_;
  std::vector<std::uint32_t> free_;  ///< free slots, reused LIFO
  std::vector<Item> heap_;
  std::multiset<SimTime> barriers_;  ///< due times of queued barrier tasks
  std::uint64_t next_seq_ = 0;
  std::size_t peak_ = 0;
};

// -- implementation: inline, it is the pump's hot path ----------------------

inline std::uint32_t EventQueue::Claim(Task&& fn, bool barrier) {
  std::uint32_t slot;
  if (free_.empty()) {
    slot = static_cast<std::uint32_t>(slab_.size());
    slab_.emplace_back();
  } else {
    slot = free_.back();
    free_.pop_back();
  }
  Slot& s = slab_[slot];
  s.fn = std::move(fn);
  s.barrier = barrier;
  return slot;
}

inline EventQueue::Handle EventQueue::Push(SimTime at, Task&& fn, bool barrier,
                                           std::uint64_t alias) {
  const std::uint32_t slot = Claim(std::move(fn), barrier);
  slab_[slot].alias = alias;
  if (barrier) barriers_.insert(at);
  heap_.emplace_back();
  SiftUp(heap_.size() - 1, Item{at, next_seq_++, slot});
  if (heap_.size() > peak_) peak_ = heap_.size();
  return HandleOf(slot);
}

inline EventQueue::Handle EventQueue::Reserve(Task&& fn, bool barrier) {
  const std::uint32_t slot = Claim(std::move(fn), barrier);
  slab_[slot].pos = kReserved;
  return HandleOf(slot);
}

inline bool EventQueue::Link(Handle h, SimTime at) {
  Slot* s = Live(h);
  if (s == nullptr || s->pos != kReserved) return false;
  if (s->barrier) barriers_.insert(at);
  heap_.emplace_back();
  SiftUp(heap_.size() - 1,
         Item{at, next_seq_++, static_cast<std::uint32_t>(h >> 32)});
  if (heap_.size() > peak_) peak_ = heap_.size();
  return true;
}

inline EventQueue::Popped EventQueue::Pop() {
  const Item& top = heap_.front();
  Slot& s = slab_[top.slot];
  Popped task{top.at, s.barrier, std::move(s.fn)};
  Remove(0);
  return task;
}

inline EventQueue::Slot* EventQueue::Live(Handle h) {
  const auto slot = static_cast<std::uint32_t>(h >> 32);
  if (slot >= slab_.size()) return nullptr;
  Slot& s = slab_[slot];
  if (s.gen != static_cast<std::uint32_t>(h) || s.pos == kFree)
    return nullptr;
  return &s;
}

inline bool EventQueue::Cancel(Handle h) {
  Slot* s = Live(h);
  if (s == nullptr) return false;
  // Unlink first, destroy after: the closure's destructor may re-enter.
  Task doomed = std::move(s->fn);
  if (s->pos == kReserved)
    Release(static_cast<std::uint32_t>(h >> 32));
  else
    Remove(s->pos);
  return true;
}

inline EventQueue::Handle EventQueue::FindAlias(std::uint64_t alias) const {
  for (const Item& item : heap_)
    if (slab_[item.slot].alias == alias) return HandleOf(item.slot);
  return 0;
}

inline void EventQueue::Clear() {
  std::vector<Task> doomed;
  for (std::uint32_t slot = 0; slot < slab_.size(); ++slot)
    if (slab_[slot].pos != kFree)
      doomed.push_back(std::move(slab_[slot].fn));
  while (!heap_.empty()) Remove(heap_.size() - 1);
  for (std::uint32_t slot = 0; slot < slab_.size(); ++slot)
    if (slab_[slot].pos == kReserved) Release(slot);
}

inline void EventQueue::SiftUp(std::size_t pos, Item item) {
  while (pos > 0) {
    const std::size_t parent = (pos - 1) / kArity;
    if (!Before(item, heap_[parent])) break;
    Place(pos, heap_[parent]);
    pos = parent;
  }
  Place(pos, item);
}

inline void EventQueue::SiftDown(std::size_t pos, Item item) {
  const std::size_t n = heap_.size();
  for (;;) {
    const std::size_t first = pos * kArity + 1;
    if (first >= n) break;
    const std::size_t last = first + kArity < n ? first + kArity : n;
    std::size_t best = first;
    for (std::size_t c = first + 1; c < last; ++c)
      if (Before(heap_[c], heap_[best])) best = c;
    if (!Before(heap_[best], item)) break;
    Place(pos, heap_[best]);
    pos = best;
  }
  Place(pos, item);
}

inline void EventQueue::Release(std::uint32_t slot) {
  Slot& s = slab_[slot];
  s.fn = nullptr;
  s.alias = 0;
  s.barrier = false;
  s.pos = kFree;
  if (++s.gen == 0) s.gen = 1;
  free_.push_back(slot);
}

inline void EventQueue::Remove(std::size_t pos) {
  const Item gone = heap_[pos];
  if (slab_[gone.slot].barrier) barriers_.erase(barriers_.find(gone.at));
  Release(gone.slot);

  const Item last = heap_.back();
  heap_.pop_back();
  if (pos == heap_.size()) return;
  if (pos > 0 && Before(last, heap_[(pos - 1) / kArity]))
    SiftUp(pos, last);
  else
    SiftDown(pos, last);
}

}  // namespace fargo::sim
