// Message formation: per-destination batching of small wire messages.
//
// Every Core routes its outbound traffic through one Formation, which
// coalesces messages headed for the same destination into a single framed
// kBatch payload (src/serial/frame.h) under a deterministic policy, so the
// fine-grained traffic the layout engine depends on — acks, heartbeats,
// tracker updates, event notifications — stops paying one wire message
// (and one 64-byte header) each.
//
// Three lanes per destination:
//   kImmediate  latency-sensitive protocol traffic (invoke requests and
//               replies, moves, naming). Flushes on a delay-0 task: items
//               enqueued in the same scheduler tick for the same peer
//               leave in one frame, and departure time is unchanged.
//   kPriority   failure-detector and tracker traffic. Also delay-0, but
//               always flushed as its OWN frame: transfer time is charged
//               per message on frame size, so riding in a big immediate
//               frame would delay the heartbeat by the whole frame's
//               serialization time — exactly the detector race this lane
//               exists to prevent.
//   kBulk       traffic with no latency contract (event notifications,
//               slot-release acks, move acks). Held until the frame
//               reaches `flush_bytes` or `flush_after` virtual time has
//               passed since the first queued item.
//
// A flush holding exactly one message sends it unchanged — at low load
// the wire is byte-identical to an unbatched build. Loopback traffic
// bypasses formation entirely (it is free and cannot batch profitably).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <vector>

#include "src/net/network.h"
#include "src/serial/bytes.h"
#include "src/sim/scheduler.h"

namespace fargo::net {

/// Deterministic flush policy for the bulk lane.
struct FormationPolicy {
  std::size_t flush_bytes = 2048;  ///< flush once queued payload hits this
  SimTime flush_after = Millis(1); ///< ... or this long after the first item
};

// fargo: domain(net)
class Formation {
 public:
  enum class Lane : std::uint8_t {
    kImmediate = 0,
    kPriority = 1,
    kBulk = 2,
  };

  Formation(CoreId self, sim::Scheduler& sched, Network& net)
      : self_(self), sched_(sched), net_(net) {}
  ~Formation() { Discard(); }
  Formation(const Formation&) = delete;
  Formation& operator=(const Formation&) = delete;

  void SetPolicy(FormationPolicy p) { policy_ = p; }
  const FormationPolicy& policy() const { return policy_; }

  /// Disabled, every Enqueue sends straight through — the A/B switch the
  /// formation benchmark uses to measure batching against the raw wire.
  void SetEnabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  /// Invoked after every flush that left the Core (batched or single).
  /// Keeps net/ monitor-agnostic: the Core installs a hook that feeds the
  /// metrics registry and the tracer.
  using FlushHook = std::function<void(CoreId dest, Lane lane,
                                       std::size_t items, std::size_t bytes)>;
  void SetFlushHook(FlushHook hook) { hook_ = std::move(hook); }

  /// Queues `msg` on `lane`; ownership passes to the formation until the
  /// lane flushes. Loopback and disabled-formation sends go straight out.
  void Enqueue(Message msg, Lane lane);

  /// Drains every non-empty lane now, in (destination, lane) order
  /// (orderly shutdown).
  void FlushAll();

  /// Drops every queued message and cancels pending flush tasks (crash:
  /// unsent traffic dies with the Core).
  void Discard();

  // -- telemetry --------------------------------------------------------------
  std::uint64_t flushes() const { return flushes_; }
  std::uint64_t frames() const { return frames_; }
  std::uint64_t batched_items() const { return batched_items_; }
  std::uint64_t single_sends() const { return single_sends_; }
  std::size_t queued() const;

 private:
  struct LaneKey {
    CoreId dest;
    Lane lane = Lane::kImmediate;
    /// Ordered (std::map) so FlushAll drains deterministically.
    bool operator<(const LaneKey& o) const {
      if (dest.value != o.dest.value) return dest.value < o.dest.value;
      return static_cast<int>(lane) < static_cast<int>(o.lane);
    }
  };
  /// One lane. Created on its first message and kept for the formation's
  /// lifetime, empty between flushes, so a flush allocates no map node
  /// and the item vector reuses its storage.
  struct Queue {
    std::vector<Message> items;
    std::size_t bytes = 0;       ///< queued payload bytes
    sim::TaskId timer = 0;       ///< pending flush task (0 = none)
  };

  void Arm(const LaneKey& key, Queue& q, SimTime delay);
  void Flush(const LaneKey& key, Queue& q);

  CoreId self_;
  sim::Scheduler& sched_;
  Network& net_;
  FormationPolicy policy_;
  bool enabled_ = true;
  FlushHook hook_;
  std::map<LaneKey, Queue> queues_;
  std::uint64_t flushes_ = 0;
  std::uint64_t frames_ = 0;
  std::uint64_t batched_items_ = 0;
  std::uint64_t single_sends_ = 0;
};

/// Wire codec for one message inside a kBatch frame item. `from`/`to` are
/// not encoded — every item of a frame shares the frame's link.
void WriteBatchItem(serial::Writer& w, const Message& m);
Message ReadBatchItem(serial::Reader& r);

}  // namespace fargo::net
