#include "src/net/network.h"

#include <algorithm>
#include <cmath>
#include <type_traits>

#include "src/common/log.h"

namespace fargo::net {

const char* ToString(MessageKind kind) {
  switch (kind) {
    case MessageKind::kInvokeRequest:
      return "InvokeRequest";
    case MessageKind::kInvokeReply:
      return "InvokeReply";
    case MessageKind::kMoveRequest:
      return "MoveRequest";
    case MessageKind::kMoveReply:
      return "MoveReply";
    case MessageKind::kTrackerUpdate:
      return "TrackerUpdate";
    case MessageKind::kEventRegister:
      return "EventRegister";
    case MessageKind::kEventUnregister:
      return "EventUnregister";
    case MessageKind::kEventNotify:
      return "EventNotify";
    case MessageKind::kNameRequest:
      return "NameRequest";
    case MessageKind::kNameReply:
      return "NameReply";
    case MessageKind::kNewRequest:
      return "NewRequest";
    case MessageKind::kNewReply:
      return "NewReply";
    case MessageKind::kControl:
      return "Control";
    case MessageKind::kControlReply:
      return "ControlReply";
    case MessageKind::kRecoveryQuery:
      return "RecoveryQuery";
    case MessageKind::kRecoveryReply:
      return "RecoveryReply";
    case MessageKind::kBatch:
      return "Batch";
    case MessageKind::kDirectoryPublish:
      return "DirectoryPublish";
    case MessageKind::kDirectoryLookup:
      return "DirectoryLookup";
    case MessageKind::kDirectoryReply:
      return "DirectoryReply";
    case MessageKind::kDirectoryMap:
      return "DirectoryMap";
  }
  return "?";
}

void Network::Register(CoreId id, Handler handler) {
  std::lock_guard<std::mutex> lk(mu_);
  handlers_[id] = std::move(handler);
}

void Network::Unregister(CoreId id) {
  std::lock_guard<std::mutex> lk(mu_);
  handlers_.erase(id);
}

void Network::SetLink(CoreId a, CoreId b, LinkModel model) {
  std::lock_guard<std::mutex> lk(mu_);
  links_[Key(a, b)] = model;
  links_[Key(b, a)] = model;
  UpdateMinLatencyLocked();
}

void Network::SetLinkOneWay(CoreId from, CoreId to, LinkModel model) {
  std::lock_guard<std::mutex> lk(mu_);
  links_[Key(from, to)] = model;
  UpdateMinLatencyLocked();
}

void Network::UpdateMinLatencyLocked() {
  min_latency_ = default_link_.latency;
  // fargolint: order-insensitive(a minimum)
  for (const auto& [key, model] : links_)
    if ((key >> 32) != (key & 0xffffffffu))
      min_latency_ = std::min(min_latency_, model.latency);
}

LinkModel Network::GetLinkLocked(CoreId from, CoreId to) const {
  if (from == to) return LinkModel{.latency = 0, .bytes_per_sec = 1e12};
  if (auto it = links_.find(Key(from, to)); it != links_.end())
    return it->second;
  return default_link_;
}

LinkModel Network::GetLink(CoreId from, CoreId to) const {
  std::lock_guard<std::mutex> lk(mu_);
  return GetLinkLocked(from, to);
}

void Network::SetPartitioned(CoreId a, CoreId b, bool partitioned) {
  std::lock_guard<std::mutex> lk(mu_);
  LinkModel m = GetLinkLocked(a, b);
  m.up = !partitioned;
  links_[Key(a, b)] = m;
  links_[Key(b, a)] = m;
}

void Network::CountDrop(const Message& msg, DropReason reason) {
  ++dropped_by_[static_cast<int>(reason)];
  if (drop_hook_) drop_hook_(msg, reason);
  if (msg.from != msg.to) ++stats_[Key(msg.from, msg.to)].dropped;
  LogDebug() << "drop " << ToString(msg.kind) << " " << ToString(msg.from)
             << " -> " << ToString(msg.to) << " (" << ToString(reason) << ")";
}

void Network::Deliver(Message msg) {
  // Copy the handler out so it runs unlocked: handlers re-enter Send and
  // may Unregister themselves (crash paths).
  Handler handler;
  {
    std::lock_guard<std::mutex> lk(mu_);
    auto it = handlers_.find(msg.to);
    if (it == handlers_.end()) {
      CountDrop(msg, DropReason::kUnregistered);
      return;
    }
    handler = it->second;
  }
  handler(std::move(msg));
}

// Every message crosses the scheduler in a `[this, Message]` delivery
// closure (below); a field added to Message must not push that closure out
// of sim::Task's inline buffer onto the heap.
static_assert(sizeof(Network*) + sizeof(Message) <= sim::Task::kInlineBytes &&
                  std::is_nothrow_move_constructible_v<Message>,
              "the delivery closure outgrew sim::Task's inline buffer");

void Network::Send(Message msg) {
  std::lock_guard<std::mutex> lk(mu_);
  if (tap_) tap_(msg);
  // Delivery is Post()ed to the destination Core's home locality: the
  // receive handler touches that Core's ownership domain, so this is the
  // sanctioned cross-locality handoff (a no-op routing hint in sim mode).
  const std::uint64_t dest_affinity = msg.to.value;
  if (msg.from == msg.to) {
    // Intra-Core loopback: free, excluded from link statistics, and immune
    // to chaos (a Core always reaches itself).
    // fargolint: allow(capture-this) Runtime clears the queue before the Network dies
    sched_.PostAfter(dest_affinity, 0, [this, msg = std::move(msg)]() mutable {
      Deliver(std::move(msg));
    });
    return;
  }
  const LinkModel link = GetLinkLocked(msg.from, msg.to);
  if (!link.up) {
    CountDrop(msg, DropReason::kLinkDown);
    return;
  }
  ChaosEngine::Verdict fate = chaos_.Decide(msg.from, msg.to);
  if (fate.drop) {
    CountDrop(msg, DropReason::kChaos);
    return;
  }
  const std::size_t wire_bytes = msg.size() + header_bytes_;
  const SimTime transfer = static_cast<SimTime>(
      std::llround(static_cast<double>(wire_bytes) / link.bytes_per_sec * 1e9));
  const PairKey key = Key(msg.from, msg.to);

  // Each copy (normally one; two under duplication) is charged the full
  // link cost plus its own reorder jitter.
  for (int i = 0; i < fate.copies; ++i) {
    LinkStats& s = stats_[key];
    s.messages += 1;
    s.bytes += wire_bytes;
    total_.messages += 1;
    total_.bytes += wire_bytes;
    const SimTime arrival_delay = link.latency + transfer + fate.extra[i];
    const bool duplicate = i + 1 < fate.copies;
    if (duplicate && copy_hook_) copy_hook_(msg.size());
    Message copy = duplicate ? msg : std::move(msg);
    sched_.PostAfter(dest_affinity, arrival_delay,
                     // fargolint: allow(capture-this) Runtime clears the queue before the Network dies
                     [this, m = std::move(copy)]() mutable {
                       Deliver(std::move(m));
                     });
  }
}

void Network::SetFaultPlan(const FaultPlan& plan) {
  {
    std::lock_guard<std::mutex> lk(mu_);
    chaos_.Arm(plan);
  }
  for (const FaultPlan::LinkFlap& flap : plan.flaps) {
    // Flaps only touch lock-guarded link state, so any locality may run
    // them; ScheduleAt keeps them on the caller's (or default) locality,
    // and from the conductor makes them lookahead barriers (every Send
    // reads the link's state).
    // fargolint: allow(capture-this) Runtime clears the queue before the Network dies
    sched_.ScheduleAt(flap.down_at, [this, flap] {
      SetPartitioned(flap.a, flap.b, true);
    });
    if (flap.up_at > flap.down_at) {
      // fargolint: allow(capture-this) Runtime clears the queue before the Network dies
      sched_.ScheduleAt(flap.up_at, [this, flap] {
        SetPartitioned(flap.a, flap.b, false);
      });
    }
  }
  for (const FaultPlan::CoreCrash& crash : plan.crashes) {
    // Crash/restart handlers tear into the Core itself, so they must run
    // on the Core's home locality.
    // They also flip state other Cores read (liveness, handler
    // registration), so they are lookahead barriers.
    sched_.Post(
        crash.core.value, crash.at,
        // fargolint: allow(capture-this) Runtime clears the queue before the Network dies
        [this, core = crash.core] {
          std::function<void(CoreId)> handler;
          {
            std::lock_guard<std::mutex> lk(mu_);
            handler = crash_handler_;
          }
          if (handler) {
            handler(core);
          } else {
            Unregister(core);
          }
        },
        /*barrier=*/true);
    if (crash.restart_after > 0) {
      sched_.Post(
          crash.core.value, crash.at + crash.restart_after,
          // fargolint: allow(capture-this) Runtime clears the queue before the Network dies
          [this, core = crash.core] {
            std::function<void(CoreId)> handler;
            {
              std::lock_guard<std::mutex> lk(mu_);
              handler = restart_handler_;
            }
            if (handler) handler(core);
          },
          /*barrier=*/true);
    }
  }
}

void Network::SetLinkFaultPlan(CoreId from, CoreId to, const FaultPlan& plan) {
  std::lock_guard<std::mutex> lk(mu_);
  chaos_.ArmLink(from, to, plan);
}

std::uint64_t Network::dropped() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::uint64_t sum = 0;
  for (std::uint64_t n : dropped_by_) sum += n;
  return sum;
}

LinkStats Network::StatsBetween(CoreId from, CoreId to) const {
  std::lock_guard<std::mutex> lk(mu_);
  if (auto it = stats_.find(Key(from, to)); it != stats_.end())
    return it->second;
  return LinkStats{};
}

std::vector<std::pair<std::pair<CoreId, CoreId>, LinkStats>>
Network::AllLinkStats() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::vector<std::pair<std::pair<CoreId, CoreId>, LinkStats>> out;
  out.reserve(stats_.size());
  // fargolint: order-insensitive(rows are sorted by link pair before return)
  for (const auto& [key, stats] : stats_) {
    CoreId from{static_cast<std::uint32_t>(key >> 32)};
    CoreId to{static_cast<std::uint32_t>(key & 0xffffffffu)};
    out.emplace_back(std::make_pair(from, to), stats);
  }
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    return a.first < b.first;
  });
  return out;
}

void Network::ResetStats() {
  std::lock_guard<std::mutex> lk(mu_);
  stats_.clear();
  total_ = LinkStats{};
  for (std::uint64_t& n : dropped_by_) n = 0;
  chaos_.ResetStats();
}

}  // namespace fargo::net
