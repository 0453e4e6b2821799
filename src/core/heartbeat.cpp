#include "src/core/heartbeat.h"

#include "src/common/log.h"
#include "src/core/core.h"
#include "src/core/tracker.h"
#include "src/monitor/events.h"

namespace fargo::core {

FailureDetector::FailureDetector(Core& core, SimTime interval, int k_missed)
    : core_(core), interval_(interval), k_missed_(k_missed) {
  task_ = std::make_unique<sim::PeriodicTask>(
      core_.scheduler(), core_.id().value, interval_, [this] { Tick(); });
}

FailureDetector::~FailureDetector() { Stop(); }

void FailureDetector::Stop() {
  if (task_) task_->Stop();
}

bool FailureDetector::running() const { return task_ && task_->running(); }

void FailureDetector::Watch(CoreId peer) {
  if (peer.valid() && peer != core_.id()) watched_.insert(peer);
}

void FailureDetector::Unwatch(CoreId peer) { watched_.erase(peer); }

bool FailureDetector::IsSuspected(CoreId peer) const {
  auto it = peers_.find(peer);
  return it != peers_.end() && it->second.suspected;
}

std::set<CoreId> FailureDetector::PeerSet() const {
  std::set<CoreId> peers = watched_;
  for (const TrackerEntry* t : core_.trackers().All()) {
    if (!t->is_local() && t->next.valid() && t->next != core_.id())
      peers.insert(t->next);
  }
  for (CoreId peer : core_.RemoteSubscriptionPeers()) {
    if (peer.valid() && peer != core_.id()) peers.insert(peer);
  }
  return peers;
}

void FailureDetector::Tick() {
  // Account the previous round's outstanding pings before sending new ones.
  const std::set<CoreId> current = PeerSet();
  for (auto it = peers_.begin(); it != peers_.end();) {
    if (!current.contains(it->first)) {
      // Dependency gone (tracker shortened away, unsubscribed): forget the
      // peer without firing recovery — nobody depends on it anymore.
      it = peers_.erase(it);
      continue;
    }
    PeerState& state = it->second;
    if (state.awaiting) {
      state.awaiting = false;
      ++state.missed;
      if (!state.suspected && state.missed >= k_missed_)
        Suspect(it->first, state);
    }
    ++it;
  }
  for (CoreId peer : current) {
    PeerState& state = peers_[peer];
    state.awaiting = true;
    core_.SendHeartbeatPing(peer);
    ++pings_sent_;
  }
}

void FailureDetector::OnPong(CoreId peer) {
  auto it = peers_.find(peer);
  if (it == peers_.end()) return;
  PeerState& state = it->second;
  state.awaiting = false;
  state.missed = 0;
  if (state.suspected) Recover(peer, state);
}

void FailureDetector::Suspect(CoreId peer, PeerState& state) {
  state.suspected = true;
  ++suspicions_;
  LogInfo() << "core " << ToString(core_.id()) << " suspects " << ToString(peer)
            << " (" << k_missed_ << " heartbeats missed)";
  monitor::Event e;
  e.kind = monitor::EventKind::kCoreUnreachable;
  e.source = core_.id();
  e.peer = peer;
  core_.events().Fire(e);
}

void FailureDetector::Recover(CoreId peer, PeerState& state) {
  state.suspected = false;
  ++recoveries_;
  LogInfo() << "core " << ToString(core_.id()) << " sees " << ToString(peer)
            << " again";
  monitor::Event e;
  e.kind = monitor::EventKind::kCoreRecovered;
  e.source = core_.id();
  e.peer = peer;
  core_.events().Fire(e);
}

}  // namespace fargo::core
