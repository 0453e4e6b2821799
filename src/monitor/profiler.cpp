#include "src/monitor/profiler.h"

#include "src/core/core.h"
#include "src/core/runtime.h"

namespace fargo::monitor {

double Profiler::Instant(const ProbeKey& key) {
  const SimTime now = core_.scheduler().Now();
  auto it = cache_.find(key);
  if (it != cache_.end() && it->second.at >= 0 &&
      now - it->second.at <= cache_ttl_)
    return it->second.value;
  const double value = Evaluate(key);
  cache_[key] = CacheEntry{value, now};
  return value;
}

void Profiler::Start(const ProbeKey& key, SimTime interval) {
  auto it = continuous_.find(key);
  if (it != continuous_.end()) {
    // Later interested parties join the running sampler — one measurement
    // unit per service, however many listeners (§4.2).
    ++it->second.refs;
    return;
  }
  Continuous c;
  c.refs = 1;
  c.interval = interval;
  c.ema = Ema(alpha_);
  if (IsRate(key.service)) c.prev_counter = RawCounter(key);
  auto [slot, inserted] = continuous_.emplace(key, std::move(c));
  (void)inserted;
  slot->second.task = std::make_unique<sim::PeriodicTask>(
      core_.scheduler(), core_.id().value, interval,
      [this, key] { TakeSample(key); });
}

double Profiler::Get(const ProbeKey& key) const {
  auto it = continuous_.find(key);
  if (it == continuous_.end())
    throw FargoError("continuous profiling of " + ToString(key) +
                     " was not started");
  return it->second.ema.value();
}

void Profiler::Stop(const ProbeKey& key) {
  auto it = continuous_.find(key);
  if (it == continuous_.end()) return;
  if (--it->second.refs <= 0) continuous_.erase(it);
}

void Profiler::TakeSample(const ProbeKey& key) {
  auto it = continuous_.find(key);
  if (it == continuous_.end()) return;
  Continuous& c = it->second;
  ++evaluations_;
  double sample;
  if (IsRate(key.service)) {
    const double counter = RawCounter(key);
    sample = (counter - c.prev_counter) / ToSeconds(c.interval);
    c.prev_counter = counter;
  } else {
    sample = Evaluate(key);
    --evaluations_;  // Evaluate counted it
  }
  c.ema.Add(sample);
  const double smoothed = c.ema.value();
  // NOTE: the hook (EventBus) may Stop() this probe; touch nothing after.
  if (hook_) hook_(key, smoothed);
}

double Profiler::Evaluate(const ProbeKey& key) {
  ++evaluations_;
  switch (key.service) {
    case Service::kComletLoad:
      return static_cast<double>(core_.repository().size());
    case Service::kMemoryUse: {
      double total = 0;
      for (ComletId id : core_.repository().All()) {
        if (auto anchor = core_.repository().Get(id))
          total += static_cast<double>(core_.CaptureObject(*anchor).bytes.size());
      }
      return total;
    }
    case Service::kComletSize: {
      auto anchor = core_.repository().Get(key.a);
      if (!anchor) return 0.0;
      return static_cast<double>(core_.CaptureObject(*anchor).bytes.size());
    }
    case Service::kBandwidth:
      return core_.network().GetLink(core_.id(), key.peer).bytes_per_sec;
    case Service::kLatency:
      return ToSeconds(core_.network().GetLink(core_.id(), key.peer).latency);
    case Service::kThroughput:
    case Service::kMessageRate:
    case Service::kInvocationRate: {
      // Instant reading of a rate: the long-run average since Core start.
      const double elapsed =
          ToSeconds(core_.scheduler().Now() - core_.start_time());
      if (elapsed <= 0) return 0.0;
      return RawCounter(key) / elapsed;
    }
  }
  return 0.0;
}

double Profiler::RawCounter(const ProbeKey& key) const {
  switch (key.service) {
    case Service::kThroughput:
      return static_cast<double>(
          core_.network().StatsBetween(core_.id(), key.peer).bytes);
    case Service::kMessageRate:
      return static_cast<double>(
          core_.network().StatsBetween(core_.id(), key.peer).messages);
    case Service::kInvocationRate:
      return static_cast<double>(core_.InvocationCount(key.a, key.b));
    // Instantaneous gauges: no accumulated counter to rate over.
    case Service::kComletLoad:
    case Service::kMemoryUse:
    case Service::kComletSize:
    case Service::kBandwidth:
    case Service::kLatency:
      return 0.0;
  }
  return 0.0;
}

}  // namespace fargo::monitor
