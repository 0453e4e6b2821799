// Measurement taken from outside the program: a heap-allocation counter
// (this binary replaces global operator new), host speed probes, and the
// benchmark's own spans.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <ostream>
#include <queue>
#include <thread>
#include <unordered_map>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

namespace heap {

/// Allocations counted while counting is on (traced rounds only, so the
/// untraced rounds pay a single predictable branch per allocation).
struct Counts {
  std::uint64_t allocs = 0;
  std::uint64_t bytes = 0;
};

/// Switched only between pumps, while no worker thread runs.
void SetCounting(bool on);
/// Process-wide totals (all threads).
Counts Total();
/// The calling thread's totals: deltas around a call are exact even while
/// other localities allocate.
Counts ThisThread();

}  // namespace heap

/// Host speed probe: a fixed, program-independent kernel run in slices
/// between the generator windows of a round, and around its set-up, on
/// the thread that pumps the round. Its rate samples the host's speed at
/// the moments the round ran, so host-time metrics can be scaled to a
/// reference host speed.
class HostProbe {
 public:
  virtual ~HostProbe() = default;
  /// One slice between two generator windows.
  virtual void RunWindowSlice() = 0;
  /// One (larger) slice next to the set-up.
  virtual void RunSetupSlice() = 0;
  double events() const { return events_; }
  double seconds() const { return seconds_; }

 protected:
  HostProbe() = default;
  double events_ = 0;
  double seconds_ = 0;
};

/// For the sim engine: a discrete-event pump in miniature (heap-ordered
/// std::function events, small allocations, hash-table updates).
class PumpProbe final : public HostProbe {
 public:
  PumpProbe();
  void RunWindowSlice() override { Run(200); }
  void RunSetupSlice() override { Run(2000); }

 private:
  void Run(int events);
  struct Event {
    std::uint64_t at;
    std::uint64_t seq;
    std::function<void()> fn;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      return a.at != b.at ? a.at > b.at : a.seq > b.seq;
    }
  };
  std::priority_queue<Event, std::vector<Event>, Later> queue_;
  std::unordered_map<std::uint64_t, std::uint64_t> table_;
  std::uint64_t x_ = 0x243f6a8885a308d3ull;
  std::uint64_t now_ = 0;
  std::uint64_t seq_ = 0;
  std::uint64_t sink_ = 0;
};

/// For the locality engine, whose throughput is bound by how fast the
/// host wakes threads: barrier rounds of a conductor and `workers`
/// threads, with the engine's go/done condition-variable handshake and a
/// small fixed task per worker per round.
class BarrierProbe final : public HostProbe {
 public:
  explicit BarrierProbe(int workers);
  ~BarrierProbe() override;
  BarrierProbe(const BarrierProbe&) = delete;
  BarrierProbe& operator=(const BarrierProbe&) = delete;
  void RunWindowSlice() override { Run(20); }
  void RunSetupSlice() override { Run(200); }

 private:
  void Run(int rounds);
  void WorkerLoop(std::uint64_t salt);

  std::mutex mu_;
  std::condition_variable go_;
  std::condition_variable done_;
  std::uint64_t round_ = 0;  // guarded by mu_
  int arrived_ = 0;          // guarded by mu_
  bool stop_ = false;        // guarded by mu_
  std::uint64_t sink_ = 0;   // guarded by mu_
  const int workers_;
  std::vector<std::thread> threads_;  // last: joined before the rest dies
};

/// One benchmark span: a call into a layer, timed on the host clock.
struct Span {
  const char* name = "";  ///< static string
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = root
  std::int64_t op = -1;      ///< op index, -1 when not per-op
  std::int64_t round = 0;
  Clock::time_point start;
  Clock::time_point end;
};

/// In-memory span log, written as Chrome trace JSON at exit. Thread-safe:
/// issue spans are recorded on locality workers. Keeps the first
/// `capacity` spans and counts the rest, so a long run stays bounded.
class SpanLog {
 public:
  explicit SpanLog(std::size_t capacity) : capacity_(capacity) {}

  /// Reserves an id, so children can name a parent still open.
  std::uint64_t NewId() { return next_id_.fetch_add(1) + 1; }
  void Record(const Span& span);

  std::uint64_t recorded() const { return total_.load(); }
  std::uint64_t kept() const;
  std::size_t WriteChrome(std::ostream& os) const;

 private:
  std::size_t capacity_;
  std::atomic<std::uint64_t> next_id_{0};
  std::atomic<std::uint64_t> total_{0};
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
  Clock::time_point epoch_ = Clock::now();
};

}  // namespace perfbench
