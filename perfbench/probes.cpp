#include "perfbench/probes.h"

#include <cstdlib>
#include <new>

namespace perfbench {

namespace heap {
namespace {
bool g_counting = false;
std::atomic<std::uint64_t> g_allocs{0};
std::atomic<std::uint64_t> g_bytes{0};
thread_local Counts tl_counts;
}  // namespace

void SetCounting(bool on) { g_counting = on; }

Counts Total() {
  return {g_allocs.load(std::memory_order_relaxed),
          g_bytes.load(std::memory_order_relaxed)};
}

Counts ThisThread() { return tl_counts; }

void* Allocate(std::size_t n) {
  if (g_counting) {
    ++tl_counts.allocs;
    tl_counts.bytes += n;
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    g_bytes.fetch_add(n, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}

}  // namespace heap

PumpProbe::PumpProbe() {
  Run(4096);  // fills the queue; the warm-up is not a sample
  events_ = 0;
  seconds_ = 0;
}

void PumpProbe::Run(int events) {
  constexpr std::size_t kQueue = 4096;
  const Clock::time_point start = Clock::now();
  for (int i = 0; i < events; ++i) {
    std::uint64_t z = (x_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    const std::uint64_t r = z ^ (z >> 31);
    queue_.push({now_ + (r & 0xfffff), ++seq_, [this, r] {
                   std::vector<std::uint8_t> payload(32 + (r & 63), 0x2a);
                   sink_ += (table_[(r >> 20) & 0xffff] += payload.size());
                 }});
    if (queue_.size() < kQueue) continue;
    Event e = queue_.top();
    queue_.pop();
    now_ = e.at;
    e.fn();
  }
  seconds_ += SecondsSince(start);
  events_ += events;
  if (sink_ == 0 && events_ > kQueue) std::abort();  // keeps the work live
}

BarrierProbe::BarrierProbe(int workers) : workers_(workers) {
  for (int i = 0; i < workers; ++i)
    threads_.emplace_back(
        [this, i] { WorkerLoop(static_cast<std::uint64_t>(i) + 1); });
}

BarrierProbe::~BarrierProbe() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
  }
  go_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void BarrierProbe::WorkerLoop(std::uint64_t salt) {
  std::uint64_t seen = 0;
  std::unique_lock<std::mutex> lk(mu_);
  for (;;) {
    go_.wait(lk, [&] { return stop_ || round_ != seen; });
    if (stop_) return;
    seen = round_;
    lk.unlock();
    std::uint64_t x = seen * salt;
    for (int i = 0; i < 64; ++i)
      x = (x ^ (x >> 31)) * 0x9e3779b97f4a7c15ull + 1;
    lk.lock();
    sink_ += x;
    if (++arrived_ == workers_) done_.notify_one();
  }
}

void BarrierProbe::Run(int rounds) {
  const Clock::time_point start = Clock::now();
  for (int i = 0; i < rounds; ++i) {
    std::unique_lock<std::mutex> lk(mu_);
    arrived_ = 0;
    ++round_;
    go_.notify_all();
    done_.wait(lk, [&] { return arrived_ == workers_; });
  }
  seconds_ += SecondsSince(start);
  events_ += rounds;
}

void SpanLog::Record(const Span& span) {
  total_.fetch_add(1, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lk(mu_);
  if (spans_.size() < capacity_) spans_.push_back(span);
}

std::uint64_t SpanLog::kept() const {
  std::lock_guard<std::mutex> lk(mu_);
  return spans_.size();
}

std::size_t SpanLog::WriteChrome(std::ostream& os) const {
  std::lock_guard<std::mutex> lk(mu_);
  auto us = [this](Clock::time_point t) {
    return std::chrono::duration<double, std::micro>(t - epoch_).count();
  };
  os << "{\"traceEvents\":[\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    os << (i ? ",\n" : "") << "{\"name\":\"" << s.name
       << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.round
       << ",\"ts\":" << us(s.start) << ",\"dur\":" << us(s.end) - us(s.start)
       << ",\"args\":{\"id\":" << s.id << ",\"parent\":" << s.parent
       << ",\"op\":" << s.op << "}}";
  }
  os << "\n]}\n";
  return spans_.size();
}

}  // namespace perfbench

// Global replacement: every allocation of the process, the library's
// included, goes through the counter.
void* operator new(std::size_t n) { return perfbench::heap::Allocate(n); }
void* operator new[](std::size_t n) { return perfbench::heap::Allocate(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
