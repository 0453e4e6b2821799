// The benches' heap-allocation counter: this file replaces the global
// operator new of every bench binary it is linked into (one definition per
// program, hence a .cpp and not bench/support.h). Section reads the count
// and gates its delta as `<prefix>.heap_allocs`.
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

namespace fargo::bench {
namespace {
std::atomic<std::uint64_t> g_heap_allocs{0};

void* CountedAlloc(std::size_t n) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
}  // namespace

std::uint64_t HeapAllocs() {
  return g_heap_allocs.load(std::memory_order_relaxed);
}

}  // namespace fargo::bench

void* operator new(std::size_t n) { return fargo::bench::CountedAlloc(n); }
void* operator new[](std::size_t n) { return fargo::bench::CountedAlloc(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
