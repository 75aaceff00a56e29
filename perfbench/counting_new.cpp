#include "counting_new.hpp"

#include <cstdlib>
#include <new>

namespace {

// Thread-local so the count needs no atomic on the hot path; the benchmark
// runs every simulation on its main thread.
thread_local svk::perfbench::AllocCounts t_counts;

void* counted_alloc(std::size_t size) {
  ++t_counts.calls;
  t_counts.bytes += size;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

}  // namespace

namespace svk::perfbench {
AllocCounts alloc_counts() { return t_counts; }
}  // namespace svk::perfbench

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
