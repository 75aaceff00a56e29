#include "sip/message_pool.hpp"

#include <new>
#include <vector>

namespace svk::sip {
namespace {

// allocate_shared<const Message> and allocate_shared<ColdHeaders> produce
// one size class each per libstdc++ version; another class appears only if
// anything else ever uses the allocator. Linear scan over this many bins is
// cheaper than any map.
constexpr std::size_t kMaxBins = 8;
// Per-bin freelist cap: bounds idle pool memory at kMaxParked blocks per
// size class per thread while still absorbing the forward path's
// allocate/release churn.
constexpr std::size_t kMaxParked = 4096;

struct Bin {
  std::size_t bytes = 0;
  std::vector<void*> free;
};

struct Pool {
  Bin bins[kMaxBins];
  MessagePoolStats stats;

  ~Pool() {
    for (Bin& bin : bins) {
      for (void* p : bin.free) ::operator delete(p);
    }
  }

  Bin* find(std::size_t bytes) {
    for (Bin& bin : bins) {
      if (bin.bytes == bytes) return &bin;
      if (bin.bytes == 0) {
        bin.bytes = bytes;
        return &bin;
      }
    }
    return nullptr;  // unusual size mix; fall through to the heap
  }
};

Pool& local_pool() {
  thread_local Pool pool;
  return pool;
}

}  // namespace

const MessagePoolStats& message_pool_stats() { return local_pool().stats; }

namespace detail {

void* pool_allocate(std::size_t bytes) {
  Pool& pool = local_pool();
  pool.stats.bytes_outstanding += static_cast<std::int64_t>(bytes);
  Bin* bin = pool.find(bytes);
  if (bin != nullptr && !bin->free.empty()) {
    void* p = bin->free.back();
    bin->free.pop_back();
    ++pool.stats.reuses;
    return p;
  }
  ++pool.stats.fresh_allocs;
  return ::operator new(bytes);
}

void pool_deallocate(void* p, std::size_t bytes) noexcept {
  Pool& pool = local_pool();
  pool.stats.bytes_outstanding -= static_cast<std::int64_t>(bytes);
  Bin* bin = pool.find(bytes);
  if (bin != nullptr && bin->free.size() < kMaxParked) {
    bin->free.push_back(p);
    ++pool.stats.returns;
    return;
  }
  ++pool.stats.releases;
  ::operator delete(p);
}

}  // namespace detail
}  // namespace svk::sip
