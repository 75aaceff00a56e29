#include "sip/message_pool.hpp"

#include <new>
#include <vector>

namespace svk::sip {
namespace {

// allocate_shared<const Message> and allocate_shared<ColdHeaders> produce
// one size class each per libstdc++ version, and SharedText uses four;
// another class appears only if anything else ever uses a pool. Linear scan
// over this many bins is cheaper than any map.
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
  BlockPoolStats stats;

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

  void* allocate(std::size_t bytes) {
    stats.bytes_outstanding += static_cast<std::int64_t>(bytes);
    Bin* bin = find(bytes);
    if (bin != nullptr && !bin->free.empty()) {
      void* p = bin->free.back();
      bin->free.pop_back();
      ++stats.reuses;
      return p;
    }
    ++stats.fresh_allocs;
    return ::operator new(bytes);
  }

  void deallocate(void* p, std::size_t bytes) noexcept {
    stats.bytes_outstanding -= static_cast<std::int64_t>(bytes);
    Bin* bin = find(bytes);
    if (bin != nullptr && bin->free.size() < kMaxParked) {
      bin->free.push_back(p);
      ++stats.returns;
      return;
    }
    ++stats.releases;
    ::operator delete(p);
  }
};

Pool& message_pool() {
  thread_local Pool pool;
  return pool;
}

Pool& text_pool() {
  thread_local Pool pool;
  return pool;
}

}  // namespace

const MessagePoolStats& message_pool_stats() { return message_pool().stats; }
const TextPoolStats& text_pool_stats() { return text_pool().stats; }

namespace detail {

void* pool_allocate(std::size_t bytes) {
  return message_pool().allocate(bytes);
}

void pool_deallocate(void* p, std::size_t bytes) noexcept {
  message_pool().deallocate(p, bytes);
}

void* text_pool_allocate(std::size_t bytes) {
  return text_pool().allocate(bytes);
}

void text_pool_deallocate(void* p, std::size_t bytes) noexcept {
  text_pool().deallocate(p, bytes);
}

}  // namespace detail
}  // namespace svk::sip
