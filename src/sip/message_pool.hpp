// Freelist-backed allocator for shared (immutable) messages.
//
// Message::finish() turns a built message into a shared_ptr<const Message>.
// With make_shared that is one malloc + one free per message — and the
// forward path finishes a message per hop. This allocator recycles the
// allocate_shared block (control block + Message payload, one contiguous
// allocation) through a thread-local freelist binned by size class: after
// warmup, finish() and the final MessagePtr release touch no allocator.
// A message's shared cold-header block (message.hpp) comes from the same
// pool in its own size class. SharedText blocks (shared_text.hpp) come from
// a second thread-local instance of the same pool, with counters of its
// own, so message_pool_stats() counts message blocks only.
//
// Thread notes: the freelist is thread-local and never shared, so no locks.
// A block freed on a different thread than it was allocated on simply joins
// that thread's freelist — all blocks come from (and, past the per-bin cap
// or at thread exit, return to) the global operator new/delete, so ownership
// is fully transferable. MessagePtrs may therefore cross threads freely.
#pragma once

#include <cstddef>
#include <cstdint>

namespace svk::sip {

/// Per-thread allocation counters of one pool; the zero-allocation
/// steady-state test pins `fresh_allocs` flat while `reuses` grows.
struct BlockPoolStats {
  std::uint64_t fresh_allocs = 0;  // blocks taken from operator new
  std::uint64_t reuses = 0;        // blocks served from the freelist
  std::uint64_t returns = 0;       // blocks parked back on the freelist
  std::uint64_t releases = 0;      // blocks given back to operator delete
  // Bytes of the blocks handed out and not yet taken back: added on
  // allocate, subtracted on deallocate (whether parked or released).
  std::int64_t bytes_outstanding = 0;
};

using MessagePoolStats = BlockPoolStats;
using TextPoolStats = BlockPoolStats;

/// This thread's message-pool counters.
const MessagePoolStats& message_pool_stats();
/// This thread's text-pool counters (SharedText blocks).
const TextPoolStats& text_pool_stats();

namespace detail {
void* pool_allocate(std::size_t bytes);
void pool_deallocate(void* p, std::size_t bytes) noexcept;
void* text_pool_allocate(std::size_t bytes);
void text_pool_deallocate(void* p, std::size_t bytes) noexcept;
}  // namespace detail

/// Minimal std allocator over the thread-local message pool. Stateless;
/// all instances are interchangeable.
template <typename T>
struct MessagePoolAllocator {
  using value_type = T;

  MessagePoolAllocator() noexcept = default;
  template <typename U>
  constexpr MessagePoolAllocator(const MessagePoolAllocator<U>&) noexcept {}

  [[nodiscard]] T* allocate(std::size_t n) {
    return static_cast<T*>(detail::pool_allocate(n * sizeof(T)));
  }
  void deallocate(T* p, std::size_t n) noexcept {
    detail::pool_deallocate(p, n * sizeof(T));
  }

  template <typename U>
  friend constexpr bool operator==(const MessagePoolAllocator&,
                                   const MessagePoolAllocator<U>&) noexcept {
    return true;
  }
};

}  // namespace svk::sip
