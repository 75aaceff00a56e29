// Generation-tagged slab allocator — stable-address object pool for the
// state layer and the simulator's event store.
//
// Transactions and dialogs are created and destroyed once per call leg;
// holding each in its own unique_ptr made the state tables the last
// allocation-heavy layer of the hot loop (PR 4 pooled events and messages).
// A Slab instead places objects in fixed-size chunks with a freelist:
// steady-state create/erase touches no allocator, addresses are stable for
// an object's whole lifetime (chunks never move), and every slot carries a
// generation counter so a Handle held across erase-and-reuse — the
// schedule-removal-then-recreate pattern — can be detected as stale instead
// of resolving to the wrong object. The simulator's timer wheel
// (sim/timer_wheel.hpp) keeps its event nodes in one, and packs a handle
// into each EventId.
//
// A slot is exactly sizeof(T): each chunk keeps the slots' generation and
// occupancy in a side array (8 bytes per slot) after its object storage,
// so no per-slot metadata pads an aligned T (a 128-byte, 16-aligned event
// node would take 144).
#pragma once

#include <cassert>
#include <cstdint>
#include <memory>
#include <new>
#include <utility>
#include <vector>

namespace svk::common {

/// Identifies one live slab object: slot index plus the slot's generation
/// at allocation time. A default-constructed handle is null (never valid:
/// generations start at 1).
struct SlabHandle {
  std::uint32_t index = 0;
  std::uint32_t generation = 0;

  [[nodiscard]] bool null() const { return generation == 0; }
  friend bool operator==(const SlabHandle&, const SlabHandle&) = default;
};

template <typename T>
class Slab {
 public:
  static constexpr std::size_t kChunkSlots = 256;

  /// Allocation counters; `chunk_allocs` is the number of chunk mallocs
  /// ever made — the perf gate divides lifetime emplaces by it, and the
  /// steady-state microbench asserts it stops moving once warm.
  struct Stats {
    std::uint64_t emplaced = 0;
    std::uint64_t erased = 0;
    std::uint64_t chunk_allocs = 0;
    std::uint64_t freelist_reuses = 0;
  };

  Slab() = default;
  ~Slab() { clear(); }

  Slab(const Slab&) = delete;
  Slab& operator=(const Slab&) = delete;

  /// Constructs a T in a free slot. O(1); allocates only when every slot of
  /// every chunk is occupied. The object's address is stable until erase.
  template <typename... Args>
  [[nodiscard]] SlabHandle emplace(Args&&... args) {
    if (freelist_.empty()) grow();
    const std::uint32_t index = freelist_.back();
    freelist_.pop_back();
    Chunk& chunk = chunk_of(index);
    const std::size_t i = index % kChunkSlots;
    Meta& meta = chunk.meta[i];
    assert(!meta.occupied);
    ::new (chunk.storage(i)) T(std::forward<Args>(args)...);
    meta.occupied = true;
    ++live_;
    ++stats_.emplaced;
    if (meta.generation > 1) ++stats_.freelist_reuses;
    return SlabHandle{index, meta.generation};
  }

  /// The object behind `h`, or nullptr when the handle is stale (slot since
  /// erased, possibly reused by a different object) or null.
  [[nodiscard]] T* get(SlabHandle h) {
    if (h.null() || h.index >= slot_count()) return nullptr;
    Chunk& chunk = chunk_of(h.index);
    const std::size_t i = h.index % kChunkSlots;
    const Meta& meta = chunk.meta[i];
    if (!meta.occupied || meta.generation != h.generation) return nullptr;
    return chunk.object(i);
  }
  [[nodiscard]] const T* get(SlabHandle h) const {
    return const_cast<Slab*>(this)->get(h);
  }

  /// Destroys the object behind `h` and recycles its slot (bumping the
  /// generation so outstanding handles go stale). Stale/null handles are a
  /// harmless no-op returning false — erase can race a scheduled removal.
  bool erase(SlabHandle h) {
    T* obj = get(h);
    if (obj == nullptr) return false;
    Meta& meta = chunk_of(h.index).meta[h.index % kChunkSlots];
    obj->~T();
    meta.occupied = false;
    ++meta.generation;
    --live_;
    ++stats_.erased;
    freelist_.push_back(h.index);
    return true;
  }

  /// Visits every live object in slot order (a fixed, deterministic order
  /// for a given history). `f(SlabHandle, T&)`. The visited object may be
  /// erased from inside `f`; erasing *other* objects mid-walk is also safe
  /// (their slots simply skip as unoccupied when reached).
  template <typename F>
  void for_each(F&& f) {
    const std::size_t n = slot_count();
    for (std::size_t i = 0; i < n; ++i) {
      Chunk& chunk = chunk_of(static_cast<std::uint32_t>(i));
      const Meta& meta = chunk.meta[i % kChunkSlots];
      if (!meta.occupied) continue;
      const SlabHandle h{static_cast<std::uint32_t>(i), meta.generation};
      f(h, *chunk.object(i % kChunkSlots));
    }
  }

  /// Destroys every live object (slot order); capacity is retained.
  void clear() {
    for_each([this](SlabHandle h, T&) { erase(h); });
  }

  [[nodiscard]] std::size_t size() const { return live_; }
  [[nodiscard]] bool empty() const { return live_ == 0; }
  [[nodiscard]] std::size_t capacity() const { return slot_count(); }
  [[nodiscard]] const Stats& stats() const { return stats_; }

 private:
  struct Meta {
    std::uint32_t generation = 1;
    bool occupied = false;
  };
  struct Chunk {
    alignas(T) unsigned char bytes[kChunkSlots * sizeof(T)];
    Meta meta[kChunkSlots];

    [[nodiscard]] void* storage(std::size_t i) { return bytes + i * sizeof(T); }
    [[nodiscard]] T* object(std::size_t i) {
      return std::launder(reinterpret_cast<T*>(storage(i)));
    }
  };

  [[nodiscard]] std::size_t slot_count() const {
    return chunks_.size() * kChunkSlots;
  }
  [[nodiscard]] Chunk& chunk_of(std::uint32_t index) {
    return *chunks_[index / kChunkSlots];
  }

  void grow() {
    const std::size_t base = slot_count();
    chunks_.push_back(std::make_unique<Chunk>());
    ++stats_.chunk_allocs;
    // Room for every slot, so draining a pool that peaked above one chunk
    // never reallocates the freelist. Reverse order so emplace draws low
    // indexes first (deterministic and friendlier to for_each locality).
    freelist_.reserve(slot_count());
    for (std::size_t i = kChunkSlots; i-- > 0;) {
      freelist_.push_back(static_cast<std::uint32_t>(base + i));
    }
  }

  std::vector<std::unique_ptr<Chunk>> chunks_;
  std::vector<std::uint32_t> freelist_;
  std::size_t live_ = 0;
  Stats stats_;
};

}  // namespace svk::common
