// Hierarchical timer wheel — the simulator's pending-event store.
//
// An exact priority queue on (time, order key) with O(1) schedule and
// cancel. Design goals, in order:
//
//  1. Bit-identical execution order. Events run in (at, key) order. The
//     simulator composes the key as (locus rank << kLocusSeqBits |
//     per-locus seq), so it is a pure function of *which host* scheduled
//     the event and *how many* events that host had scheduled before,
//     independent of how hosts interleave globally. The pinned digests
//     encode that order.
//  2. O(1) schedule and true O(1) cancel. Events live in intrusive
//     doubly-linked, unordered slot lists; an EventId resolves to its pool node in
//     O(1) (index + generation), so cancel unlinks and recycles the node
//     immediately instead of leaving a tombstone resident.
//  3. Zero steady-state allocation. Nodes come from a common::Slab; the
//     callable lives inline in the node (EventAction's 64-byte buffer).
//     Once the pool is warm, schedule/cancel/execute touch no allocator.
//
// Structure: kLevels wheels of 64 slots over ticks of 2^kTickBits ns
// (1.024 µs). Level k buckets events whose tick differs from the cursor
// in bit group [6k, 6k+6); nine levels cover every tick of a non-negative
// int64 time, so nothing lives beside the wheel. A 0.5 ms link or CPU
// delay lands at level 1, a 32 s Timer J at level 4.
//
// Ordering invariants (why determinism survives):
//  * All events of one tick sit in one slot list at every level, and the
//    lowest occupied level-0 slot holds exactly the earliest tick.
//    pop_until() scans that (short) list for the minimum (at, key), so
//    insertion and cascade order never matter.
//  * The cursor only moves by cascading the lowest occupied slot, and
//    pop_until() never cascades a slot that starts after its limit. The
//    cursor therefore never passes the caller's horizon, and the
//    simulator (which clamps schedules to now) never schedules before it.
#pragma once

#include <cstdint>

#include "common/sim_time.hpp"
#include "common/slab.hpp"
#include "sim/event_action.hpp"

namespace svk::sim {

/// Identifies a scheduled event for cancellation. Encodes (generation,
/// pool index); stale ids (already run or cancelled) fail the generation
/// check and cancel becomes a harmless no-op. Never 0 (generations start
/// at 1), so 0 can be used as a "no event" sentinel.
using EventId = std::uint64_t;

/// Deterministic same-tick tie-break for an event: the upper bits carry the
/// execution locus's rank (host address; 0 = harness/setup), the lower bits
/// a per-locus sequence number. Because every locus executes its own events
/// in an order independent of how other loci interleave, the key — unlike a
/// global sequence number — depends only on each host's own history. Every
/// pinned RunRecord digest encodes this tie-break (DESIGN.md §8).
using OrderKey = std::uint64_t;

/// Bits reserved for the per-locus sequence (~10^12 events per locus).
inline constexpr int kLocusSeqBits = 40;

[[nodiscard]] constexpr OrderKey make_order_key(std::uint32_t locus_rank,
                                                std::uint64_t seq) {
  return (static_cast<OrderKey>(locus_rank) << kLocusSeqBits) | seq;
}

class TimerWheel {
 public:
  /// Allocation and behavior counters. `slab_allocs` is the number of
  /// node-chunk mallocs ever made — the perf-smoke CI gate divides
  /// `scheduled` by it to detect steady-state allocation regressions.
  /// `cascades` counts slot drains (each re-buckets a slot's events one
  /// or more levels down).
  struct Stats {
    std::uint64_t scheduled = 0;
    std::uint64_t executed = 0;
    std::uint64_t cancelled = 0;
    std::uint64_t slab_allocs = 0;
    std::uint64_t cascades = 0;
  };

  static constexpr int kTickBits = 10;  // level-0 slot = 1.024 µs
  static constexpr int kLevelBits = 6;
  static constexpr int kSlotsPerLevel = 1 << kLevelBits;  // 64
  static constexpr int kLevels = 9;  // 9 * 6 + 10 bits >= any int64 time

  /// Schedules `action` at absolute time `at`, which must not precede the
  /// start of the last tick pop_until() advanced to (the simulator clamps
  /// to now). Same-time events run in ascending key order; `locus` is
  /// reported back by pop_until so the simulator can attribute follow-on
  /// scheduling to the host whose event is executing.
  EventId insert_keyed(SimTime at, OrderKey key, std::uint32_t locus,
                       EventAction action);

  /// Removes a pending event eagerly. Returns false for stale/unknown ids.
  bool cancel(EventId id);

  /// Pops the earliest pending event if its time is <= `limit`; same-time
  /// events pop in ascending order key. Returns false when idle or the next
  /// event is later than `limit`.
  bool pop_until(SimTime limit, SimTime* at, std::uint32_t* locus,
                 EventAction* action);

  /// Live (scheduled, not cancelled, not run) event count. O(1).
  [[nodiscard]] std::size_t size() const { return nodes_.size(); }

  /// Total pool capacity in nodes (never shrinks; bounded by the high-water
  /// mark of concurrently pending events).
  [[nodiscard]] std::size_t node_capacity() const { return nodes_.capacity(); }

  [[nodiscard]] Stats stats() const {
    Stats s = stats_;
    s.slab_allocs = nodes_.stats().chunk_allocs;
    return s;
  }

 private:
  struct Node {
    Node(std::int64_t at_ns, OrderKey k, std::uint32_t l, EventAction&& a)
        : at(at_ns), key(k), locus(l), action(std::move(a)) {}
    std::int64_t at;   // absolute expiry, ns
    OrderKey key;      // same-time tie-break (ascending)
    std::uint32_t locus;
    std::uint8_t level = 0;
    common::SlabHandle self;
    Node* prev = nullptr;
    Node* next = nullptr;
    EventAction action;
  };

  static int slot_index(std::int64_t tick, int level) {
    return static_cast<int>((tick >> (kLevelBits * level)) &
                            (kSlotsPerLevel - 1));
  }
  /// First tick covered by (level, slot) in the cursor's current cycle.
  [[nodiscard]] std::int64_t slot_start(int level, int slot) const;
  void unlink(Node* n);
  /// Buckets a detached node relative to the cursor.
  void place(Node* n);
  /// Moves the cursor to `start`, the first tick of (level, slot), and
  /// redistributes that slot's events into lower levels.
  void cascade(int level, int slot, std::int64_t start);

  std::int64_t cursor_ = 0;  // in ticks; every pending tick is >= this
  Node* slots_[kLevels][kSlotsPerLevel] = {};  // unordered list heads
  std::uint64_t bitmap_[kLevels] = {};
  common::Slab<Node> nodes_;
  Stats stats_;
};

}  // namespace svk::sim
