#include "sim/timer_wheel.hpp"

#include <bit>
#include <cassert>

namespace svk::sim {

std::int64_t TimerWheel::slot_start(int level, int slot) const {
  const int shift = kLevelBits * level;
  const std::int64_t cycle = std::int64_t{1} << (shift + kLevelBits);
  return (cursor_ & ~(cycle - 1)) + (static_cast<std::int64_t>(slot) << shift);
}

void TimerWheel::unlink(Node* n) {
  const int slot = slot_index(n->at >> kTickBits, n->level);
  Node*& head = slots_[n->level][slot];
  if (n->prev != nullptr) {
    n->prev->next = n->next;
  } else {
    head = n->next;
  }
  if (n->next != nullptr) n->next->prev = n->prev;
  if (head == nullptr) bitmap_[n->level] &= ~(1ull << slot);
}

void TimerWheel::place(Node* n) {
  const std::int64_t tick = n->at >> kTickBits;
  assert(tick >= cursor_);
  const std::uint64_t diff =
      static_cast<std::uint64_t>(tick) ^ static_cast<std::uint64_t>(cursor_);
  const int level =
      diff == 0 ? 0 : (63 - std::countl_zero(diff)) / kLevelBits;
  const int slot = slot_index(tick, level);
  Node*& head = slots_[level][slot];
  n->level = static_cast<std::uint8_t>(level);
  n->prev = nullptr;
  n->next = head;
  if (head != nullptr) head->prev = n;
  head = n;
  bitmap_[level] |= 1ull << slot;
}

void TimerWheel::cascade(int level, int slot, std::int64_t start) {
  assert(start >= cursor_);
  cursor_ = start;
  Node* n = slots_[level][slot];
  slots_[level][slot] = nullptr;
  bitmap_[level] &= ~(1ull << slot);
  while (n != nullptr) {
    Node* next = n->next;
    place(n);  // lands at a strictly lower level
    n = next;
  }
  ++stats_.cascades;
}

EventId TimerWheel::insert_keyed(SimTime at, OrderKey key, std::uint32_t locus,
                                 EventAction action) {
  const common::SlabHandle h =
      nodes_.emplace(at.ns(), key, locus, std::move(action));
  Node* n = nodes_.get(h);
  n->self = h;
  place(n);
  ++stats_.scheduled;
  return (static_cast<EventId>(h.generation) << 32) | h.index;
}

bool TimerWheel::cancel(EventId id) {
  const common::SlabHandle h{static_cast<std::uint32_t>(id),
                             static_cast<std::uint32_t>(id >> 32)};
  Node* n = nodes_.get(h);
  if (n == nullptr) return false;  // stale, already run or never issued
  unlink(n);
  nodes_.erase(h);
  ++stats_.cancelled;
  return true;
}

bool TimerWheel::pop_until(SimTime limit, SimTime* at, std::uint32_t* locus,
                           EventAction* action) {
  const std::int64_t limit_tick = limit.ns() >> kTickBits;
  while (bitmap_[0] == 0) {
    int level = 1;
    while (level < kLevels && bitmap_[level] == 0) ++level;
    if (level == kLevels) return false;
    const int slot = std::countr_zero(bitmap_[level]);
    const std::int64_t start = slot_start(level, slot);
    // Never move the cursor past the caller's horizon: a later schedule
    // (at or after the limit) must not land before it.
    if (start > limit_tick) return false;
    cascade(level, slot, start);
  }
  // The lowest level-0 slot is the earliest tick. Its list is short, so a
  // linear min-(at, key) scan beats keeping it sorted.
  Node* n = slots_[0][std::countr_zero(bitmap_[0])];
  for (Node* c = n->next; c != nullptr; c = c->next) {
    if (c->at < n->at || (c->at == n->at && c->key < n->key)) n = c;
  }
  if (n->at > limit.ns()) return false;
  unlink(n);
  *at = SimTime::nanos(n->at);
  *locus = n->locus;
  *action = std::move(n->action);
  nodes_.erase(n->self);
  ++stats_.executed;
  return true;
}

}  // namespace svk::sim
