// Allocation counters fed by this binary's replacement of the global
// operator new: every heap allocation the simulator makes on the calling
// thread, including those no library counter sees (strings, shared_ptr
// control blocks, std::function targets, container growth). Over-aligned
// allocations keep the default operator and are not counted.
#pragma once

#include <cstdint>

namespace svk::perfbench {

struct AllocCounts {
  std::uint64_t calls = 0;
  std::uint64_t bytes = 0;
};

/// Allocations made so far on the calling thread.
[[nodiscard]] AllocCounts alloc_counts();

}  // namespace svk::perfbench
