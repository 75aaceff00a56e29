#include "sip/shared_text.hpp"

#include <charconv>
#include <cstring>
#include <iterator>
#include <new>

#include "sip/message_pool.hpp"

namespace svk::sip {
namespace {

// Block sizes of the pooled classes: each ends where a glibc malloc chunk
// does (a request of 25–40 bytes takes a 48-byte chunk, and so on), so a
// pooled block takes the same chunk its exact-size request would.
constexpr std::size_t kClassBytes[] = {24, 40, 56, 72};

/// The pooled class serving a block of `bytes`, or 0 when the block is
/// longer than every class and goes to the heap.
std::size_t class_bytes(std::size_t bytes) {
  for (const std::size_t c : kClassBytes) {
    if (bytes <= c) return c;
  }
  return 0;
}

std::size_t block_bytes(std::size_t text_size) {
  return 8 + text_size + 1;  // header, text, NUL
}

}  // namespace

SharedText SharedText::numbered(std::string_view prefix, std::uint64_t n) {
  char digits[20];
  const char* const end = std::to_chars(digits, std::end(digits), n).ptr;
  const std::size_t len = static_cast<std::size_t>(end - digits);
  return SharedText(make(prefix, std::string_view(digits, len)));
}

SharedText::Rep* SharedText::make(std::string_view head,
                                  std::string_view tail) {
  static_assert(sizeof(Rep) == 8);
  const std::size_t size = head.size() + tail.size();
  if (size == 0) return nullptr;
  const std::size_t bytes = block_bytes(size);
  const std::size_t pooled = class_bytes(bytes);
  void* block = pooled != 0 ? detail::text_pool_allocate(pooled)
                            : ::operator new(bytes);
  Rep* rep = new (block) Rep{{1}, static_cast<std::uint32_t>(size)};
  char* out = reinterpret_cast<char*>(rep + 1);
  if (!head.empty()) std::memcpy(out, head.data(), head.size());
  if (!tail.empty()) std::memcpy(out + head.size(), tail.data(), tail.size());
  out[size] = '\0';
  return rep;
}

void SharedText::destroy(Rep* rep) noexcept {
  const std::size_t pooled = class_bytes(block_bytes(rep->size));
  rep->~Rep();
  if (pooled != 0) {
    detail::text_pool_deallocate(rep, pooled);
  } else {
    ::operator delete(rep);
  }
}

}  // namespace svk::sip
