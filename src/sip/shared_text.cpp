#include "sip/shared_text.hpp"

#include <cstring>
#include <new>

namespace svk::sip {

SharedText::Rep* SharedText::make(std::string_view text) {
  if (text.empty()) return nullptr;
  void* block = ::operator new(sizeof(Rep) + text.size() + 1);
  Rep* rep = new (block) Rep{{1}, static_cast<std::uint32_t>(text.size())};
  char* out = reinterpret_cast<char*>(rep + 1);
  std::memcpy(out, text.data(), text.size());
  out[text.size()] = '\0';
  return rep;
}

void SharedText::destroy(Rep* rep) noexcept {
  rep->~Rep();
  ::operator delete(rep);
}

}  // namespace svk::sip
