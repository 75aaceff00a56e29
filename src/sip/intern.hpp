// Interned header strings.
//
// Via protocol ("SIP/2.0/UDP") and sent-by host values come from tiny,
// bounded vocabularies — one transport token, one host string per simulated
// node. Storing them as std::string made every copy-on-forward clone pay a
// string copy (and usually a malloc) per Via per hop. A Token instead holds
// a pointer into a process-lifetime intern table: copying a Via copies two
// pointers, and equality is usually a pointer compare.
//
// The table is global, guarded by a shared_mutex (read-mostly: every value
// is interned once per process, then every further lookup takes the shared
// path), and node-based, so interned strings have stable addresses for the
// life of the process — Tokens may be copied freely across threads and
// outlive the thread that created them.
//
// Only bounded value sets belong here: Via protocol and sent-by, URI scheme
// and host, reason phrases and extension-header names. They are bounded
// because elements build them from their configuration; text parsed off the
// wire is bounded only while its source is trusted (parser.hpp). Branch
// parameters, Call-IDs, users, tags and bodies are per-transaction or
// per-call unique — interning them would grow the table without bound — so
// they are SharedText (shared_text.hpp) instead: built once, shared by
// refcount.
// Elements on the hot path intern their own host once, at construction,
// and copy the Token after that, so a forwarded message costs no intern
// lookup at all.
#pragma once

#include <cstddef>
#include <ostream>
#include <string>
#include <string_view>

namespace svk::sip {

/// Interns `text`, returning a reference valid for the process lifetime.
const std::string& intern(std::string_view text);

/// Number of distinct strings interned so far (test/diagnostic hook for
/// pinning that the table stays bounded).
std::size_t intern_table_size();

/// A pointer to an interned string. Cheap to copy and compare; implicitly
/// convertible to std::string_view. Construction from text is explicit —
/// it costs a hash lookup — so accidental re-interning on hot paths shows
/// up in the code.
class Token {
 public:
  /// The empty token (does not touch the intern table).
  Token() noexcept;

  explicit Token(std::string_view text) : str_(&intern(text)) {}
  explicit Token(const char* text) : Token(std::string_view(text)) {}

  Token& operator=(std::string_view text) {
    str_ = &intern(text);
    return *this;
  }

  [[nodiscard]] const std::string& str() const noexcept { return *str_; }
  [[nodiscard]] std::string_view view() const noexcept { return *str_; }
  operator std::string_view() const noexcept { return *str_; }

  [[nodiscard]] bool empty() const noexcept { return str_->empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return str_->size(); }

  friend bool operator==(const Token& a, const Token& b) noexcept {
    return a.str_ == b.str_ || *a.str_ == *b.str_;
  }
  friend bool operator==(const Token& a, std::string_view b) noexcept {
    return *a.str_ == b;
  }
  friend std::ostream& operator<<(std::ostream& os, const Token& t) {
    return os << *t.str_;
  }

 private:
  const std::string* str_;  // never null
};

/// "SIP/2.0/UDP", interned once: the Via protocol every element sends.
inline const Token& udp_protocol() {
  static const Token token("SIP/2.0/UDP");
  return token;
}

/// "sip", interned once: the default URI scheme.
inline const Token& sip_scheme() {
  static const Token token("sip");
  return token;
}

/// "sips", interned once.
inline const Token& sips_scheme() {
  static const Token token("sips");
  return token;
}

/// Names of the extension headers elements stamp, each interned once like
/// the protocol token: Message::set_header takes the Token, so stamping a
/// header interns nothing. (The proxy's own names live in proxy.hpp.)
inline const Token& retry_after_header() {
  static const Token token("Retry-After");
  return token;
}
inline const Token& expires_header() {
  static const Token token("Expires");
  return token;
}

}  // namespace svk::sip
