// Immutable, reference-counted header text.
//
// The per-call strings of a SIP message — Call-ID, Via branch, the body —
// are unique per call or per transaction, so they cannot be interned (the
// table would grow without bound), and at realistic lengths (a 26-char
// Call-ID, a 26-char branch, a 50-byte SDP body) they do not fit
// std::string's inline buffer, so a std::string copy is a malloc. Yet the
// text never changes after it is built: every hop copies the same Call-ID
// and body, and every response repeats the request's branches.
//
// SharedText builds the text once, in one heap block, and a copy shares
// that block: copying is a refcount increment, destroying the last copy
// frees it. This is SER's rule (keep header storage, share it, do not
// re-allocate it per hop) applied to a shared-pointer message model.
//
// The refcount is atomic so that copies of one text may be made and dropped
// on different threads (the 4-thread stress test in shared_text_test pins
// this). A simulation run itself is single-threaded, so within a run the
// atomics are uncontended. Increments are relaxed (a new reference is made
// from an existing one, which already orders the text); the final
// decrement is acq_rel so the freeing thread sees every other thread's last
// use of the block.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>

namespace svk::sip {

class SharedText {
 public:
  /// The empty text (no allocation).
  SharedText() noexcept = default;

  /// Copies `text` into a fresh shared block (one allocation unless empty).
  /// Implicit so that literals and strings can be passed where a message
  /// field is expected; the hot paths build their text once and copy the
  /// SharedText instead.
  // NOLINTBEGIN(google-explicit-constructor)
  SharedText(std::string_view text) : rep_(make(text)) {}
  SharedText(const char* text) : SharedText(std::string_view(text)) {}
  SharedText(const std::string& text) : SharedText(std::string_view(text)) {}
  // NOLINTEND(google-explicit-constructor)

  SharedText(const SharedText& other) noexcept : rep_(other.rep_) {
    retain();
  }
  SharedText(SharedText&& other) noexcept
      : rep_(std::exchange(other.rep_, nullptr)) {}

  SharedText& operator=(const SharedText& other) noexcept {
    if (rep_ != other.rep_) {
      other.retain();
      release();
      rep_ = other.rep_;
    }
    return *this;
  }
  SharedText& operator=(SharedText&& other) noexcept {
    if (this != &other) {
      release();
      rep_ = std::exchange(other.rep_, nullptr);
    }
    return *this;
  }

  ~SharedText() { release(); }

  [[nodiscard]] std::string_view view() const noexcept {
    return rep_ == nullptr ? std::string_view()
                           : std::string_view(rep_->text(), rep_->size);
  }
  operator std::string_view() const noexcept { return view(); }
  /// An owning copy (allocates when the text outgrows std::string's SSO).
  [[nodiscard]] std::string str() const { return std::string(view()); }
  /// NUL-terminated; "" for the empty text. Copies share this pointer.
  [[nodiscard]] const char* data() const noexcept {
    return rep_ == nullptr ? "" : rep_->text();
  }
  [[nodiscard]] std::size_t size() const noexcept {
    return rep_ == nullptr ? 0 : rep_->size;
  }
  [[nodiscard]] bool empty() const noexcept { return size() == 0; }

  /// Number of SharedTexts sharing this block (0 for the empty text).
  [[nodiscard]] std::uint32_t use_count() const noexcept {
    return rep_ == nullptr ? 0 : rep_->refs.load(std::memory_order_relaxed);
  }

  friend bool operator==(const SharedText& a, const SharedText& b) noexcept {
    return a.rep_ == b.rep_ || a.view() == b.view();
  }
  friend bool operator==(const SharedText& a, std::string_view b) noexcept {
    return a.view() == b;
  }
  friend bool operator==(const SharedText& a, const std::string& b) noexcept {
    return a.view() == std::string_view(b);
  }
  friend bool operator==(const SharedText& a, const char* b) noexcept {
    return a.view() == std::string_view(b);
  }
  friend std::ostream& operator<<(std::ostream& os, const SharedText& t) {
    return os << t.view();
  }

 private:
  // Header of the shared block; the text (plus a NUL) follows it.
  struct Rep {
    std::atomic<std::uint32_t> refs;
    std::uint32_t size;

    [[nodiscard]] const char* text() const noexcept {
      return reinterpret_cast<const char*>(this + 1);
    }
  };

  static Rep* make(std::string_view text);
  static void destroy(Rep* rep) noexcept;

  void retain() const noexcept {
    if (rep_ != nullptr) rep_->refs.fetch_add(1, std::memory_order_relaxed);
  }
  void release() noexcept {
    if (rep_ != nullptr &&
        rep_->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      destroy(rep_);
    }
  }

  Rep* rep_ = nullptr;
};

}  // namespace svk::sip

/// Hashes like std::hash<std::string> over the same text, so a container
/// re-keyed from std::string to SharedText keeps its bucket order.
template <>
struct std::hash<svk::sip::SharedText> {
  std::size_t operator()(const svk::sip::SharedText& t) const noexcept {
    return std::hash<std::string_view>{}(t.view());
  }
};
