// SIP URI (RFC 3261 19.1), the subset needed for proxy routing and location
// lookup: scheme, user, host, port and ;name=value parameters.
//
// A Uri is 32 bytes, four words, and copying one copies pointers:
//   - host: an interned Token. Hosts are the simulated elements' names, a
//     bounded vocabulary (the same one Via sent-by draws from).
//   - user: SharedText. Users are per-subscriber (unbounded), built once
//     per call and shared by every URI that names the callee.
//   - params: one SharedText holding the raw ";name=value;flag" text. No
//     run-path URI carries parameters; param(), set_param() and params()
//     parse that text on demand.
//   - scheme and port share the last word: the scheme is one bit (sip or
//     sips, the only schemes parse accepts).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/result.hpp"
#include "sip/intern.hpp"
#include "sip/shared_text.hpp"

namespace svk::sip {

/// A parsed sip:/sips: URI, e.g. "sip:hal@us.ibm.com:5060;transport=udp".
class Uri {
 public:
  Uri() = default;
  /// Hot-path form: a host Token the caller interned once, a user built
  /// once and shared.
  Uri(SharedText user, Token host, int port = 0)
      : user_(std::move(user)),
        host_(host),
        port_(static_cast<std::uint16_t>(port)) {}
  /// Interns `host` (a hash lookup).
  Uri(SharedText user, std::string_view host, int port = 0)
      : Uri(std::move(user), Token(host), port) {}

  /// Parses the textual form. Accepts an empty user part ("sip:host").
  [[nodiscard]] static Result<Uri> parse(std::string_view text);

  /// "sip" or "sips".
  [[nodiscard]] const Token& scheme() const {
    return secure_ ? sips_scheme() : sip_scheme();
  }
  [[nodiscard]] const SharedText& user() const { return user_; }
  [[nodiscard]] const Token& host() const { return host_; }
  /// 0 when the URI carries no explicit port.
  [[nodiscard]] int port() const { return port_; }

  void set_host(Token host) { host_ = host; }
  void set_user(SharedText user) { user_ = std::move(user); }
  void set_port(int port) { port_ = static_cast<std::uint16_t>(port); }

  /// Parameter access; names are case-sensitive in this implementation
  /// (our own stack is the only producer).
  [[nodiscard]] std::optional<std::string_view> param(
      std::string_view name) const;
  /// Sets (replacing any existing value of) a parameter; an empty value
  /// makes a flag (";lr").
  void set_param(std::string_view name, std::string_view value);
  [[nodiscard]] bool has_param(std::string_view name) const {
    return param(name).has_value();
  }
  /// Every parameter in order, as (name, value) views into this URI.
  [[nodiscard]] std::vector<std::pair<std::string_view, std::string_view>>
  params() const;

  /// "user@host" — the canonical address-of-record key used by the location
  /// service and the authentication realm.
  [[nodiscard]] std::string aor() const;

  [[nodiscard]] std::string to_string() const;

  /// Equality over scheme, user, host and port (parameters excluded, as in
  /// loose AOR comparison).
  friend bool operator==(const Uri& a, const Uri& b) {
    return a.secure_ == b.secure_ && a.user_ == b.user_ &&
           a.host_ == b.host_ && a.port_ == b.port_;
  }

 private:
  SharedText user_;
  Token host_;
  SharedText params_;  // ";name=value;flag", or empty
  std::uint16_t port_ = 0;
  bool secure_ = false;  // sips
};

}  // namespace svk::sip
