// SIP URI (RFC 3261 19.1), the subset needed for proxy routing and location
// lookup: scheme, user, host, port and ;name=value parameters.
//
// Scheme and host are interned Tokens: hosts are the simulated elements'
// names, a bounded vocabulary (the same one Via sent-by draws from), and at
// realistic lengths ("uas0.callee.example.net") they outgrow std::string's
// inline buffer, so as strings every URI copy on the forward path would be
// a malloc. The user part is per-subscriber (unbounded) but short, and stays
// a std::string.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/result.hpp"
#include "sip/intern.hpp"

namespace svk::sip {

/// A parsed sip:/sips: URI, e.g. "sip:hal@us.ibm.com:5060;transport=udp".
class Uri {
 public:
  Uri() = default;
  /// Hot-path form: a host Token the caller interned once.
  Uri(std::string user, Token host, int port = 0)
      : user_(std::move(user)), host_(host), port_(port) {}
  /// Interns `host` (a hash lookup).
  Uri(std::string user, std::string_view host, int port = 0)
      : Uri(std::move(user), Token(host), port) {}

  /// Parses the textual form. Accepts an empty user part ("sip:host").
  [[nodiscard]] static Result<Uri> parse(std::string_view text);

  [[nodiscard]] const Token& scheme() const { return scheme_; }
  [[nodiscard]] const std::string& user() const { return user_; }
  [[nodiscard]] const Token& host() const { return host_; }
  /// 0 when the URI carries no explicit port.
  [[nodiscard]] int port() const { return port_; }

  void set_host(Token host) { host_ = host; }
  void set_user(std::string user) { user_ = std::move(user); }
  void set_port(int port) { port_ = port; }

  /// Parameter access; names are case-sensitive in this implementation
  /// (our own stack is the only producer).
  [[nodiscard]] std::optional<std::string_view> param(
      std::string_view name) const;
  void set_param(std::string name, std::string value);
  [[nodiscard]] bool has_param(std::string_view name) const {
    return param(name).has_value();
  }
  [[nodiscard]] const std::vector<std::pair<std::string, std::string>>&
  params() const {
    return params_;
  }

  /// "user@host" — the canonical address-of-record key used by the location
  /// service and the authentication realm.
  [[nodiscard]] std::string aor() const;

  [[nodiscard]] std::string to_string() const;

  /// Equality over scheme, user, host and port (parameters excluded, as in
  /// loose AOR comparison).
  friend bool operator==(const Uri& a, const Uri& b) {
    return a.scheme_ == b.scheme_ && a.user_ == b.user_ &&
           a.host_ == b.host_ && a.port_ == b.port_;
  }

 private:
  Token scheme_ = sip_scheme();
  std::string user_;
  Token host_;
  int port_ = 0;
  std::vector<std::pair<std::string, std::string>> params_;
};

}  // namespace svk::sip
