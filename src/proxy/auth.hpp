// SIP Digest authentication (RFC 2617 as profiled by RFC 3261 22).
//
// The paper's "Dialog Stateful with Authentication" mode has the proxy
// check client credentials on each request. Our UACs send credentials
// preemptively (as SIPp does once it has learned the challenge), so the
// common path is a single verification, not a 407 round trip — matching
// the steady-state behaviour the paper profiled. The challenge path is
// implemented too and used when a request arrives without credentials.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>

#include "sip/message.hpp"

namespace svk::proxy {

/// Parsed Digest credentials from a Proxy-Authorization header.
struct DigestCredentials {
  std::string username;
  std::string realm;
  std::string nonce;
  std::string uri;
  std::string response;
};

/// Parses 'Digest username="u", realm="r", nonce="n", uri="s", response="h"'.
[[nodiscard]] std::optional<DigestCredentials> parse_digest(
    std::string_view header_value);

class DigestAuthenticator {
 public:
  DigestAuthenticator(std::string realm, std::string nonce)
      : realm_(std::move(realm)), nonce_(std::move(nonce)) {}

  void add_user(const std::string& username, const std::string& password);

  /// Checks the Proxy-Authorization header of `req` against the user table.
  /// False when the header is absent, malformed, for an unknown user, for a
  /// stale nonce, or carries a wrong response hash.
  [[nodiscard]] bool verify(const sip::Message& req) const;

  /// The Proxy-Authenticate challenge value for a 407.
  [[nodiscard]] std::string challenge() const;

  /// Computes the Digest response hash (used by clients and by verify):
  /// MD5(MD5(user:realm:password) ":" nonce ":" MD5(method:uri)).
  [[nodiscard]] static std::string compute_response(
      const std::string& username, const std::string& realm,
      const std::string& password, const std::string& nonce,
      const std::string& method, const std::string& uri);

  /// Builds a full Proxy-Authorization header value for a client.
  [[nodiscard]] static std::string make_authorization(
      const std::string& username, const std::string& realm,
      const std::string& password, const std::string& nonce,
      const std::string& method, const std::string& uri);

  [[nodiscard]] const std::string& realm() const { return realm_; }
  [[nodiscard]] const std::string& nonce() const { return nonce_; }

 private:
  std::string realm_;
  std::string nonce_;
  std::unordered_map<std::string, std::string> passwords_;
};

/// Header name used for credentials (proxy authentication).
inline constexpr std::string_view kProxyAuthorizationHeader =
    "Proxy-Authorization";
inline constexpr std::string_view kProxyAuthenticateHeader =
    "Proxy-Authenticate";

/// kProxyAuthorizationHeader, interned once.
inline const sip::Token& proxy_authorization_header() {
  static const sip::Token token(kProxyAuthorizationHeader);
  return token;
}

}  // namespace svk::proxy
