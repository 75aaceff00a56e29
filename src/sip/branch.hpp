// Transaction identification (RFC 3261 17.2.3 / 8.1.1.7).
//
// Every forwarded request gets a unique branch token starting with the
// z9hG4bK magic cookie; transactions are keyed on (branch, sent-by, method).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>

#include "sip/message.hpp"

namespace svk::sip {

inline constexpr std::string_view kMagicCookie = "z9hG4bK";

/// Deterministic branch-token source. Each element owns one, seeded with its
/// address, so runs are reproducible yet branches are globally unique.
class BranchGenerator {
 public:
  explicit BranchGenerator(std::uint64_t element_id)
      : element_id_(element_id) {}

  /// The next branch, built once as shared text: every copy of the
  /// message carrying it (and every response echoing it) shares the block.
  [[nodiscard]] SharedText next();

 private:
  std::uint64_t element_id_;
  std::uint64_t counter_{0};
};

/// Key identifying a transaction at one element.
struct TransactionKey {
  std::string branch;
  std::string sent_by;
  Method method = Method::kInvite;

  friend bool operator==(const TransactionKey&,
                         const TransactionKey&) = default;
};

struct TransactionKeyHash {
  std::size_t operator()(const TransactionKey& key) const noexcept;
};

/// A non-owning transaction probe: the precomputed 64-bit FNV-1a key hash
/// plus views of the key fields, read straight off an incoming message.
/// This is what the flat state tables match against — no TransactionKey
/// temporary, no string copies, no allocation per dispatch. The views
/// borrow from the probed message (branch) and the intern table (sent-by);
/// a probe must not outlive the message it was computed from.
struct TxnProbe {
  std::uint64_t hash = 0;
  std::string_view branch;
  std::string_view sent_by;
  Method method = Method::kInvite;

  /// True when `branch`/`sent_by`/`method` equal the stored key fields.
  [[nodiscard]] bool matches(std::string_view key_branch,
                             std::string_view key_sent_by,
                             Method key_method) const noexcept {
    return method == key_method && branch == key_branch &&
           sent_by == key_sent_by;
  }
};

/// The hash TxnProbe and TransactionKeyHash share: FNV-1a over branch and
/// sent-by, with the method folded in.
[[nodiscard]] std::uint64_t txn_key_hash(std::string_view branch,
                                         std::string_view sent_by,
                                         Method method) noexcept;

/// The probe a *server* transaction table matches an incoming request with
/// (RFC 3261 17.2.3) — the view-based equivalent of server_key, computed
/// once per message. Precondition: req has at least one Via.
[[nodiscard]] TxnProbe key_for_request(const Message& req);

/// The probe a *client* transaction table matches an incoming response with
/// (RFC 3261 17.1.3) — the view-based equivalent of client_key.
/// Precondition: resp has at least one Via.
[[nodiscard]] TxnProbe key_for_response(const Message& resp);

/// Key a *server* transaction uses to match an incoming request
/// (RFC 3261 17.2.3): top Via branch + sent-by + method, with ACK matching
/// the INVITE transaction. CANCEL matches its own transaction (the CANCEL
/// server transaction is distinct from the INVITE's).
/// Precondition: req has at least one Via.
[[nodiscard]] TransactionKey server_key(const Message& req);

/// Deterministic branch for *stateless* forwarding (RFC 3261 16.11): the
/// branch must be computed from the incoming request so retransmissions get
/// the same value and can be matched/absorbed by stateful nodes downstream.
[[nodiscard]] SharedText stateless_branch(std::string_view incoming_branch,
                                          std::string_view host);

/// Key a *client* transaction uses to match an incoming response: the
/// response's top Via is the one this element inserted, so its branch plus
/// the CSeq method identify the transaction (RFC 3261 17.1.3).
/// Precondition: resp has at least one Via.
[[nodiscard]] TransactionKey client_key(const Message& resp);

}  // namespace svk::sip
