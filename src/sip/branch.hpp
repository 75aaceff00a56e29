// Transaction identification (RFC 3261 17.2.3 / 8.1.1.7).
//
// Every forwarded request gets a unique branch token starting with the
// z9hG4bK magic cookie; transactions are keyed on (branch, sent-by, method)
// and matched through the non-owning TxnProbe below.
#pragma once

#include <cstdint>
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

/// A non-owning transaction probe: the precomputed 64-bit FNV-1a key hash
/// plus views of the key fields, read straight off an incoming message.
/// This is what the flat state tables match against — no owning key
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

/// The hash TxnProbe and the oracle's owning check::TransactionKey share:
/// FNV-1a over branch and sent-by, with the method folded in.
[[nodiscard]] std::uint64_t txn_key_hash(std::string_view branch,
                                         std::string_view sent_by,
                                         Method method) noexcept;

/// The probe a *server* transaction table matches an incoming request with
/// (RFC 3261 17.2.3): top Via branch + sent-by + method, with ACK matching
/// the INVITE transaction and CANCEL its own. Computed once per message.
/// Precondition: req has at least one Via.
[[nodiscard]] TxnProbe key_for_request(const Message& req);

/// The probe a *client* transaction table matches an incoming response with
/// (RFC 3261 17.1.3): the top Via's branch and sent-by plus the CSeq
/// method. Precondition: resp has at least one Via.
[[nodiscard]] TxnProbe key_for_response(const Message& resp);

/// Deterministic branch for *stateless* forwarding (RFC 3261 16.11): the
/// branch must be computed from the incoming request so retransmissions get
/// the same value and can be matched/absorbed by stateful nodes downstream.
[[nodiscard]] SharedText stateless_branch(std::string_view incoming_branch,
                                          std::string_view host);

}  // namespace svk::sip
