// The owning transaction key (RFC 3261 17.2.3 / 17.1.3).
//
// Production matches transactions on views and inline keys (sip::TxnProbe,
// txn::TxnKey) and builds no owning key. The conformance oracle keeps this
// owning copy so it can report a transaction after production has
// forgotten it; it shares sip::txn_key_hash with the probes, so a key and
// the probe of the same message hash alike.
#pragma once

#include <cstddef>
#include <string>

#include "sip/branch.hpp"
#include "sip/message.hpp"

namespace svk::check {

/// Key identifying a transaction at one element.
struct TransactionKey {
  std::string branch;
  std::string sent_by;
  sip::Method method = sip::Method::kInvite;

  friend bool operator==(const TransactionKey&,
                         const TransactionKey&) = default;
};

struct TransactionKeyHash {
  std::size_t operator()(const TransactionKey& key) const noexcept;
};

/// Key a *server* transaction uses to match an incoming request
/// (RFC 3261 17.2.3): top Via branch + sent-by + method, with ACK matching
/// the INVITE transaction. CANCEL matches its own transaction (the CANCEL
/// server transaction is distinct from the INVITE's).
/// Precondition: req has at least one Via.
[[nodiscard]] TransactionKey server_key(const sip::Message& req);

/// Key a *client* transaction uses to match an incoming response: the
/// response's top Via is the one this element inserted, so its branch plus
/// the CSeq method identify the transaction (RFC 3261 17.1.3).
/// Precondition: resp has at least one Via.
[[nodiscard]] TransactionKey client_key(const sip::Message& resp);

}  // namespace svk::check
