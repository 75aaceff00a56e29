#include "check/transaction_key.hpp"

namespace svk::check {

std::size_t TransactionKeyHash::operator()(
    const TransactionKey& key) const noexcept {
  return static_cast<std::size_t>(
      sip::txn_key_hash(key.branch, key.sent_by, key.method));
}

TransactionKey server_key(const sip::Message& req) {
  const sip::Via& via = req.top_via();
  sip::Method method = req.method();
  if (method == sip::Method::kAck) method = sip::Method::kInvite;
  return TransactionKey{via.branch.str(), via.sent_by.str(), method};
}

TransactionKey client_key(const sip::Message& resp) {
  const sip::Via& via = resp.top_via();
  return TransactionKey{via.branch.str(), via.sent_by.str(),
                        resp.cseq().method};
}

}  // namespace svk::check
