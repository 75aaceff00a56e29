#include "sip/branch.hpp"

#include <cstdio>

#include "common/hash.hpp"

namespace svk::sip {

using common::fnv1a;

SharedText BranchGenerator::next() {
  char buf[48];
  const int n = std::snprintf(
      buf, sizeof(buf), "%.*s-%llx-%llx", static_cast<int>(kMagicCookie.size()),
      kMagicCookie.data(), static_cast<unsigned long long>(element_id_),
      static_cast<unsigned long long>(++counter_));
  return SharedText(std::string_view(buf, static_cast<std::size_t>(n)));
}

SharedText stateless_branch(std::string_view incoming_branch,
                            std::string_view host) {
  const std::uint64_t h = fnv1a(host, fnv1a(incoming_branch));
  char buf[48];
  const int n = std::snprintf(buf, sizeof(buf), "%.*s-sl%llx",
                              static_cast<int>(kMagicCookie.size()),
                              kMagicCookie.data(),
                              static_cast<unsigned long long>(h));
  return SharedText(std::string_view(buf, static_cast<std::size_t>(n)));
}

std::uint64_t txn_key_hash(std::string_view branch, std::string_view sent_by,
                           Method method) noexcept {
  std::uint64_t h = fnv1a(branch);
  h = fnv1a(sent_by, h);
  h ^= static_cast<std::uint64_t>(method) * common::kGolden64;
  return h;
}

std::size_t TransactionKeyHash::operator()(
    const TransactionKey& key) const noexcept {
  return static_cast<std::size_t>(
      txn_key_hash(key.branch, key.sent_by, key.method));
}

TransactionKey server_key(const Message& req) {
  const Via& via = req.top_via();
  Method method = req.method();
  if (method == Method::kAck) method = Method::kInvite;
  return TransactionKey{via.branch.str(), via.sent_by.str(), method};
}

TransactionKey client_key(const Message& resp) {
  const Via& via = resp.top_via();
  Method method = resp.cseq().method;
  return TransactionKey{via.branch.str(), via.sent_by.str(), method};
}

TxnProbe key_for_request(const Message& req) {
  const Via& via = req.top_via();
  Method method = req.method();
  if (method == Method::kAck) method = Method::kInvite;
  return TxnProbe{txn_key_hash(via.branch, via.sent_by, method), via.branch,
                  via.sent_by, method};
}

TxnProbe key_for_response(const Message& resp) {
  const Via& via = resp.top_via();
  const Method method = resp.cseq().method;
  return TxnProbe{txn_key_hash(via.branch, via.sent_by, method), via.branch,
                  via.sent_by, method};
}

}  // namespace svk::sip
