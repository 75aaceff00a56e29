// Wire-level run invariants (the hop-by-hop half of the run checker).
//
// WireChecker observes every datagram through the sim::Network read-only
// taps and verifies per-hop SIP discipline the transaction oracle cannot
// see, because it spans hosts:
//
//   * Via stack balance — a request leaves a host with that host's own Via
//     on top (section 16.6 step 8); a response arrives at exactly the host
//     named by its top Via (section 18.2.2 return routing). An unbalanced
//     push/pop shows up as a mismatched sent-by.
//   * Max-Forwards conservation — a forwarded request carries exactly one
//     less than the value it arrived with (16.6 step 3), never goes
//     negative, and 483 Too Many Hops is only ever sent for a request that
//     actually arrived with Max-Forwards 0 (16.3 step 4). The premature-483
//     check is what catches the classic decrement-before-test off-by-one.
//   * CSeq monotonicity — within one dialog direction, a new (seq, method)
//     pair never regresses below the highest sequence already used
//     (12.2.1.1); ACK and CANCEL are exempt, they share their INVITE's CSeq.
//   * Request accounting — every non-ACK request delivered to a host is
//     eventually answered by that host (absorbed-and-dropped requests are
//     exactly the silent-shed bug class). Enforced at drain; optional,
//     because crash faults legitimately strand in-flight requests.
//
// OPTIONS is excluded throughout: the overload-control plane uses it as a
// fire-and-forget rate-feedback carrier with no response path.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>

#include "check/violations.hpp"
#include "common/types.hpp"
#include "sim/simulator.hpp"
#include "sip/message.hpp"

namespace svk::check {

class WireChecker {
 public:
  WireChecker(sim::Simulator& sim, ViolationLog& log)
      : sim_(sim), log_(log) {}

  /// Associates an address with the host name it stamps into Via sent-by.
  /// Every simulated host must be registered before traffic flows.
  void register_host(Address addr, std::string name);

  /// Network send tap: fires for every send attempt (pre-loss), i.e. for
  /// everything a host's logic decided to put on the wire.
  void on_send(Address from, Address to, const sip::MessagePtr& msg);
  /// Network deliver tap: fires only for datagrams actually handed over.
  void on_deliver(Address from, Address to, const sip::MessagePtr& msg);

  /// Drain-time accounting. With `expect_all_answered`, any delivered
  /// request its receiver never responded to is a violation; pass false
  /// for runs with crash faults, which legitimately strand requests.
  void at_drain(bool expect_all_answered);

  /// Delivered-but-unanswered requests currently tracked.
  [[nodiscard]] std::size_t open_requests() const { return open_.size(); }
  [[nodiscard]] std::uint64_t datagrams_seen() const {
    return datagrams_seen_;
  }

 private:
  /// One request a host received and has not yet answered.
  struct OpenRequest {
    int mf_in = 0;  // Max-Forwards as it arrived at the host
    std::string context;
  };
  /// Per (call-id | from-tag) CSeq history.
  struct CseqHistory {
    std::uint32_t max_seq = 0;
    std::unordered_set<std::uint64_t> seen;  // (seq << 8) | method
  };

  [[nodiscard]] const std::string& host_name(Address addr) const;
  /// Correlation key: responses match their request via the receiving
  /// host + Call-ID + CSeq (branch is not needed inside one run).
  [[nodiscard]] static std::string request_key(Address host,
                                               std::string_view call_id,
                                               std::uint32_t seq,
                                               sip::Method method);

  void check_request_send(Address from, const sip::Message& msg);
  void check_response_send(Address from, Address to, const sip::Message& msg);
  void check_cseq(const sip::Message& msg);

  sim::Simulator& sim_;
  ViolationLog& log_;
  std::uint64_t datagrams_seen_{0};
  std::unordered_map<std::uint32_t, std::string> hosts_;
  std::unordered_map<std::string, OpenRequest> open_;
  std::unordered_map<std::string, CseqHistory> cseq_;
};

}  // namespace svk::check
