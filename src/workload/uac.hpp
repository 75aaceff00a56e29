// UAC — the SIPp client scenario: places calls at a configured rate through
// an outbound proxy, drives INVITE / ACK / BYE with real client
// transactions (UDP retransmission timers included), and records the
// metrics the paper reports: throughput, setup times, 100 Trying counts
// (the witness that some node held state), 500s and retransmissions.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "obs/metrics.hpp"
#include "proxy/proxy.hpp"
#include "sim/simulator.hpp"
#include "sip/branch.hpp"
#include "sip/message.hpp"
#include "txn/manager.hpp"
#include "workload/metrics.hpp"

namespace svk::workload {

struct UacConfig {
  std::string host;
  Address address;
  Address first_hop;            // outbound proxy
  std::string target_domain;    // callee AOR domain, e.g. "cc.gatech.edu"
  int num_callees = 2;          // paper: two URIs
  double call_rate_cps = 1.0;
  bool poisson_arrivals = false;  // default: SIPp-style fixed pacing
  SimTime start_offset;           // dephases multiple generators
  SimTime hold_time;              // ACK -> BYE gap (SIPp default: none)
  /// Caller abandonment: with this probability a call is CANCELled after
  /// ring_abandon_after unless answered first (0 = never, the paper's
  /// workload).
  double cancel_probability = 0.0;
  SimTime ring_abandon_after = SimTime::seconds(2.0);
  txn::TimerConfig timers;
  /// Max-Forwards stamped on generated INVITE/BYE requests (RFC 3261
  /// default 70; conformance tests lower it to exercise hop-count
  /// exhaustion at a chosen hop).
  int max_forwards = 70;
  /// Attach Proxy-Authorization (preemptively, as SIPp does once
  /// challenged) using these credentials.
  bool attach_credentials = false;
  std::string auth_user;
  std::string auth_password;
  std::string auth_realm;
  std::string auth_nonce;
};

class Uac {
 public:
  Uac(sim::Simulator& sim, proxy::SipNetwork& network, Rng rng,
      UacConfig config);
  ~Uac();

  Uac(const Uac&) = delete;
  Uac& operator=(const Uac&) = delete;

  /// Begins call generation (first call after one inter-arrival gap).
  void start();
  void stop();

  [[nodiscard]] const UacMetrics& metrics() const { return metrics_; }
  [[nodiscard]] UacMetrics& metrics() { return metrics_; }
  [[nodiscard]] const UacConfig& config() const { return config_; }
  /// Calls currently in flight (diagnostics).
  [[nodiscard]] std::size_t open_calls() const { return calls_.size(); }
  [[nodiscard]] const txn::TransactionManager& transactions() const {
    return txns_;
  }
  /// Installs a conformance tap on this UAC's transactions (txn/tap.hpp).
  void set_conformance_tap(txn::ConformanceTap* tap) {
    txns_.set_conformance_tap(tap);
  }

 private:
  struct Call {
    sip::SharedText call_id;
    std::string from_tag;
    SimTime invite_sent;
    sip::MessagePtr invite;
    sip::MessagePtr ack;             // replayed on retransmitted 200s
    sip::RouteList route_set;  // reversed Record-Route from the 200
    sip::Uri remote_target;          // 200's Contact
    std::string to_tag;
    bool established = false;
    bool cancelled = false;
  };

  void schedule_next_call();
  void place_call();
  /// Honors a 503's Retry-After: pushes the next-call time out to the
  /// backoff deadline (SIPp's -rsa behavior; RFC 3261 21.5.4).
  void apply_retry_after(const sip::Message& response);
  void on_datagram(Address from, const sip::MessagePtr& msg);
  void on_invite_response(const sip::SharedText& call_id,
                          const sip::MessagePtr& msg);
  void send_ack(Call& call, const sip::Message& ok);
  void send_bye(const sip::SharedText& call_id);
  void send_cancel(const sip::SharedText& call_id);
  /// Wraps a network send with duplicate counting for `method` requests.
  [[nodiscard]] txn::SendFn counting_sender(sip::Method method);
  void maybe_attach_credentials(sip::Message& request) const;

  sim::Simulator& sim_;
  proxy::SipNetwork& network_;
  Rng rng_;
  UacConfig config_;
  // Header parts every call repeats, built once at construction: the hot
  // path copies Tokens and SharedText instead of interning or allocating.
  sip::Token host_;
  sip::Token target_domain_;
  sip::Uri caller_uri_;  // From and Contact
  sip::SharedText sdp_body_;
  std::string call_id_scratch_;  // reused buffer for building Call-IDs
  txn::TransactionManager txns_;
  sip::BranchGenerator branches_;
  UacMetrics metrics_;
  std::unordered_map<sip::SharedText, Call> calls_;
  bool running_{false};
  sim::EventId next_call_timer_{0};
  /// No new calls before this time (503 Retry-After backoff).
  SimTime backoff_until_;
  std::uint64_t call_counter_{0};
  // Pre-resolved per-call instruments (hot under fig5-scale call volumes).
  obs::CounterHandle established_counter_{"uac.calls_established"};
  obs::CounterHandle failed_counter_{"uac.calls_failed"};
  obs::SeriesHandle setup_series_{"uac.setup_ms"};
};

}  // namespace svk::workload
