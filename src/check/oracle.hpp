// Reference oracle for the RFC 3261 section 17 transaction state machines.
//
// TxnOracle implements txn::ConformanceTap: it shadows every transaction
// the production TransactionManager creates with a naive, allocation-heavy,
// obviously-correct re-statement of the RFC rules, fed the exact same
// rx/tx/timer events. After every externally visible event it compares
//
//   * the production machine's state against the shadow's,
//   * the wire sends the production machine performed during the event
//     against the sends the RFC requires (kind, order and count), and
//   * the sim time a timer fired against the absolute deadline the RFC
//     formula predicts (catching mis-armed or leaked timers, e.g. a
//     missing timer C refresh).
//
// Divergence is recorded in the ViolationLog with full event context; the
// run continues so one bug reports every symptom. The oracle deliberately
// duplicates the production semantics from the RFC text rather than
// reusing any of src/txn — where this repo interprets the RFC beyond its
// letter (timer C standing in for timer B once Proceeding, per 16.6), the
// oracle encodes the same documented interpretation.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "check/transaction_key.hpp"
#include "check/violations.hpp"
#include "sim/simulator.hpp"
#include "sip/message.hpp"
#include "txn/tap.hpp"
#include "txn/timers.hpp"
#include "txn/transaction.hpp"

namespace svk::check {

class TxnOracle final : public txn::ConformanceTap {
 public:
  TxnOracle(sim::Simulator& sim, ViolationLog& log) : sim_(sim), log_(log) {}

  // txn::ConformanceTap
  void on_client_created(const txn::ClientTransaction* txn,
                         const txn::TimerConfig& timers) override;
  void on_client_send(const txn::ClientTransaction* txn,
                      const sip::MessagePtr& msg) override;
  void on_client_event(const txn::ClientTransaction* txn,
                       txn::ClientEvent event,
                       const sip::Message* msg) override;
  void on_client_removed(const txn::ClientTransaction* txn) override;

  void on_server_created(const txn::ServerTransaction* txn,
                         const txn::TimerConfig& timers) override;
  void on_server_send(const txn::ServerTransaction* txn,
                      const sip::MessagePtr& msg) override;
  void on_server_event(const txn::ServerTransaction* txn,
                       txn::ServerEvent event,
                       const sip::Message* msg) override;
  void on_server_removed(const txn::ServerTransaction* txn) override;

  /// Shadows still tracked (not yet removed); equals the production
  /// managers' live transactions when the oracle covers every manager.
  [[nodiscard]] std::size_t live_shadows() const {
    return clients_.size() + servers_.size();
  }
  /// Events compared so far — lets tests assert the tap is actually live.
  [[nodiscard]] std::uint64_t events_checked() const {
    return events_checked_;
  }
  [[nodiscard]] std::uint64_t shadows_created() const {
    return shadows_created_;
  }

 private:
  /// One wire send, as the RFC predicts it or as production performed it.
  struct Send {
    bool is_request = false;
    sip::Method method = sip::Method::kInvite;
    int code = 0;  // responses only
    friend bool operator==(const Send&, const Send&) = default;
  };

  /// Shadow of one client transaction (RFC 3261 17.1).
  struct ClientShadow {
    TransactionKey key;
    txn::TimerConfig timers;
    bool is_invite = false;
    sip::Method method = sip::Method::kInvite;
    txn::ClientState state = txn::ClientState::kCalling;
    // Absolute deadlines of the armed timers (nullopt = not armed).
    std::optional<SimTime> rtx_at;      // A / E
    SimTime rtx_interval;
    std::optional<SimTime> timeout_at;  // B / F / C
    std::optional<SimTime> linger_at;   // D / K
    std::vector<Send> expected;  // sends the RFC requires for this event
    std::vector<Send> actual;    // sends production performed since last event
  };

  /// Shadow of one server transaction (RFC 3261 17.2).
  struct ServerShadow {
    TransactionKey key;
    txn::TimerConfig timers;
    bool is_invite = false;
    txn::ServerState state = txn::ServerState::kTrying;
    bool has_last_response = false;
    int last_code = 0;
    std::optional<SimTime> rtx_at;      // G
    SimTime rtx_interval;
    std::optional<SimTime> timeout_at;  // H
    std::optional<SimTime> linger_at;   // I / J
    std::vector<Send> expected;
    std::vector<Send> actual;
  };

  void step_client(ClientShadow& shadow, txn::ClientEvent event,
                   const sip::Message* msg);
  void step_server(ServerShadow& shadow, txn::ServerEvent event,
                   const sip::Message* msg);
  void client_rx_response(ClientShadow& shadow, const sip::Message& response);
  void server_rx_request(ServerShadow& shadow, const sip::Message& request);
  void server_respond(ServerShadow& shadow, const sip::Message& response);

  /// Validates that a timer event fired exactly at `expected_at`.
  void check_timer(const TransactionKey& key, const char* timer_name,
                   const std::optional<SimTime>& expected_at);
  /// Compares buffered actual sends against the expected list, then clears
  /// both; reports any mismatch with the full context string.
  template <typename Shadow>
  void check_sends(Shadow& shadow, const char* event_name);

  [[nodiscard]] static std::string describe(const TransactionKey& key);
  [[nodiscard]] static std::string describe(const Send& send);
  [[nodiscard]] static std::string describe(txn::ClientState state);
  [[nodiscard]] static std::string describe(txn::ServerState state);

  sim::Simulator& sim_;
  ViolationLog& log_;
  std::uint64_t events_checked_{0};
  std::uint64_t shadows_created_{0};
  // Keyed by production-object identity: the pointer is only ever used for
  // lookup while the manager still owns the transaction, and a reused
  // address is overwritten on the next on_*_created.
  std::unordered_map<const txn::ClientTransaction*, ClientShadow> clients_;
  std::unordered_map<const txn::ServerTransaction*, ServerShadow> servers_;
};

}  // namespace svk::check
