// RFC 3261 section 17 transaction state machines.
//
// A transaction is the stateful unit the paper's servers maintain: it
// absorbs request retransmissions (server side), drives request
// retransmissions over UDP (client side), and times out abandoned exchanges.
// Four machines exist: INVITE/non-INVITE x client/server.
//
// Machines communicate with their owner purely through callbacks
// (I.25-style small interfaces): a wire-send function and transaction-user
// events. They never touch the network or the proxy core directly.
//
// A transaction holds only what its current state can use. It captures its
// matching key inline at construction, so matching never reads the retained
// request, and when it enters a state that only absorbs or replays it drops
// the rest. Besides its key, timers and on_terminated, a lingering
// transaction keeps (DESIGN.md §11):
//
//   non-INVITE client Completed (K)  nothing
//   INVITE client Completed (D)      request, send: it re-ACKs finals
//   non-INVITE server Completed (J)  last response, send: it replays them
//   INVITE server Completed (G/H)    last response, send, on_ack, on_timeout
//   INVITE server Confirmed (I)      nothing
#pragma once

#include <cstdint>
#include <functional>
#include <utility>

#include "common/slab.hpp"
#include "sim/simulator.hpp"
#include "sip/branch.hpp"
#include "sip/message.hpp"
#include "txn/tap.hpp"
#include "txn/timers.hpp"

namespace svk::txn {

enum class ClientState { kCalling, kTrying, kProceeding, kCompleted, kTerminated };
enum class ServerState { kTrying, kProceeding, kCompleted, kConfirmed, kTerminated };

/// Callbacks from a transaction to its user (proxy core or UA core).
struct ClientCallbacks {
  /// Invoked for every response passed up (provisional and final;
  /// retransmitted finals are absorbed and NOT passed up again).
  std::function<void(const sip::MessagePtr&)> on_response;
  /// Timer B/F fired with no final response.
  std::function<void()> on_timeout;
  /// Machine reached Terminated (owner may destroy it).
  std::function<void()> on_terminated;
};

struct ServerCallbacks {
  /// ACK arrived for a non-2xx final response (INVITE server only).
  std::function<void(const sip::MessagePtr&)> on_ack;
  /// Timer H fired: no ACK for our non-2xx final.
  std::function<void()> on_timeout;
  std::function<void()> on_terminated;
};

/// What a transaction is matched by (RFC 3261 17.1.3 / 17.2.3): its
/// request's top-Via branch and sent-by, and the method (a server's is
/// ACK-normalized, so the ACK for a non-2xx final finds its INVITE).
/// Captured at construction; copying it shares the branch block and the
/// interned sent-by, so it costs no allocation.
struct TxnKey {
  sip::SharedText branch;
  sip::Token sent_by;
  sip::Method method = sip::Method::kInvite;
};

class TransactionManager;

/// Stable reference to one transaction-table entry: the entry's
/// precomputed key hash plus the generation-tagged slab handle. POD, 16
/// bytes — owners capture this in callbacks instead of an owning key, and
/// resolution is a generation check instead of a probe. Outliving the
/// transaction is safe: a stale handle resolves to null.
struct TxnHandle {
  std::uint64_t hash = 0;
  common::SlabHandle slot;

  [[nodiscard]] bool null() const { return slot.null(); }
};

/// Function used to put a message on the wire (destination is bound by the
/// owner when constructing the transaction).
using SendFn = std::function<void(const sip::MessagePtr&)>;

/// Client transaction (RFC 3261 17.1). Construct, then call start().
class ClientTransaction {
 public:
  /// \param is_invite  selects the INVITE (17.1.1) vs non-INVITE (17.1.2)
  ///                   machine
  ClientTransaction(sim::Simulator& sim, const TimerConfig& timers,
                    bool is_invite, sip::MessagePtr request, SendFn send,
                    ClientCallbacks callbacks);
  ~ClientTransaction();

  ClientTransaction(const ClientTransaction&) = delete;
  ClientTransaction& operator=(const ClientTransaction&) = delete;

  /// Transmits the request and arms the timers.
  void start();

  /// Feeds a response matched to this transaction.
  void receive_response(const sip::MessagePtr& response);

  [[nodiscard]] ClientState state() const { return state_; }
  /// The request this transaction sends. Null once a non-INVITE
  /// transaction is Completed: it will not send again. An INVITE keeps it
  /// in Completed, to ACK retransmitted finals.
  [[nodiscard]] const sip::MessagePtr& request() const { return request_; }
  [[nodiscard]] const TxnKey& key() const { return key_; }
  [[nodiscard]] int retransmit_count() const { return retransmits_; }
  [[nodiscard]] bool is_invite() const { return is_invite_; }

  /// Installs (or clears) the conformance tap. Null disables all
  /// notifications; the manager sets this before start().
  void set_tap(ConformanceTap* tap) { tap_ = tap; }

 private:
  friend class TransactionManager;

  void receive_response_impl(const sip::MessagePtr& response);
  void enter_completed(const sip::MessagePtr& response);
  void send_ack_for(const sip::MessagePtr& response);
  void arm_retransmit(SimTime interval);
  void fire_timeout();
  void terminate();
  /// Runs the user's on_terminated, then has the owning manager (if any)
  /// schedule the table removal.
  void announce_terminated();
  void cancel_timers();
  /// All wire output funnels through here so the tap sees every send.
  void wire_send(const sip::MessagePtr& msg);
  void notify(ClientEvent event, const sip::Message* msg = nullptr) {
    if (tap_ != nullptr) tap_->on_client_event(this, event, msg);
  }

  sim::Simulator& sim_;
  TimerConfig timers_;
  bool is_invite_;
  sip::MessagePtr request_;
  TxnKey key_;
  SendFn send_;
  ClientCallbacks callbacks_;
  ConformanceTap* tap_{nullptr};
  // Set by the owning manager once the transaction sits in its table.
  TransactionManager* owner_{nullptr};
  TxnHandle handle_;

  ClientState state_;
  SimTime rtx_interval_;
  int retransmits_{0};
  sim::EventId rtx_timer_{0};
  sim::EventId timeout_timer_{0};  // B or F
  sim::EventId linger_timer_{0};   // D or K
};

/// Server transaction (RFC 3261 17.2). Construct with the initial request.
class ServerTransaction {
 public:
  ServerTransaction(sim::Simulator& sim, const TimerConfig& timers,
                    bool is_invite, sip::MessagePtr request, SendFn send,
                    ServerCallbacks callbacks);
  ~ServerTransaction();

  ServerTransaction(const ServerTransaction&) = delete;
  ServerTransaction& operator=(const ServerTransaction&) = delete;

  /// Feeds a retransmitted request or an ACK matched to this transaction.
  /// Retransmissions are absorbed: the last response (if any) is replayed
  /// and nothing propagates to the transaction user.
  void receive_request(const sip::MessagePtr& request);

  /// Transaction user supplies a response to send toward the request
  /// source. Drives the state machine per its class (1xx/2xx/3xx-6xx).
  void respond(const sip::MessagePtr& response);

  [[nodiscard]] ServerState state() const { return state_; }
  /// The request that created this transaction. Null from Completed on:
  /// what is left only absorbs retransmissions, matched by key().
  [[nodiscard]] const sip::MessagePtr& request() const { return request_; }
  [[nodiscard]] const TxnKey& key() const { return key_; }
  [[nodiscard]] int absorbed_count() const { return absorbed_; }
  [[nodiscard]] bool is_invite() const { return is_invite_; }

  /// Installs (or clears) the conformance tap (see ClientTransaction).
  void set_tap(ConformanceTap* tap) { tap_ = tap; }

 private:
  friend class TransactionManager;

  void receive_request_impl(const sip::MessagePtr& request);
  void respond_impl(const sip::MessagePtr& response);
  void arm_response_retransmit(SimTime interval);
  void terminate();
  void announce_terminated();
  void cancel_timers();
  void wire_send(const sip::MessagePtr& msg);
  void notify(ServerEvent event, const sip::Message* msg = nullptr) {
    if (tap_ != nullptr) tap_->on_server_event(this, event, msg);
  }

  sim::Simulator& sim_;
  TimerConfig timers_;
  bool is_invite_;
  sip::MessagePtr request_;
  TxnKey key_;
  SendFn send_;
  ServerCallbacks callbacks_;
  ConformanceTap* tap_{nullptr};
  TransactionManager* owner_{nullptr};
  TxnHandle handle_;

  ServerState state_;
  sip::MessagePtr last_response_;
  SimTime rtx_interval_;
  int absorbed_{0};
  sim::EventId rtx_timer_{0};     // G
  sim::EventId timeout_timer_{0}; // H
  sim::EventId linger_timer_{0};  // I or J
};

}  // namespace svk::txn
