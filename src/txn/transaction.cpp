#include "txn/transaction.hpp"

#include <algorithm>
#include <cassert>

#include "txn/manager.hpp"

namespace svk::txn {
namespace {

TxnKey client_key_of(const sip::Message& request) {
  const sip::Via& via = request.top_via();
  return TxnKey{via.branch, via.sent_by, request.cseq().method};
}

/// ACK-normalized like sip::key_for_request (transactions are never created
/// from ACKs, but the normalization keeps lookup and creation symmetric).
TxnKey server_key_of(const sip::Message& request) {
  const sip::Via& via = request.top_via();
  const sip::Method m = request.method();
  return TxnKey{via.branch, via.sent_by,
                m == sip::Method::kAck ? sip::Method::kInvite : m};
}

/// Hop-by-hop ACK for a non-2xx final response (RFC 3261 17.1.1.3): same
/// branch/top Via as the INVITE, To copied from the response (it carries the
/// UAS tag), and the INVITE's Route set (RFC 3261 17.1.1.3).
sip::MessagePtr build_non2xx_ack(const sip::Message& invite,
                                 const sip::Message& response) {
  sip::Message ack = sip::Message::request(
      sip::Method::kAck, invite.request_uri(), invite.from(), response.to(),
      invite.call_id(),
      sip::CSeq{invite.cseq().seq, sip::Method::kAck});
  ack.push_via(invite.top_via());
  ack.set_max_forwards(invite.max_forwards());
  ack.set_routes(invite.routes());
  return std::move(ack).finish();
}

}  // namespace

// ---------------------------------------------------------------------------
// ClientTransaction
// ---------------------------------------------------------------------------

ClientTransaction::ClientTransaction(sim::Simulator& sim,
                                     const TimerConfig& timers,
                                     bool is_invite, sip::MessagePtr request,
                                     SendFn send, ClientCallbacks callbacks)
    : sim_(sim),
      timers_(timers),
      is_invite_(is_invite),
      request_(std::move(request)),
      key_(client_key_of(*request_)),
      send_(std::move(send)),
      callbacks_(std::move(callbacks)),
      state_(is_invite ? ClientState::kCalling : ClientState::kTrying),
      rtx_interval_(is_invite ? timers.timer_a() : timers.timer_e()) {
  assert(request_ && request_->is_request());
}

ClientTransaction::~ClientTransaction() { cancel_timers(); }

void ClientTransaction::cancel_timers() {
  sim_.cancel(rtx_timer_);
  sim_.cancel(timeout_timer_);
  sim_.cancel(linger_timer_);
  rtx_timer_ = timeout_timer_ = linger_timer_ = 0;
}

void ClientTransaction::wire_send(const sip::MessagePtr& msg) {
  if (tap_ != nullptr) tap_->on_client_send(this, msg);
  send_(msg);
}

void ClientTransaction::start() {
  wire_send(request_);
  arm_retransmit(rtx_interval_);
  const SimTime timeout =
      is_invite_ ? timers_.timer_b() : timers_.timer_f();
  timeout_timer_ = sim_.schedule(timeout, [this] { fire_timeout(); });
  notify(ClientEvent::kStart);
}

void ClientTransaction::fire_timeout() {
  timeout_timer_ = 0;
  // Calling/Trying: timer B/F. Proceeding: timer C (INVITE, armed per
  // provisional) or F (non-INVITE, armed at start).
  const bool may_timeout =
      state_ == ClientState::kCalling || state_ == ClientState::kTrying ||
      state_ == ClientState::kProceeding;
  if (may_timeout) {
    state_ = ClientState::kTerminated;
    cancel_timers();
    if (callbacks_.on_timeout) callbacks_.on_timeout();
    announce_terminated();
  }
  notify(ClientEvent::kTimerTimeout);
}

void ClientTransaction::arm_retransmit(SimTime interval) {
  rtx_timer_ = sim_.schedule(interval, [this] {
    rtx_timer_ = 0;
    const bool retransmitting =
        state_ == ClientState::kCalling || state_ == ClientState::kTrying ||
        (!is_invite_ && state_ == ClientState::kProceeding);
    if (retransmitting) {
      ++retransmits_;
      wire_send(request_);
      // Timer A doubles unbounded; timer E doubles capped at T2; in the
      // non-INVITE Proceeding state retransmission continues at T2 flat.
      if (is_invite_) {
        rtx_interval_ = 2 * rtx_interval_;
      } else if (state_ == ClientState::kProceeding) {
        rtx_interval_ = timers_.t2;
      } else {
        rtx_interval_ = std::min(2 * rtx_interval_, timers_.t2);
      }
      arm_retransmit(rtx_interval_);
    }
    notify(ClientEvent::kTimerRetransmit);
  });
}

void ClientTransaction::send_ack_for(const sip::MessagePtr& response) {
  wire_send(build_non2xx_ack(*request_, *response));
}

void ClientTransaction::enter_completed(const sip::MessagePtr& response) {
  // An INVITE ACKs the non-2xx final (17.1.1.3) and keeps its request and
  // send function to re-ACK retransmissions of it; a non-INVITE will send
  // nothing more. Neither passes anything up again.
  if (is_invite_) send_ack_for(response);
  state_ = ClientState::kCompleted;
  sim_.cancel(rtx_timer_);
  sim_.cancel(timeout_timer_);
  rtx_timer_ = timeout_timer_ = 0;
  linger_timer_ = sim_.schedule(
      is_invite_ ? timers_.timer_d() : timers_.timer_k(), [this] {
        linger_timer_ = 0;
        terminate();
        notify(ClientEvent::kTimerLinger);
      });
  callbacks_.on_response = nullptr;
  callbacks_.on_timeout = nullptr;
  if (!is_invite_) {
    request_.reset();
    send_ = nullptr;
  }
}

void ClientTransaction::terminate() {
  if (state_ == ClientState::kTerminated) return;
  state_ = ClientState::kTerminated;
  cancel_timers();
  announce_terminated();
}

void ClientTransaction::announce_terminated() {
  if (callbacks_.on_terminated) callbacks_.on_terminated();
  if (owner_ != nullptr) owner_->schedule_client_removal(handle_);
}

void ClientTransaction::receive_response(const sip::MessagePtr& response) {
  receive_response_impl(response);
  notify(ClientEvent::kRxResponse, response.get());
}

void ClientTransaction::receive_response_impl(
    const sip::MessagePtr& response) {
  assert(response && response->is_response());
  const int code = response->status_code();

  switch (state_) {
    case ClientState::kCalling:  // INVITE machine
    case ClientState::kTrying:   // non-INVITE machine
    case ClientState::kProceeding: {
      if (sip::is_provisional(code)) {
        if (state_ != ClientState::kProceeding) {
          state_ = ClientState::kProceeding;
          if (is_invite_) {
            // INVITE: provisional stops request retransmission and timer B.
            sim_.cancel(rtx_timer_);
            rtx_timer_ = 0;
          }
        }
        if (is_invite_) {
          // Timer C replaces timer B: the transaction may not sit in
          // Proceeding forever waiting on a peer that died after its 1xx.
          // Refreshed on every provisional (RFC 3261 16.7 step 2).
          timeout_timer_ = sim_.reschedule(timeout_timer_, timers_.timer_c(),
                                           [this] { fire_timeout(); });
        }
        if (callbacks_.on_response) callbacks_.on_response(response);
        return;
      }
      // Final response.
      if (is_invite_) {
        if (sip::is_success(code)) {
          // 2xx: transaction terminates; ACK is the TU's end-to-end job.
          if (callbacks_.on_response) callbacks_.on_response(response);
          terminate();
        } else {
          if (callbacks_.on_response) callbacks_.on_response(response);
          enter_completed(response);
        }
      } else {
        if (callbacks_.on_response) callbacks_.on_response(response);
        enter_completed(response);
      }
      return;
    }
    case ClientState::kCompleted:
      // Retransmitted final: absorb; for INVITE, re-ACK (17.1.1.2).
      if (is_invite_ && sip::is_final(code) && !sip::is_success(code)) {
        send_ack_for(response);
      }
      return;
    case ClientState::kTerminated:
      return;
  }
}

// ---------------------------------------------------------------------------
// ServerTransaction
// ---------------------------------------------------------------------------

ServerTransaction::ServerTransaction(sim::Simulator& sim,
                                     const TimerConfig& timers,
                                     bool is_invite, sip::MessagePtr request,
                                     SendFn send, ServerCallbacks callbacks)
    : sim_(sim),
      timers_(timers),
      is_invite_(is_invite),
      request_(std::move(request)),
      key_(server_key_of(*request_)),
      send_(std::move(send)),
      callbacks_(std::move(callbacks)),
      state_(is_invite ? ServerState::kProceeding : ServerState::kTrying),
      rtx_interval_(timers.timer_g()) {
  assert(request_ && request_->is_request());
}

ServerTransaction::~ServerTransaction() { cancel_timers(); }

void ServerTransaction::cancel_timers() {
  sim_.cancel(rtx_timer_);
  sim_.cancel(timeout_timer_);
  sim_.cancel(linger_timer_);
  rtx_timer_ = timeout_timer_ = linger_timer_ = 0;
}

void ServerTransaction::terminate() {
  if (state_ == ServerState::kTerminated) return;
  state_ = ServerState::kTerminated;
  cancel_timers();
  announce_terminated();
}

void ServerTransaction::announce_terminated() {
  if (callbacks_.on_terminated) callbacks_.on_terminated();
  if (owner_ != nullptr) owner_->schedule_server_removal(handle_);
}

void ServerTransaction::wire_send(const sip::MessagePtr& msg) {
  if (tap_ != nullptr) tap_->on_server_send(this, msg);
  send_(msg);
}

void ServerTransaction::receive_request(const sip::MessagePtr& request) {
  receive_request_impl(request);
  notify(ServerEvent::kRxRequest, request.get());
}

void ServerTransaction::receive_request_impl(const sip::MessagePtr& request) {
  assert(request && request->is_request());
  if (state_ == ServerState::kTerminated) return;

  if (is_invite_ && request->method() == sip::Method::kAck) {
    if (state_ == ServerState::kCompleted) {
      // ACK for our non-2xx final: stop retransmitting, linger on timer I
      // to absorb further ACKs. Confirmed sends nothing and tells the TU
      // nothing but termination, so it keeps nothing else.
      state_ = ServerState::kConfirmed;
      sim_.cancel(rtx_timer_);
      sim_.cancel(timeout_timer_);
      rtx_timer_ = timeout_timer_ = 0;
      linger_timer_ = sim_.schedule(timers_.timer_i(), [this] {
        linger_timer_ = 0;
        terminate();
        notify(ServerEvent::kTimerLinger);
      });
      if (callbacks_.on_ack) callbacks_.on_ack(request);
      last_response_.reset();
      send_ = nullptr;
      callbacks_.on_ack = nullptr;
      callbacks_.on_timeout = nullptr;
    }
    // ACK retransmissions in Confirmed are absorbed silently.
    return;
  }

  // Retransmitted request: absorb, replaying the latest response if any
  // (RFC 3261 17.2.1 / 17.2.2).
  ++absorbed_;
  if (last_response_ &&
      (state_ == ServerState::kProceeding ||
       state_ == ServerState::kCompleted)) {
    wire_send(last_response_);
  }
}

void ServerTransaction::respond(const sip::MessagePtr& response) {
  respond_impl(response);
  notify(ServerEvent::kRespond, response.get());
}

void ServerTransaction::respond_impl(const sip::MessagePtr& response) {
  assert(response && response->is_response());
  if (state_ == ServerState::kTerminated) return;
  const int code = response->status_code();

  if (sip::is_provisional(code)) {
    // A provisional after a final must not regress Completed/Confirmed back
    // to Proceeding: the regression would strand the armed completion
    // timers (G/H or J check for kCompleted and would never terminate the
    // transaction) and resume retransmitting the wrong last_response_.
    if (state_ != ServerState::kTrying &&
        state_ != ServerState::kProceeding) {
      return;
    }
    last_response_ = response;
    wire_send(response);
    state_ = ServerState::kProceeding;
    return;
  }
  // Duplicate final from the TU: the first final won and its timers are
  // armed; sending and re-arming here would overwrite the still-armed
  // timer ids, leaking the old events into the wheel to double-fire.
  if (state_ != ServerState::kTrying && state_ != ServerState::kProceeding) {
    return;
  }
  last_response_ = response;
  wire_send(response);
  // From here on the transaction only absorbs retransmissions (matched by
  // key_) and replays last_response_: the request is no longer needed.
  request_.reset();
  if (is_invite_) {
    if (sip::is_success(code)) {
      // 2xx: INVITE server transaction terminates at once (17.2.1); 2xx
      // retransmission is owned by the UAS core end-to-end.
      terminate();
    } else {
      state_ = ServerState::kCompleted;
      arm_response_retransmit(rtx_interval_);
      timeout_timer_ = sim_.reschedule(timeout_timer_, timers_.timer_h(),
                                       [this] {
        timeout_timer_ = 0;
        if (state_ == ServerState::kCompleted) {
          if (callbacks_.on_timeout) callbacks_.on_timeout();
          terminate();
        }
        notify(ServerEvent::kTimerTimeout);
      });
    }
  } else {
    state_ = ServerState::kCompleted;
    linger_timer_ = sim_.reschedule(linger_timer_, timers_.timer_j(), [this] {
      linger_timer_ = 0;
      terminate();
      notify(ServerEvent::kTimerLinger);
    });
    callbacks_.on_ack = nullptr;
    callbacks_.on_timeout = nullptr;
  }
}

void ServerTransaction::arm_response_retransmit(SimTime interval) {
  rtx_timer_ = sim_.schedule(interval, [this] {
    rtx_timer_ = 0;
    if (state_ == ServerState::kCompleted) {
      wire_send(last_response_);
      rtx_interval_ = std::min(2 * rtx_interval_, timers_.t2);
      arm_response_retransmit(rtx_interval_);
    }
    notify(ServerEvent::kTimerRetransmit);
  });
}

}  // namespace svk::txn
