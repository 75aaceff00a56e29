#include "workload/uas.hpp"

#include <algorithm>
#include <utility>

namespace svk::workload {

Uas::Uas(sim::Simulator& sim, proxy::SipNetwork& network, UasConfig config)
    : sim_(sim),
      network_(network),
      config_(std::move(config)),
      contact_{"", sip::Uri("", config_.host), ""},
      txns_(sim, config_.timers) {
  network_.attach(config_.address,
                  [this](Address from, const sip::MessagePtr& msg) {
                    on_datagram(from, msg);
                  });
}

Uas::~Uas() {
  for (auto& [call_id, pending] : pending_200_) {
    sim_.cancel(pending.timer);
  }
  for (auto& [call_id, pending] : ringing_) {
    sim_.cancel(pending.timer);
  }
  network_.detach(config_.address);
}

void Uas::on_datagram(Address from, const sip::MessagePtr& msg) {
  if (!msg->is_request()) {
    // Responses to our own REGISTER transactions.
    (void)txns_.dispatch(msg);
    return;
  }

  const txn::Dispatch dispatch = txns_.dispatch(msg);
  if (dispatch == txn::Dispatch::kHandledByServerTxn) return;

  switch (msg->method()) {
    case sip::Method::kInvite:
      handle_invite(from, msg);
      break;
    case sip::Method::kAck:
      handle_ack(msg);
      break;
    case sip::Method::kBye:
      handle_bye(from, msg);
      break;
    case sip::Method::kCancel:
      handle_cancel(from, msg);
      break;
    default:
      break;  // unsupported methods ignored
  }
}

void Uas::handle_invite(Address from, const sip::MessagePtr& msg) {
  // A retransmitted INVITE whose transaction already ended with our 200:
  // replay the 200 (we are still waiting for the ACK).
  if (const auto it = pending_200_.find(msg->call_id());
      it != pending_200_.end()) {
    ++metrics_.retransmitted_200;
    network_.send(config_.address, it->second.peer, it->second.response);
    return;
  }

  ++metrics_.invites_received;
  if (!msg->header(proxy::kStatefulMarkHeader)) {
    ++metrics_.unmarked_invites;
  }
  txn::TxnHandle server_handle;
  auto& server_txn = txns_.create_server(
      msg,
      [this, from](const sip::MessagePtr& m) {
        network_.send(config_.address, from, m);
      },
      txn::ServerCallbacks{}, &server_handle);

  const std::string tag = "uas" + std::to_string(++tag_counter_);

  sip::Message ringing = sip::Message::response(*msg, sip::status::kRinging);
  ringing.to().tag = tag;
  server_txn.respond(std::move(ringing).finish());

  PendingAnswer pending;
  pending.invite = msg;
  pending.server_txn = server_handle;
  pending.tag = tag;
  pending.peer = from;
  const sip::SharedText call_id = msg->call_id();
  if (config_.answer_delay > SimTime{}) {
    pending.timer = sim_.schedule(config_.answer_delay,
                                  [this, call_id] { answer(call_id); });
    ringing_.emplace(call_id, std::move(pending));
  } else {
    ringing_.emplace(call_id, std::move(pending));
    answer(call_id);
  }
}

void Uas::answer(const sip::SharedText& call_id) {
  const auto it = ringing_.find(call_id);
  if (it == ringing_.end()) return;
  PendingAnswer ringing = std::move(it->second);
  ringing_.erase(it);

  sip::Message ok = sip::Message::response(*ringing.invite, sip::status::kOk);
  ok.to().tag = ringing.tag;
  ok.set_contact(contact_);
  auto ok_ptr = std::move(ok).finish();
  if (auto* server_txn = txns_.find_server(ringing.server_txn)) {
    server_txn->respond(ok_ptr);
  } else {
    network_.send(config_.address, ringing.peer, ok_ptr);
  }

  // RFC 3261 13.3.1.4: the UAS core retransmits the 2xx until ACKed.
  Pending200 pending;
  pending.response = ok_ptr;
  pending.peer = ringing.peer;
  pending.interval = config_.timers.t1;
  pending.deadline = sim_.now() + 64 * config_.timers.t1;
  pending.timer = sim_.schedule(pending.interval,
                                [this, call_id] { retransmit_200(call_id); });
  pending_200_.emplace(call_id, std::move(pending));
}

void Uas::handle_cancel(Address from, const sip::MessagePtr& msg) {
  // The CANCEL gets its own transaction and an immediate 200 (RFC 3261
  // 9.2), whether or not it still catches the INVITE.
  auto& cancel_txn = txns_.create_server(
      msg,
      [this, from](const sip::MessagePtr& m) {
        network_.send(config_.address, from, m);
      },
      txn::ServerCallbacks{});
  cancel_txn.respond(
      sip::Message::response(*msg, sip::status::kOk).finish());

  const auto it = ringing_.find(msg->call_id());
  if (it == ringing_.end()) return;  // too late: already answered
  PendingAnswer ringing = std::move(it->second);
  sim_.cancel(ringing.timer);
  ringing_.erase(it);
  ++metrics_.cancels_received;

  if (auto* invite_txn = txns_.find_server(ringing.server_txn)) {
    sip::Message terminated =
        sip::Message::response(*ringing.invite, 487);
    terminated.to().tag = ringing.tag;
    invite_txn->respond(std::move(terminated).finish());
  }
}

void Uas::retransmit_200(const sip::SharedText& call_id) {
  const auto it = pending_200_.find(call_id);
  if (it == pending_200_.end()) return;
  Pending200& pending = it->second;
  if (sim_.now() >= pending.deadline) {
    pending_200_.erase(it);  // give up; the call never got its ACK
    return;
  }
  ++metrics_.retransmitted_200;
  network_.send(config_.address, pending.peer, pending.response);
  pending.interval = std::min(2 * pending.interval, config_.timers.t2);
  pending.timer = sim_.schedule(pending.interval,
                                [this, call_id] { retransmit_200(call_id); });
}

void Uas::handle_ack(const sip::MessagePtr& msg) {
  const auto it = pending_200_.find(msg->call_id());
  if (it == pending_200_.end()) return;  // duplicate ACK
  sim_.cancel(it->second.timer);
  pending_200_.erase(it);
  ++metrics_.calls_established;
}

void Uas::register_with(Address registrar, const std::string& aor,
                        SimTime expires, bool auto_refresh) {
  send_register(registrar, aor, expires, auto_refresh);
}

void Uas::send_register(Address registrar, const std::string& aor,
                        SimTime expires, bool auto_refresh) {
  const auto at = aor.find('@');
  const std::string user = aor.substr(0, at);
  const std::string domain =
      at == std::string::npos ? aor : aor.substr(at + 1);

  sip::Message reg = sip::Message::request(
      sip::Method::kRegister, sip::Uri("", domain),
      sip::NameAddr{"", sip::Uri(user, domain),
                    "reg" + std::to_string(++register_counter_)},
      sip::NameAddr{"", sip::Uri(user, domain), ""},
      config_.host + "-reg-" + std::to_string(register_counter_),
      sip::CSeq{static_cast<std::uint32_t>(register_counter_),
                sip::Method::kRegister});
  reg.push_via(sip::Via{
      sip::udp_protocol(), contact_.uri.host(),
      std::string(sip::kMagicCookie) + "-reg-" + config_.host + "-" +
          std::to_string(register_counter_)});
  reg.set_contact(contact_);
  reg.set_header("Expires",
                 std::to_string(static_cast<long>(expires.to_seconds())));

  txn::ClientCallbacks callbacks;
  callbacks.on_response = [this, registrar, aor, expires, auto_refresh](
                              const sip::MessagePtr& response) {
    if (!sip::is_success(response->status_code())) return;
    ++registrations_confirmed_;
    if (auto_refresh) {
      // Renew at half-life (common UA behaviour).
      sim_.schedule(SimTime::seconds(expires.to_seconds() / 2.0),
                    [this, registrar, aor, expires, auto_refresh] {
                      send_register(registrar, aor, expires, auto_refresh);
                    });
    }
  };
  txns_.create_client(
      std::move(reg).finish(),
      [this, registrar](const sip::MessagePtr& m) {
        network_.send(config_.address, registrar, m);
      },
      std::move(callbacks));
}

void Uas::handle_bye(Address from, const sip::MessagePtr& msg) {
  ++metrics_.byes_received;
  auto& server_txn = txns_.create_server(
      msg,
      [this, from](const sip::MessagePtr& m) {
        network_.send(config_.address, from, m);
      },
      txn::ServerCallbacks{});
  server_txn.respond(
      sip::Message::response(*msg, sip::status::kOk).finish());
  ++metrics_.calls_completed;
}

}  // namespace svk::workload
