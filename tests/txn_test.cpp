// RFC 3261 section-17 conformance tests for the transaction layer: timer
// schedules, retransmission generation/absorption, state transitions and
// manager matching.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "sim/simulator.hpp"
#include "sip/branch.hpp"
#include "sip/message.hpp"
#include "txn/manager.hpp"
#include "txn/transaction.hpp"

namespace svk::txn {
namespace {

using sip::CSeq;
using sip::Message;
using sip::MessagePtr;
using sip::Method;
using sip::NameAddr;
using sip::Uri;
using sip::Via;

MessagePtr make_request(Method method, const std::string& branch = "z9hG4bK-1",
                        const std::string& call_id = "call-1") {
  Message msg = Message::request(
      method, Uri("bob", "example.com"),
      NameAddr{"", Uri("alice", "client.com"), "tag-a"},
      NameAddr{"", Uri("bob", "example.com"), ""}, call_id,
      CSeq{1, method});
  msg.push_via(Via{"SIP/2.0/UDP", "client.com", branch});
  return std::move(msg).finish();
}

MessagePtr make_response(const Message& req, int code) {
  return Message::response(req, code).finish();
}

/// The hop-by-hop ACK for a non-2xx final to `inv` (same top Via).
MessagePtr ack_for(const MessagePtr& inv) {
  Message ack = Message::request(
      Method::kAck, inv->request_uri(), inv->from(), inv->to(),
      inv->call_id(), CSeq{1, Method::kAck});
  ack.push_via(inv->top_via());
  return std::move(ack).finish();
}

/// Collects everything a transaction puts on the wire.
struct WireLog {
  std::vector<MessagePtr> sent;
  SendFn sender() {
    return [this](const MessagePtr& m) { sent.push_back(m); };
  }
  [[nodiscard]] int count_method(Method m) const {
    int n = 0;
    for (const auto& msg : sent) {
      if (msg->is_request() && msg->method() == m) ++n;
    }
    return n;
  }
  [[nodiscard]] int count_status(int code) const {
    int n = 0;
    for (const auto& msg : sent) {
      if (msg->is_response() && msg->status_code() == code) ++n;
    }
    return n;
  }
};

// ---------------------------------------------------------------------------
// INVITE client transaction (17.1.1)
// ---------------------------------------------------------------------------

class InviteClientTest : public ::testing::Test {
 protected:
  sim::Simulator sim;
  TimerConfig timers;
  WireLog wire;
  int timeouts = 0;
  int terminated = 0;
  std::vector<int> responses;

  std::unique_ptr<ClientTransaction> make() {
    ClientCallbacks callbacks;
    callbacks.on_response = [this](const MessagePtr& m) {
      responses.push_back(m->status_code());
    };
    callbacks.on_timeout = [this] { ++timeouts; };
    callbacks.on_terminated = [this] { ++terminated; };
    auto txn = std::make_unique<ClientTransaction>(
        sim, timers, /*is_invite=*/true, make_request(Method::kInvite),
        wire.sender(), std::move(callbacks));
    txn->start();
    return txn;
  }
};

TEST_F(InviteClientTest, SendsImmediately) {
  auto txn = make();
  EXPECT_EQ(wire.count_method(Method::kInvite), 1);
  EXPECT_EQ(txn->state(), ClientState::kCalling);
}

TEST_F(InviteClientTest, TimerADoublesRetransmissions) {
  auto txn = make();
  // Retransmits at 0.5, 1.5, 3.5, 7.5, 15.5, 31.5s (then timer B at 32s).
  sim.run_until(SimTime::millis(400));
  EXPECT_EQ(wire.count_method(Method::kInvite), 1);
  sim.run_until(SimTime::millis(600));
  EXPECT_EQ(wire.count_method(Method::kInvite), 2);
  sim.run_until(SimTime::millis(1600));
  EXPECT_EQ(wire.count_method(Method::kInvite), 3);
  sim.run_until(SimTime::millis(3600));
  EXPECT_EQ(wire.count_method(Method::kInvite), 4);
  EXPECT_EQ(txn->retransmit_count(), 3);
}

TEST_F(InviteClientTest, TimerBTimesOut) {
  auto txn = make();
  sim.run_until(SimTime::seconds(40.0));
  EXPECT_EQ(timeouts, 1);
  EXPECT_EQ(terminated, 1);
  EXPECT_EQ(txn->state(), ClientState::kTerminated);
  // 64*T1 = 32s window: initial + retransmits at 0.5,1.5,3.5,7.5,15.5,31.5.
  EXPECT_EQ(wire.count_method(Method::kInvite), 7);
}

TEST_F(InviteClientTest, ProvisionalStopsRetransmission) {
  auto txn = make();
  txn->receive_response(make_response(*txn->request(), 100));
  EXPECT_EQ(txn->state(), ClientState::kProceeding);
  sim.run_until(SimTime::seconds(40.0));
  EXPECT_EQ(wire.count_method(Method::kInvite), 1);  // no retransmits
  EXPECT_EQ(timeouts, 0);                            // timer B cancelled
  EXPECT_EQ(responses, (std::vector<int>{100}));
}

TEST_F(InviteClientTest, TimerCTimesOutStuckProceeding) {
  // RFC 3261 16.6: a provisional cancels timer B, but the transaction may
  // not wait in Proceeding forever — timer C bounds it. A peer that sends
  // 180 and then crashes must not leak the transaction.
  auto txn = make();
  txn->receive_response(make_response(*txn->request(), 180));
  EXPECT_EQ(txn->state(), ClientState::kProceeding);
  sim.run_until(SimTime::seconds(179.0));
  EXPECT_EQ(timeouts, 0);
  sim.run_until(SimTime::seconds(181.0));
  EXPECT_EQ(timeouts, 1);
  EXPECT_EQ(terminated, 1);
  EXPECT_EQ(txn->state(), ClientState::kTerminated);
}

TEST_F(InviteClientTest, TimerCRefreshesOnEveryProvisional) {
  auto txn = make();
  txn->receive_response(make_response(*txn->request(), 100));
  sim.run_until(SimTime::seconds(100.0));
  txn->receive_response(make_response(*txn->request(), 180));  // refresh
  sim.run_until(SimTime::seconds(250.0));
  EXPECT_EQ(timeouts, 0);  // clock restarted at 100s; fires at 280s
  sim.run_until(SimTime::seconds(281.0));
  EXPECT_EQ(timeouts, 1);
}

TEST_F(InviteClientTest, TimerCRefreshesAcrossManyProvisionals) {
  // A session-progress stream (media gateways send 183 every few seconds)
  // must never let timer C fire while provisionals keep arriving, and the
  // refreshes must reschedule the same timer rather than accumulate armed
  // events in the simulator.
  auto txn = make();
  for (int i = 0; i < 12; ++i) {
    txn->receive_response(make_response(*txn->request(), 183));
    sim.run_until(SimTime::seconds(20.0 * (i + 1)));
    EXPECT_EQ(timeouts, 0);
  }
  // Last refresh at 220s; timer C (180s) fires at 400s, exactly once.
  sim.run_until(SimTime::seconds(399.0));
  EXPECT_EQ(timeouts, 0);
  sim.run_until(SimTime::seconds(401.0));
  EXPECT_EQ(timeouts, 1);
  sim.run();
  EXPECT_EQ(sim.pending_count(), 0u);
}

TEST_F(InviteClientTest, DuplicateFinalAbsorbedWithoutTimerChurn) {
  // Retransmitted non-2xx finals in Completed are re-ACKed but must not
  // touch timer D: the transaction still terminates 32s after the FIRST
  // final, and draining leaves no armed events behind.
  auto txn = make();
  txn->receive_response(make_response(*txn->request(), 486));
  sim.run_until(SimTime::seconds(10.0));
  txn->receive_response(make_response(*txn->request(), 486));
  EXPECT_EQ(wire.count_method(Method::kAck), 2);
  EXPECT_EQ(responses, (std::vector<int>{486}));
  sim.run_until(SimTime::seconds(31.0));
  EXPECT_EQ(txn->state(), ClientState::kCompleted);  // D not restarted early
  sim.run_until(SimTime::seconds(33.0));
  EXPECT_EQ(txn->state(), ClientState::kTerminated);
  sim.run();
  EXPECT_EQ(sim.pending_count(), 0u);
}

TEST_F(InviteClientTest, FinalResponseCancelsTimerC) {
  auto txn = make();
  txn->receive_response(make_response(*txn->request(), 180));
  txn->receive_response(make_response(*txn->request(), 200));
  EXPECT_EQ(txn->state(), ClientState::kTerminated);
  sim.run_until(SimTime::seconds(200.0));
  EXPECT_EQ(timeouts, 0);
}

TEST_F(InviteClientTest, TwoHundredTerminatesImmediately) {
  auto txn = make();
  txn->receive_response(make_response(*txn->request(), 200));
  EXPECT_EQ(txn->state(), ClientState::kTerminated);
  EXPECT_EQ(terminated, 1);
  // No ACK from the transaction for 2xx (TU's responsibility).
  EXPECT_EQ(wire.count_method(Method::kAck), 0);
}

TEST_F(InviteClientTest, NonTwoHundredAcksAndLingers) {
  auto txn = make();
  txn->receive_response(make_response(*txn->request(), 486));
  EXPECT_EQ(txn->state(), ClientState::kCompleted);
  EXPECT_EQ(wire.count_method(Method::kAck), 1);
  EXPECT_EQ(responses, (std::vector<int>{486}));

  // A retransmitted final is absorbed and re-ACKed, not passed up.
  txn->receive_response(make_response(*txn->request(), 486));
  EXPECT_EQ(wire.count_method(Method::kAck), 2);
  EXPECT_EQ(responses, (std::vector<int>{486}));

  // Timer D fires at 32s.
  sim.run_until(SimTime::seconds(33.0));
  EXPECT_EQ(txn->state(), ClientState::kTerminated);
}

TEST_F(InviteClientTest, AckForNon2xxCopiesBranch) {
  auto txn = make();
  txn->receive_response(make_response(*txn->request(), 404));
  ASSERT_EQ(wire.count_method(Method::kAck), 1);
  const MessagePtr& ack = wire.sent.back();
  EXPECT_EQ(ack->top_via().branch, txn->request()->top_via().branch);
  EXPECT_EQ(ack->cseq().method, Method::kAck);
  EXPECT_EQ(ack->cseq().seq, txn->request()->cseq().seq);
}

TEST_F(InviteClientTest, AckForNon2xxCarriesTheInviteRoute) {
  // RFC 3261 17.1.1.3: the ACK, and every re-ACK built from the retained
  // INVITE, repeats the INVITE's Route header fields.
  Message invite = Message::request(
      Method::kInvite, Uri("bob", "example.com"),
      NameAddr{"", Uri("alice", "client.com"), "tag-a"},
      NameAddr{"", Uri("bob", "example.com"), ""}, "call-1",
      CSeq{1, Method::kInvite});
  invite.push_via(Via{"SIP/2.0/UDP", "client.com", "z9hG4bK-1"});
  invite.set_routes({Uri("", "p1.example.com"), Uri("", "p2.example.com")});
  ClientTransaction txn(sim, timers, /*is_invite=*/true,
                        std::move(invite).finish(), wire.sender(), {});
  txn.start();
  const MessagePtr busy = make_response(*txn.request(), 486);
  txn.receive_response(busy);
  txn.receive_response(busy);
  ASSERT_EQ(wire.count_method(Method::kAck), 2);
  for (const MessagePtr& msg : wire.sent) {
    if (msg->method() != Method::kAck) continue;
    EXPECT_EQ(msg->routes(), txn.request()->routes());
  }
}

TEST_F(InviteClientTest, ProvisionalThen200) {
  auto txn = make();
  txn->receive_response(make_response(*txn->request(), 180));
  txn->receive_response(make_response(*txn->request(), 200));
  EXPECT_EQ(responses, (std::vector<int>{180, 200}));
  EXPECT_EQ(txn->state(), ClientState::kTerminated);
}

// ---------------------------------------------------------------------------
// Non-INVITE client transaction (17.1.2)
// ---------------------------------------------------------------------------

class NonInviteClientTest : public ::testing::Test {
 protected:
  sim::Simulator sim;
  TimerConfig timers;
  WireLog wire;
  int timeouts = 0;
  std::vector<int> responses;

  std::unique_ptr<ClientTransaction> make() {
    ClientCallbacks callbacks;
    callbacks.on_response = [this](const MessagePtr& m) {
      responses.push_back(m->status_code());
    };
    callbacks.on_timeout = [this] { ++timeouts; };
    auto txn = std::make_unique<ClientTransaction>(
        sim, timers, /*is_invite=*/false, make_request(Method::kBye),
        wire.sender(), std::move(callbacks));
    txn->start();
    return txn;
  }
};

TEST_F(NonInviteClientTest, TimerECapsAtT2) {
  auto txn = make();
  // E fires at 0.5, 1.5, 3.5, 7.5, then every 4s (T2 cap).
  sim.run_until(SimTime::seconds(11.6));
  // Sends: t=0, .5, 1.5, 3.5, 7.5, 11.5 -> 6 transmissions.
  EXPECT_EQ(wire.count_method(Method::kBye), 6);
}

TEST_F(NonInviteClientTest, TimerFTimesOutAt64T1) {
  auto txn = make();
  sim.run_until(SimTime::seconds(33.0));
  EXPECT_EQ(timeouts, 1);
  EXPECT_EQ(txn->state(), ClientState::kTerminated);
}

TEST_F(NonInviteClientTest, FinalEntersCompletedThenTimerK) {
  auto txn = make();
  txn->receive_response(make_response(*txn->request(), 200));
  EXPECT_EQ(txn->state(), ClientState::kCompleted);
  EXPECT_EQ(responses, (std::vector<int>{200}));
  // Timer K = T4 = 5s.
  sim.run_until(SimTime::seconds(5.5));
  EXPECT_EQ(txn->state(), ClientState::kTerminated);
}

TEST_F(NonInviteClientTest, ProvisionalKeepsRetransmittingAtT2) {
  auto txn = make();
  txn->receive_response(make_response(*txn->request(), 100));
  EXPECT_EQ(txn->state(), ClientState::kProceeding);
  const int before = wire.count_method(Method::kBye);
  sim.run_until(SimTime::seconds(9.0));
  EXPECT_GT(wire.count_method(Method::kBye), before);
  // Timeouts still possible in Proceeding for non-INVITE.
  sim.run_until(SimTime::seconds(33.0));
  EXPECT_EQ(timeouts, 1);
}

TEST_F(NonInviteClientTest, RetransmittedFinalAbsorbed) {
  auto txn = make();
  const MessagePtr request = txn->request();  // dropped once Completed
  txn->receive_response(make_response(*request, 200));
  txn->receive_response(make_response(*request, 200));
  EXPECT_EQ(responses, (std::vector<int>{200}));
}

// ---------------------------------------------------------------------------
// INVITE server transaction (17.2.1)
// ---------------------------------------------------------------------------

class InviteServerTest : public ::testing::Test {
 protected:
  sim::Simulator sim;
  TimerConfig timers;
  WireLog wire;
  int acks = 0;
  int timeouts = 0;

  MessagePtr invite = make_request(Method::kInvite);

  std::unique_ptr<ServerTransaction> make() {
    ServerCallbacks callbacks;
    callbacks.on_ack = [this](const MessagePtr&) { ++acks; };
    callbacks.on_timeout = [this] { ++timeouts; };
    return std::make_unique<ServerTransaction>(
        sim, timers, /*is_invite=*/true, invite, wire.sender(),
        std::move(callbacks));
  }

};

TEST_F(InviteServerTest, StartsProceeding) {
  auto txn = make();
  EXPECT_EQ(txn->state(), ServerState::kProceeding);
}

TEST_F(InviteServerTest, RetransmittedInviteReplaysProvisional) {
  auto txn = make();
  txn->respond(make_response(*invite, 100));
  EXPECT_EQ(wire.count_status(100), 1);
  txn->receive_request(invite);
  EXPECT_EQ(wire.count_status(100), 2);
  EXPECT_EQ(txn->absorbed_count(), 1);
}

TEST_F(InviteServerTest, TwoHundredTerminatesImmediately) {
  auto txn = make();
  txn->respond(make_response(*invite, 200));
  EXPECT_EQ(txn->state(), ServerState::kTerminated);
  EXPECT_EQ(wire.count_status(200), 1);
  // No retransmissions from the transaction (UAS core owns 2xx rtx).
  sim.run_until(SimTime::seconds(10.0));
  EXPECT_EQ(wire.count_status(200), 1);
}

TEST_F(InviteServerTest, Non2xxRetransmitsOnTimerG) {
  auto txn = make();
  txn->respond(make_response(*invite, 486));
  EXPECT_EQ(txn->state(), ServerState::kCompleted);
  EXPECT_EQ(wire.count_status(486), 1);
  // G fires at 0.5, 1.5, 3.5, 7.5... (doubling, capped at T2).
  sim.run_until(SimTime::millis(1600));
  EXPECT_EQ(wire.count_status(486), 3);
}

TEST_F(InviteServerTest, AckStopsRetransmissionAndConfirms) {
  auto txn = make();
  txn->respond(make_response(*invite, 486));
  sim.run_until(SimTime::millis(600));
  const int sent_so_far = wire.count_status(486);
  txn->receive_request(ack_for(invite));
  EXPECT_EQ(txn->state(), ServerState::kConfirmed);
  EXPECT_EQ(acks, 1);
  sim.run_until(SimTime::seconds(3.0));
  EXPECT_EQ(wire.count_status(486), sent_so_far);  // G stopped
  // Timer I (T4=5s) then terminates.
  sim.run_until(SimTime::seconds(6.0));
  EXPECT_EQ(txn->state(), ServerState::kTerminated);
}

TEST_F(InviteServerTest, DuplicateAckAbsorbedInConfirmed) {
  auto txn = make();
  txn->respond(make_response(*invite, 486));
  txn->receive_request(ack_for(invite));
  txn->receive_request(ack_for(invite));
  EXPECT_EQ(acks, 1);
}

TEST_F(InviteServerTest, DuplicateFinalDoesNotExtendTimerH) {
  // The TU answering twice (e.g. a forked context picking a second best
  // response after the first was already sent) must be a no-op: the wire
  // sees one status line, timer H still fires 64*T1 after the FIRST final
  // (not the second), and no orphaned timer event survives the drain.
  auto txn = make();
  txn->respond(make_response(*invite, 486));
  sim.run_until(SimTime::seconds(10.0));
  txn->respond(make_response(*invite, 503));  // late second final: ignored
  EXPECT_EQ(wire.count_status(503), 0);
  EXPECT_EQ(txn->state(), ServerState::kCompleted);
  sim.run_until(SimTime::seconds(31.9));
  EXPECT_EQ(timeouts, 0);
  sim.run_until(SimTime::seconds(32.1));  // H at 32s, not 42s
  EXPECT_EQ(timeouts, 1);
  EXPECT_EQ(txn->state(), ServerState::kTerminated);
  sim.run();
  EXPECT_EQ(sim.pending_count(), 0u);
}

TEST_F(InviteServerTest, ProvisionalAfterFinalIgnored) {
  // A straggling 180 arriving at the TU after the final must not drag the
  // transaction back to Proceeding: timer G would then retransmit the
  // provisional as "last response" and timers G/H would be stranded armed.
  auto txn = make();
  txn->respond(make_response(*invite, 486));
  txn->respond(make_response(*invite, 180));  // late provisional: ignored
  EXPECT_EQ(wire.count_status(180), 0);
  EXPECT_EQ(txn->state(), ServerState::kCompleted);
  // Timer G keeps retransmitting the *final*, not the provisional.
  sim.run_until(SimTime::millis(1600));
  EXPECT_EQ(wire.count_status(486), 3);
  EXPECT_EQ(wire.count_status(180), 0);
  sim.run();
  EXPECT_EQ(txn->state(), ServerState::kTerminated);
  EXPECT_EQ(sim.pending_count(), 0u);
}

TEST_F(InviteServerTest, AckAbsorptionInConfirmedLeavesOnlyTimerI) {
  // Every duplicate ACK in Confirmed is absorbed without touching timer I;
  // the transaction still terminates at T4 and drains clean.
  auto txn = make();
  txn->respond(make_response(*invite, 486));
  txn->receive_request(ack_for(invite));
  EXPECT_EQ(txn->state(), ServerState::kConfirmed);
  for (int i = 0; i < 5; ++i) {
    sim.run_until(SimTime::millis(200 * (i + 1)));
    txn->receive_request(ack_for(invite));
  }
  EXPECT_EQ(acks, 1);
  EXPECT_EQ(txn->state(), ServerState::kConfirmed);
  sim.run_until(SimTime::seconds(6.0));  // I = T4 = 5s after first ACK
  EXPECT_EQ(txn->state(), ServerState::kTerminated);
  sim.run();
  EXPECT_EQ(sim.pending_count(), 0u);
}

TEST_F(InviteServerTest, TimerHTimesOutWithoutAck) {
  auto txn = make();
  txn->respond(make_response(*invite, 486));
  sim.run_until(SimTime::seconds(33.0));
  EXPECT_EQ(timeouts, 1);
  EXPECT_EQ(txn->state(), ServerState::kTerminated);
}

// ---------------------------------------------------------------------------
// Non-INVITE server transaction (17.2.2)
// ---------------------------------------------------------------------------

class NonInviteServerTest : public ::testing::Test {
 protected:
  sim::Simulator sim;
  TimerConfig timers;
  WireLog wire;
  MessagePtr bye = make_request(Method::kBye);

  std::unique_ptr<ServerTransaction> make() {
    return std::make_unique<ServerTransaction>(
        sim, timers, /*is_invite=*/false, bye, wire.sender(),
        ServerCallbacks{});
  }
};

TEST_F(NonInviteServerTest, StartsTrying) {
  auto txn = make();
  EXPECT_EQ(txn->state(), ServerState::kTrying);
}

TEST_F(NonInviteServerTest, RetransmissionInTryingAbsorbedSilently) {
  auto txn = make();
  txn->receive_request(bye);
  EXPECT_EQ(txn->absorbed_count(), 1);
  EXPECT_TRUE(wire.sent.empty());  // nothing to replay yet
}

TEST_F(NonInviteServerTest, RetransmissionInCompletedReplaysFinal) {
  auto txn = make();
  txn->respond(make_response(*bye, 200));
  EXPECT_EQ(txn->state(), ServerState::kCompleted);
  txn->receive_request(bye);
  EXPECT_EQ(wire.count_status(200), 2);
}

TEST_F(NonInviteServerTest, TimerJTerminates) {
  auto txn = make();
  txn->respond(make_response(*bye, 200));
  sim.run_until(SimTime::seconds(33.0));
  EXPECT_EQ(txn->state(), ServerState::kTerminated);
}

TEST_F(NonInviteServerTest, DuplicateFinalDoesNotExtendTimerJ) {
  // Second final from the TU is dropped: one 200 on the wire, timer J still
  // fires 64*T1 after the first final, and the drain leaves no events.
  auto txn = make();
  txn->respond(make_response(*bye, 200));
  sim.run_until(SimTime::seconds(10.0));
  txn->respond(make_response(*bye, 503));  // ignored
  EXPECT_EQ(wire.count_status(503), 0);
  EXPECT_EQ(wire.count_status(200), 1);
  sim.run_until(SimTime::seconds(31.9));
  EXPECT_EQ(txn->state(), ServerState::kCompleted);  // J at 32s, not 42s
  sim.run_until(SimTime::seconds(32.1));
  EXPECT_EQ(txn->state(), ServerState::kTerminated);
  sim.run();
  EXPECT_EQ(sim.pending_count(), 0u);
}

TEST_F(NonInviteServerTest, ProvisionalAfterFinalIgnored) {
  auto txn = make();
  txn->respond(make_response(*bye, 200));
  txn->respond(make_response(*bye, 100));  // late provisional: ignored
  EXPECT_EQ(wire.count_status(100), 0);
  EXPECT_EQ(txn->state(), ServerState::kCompleted);
  // Retransmitted request still replays the final, not the provisional.
  txn->receive_request(bye);
  EXPECT_EQ(wire.count_status(200), 2);
  EXPECT_EQ(wire.count_status(100), 0);
  sim.run();
  EXPECT_EQ(sim.pending_count(), 0u);
}

TEST_F(NonInviteServerTest, NoTimerGRetransmissions) {
  auto txn = make();
  txn->respond(make_response(*bye, 200));
  sim.run_until(SimTime::seconds(20.0));
  EXPECT_EQ(wire.count_status(200), 1);
}

// ---------------------------------------------------------------------------
// Lingering state: a transaction in Completed/Confirmed keeps only what that
// state can still use. Every callback below captures its own token, so a
// token's use_count shows whether the transaction still holds the callback.
// ---------------------------------------------------------------------------

class LingerTest : public ::testing::Test {
 protected:
  using Token = std::shared_ptr<int>;

  static bool held(const Token& token) { return token.use_count() > 1; }

  SendFn sender() {
    return [this, token = send_token](const MessagePtr& m) {
      wire.sent.push_back(m);
    };
  }
  ClientCallbacks client_callbacks() {
    ClientCallbacks callbacks;
    callbacks.on_response = [this, token = response_token](
                                const MessagePtr& m) {
      responses.push_back(m->status_code());
    };
    callbacks.on_timeout = [token = timeout_token] {};
    callbacks.on_terminated = [this, token = terminated_token] {
      ++terminated;
    };
    return callbacks;
  }
  ServerCallbacks server_callbacks() {
    ServerCallbacks callbacks;
    callbacks.on_ack = [this, token = ack_token](const MessagePtr&) {
      ++acks;
    };
    callbacks.on_timeout = [token = timeout_token] {};
    callbacks.on_terminated = [this, token = terminated_token] {
      ++terminated;
    };
    return callbacks;
  }

  sim::Simulator sim;
  TimerConfig timers;
  WireLog wire;
  std::vector<int> responses;
  int acks = 0;
  int terminated = 0;
  Token send_token = std::make_shared<int>();
  Token response_token = std::make_shared<int>();
  Token ack_token = std::make_shared<int>();
  Token timeout_token = std::make_shared<int>();
  Token terminated_token = std::make_shared<int>();
};

TEST_F(LingerTest, NonInviteClientCompletedKeepsOnlyItsKey) {
  const MessagePtr bye = make_request(Method::kBye, "z9hG4bK-bye");
  ClientTransaction txn(sim, timers, /*is_invite=*/false, bye, sender(),
                        client_callbacks());
  txn.start();
  const long pinned = bye.use_count();  // ours, the wire log's, the txn's
  txn.receive_response(make_response(*bye, 200));

  ASSERT_EQ(txn.state(), ClientState::kCompleted);
  EXPECT_EQ(txn.request(), nullptr);
  EXPECT_EQ(bye.use_count(), pinned - 1);
  EXPECT_FALSE(held(send_token));
  EXPECT_FALSE(held(response_token));
  EXPECT_FALSE(held(timeout_token));
  EXPECT_TRUE(held(terminated_token));
  EXPECT_EQ(txn.key().branch, "z9hG4bK-bye");
  EXPECT_EQ(txn.key().sent_by, "client.com");
  EXPECT_EQ(txn.key().method, Method::kBye);

  // A retransmitted final is still absorbed; timer K still ends it.
  txn.receive_response(make_response(*bye, 200));
  EXPECT_EQ(responses, (std::vector<int>{200}));
  sim.run();
  EXPECT_EQ(txn.state(), ClientState::kTerminated);
  EXPECT_EQ(terminated, 1);
}

TEST_F(LingerTest, InviteClientCompletedKeepsRequestToReAck) {
  const MessagePtr invite = make_request(Method::kInvite);
  ClientTransaction txn(sim, timers, /*is_invite=*/true, invite, sender(),
                        client_callbacks());
  txn.start();
  const long pinned = invite.use_count();
  txn.receive_response(make_response(*invite, 486));

  ASSERT_EQ(txn.state(), ClientState::kCompleted);
  EXPECT_EQ(txn.request(), invite);
  EXPECT_EQ(invite.use_count(), pinned);
  EXPECT_TRUE(held(send_token));
  EXPECT_FALSE(held(response_token));
  EXPECT_FALSE(held(timeout_token));
  EXPECT_TRUE(held(terminated_token));

  // A retransmitted non-2xx is re-ACKed, not passed up.
  txn.receive_response(make_response(*invite, 486));
  EXPECT_EQ(wire.count_method(Method::kAck), 2);
  EXPECT_EQ(responses, (std::vector<int>{486}));
  sim.run();
  EXPECT_EQ(terminated, 1);
}

TEST_F(LingerTest, NonInviteServerCompletedReplaysItsFinal) {
  const MessagePtr bye = make_request(Method::kBye);
  ServerTransaction txn(sim, timers, /*is_invite=*/false, bye, sender(),
                        server_callbacks());
  const long pinned = bye.use_count();  // ours and the txn's
  const MessagePtr ok = make_response(*bye, 200);
  txn.respond(ok);

  ASSERT_EQ(txn.state(), ServerState::kCompleted);
  EXPECT_EQ(txn.request(), nullptr);
  EXPECT_EQ(bye.use_count(), pinned - 1);
  EXPECT_TRUE(held(send_token));
  EXPECT_FALSE(held(ack_token));
  EXPECT_FALSE(held(timeout_token));
  EXPECT_TRUE(held(terminated_token));

  // The retransmitted request still gets the same final back.
  txn.receive_request(bye);
  ASSERT_EQ(wire.count_status(200), 2);
  EXPECT_EQ(wire.sent.back(), ok);
  sim.run();
  EXPECT_EQ(terminated, 1);
}

TEST_F(LingerTest, InviteServerCompletedReplaysItsFinal) {
  const MessagePtr invite = make_request(Method::kInvite);
  ServerTransaction txn(sim, timers, /*is_invite=*/true, invite, sender(),
                        server_callbacks());
  const long pinned = invite.use_count();
  const MessagePtr busy = make_response(*invite, 486);
  txn.respond(busy);

  ASSERT_EQ(txn.state(), ServerState::kCompleted);
  EXPECT_EQ(txn.request(), nullptr);
  EXPECT_EQ(invite.use_count(), pinned - 1);
  EXPECT_TRUE(held(send_token));
  EXPECT_TRUE(held(ack_token));
  EXPECT_TRUE(held(timeout_token));
  EXPECT_TRUE(held(terminated_token));

  // The retransmitted INVITE still gets the final back.
  txn.receive_request(invite);
  ASSERT_EQ(wire.count_status(486), 2);
  EXPECT_EQ(wire.sent.back(), busy);
}

TEST_F(LingerTest, InviteServerConfirmedKeepsOnlyItsKey) {
  const MessagePtr invite = make_request(Method::kInvite);
  ServerTransaction txn(sim, timers, /*is_invite=*/true, invite, sender(),
                        server_callbacks());
  const MessagePtr busy = make_response(*invite, 486);
  txn.respond(busy);
  const long pinned = busy.use_count();  // ours, the wire log's, the txn's
  txn.receive_request(ack_for(invite));

  ASSERT_EQ(txn.state(), ServerState::kConfirmed);
  EXPECT_EQ(acks, 1);
  EXPECT_EQ(txn.request(), nullptr);
  EXPECT_EQ(busy.use_count(), pinned - 1);
  EXPECT_FALSE(held(send_token));
  EXPECT_FALSE(held(ack_token));
  EXPECT_FALSE(held(timeout_token));
  EXPECT_TRUE(held(terminated_token));
  EXPECT_EQ(txn.key().method, Method::kInvite);

  // Duplicate ACKs are absorbed silently; timer I still ends it.
  const std::size_t sent = wire.sent.size();
  txn.receive_request(ack_for(invite));
  EXPECT_EQ(wire.sent.size(), sent);
  EXPECT_EQ(acks, 1);
  sim.run();
  EXPECT_EQ(txn.state(), ServerState::kTerminated);
  EXPECT_EQ(terminated, 1);
}

// ---------------------------------------------------------------------------
// TransactionManager
// ---------------------------------------------------------------------------

class ManagerTest : public ::testing::Test {
 protected:
  sim::Simulator sim;
  TimerConfig timers;
  TransactionManager manager{sim, timers};
  WireLog wire;
};

TEST_F(ManagerTest, NewRequestReportsNewRequest) {
  EXPECT_EQ(manager.dispatch(make_request(Method::kInvite)),
            Dispatch::kNewRequest);
}

TEST_F(ManagerTest, RetransmissionHitsServerTransaction) {
  auto invite = make_request(Method::kInvite);
  manager.create_server(invite, wire.sender(), ServerCallbacks{});
  EXPECT_EQ(manager.dispatch(invite), Dispatch::kHandledByServerTxn);
  EXPECT_EQ(manager.active_count(), 1u);
}

TEST_F(ManagerTest, ResponseRoutedToClientTransaction) {
  auto invite = make_request(Method::kInvite);
  std::vector<int> codes;
  ClientCallbacks callbacks;
  callbacks.on_response = [&](const MessagePtr& m) {
    codes.push_back(m->status_code());
  };
  manager.create_client(invite, wire.sender(), std::move(callbacks));
  EXPECT_EQ(manager.dispatch(make_response(*invite, 180)),
            Dispatch::kHandledByClientTxn);
  EXPECT_EQ(codes, (std::vector<int>{180}));
}

TEST_F(ManagerTest, StrayResponseReported) {
  EXPECT_EQ(manager.dispatch(make_response(*make_request(Method::kInvite), 200)),
            Dispatch::kStrayResponse);
}

TEST_F(ManagerTest, TerminatedTransactionsAreRemoved) {
  auto invite = make_request(Method::kInvite);
  manager.create_client(invite, wire.sender(), ClientCallbacks{});
  EXPECT_EQ(manager.active_count(), 1u);
  // 2xx terminates the INVITE client transaction; removal is scheduled.
  manager.dispatch(make_response(*invite, 200));
  sim.run();
  EXPECT_EQ(manager.active_count(), 0u);
}

TEST_F(ManagerTest, AckAfter2xxIsNewRequest) {
  auto invite = make_request(Method::kInvite);
  manager.create_server(invite, wire.sender(), ServerCallbacks{});
  auto* server = manager.find_server(*invite);
  ASSERT_NE(server, nullptr);
  server->respond(make_response(*invite, 200));
  sim.run();  // removal event
  Message ack = Message::request(
      Method::kAck, invite->request_uri(), invite->from(), invite->to(),
      invite->call_id(), CSeq{1, Method::kAck});
  ack.push_via(invite->top_via());
  EXPECT_EQ(manager.dispatch(std::move(ack).finish()),
            Dispatch::kNewRequest);
}

TEST_F(ManagerTest, DistinctBranchesAreDistinctTransactions) {
  manager.create_server(make_request(Method::kInvite, "z9hG4bK-x"),
                        wire.sender(), ServerCallbacks{});
  manager.create_server(make_request(Method::kInvite, "z9hG4bK-y"),
                        wire.sender(), ServerCallbacks{});
  EXPECT_EQ(manager.active_count(), 2u);
  EXPECT_EQ(manager.created_count(), 2u);
}

TEST_F(ManagerTest, InviteAndByeSameDialogAreDistinctTransactions) {
  // Same call-id, different method/branch: separate transactions.
  manager.create_server(make_request(Method::kInvite, "z9hG4bK-i", "c1"),
                        wire.sender(), ServerCallbacks{});
  manager.create_server(make_request(Method::kBye, "z9hG4bK-b", "c1"),
                        wire.sender(), ServerCallbacks{});
  EXPECT_EQ(manager.active_count(), 2u);
}

// ---------------------------------------------------------------------------
// Peer-crash drain: when the far end dies mid-transaction, timers B/F/H
// must fire and the manager must end up empty after the simulator drains —
// the invariant the chaos harness checks after every node-crash schedule.
// ---------------------------------------------------------------------------

TEST_F(ManagerTest, CrashedPeerInviteClientDrainsViaTimerB) {
  auto invite = make_request(Method::kInvite);
  int timeouts = 0;
  ClientCallbacks callbacks;
  callbacks.on_timeout = [&] { ++timeouts; };
  manager.create_client(invite, wire.sender(), std::move(callbacks));
  EXPECT_EQ(manager.active_count(), 1u);
  sim.run();  // no response will ever arrive
  EXPECT_EQ(timeouts, 1);
  EXPECT_EQ(manager.active_count(), 0u);
  EXPECT_EQ(sim.pending_count(), 0u);
  // Timer B fires at 64*T1 = 32s after the last retransmission schedule.
  EXPECT_GE(sim.now(), SimTime::seconds(32.0));
}

TEST_F(ManagerTest, CrashedPeerByeClientDrainsViaTimerF) {
  auto bye = make_request(Method::kBye);
  int timeouts = 0;
  ClientCallbacks callbacks;
  callbacks.on_timeout = [&] { ++timeouts; };
  manager.create_client(bye, wire.sender(), std::move(callbacks));
  sim.run();
  EXPECT_EQ(timeouts, 1);
  EXPECT_EQ(manager.active_count(), 0u);
  EXPECT_GE(wire.count_method(Method::kBye), 2);  // timer E kept retrying
}

TEST_F(ManagerTest, CrashedPeerInviteServerDrainsViaTimerH) {
  auto invite = make_request(Method::kInvite);
  int timeouts = 0;
  ServerCallbacks callbacks;
  callbacks.on_timeout = [&] { ++timeouts; };
  manager.create_server(invite, wire.sender(), std::move(callbacks));
  auto* server = manager.find_server(*invite);
  ASSERT_NE(server, nullptr);
  server->respond(make_response(*invite, 486));
  sim.run();  // the ACK never comes: the upstream peer crashed
  EXPECT_EQ(timeouts, 1);
  EXPECT_EQ(manager.active_count(), 0u);
}

TEST_F(ManagerTest, StatefulRelayDrainsWhenDownstreamCrashes) {
  // The proxy's stateful-relay wiring mid-INVITE: a server transaction
  // upstream and a client transaction toward a peer that just crashed.
  // Timer B answers 408 upstream, timer H then reaps the server leg; no
  // transaction and no simulator event may survive the drain.
  auto invite = make_request(Method::kInvite);
  manager.create_server(invite, wire.sender(), ServerCallbacks{});

  auto fwd = make_request(Method::kInvite, "z9hG4bK-fwd");
  ClientCallbacks callbacks;
  callbacks.on_timeout = [&] {
    if (auto* srv = manager.find_server(*invite)) {
      srv->respond(make_response(*invite, 408));
    }
  };
  manager.create_client(fwd, wire.sender(), std::move(callbacks));
  EXPECT_EQ(manager.active_count(), 2u);

  sim.run();
  // Timer G keeps retransmitting the 408 (the crashed-side ACK never
  // arrives) until timer H gives up; at least one went upstream.
  EXPECT_GE(wire.count_status(408), 1);
  EXPECT_EQ(manager.active_count(), 0u);
  EXPECT_EQ(sim.pending_count(), 0u);
}

TEST_F(ManagerTest, LingeringTransactionsStillMatchByKey) {
  // Matching reads the key a transaction captured at creation, so a
  // transaction that has dropped its request still absorbs retransmissions
  // and retransmitted finals.
  auto bye = make_request(Method::kBye, "z9hG4bK-s");
  manager.create_server(bye, wire.sender(), ServerCallbacks{});
  auto* server = manager.find_server(*bye);
  ASSERT_NE(server, nullptr);
  server->respond(make_response(*bye, 200));
  ASSERT_EQ(server->request(), nullptr);
  EXPECT_EQ(manager.dispatch(bye), Dispatch::kHandledByServerTxn);
  EXPECT_EQ(wire.count_status(200), 2);

  auto fwd = make_request(Method::kBye, "z9hG4bK-c");
  manager.create_client(fwd, wire.sender(), ClientCallbacks{});
  EXPECT_EQ(manager.dispatch(make_response(*fwd, 200)),
            Dispatch::kHandledByClientTxn);
  ASSERT_EQ(manager.find_client(*make_response(*fwd, 200))->request(),
            nullptr);
  EXPECT_EQ(manager.dispatch(make_response(*fwd, 200)),
            Dispatch::kHandledByClientTxn);
  sim.run();
  EXPECT_EQ(manager.active_count(), 0u);
}

TEST_F(ManagerTest, UserTerminatedRunsBeforeTheEntryIsRemoved) {
  auto invite = make_request(Method::kInvite);
  std::size_t active_at_callback = 0;
  ClientCallbacks callbacks;
  callbacks.on_terminated = [&] {
    active_at_callback = manager.active_count();
  };
  manager.create_client(invite, wire.sender(), std::move(callbacks));
  manager.dispatch(make_response(*invite, 200));
  EXPECT_EQ(active_at_callback, 1u);
  EXPECT_EQ(manager.active_count(), 1u);  // removal is a deferred event
  sim.run();
  EXPECT_EQ(manager.active_count(), 0u);
}

TEST_F(ManagerTest, UserTerminatedCallbackRuns) {
  auto invite = make_request(Method::kInvite);
  bool user_terminated = false;
  ClientCallbacks callbacks;
  callbacks.on_terminated = [&] { user_terminated = true; };
  manager.create_client(invite, wire.sender(), std::move(callbacks));
  manager.dispatch(make_response(*invite, 200));
  sim.run();
  EXPECT_TRUE(user_terminated);
}

}  // namespace
}  // namespace svk::txn
