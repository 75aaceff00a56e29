// Direct tests of the user-agent layer: the UAS's 2xx retransmission
// machinery (RFC 3261 13.3.1.4), duplicate handling, and the UAC's
// response-path behaviours, driven by a scripted peer over the simulated
// network (no proxy in between).
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "workload/testbed.hpp"
#include "workload/uac.hpp"
#include "workload/uas.hpp"

namespace svk::workload {
namespace {

using sip::CSeq;
using sip::Message;
using sip::MessagePtr;
using sip::Method;
using sip::NameAddr;
using sip::Uri;
using sip::Via;

/// Scripted peer: records everything, sends raw messages.
class Peer {
 public:
  Peer(TestBed& bed, const std::string& host)
      : bed_(bed), host_(host), addr_(bed.declare_host(host)) {
    bed_.network().attach(addr_, [this](Address, const MessagePtr& msg) {
      inbox_.push_back(msg);
    });
  }

  void send(Address to, const Message& msg) {
    bed_.network().send(addr_, to, sip::clone(msg).finish());
  }

  [[nodiscard]] Address address() const { return addr_; }
  [[nodiscard]] std::vector<MessagePtr>& inbox() { return inbox_; }
  [[nodiscard]] int count_status(int code) const {
    int n = 0;
    for (const auto& m : inbox_) {
      if (m->is_response() && m->status_code() == code) ++n;
    }
    return n;
  }

 private:
  TestBed& bed_;
  std::string host_;
  Address addr_;
  std::vector<MessagePtr> inbox_;
};

class UaFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    bed = std::make_unique<TestBed>(11);
    peer = std::make_unique<Peer>(*bed, "peer.test");
    UasConfig config;
    config.host = "uas.test";
    uas = &bed->add_uas(config);
  }

  Message make_invite(const std::string& call_id = "c1") {
    Message msg = Message::request(
        Method::kInvite, Uri("bob", "uas.test"),
        NameAddr{"", Uri("alice", "peer.test"), "tag-a"},
        NameAddr{"", Uri("bob", "uas.test"), ""}, call_id,
        CSeq{1, Method::kInvite});
    msg.push_via(Via{"SIP/2.0/UDP", "peer.test", "z9hG4bK-" + call_id});
    return msg;
  }

  Message make_ack(const Message& ok) {
    Message ack = Message::request(
        Method::kAck, Uri("bob", "uas.test"), ok.from(), ok.to(),
        ok.call_id(), CSeq{1, Method::kAck});
    ack.push_via(Via{"SIP/2.0/UDP", "peer.test", "z9hG4bK-ack"});
    return ack;
  }

  std::unique_ptr<TestBed> bed;
  std::unique_ptr<Peer> peer;
  Uas* uas = nullptr;
};

TEST_F(UaFixture, AnswersInviteWith180Then200) {
  peer->send(uas->config().address, make_invite());
  bed->sim().run_until(SimTime::millis(50));
  EXPECT_EQ(peer->count_status(180), 1);
  EXPECT_EQ(peer->count_status(200), 1);
  // 180 and 200 carry the same UAS tag.
  std::string tag_180, tag_200;
  for (const auto& m : peer->inbox()) {
    if (!m->is_response()) continue;
    if (m->status_code() == 180) tag_180 = m->to().tag;
    if (m->status_code() == 200) tag_200 = m->to().tag;
  }
  EXPECT_FALSE(tag_180.empty());
  EXPECT_EQ(tag_180, tag_200);
}

TEST_F(UaFixture, Two200sShareOneContactBlockUntilOneIsMutated) {
  // The UAS builds its Contact block once; every 200 without a mirrored
  // Record-Route adopts it instead of building its own.
  peer->send(uas->config().address, make_invite("c1"));
  peer->send(uas->config().address, make_invite("c2"));
  bed->sim().run_until(SimTime::millis(50));
  std::vector<MessagePtr> oks;
  for (const auto& m : peer->inbox()) {
    if (m->is_response() && m->status_code() == 200) oks.push_back(m);
  }
  ASSERT_EQ(oks.size(), 2u);
  ASSERT_NE(oks[0]->cold_headers(), nullptr);
  EXPECT_EQ(oks[0]->cold_headers(), oks[1]->cold_headers());
  ASSERT_TRUE(oks[0]->contact().has_value());
  EXPECT_EQ(oks[0]->contact()->uri, uas->contact_uri());
  EXPECT_NE(oks[0]->call_id(), oks[1]->call_id());

  // Mutating a copy of one detaches it; the other keeps the shared block.
  Message changed = sip::clone(*oks[0]);
  changed.set_contact(NameAddr{{}, Uri("moved", "elsewhere.test"), {}});
  changed.set_header("X-Test", "1");
  EXPECT_NE(changed.cold_headers(), oks[1]->cold_headers());
  EXPECT_EQ(changed.contact()->uri.user(), "moved");
  EXPECT_EQ(oks[0]->cold_headers(), oks[1]->cold_headers());
  EXPECT_EQ(oks[1]->contact()->uri, uas->contact_uri());
  EXPECT_FALSE(oks[1]->header("X-Test").has_value());
}

TEST_F(UaFixture, Retransmits200UntilAcked) {
  peer->send(uas->config().address, make_invite());
  // No ACK for 2.2 seconds: 200 retransmits at 0.5, 1.5 (doubling)...
  bed->sim().run_until(SimTime::seconds(2.2));
  EXPECT_GE(peer->count_status(200), 3);
  EXPECT_GE(uas->metrics().retransmitted_200, 2u);

  // ACK stops the retransmissions.
  MessagePtr ok;
  for (const auto& m : peer->inbox()) {
    if (m->is_response() && m->status_code() == 200) ok = m;
  }
  peer->send(uas->config().address, make_ack(*ok));
  bed->sim().run_until(SimTime::seconds(2.5));
  const int after_ack = peer->count_status(200);
  bed->sim().run_until(SimTime::seconds(10.0));
  EXPECT_EQ(peer->count_status(200), after_ack);
  EXPECT_EQ(uas->metrics().calls_established, 1u);
}

TEST_F(UaFixture, GivesUpOn200RetransmissionsAfter64T1) {
  peer->send(uas->config().address, make_invite());
  bed->sim().run_until(SimTime::seconds(40.0));  // > 32s deadline
  const int sent = peer->count_status(200);
  bed->sim().run_until(SimTime::seconds(60.0));
  EXPECT_EQ(peer->count_status(200), sent);  // stopped retrying
  EXPECT_EQ(uas->metrics().calls_established, 0u);  // never ACKed
}

TEST_F(UaFixture, DuplicateAckIsHarmless) {
  peer->send(uas->config().address, make_invite());
  bed->sim().run_until(SimTime::millis(50));
  MessagePtr ok;
  for (const auto& m : peer->inbox()) {
    if (m->is_response() && m->status_code() == 200) ok = m;
  }
  ASSERT_TRUE(ok);
  peer->send(uas->config().address, make_ack(*ok));
  peer->send(uas->config().address, make_ack(*ok));
  bed->sim().run_until(SimTime::millis(200));
  EXPECT_EQ(uas->metrics().calls_established, 1u);
}

TEST_F(UaFixture, RetransmittedInviteAfter200ReplaysThe200) {
  const Message invite = make_invite();
  peer->send(uas->config().address, invite);
  bed->sim().run_until(SimTime::millis(50));
  EXPECT_EQ(peer->count_status(200), 1);
  // Same INVITE again (the INVITE server transaction is gone after 2xx,
  // but the UAS core still waits for the ACK).
  peer->send(uas->config().address, invite);
  bed->sim().run_until(SimTime::millis(100));
  EXPECT_EQ(peer->count_status(200), 2);
  EXPECT_EQ(uas->metrics().invites_received, 1u);  // not a new call
}

TEST_F(UaFixture, ByeForUnknownDialogStillAnswered) {
  Message bye = Message::request(
      Method::kBye, Uri("bob", "uas.test"),
      NameAddr{"", Uri("alice", "peer.test"), "tag-a"},
      NameAddr{"", Uri("bob", "uas.test"), "tag-b"}, "ghost",
      CSeq{2, Method::kBye});
  bye.push_via(Via{"SIP/2.0/UDP", "peer.test", "z9hG4bK-bye"});
  peer->send(uas->config().address, bye);
  bed->sim().run_until(SimTime::millis(50));
  // Our simple UAS answers any BYE with 200 (SIPp does the same).
  EXPECT_EQ(peer->count_status(200), 1);
}

TEST_F(UaFixture, AnswerDelayHoldsThe200) {
  UasConfig config;
  config.host = "slow.test";
  config.answer_delay = SimTime::seconds(1.0);
  Uas& slow = bed->add_uas(config);

  Message invite = make_invite("c-slow");
  invite.set_request_uri(Uri("bob", "slow.test"));
  peer->send(slow.config().address, invite);
  bed->sim().run_until(SimTime::millis(500));
  EXPECT_EQ(peer->count_status(180), 1);
  EXPECT_EQ(peer->count_status(200), 0);
  bed->sim().run_until(SimTime::millis(1200));
  EXPECT_EQ(peer->count_status(200), 1);
}

TEST_F(UaFixture, UacIgnoresStrayRequests) {
  UacConfig config;
  config.host = "uac.test";
  config.first_hop = peer->address();
  config.target_domain = "nowhere.test";
  config.call_rate_cps = 0.0;
  Uac& uac = bed->add_uac(std::move(config));
  // A request sent at a UAC must be ignored, not crash.
  peer->send(*bed->registry().resolve("uac.test"), make_invite("to-uac"));
  bed->sim().run_until(SimTime::millis(100));
  EXPECT_EQ(uac.metrics().calls_attempted, 0u);
}

}  // namespace
}  // namespace svk::workload
