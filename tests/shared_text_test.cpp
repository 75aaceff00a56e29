// SharedText: the refcounted immutable text behind Call-ID, Via branch and
// body. Covers the comparison surface the rest of the stack relies on,
// empty vs moved-from states, that copies share one block, and a 4-thread
// copy/destroy stress on shared messages (run under ThreadSanitizer in CI:
// ctest -L shared_text).
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "sip/branch.hpp"
#include "sip/message.hpp"
#include "sip/shared_text.hpp"

namespace svk::sip {
namespace {

constexpr std::string_view kCallId = "uac0.caller.example.net-4711";

TEST(SharedTextTest, ComparesWithEveryStringFlavour) {
  const SharedText text(kCallId);
  const std::string as_string(kCallId);
  EXPECT_TRUE(text == as_string);
  EXPECT_TRUE(as_string == text);
  EXPECT_TRUE(text == kCallId);
  EXPECT_TRUE(kCallId == text);
  EXPECT_TRUE(text == "uac0.caller.example.net-4711");
  EXPECT_TRUE("uac0.caller.example.net-4711" == text);
  EXPECT_TRUE(text == SharedText(as_string));  // equal text, distinct blocks

  EXPECT_TRUE(text != "uac0.caller.example.net-4712");
  EXPECT_TRUE(text != std::string("uac0"));
  EXPECT_TRUE(text != std::string_view());
  EXPECT_TRUE(text != SharedText("other"));

  EXPECT_EQ(text.view(), kCallId);
  EXPECT_EQ(text.str(), as_string);
  EXPECT_EQ(text.size(), kCallId.size());
  EXPECT_STREQ(text.data(), as_string.c_str());
  std::ostringstream os;
  os << text;
  EXPECT_EQ(os.str(), as_string);
}

TEST(SharedTextTest, EmptyAndMovedFromAreTheEmptyText) {
  const SharedText empty;
  EXPECT_TRUE(empty.empty());
  EXPECT_EQ(empty.size(), 0u);
  EXPECT_EQ(empty.use_count(), 0u);
  EXPECT_STREQ(empty.data(), "");
  EXPECT_TRUE(empty == "");
  EXPECT_TRUE(empty == std::string());
  // Empty text owns no block, however it was spelled.
  EXPECT_EQ(SharedText("").use_count(), 0u);
  EXPECT_EQ(SharedText(std::string_view()).use_count(), 0u);

  SharedText source(kCallId);
  SharedText target(std::move(source));
  EXPECT_TRUE(source.empty());  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(source.use_count(), 0u);
  EXPECT_TRUE(source == empty);
  EXPECT_EQ(target, kCallId);
  EXPECT_EQ(target.use_count(), 1u);

  SharedText assigned("short");
  assigned = std::move(target);
  EXPECT_TRUE(target.empty());  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(assigned, kCallId);
  EXPECT_EQ(assigned.use_count(), 1u);

  // A moved-from text is fully usable again.
  target = SharedText("reborn");
  EXPECT_EQ(target, "reborn");
}

TEST(SharedTextTest, CopiesShareOneBlock) {
  const SharedText original(kCallId);
  EXPECT_EQ(original.use_count(), 1u);
  {
    // NOLINTNEXTLINE(performance-unnecessary-copy-initialization)
    const SharedText copy = original;
    SharedText assigned;
    assigned = original;
    EXPECT_EQ(copy.data(), original.data());
    EXPECT_EQ(assigned.data(), original.data());
    EXPECT_EQ(original.use_count(), 3u);
    assigned = assigned;  // self-assignment keeps the reference
    EXPECT_EQ(original.use_count(), 3u);
  }
  EXPECT_EQ(original.use_count(), 1u);

  // Equal text built twice is two blocks: sharing comes from copying.
  const SharedText rebuilt(kCallId);
  EXPECT_NE(rebuilt.data(), original.data());
  EXPECT_EQ(rebuilt, original);
}

TEST(SharedTextTest, MessageCopiesAndResponsesShareHeaderText) {
  Message invite = Message::request(
      Method::kInvite, Uri("user0", "callee.example.net"),
      NameAddr{"", Uri("caller", "uac0.caller.example.net"), "uac1"},
      NameAddr{"", Uri("user0", "callee.example.net"), ""},
      SharedText(kCallId), CSeq{1, Method::kInvite});
  invite.push_via(Via{"SIP/2.0/UDP", "uac0.caller.example.net",
                      BranchGenerator(7).next()});
  invite.set_body("v=0 o=sim c=IN IP4 0.0.0.0 m=audio 49170 RTP/AVP 0");

  const Message copy = clone(invite);
  const Message ringing = Message::response(invite, 180);
  EXPECT_EQ(copy.call_id().data(), invite.call_id().data());
  EXPECT_EQ(copy.body().data(), invite.body().data());
  EXPECT_EQ(ringing.call_id().data(), invite.call_id().data());
  EXPECT_EQ(ringing.top_via().branch.data(), invite.top_via().branch.data());
  EXPECT_EQ(invite.call_id().use_count(), 3u);
}

TEST(SharedTextTest, ExtensionHeaderValuesShareOneBlock) {
  // A proxy builds its stateful mark once; every message it marks, and
  // every copy that detaches the cold block to add a header, shares it.
  const SharedText mark("proxy0.example.net");
  Message invite = Message::request(
      Method::kInvite, Uri("user0", "callee.example.net"),
      NameAddr{"", Uri("caller", "uac0.caller.example.net"), "uac1"},
      NameAddr{"", Uri("user0", "callee.example.net"), ""},
      SharedText(kCallId), CSeq{1, Method::kInvite});
  invite.set_header("X-Stateful", mark);
  Message detached = clone(invite);
  detached.set_header("X-Other", "1");
  ASSERT_NE(detached.cold_headers(), invite.cold_headers());
  EXPECT_EQ(detached.header("X-Stateful")->data(), mark.data());
  EXPECT_EQ(invite.header("X-Stateful")->data(), mark.data());
  EXPECT_EQ(mark.use_count(), 3u);
}

TEST(SharedTextTest, HashMatchesStdStringHash) {
  // Containers re-keyed from std::string keep their bucket order.
  const SharedText text(kCallId);
  EXPECT_EQ(std::hash<SharedText>{}(text),
            std::hash<std::string>{}(std::string(kCallId)));
  std::unordered_map<SharedText, int> map;
  map.emplace(text, 1);
  EXPECT_EQ(map.count(SharedText(std::string(kCallId))), 1u);
}

// Four threads copy and drop headers of the same shared messages at once.
// The messages carry Contact, Route, Record-Route and an extension header,
// so the copies share cold-header blocks too; half the copies detach theirs
// by adding a header while other threads still share the original block.
// Every refcount must balance (no leak, no double free: ASan/TSan builds
// flag either) and the text must never tear.
TEST(SharedTextTest, ConcurrentCopyAndDestroyOfSharedMessages) {
  constexpr int kThreads = 4;
  constexpr int kMessages = 16;
  constexpr int kRounds = 4000;

  std::vector<MessagePtr> shared;
  BranchGenerator branches(11);
  const SharedText body("v=0 o=sim c=IN IP4 0.0.0.0 m=audio 49170 RTP/AVP 0");
  for (int i = 0; i < kMessages; ++i) {
    std::string call_id(kCallId);
    call_id += std::to_string(i);
    Message msg = Message::request(
        Method::kInvite, Uri("user0", "callee.example.net"),
        NameAddr{"", Uri("caller", "uac0.caller.example.net"), "uac1"},
        NameAddr{"", Uri("user0", "callee.example.net"), ""},
        SharedText(call_id), CSeq{1, Method::kInvite});
    msg.push_via(Via{"SIP/2.0/UDP", "uac0.caller.example.net",
                     branches.next()});
    msg.set_body(body);
    msg.set_contact(
        NameAddr{"", Uri("caller", "uac0.caller.example.net"), ""});
    msg.set_routes({Uri("", "proxy0.example.net")});
    msg.prepend_record_route(Uri("", "edge.example.net"));
    msg.set_header("X-Origin", "uac0.caller.example.net");
    shared.push_back(std::move(msg).finish());
  }
  const SharedText hop_branch = branches.next();
  const SharedText mark("proxy0.example.net");

  std::atomic<bool> go{false};
  std::atomic<int> torn{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      while (!go.load(std::memory_order_acquire)) {
      }
      std::vector<MessagePtr> held;
      for (int r = 0; r < kRounds; ++r) {
        const MessagePtr& src =
            shared[static_cast<std::size_t>((r + t) % kMessages)];
        Message fwd = clone(*src);
        fwd.push_via(Via{"SIP/2.0/UDP", "proxy0.example.net", hop_branch});
        const bool detach = r % 2 == 0;
        if (detach) {
          fwd.set_header("X-Stateful", mark);
          fwd.pop_route();
        }
        Message resp = Message::response(fwd, 180);
        if (!resp.call_id().view().starts_with(kCallId) ||
            resp.body().size() != 0 || fwd.body() != src->body() ||
            fwd.contact() != src->contact() ||
            fwd.record_routes() != src->record_routes() ||
            resp.record_routes() != src->record_routes() ||
            fwd.header("X-Origin") != src->header("X-Origin") ||
            (fwd.cold_headers() == src->cold_headers()) == detach ||
            fwd.routes().size() != (detach ? 0u : 1u) ||
            src->routes().size() != 1u) {
          torn.fetch_add(1, std::memory_order_relaxed);
        }
        held.push_back(std::move(fwd).finish());
        // Keep a rolling window so blocks are released on this thread
        // while other threads still hold copies of the same text.
        if (held.size() > 32) held.erase(held.begin());
      }
    });
  }
  go.store(true, std::memory_order_release);
  for (std::thread& w : workers) w.join();

  EXPECT_EQ(torn.load(), 0);
  // Every worker copy has been released: only `shared` holds the text.
  for (const MessagePtr& msg : shared) {
    EXPECT_EQ(msg->call_id().use_count(), 1u);
  }
  EXPECT_EQ(body.use_count(), static_cast<std::uint32_t>(kMessages + 1));
  EXPECT_EQ(hop_branch.use_count(), 1u);
  EXPECT_EQ(mark.use_count(), 1u);
}

}  // namespace
}  // namespace svk::sip
