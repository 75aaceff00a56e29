// Allocation contract of the SIP message fast path (DESIGN.md §8): once
// warm, copying a message for forwarding, building a response from a
// request, and copying a URI touch no heap; nor does draining and
// refilling a common::Slab that has peaked. Field shapes are the run's:
// hosts of 18-23 chars, a 28-char Call-ID, the UAC's 19-char and the
// proxies' 26-char stateless branches, and the UAC's SDP body — all too long for std::string's inline buffer, so a string
// member anywhere on these paths would show up as an allocation.
//
// This binary replaces the global operator new with a counting one; the
// counter is thread-local and each contract is measured between two reads
// with no gtest assertion in between.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "common/slab.hpp"
#include "sip/branch.hpp"
#include "sip/intern.hpp"
#include "sip/message.hpp"
#include "sip/uri.hpp"

namespace {

thread_local std::uint64_t t_heap_allocs = 0;

void* counted_alloc(std::size_t size) {
  ++t_heap_allocs;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace svk::sip {
namespace {

constexpr int kWarmup = 256;
constexpr int kMeasured = 10'000;
constexpr std::size_t kWindow = 64;  // messages in flight

/// The INVITE as the UAC emits it and the entry proxy forwards it.
MessagePtr make_uac_invite() {
  const Token uac_host("uac0.caller.example.net");
  Message invite = Message::request(
      Method::kInvite, Uri("user0", "callee.example.net"),
      NameAddr{"", Uri("caller", uac_host), "uac4711"},
      NameAddr{"", Uri("user0", "callee.example.net"), ""},
      SharedText("uac0.caller.example.net-4711"), CSeq{1, Method::kInvite});
  // The UAC's branch generator is seeded like Uac's: address | 1 << 32.
  invite.push_via(Via{udp_protocol(), uac_host,
                      BranchGenerator((1ULL << 32) | 1).next()});
  invite.set_contact(NameAddr{"", Uri("caller", uac_host), ""});
  invite.set_body("v=0 o=sim c=IN IP4 0.0.0.0 m=audio 49170 RTP/AVP 0");
  Message fwd = clone(invite);
  fwd.push_via(Via{udp_protocol(), Token("proxy0.example.net"),
                   stateless_branch(invite.top_via().branch,
                                    "proxy0.example.net")});
  fwd.decrement_max_forwards();
  return std::move(fwd).finish();
}

TEST(MessageAllocTest, FieldsOutgrowTheSmallStringBuffer) {
  // Guards the premise: were these short, std::string members would pass
  // the contracts below without sharing anything.
  const MessagePtr invite = make_uac_invite();
  const std::size_t sso = std::string().capacity();
  EXPECT_GT(invite->call_id().size(), sso);
  for (const Via& via : invite->vias()) EXPECT_GT(via.branch.size(), sso);
  EXPECT_GT(invite->top_via().sent_by.size(), sso);
  EXPECT_GT(invite->from().uri.host().size(), sso);
  EXPECT_GT(invite->body().size(), sso);
}

TEST(MessageAllocTest, WarmForwardCopyMakesNoHeapAllocation) {
  const MessagePtr invite = make_uac_invite();
  // The copy shares the cold block (the Contact) instead of copying it.
  // The hop's Via is built once, as ProxyServer builds its host Token once;
  // the branch is new per transaction and made outside the copy.
  const Via hop{udp_protocol(), Token("proxy1.example.net"),
                stateless_branch(invite->top_via().branch,
                                 "proxy1.example.net")};
  std::vector<MessagePtr> window(kWindow);
  const auto forward_one = [&](int i) {
    Message fwd = clone(*invite);
    fwd.push_via(hop);
    fwd.decrement_max_forwards();
    window[static_cast<std::size_t>(i) % kWindow] = std::move(fwd).finish();
  };
  for (int i = 0; i < kWarmup; ++i) forward_one(i);
  const std::uint64_t before = t_heap_allocs;
  for (int i = 0; i < kMeasured; ++i) forward_one(i);
  const std::uint64_t allocs = t_heap_allocs - before;
  EXPECT_EQ(allocs, 0u);
  EXPECT_EQ(window.front()->vias().size(), 3u);
  EXPECT_EQ(window.front()->cold_headers(), invite->cold_headers());
}

TEST(MessageAllocTest, WarmStatefulInviteForwardMakesNoHeapAllocation) {
  // A dialog-stateful proxy's forward: the copy detaches the shared cold
  // block (the UAC's Contact) to add the stateful mark and Record-Route.
  // The new block comes from the message pool; the mark's text, the
  // proxy's URI and the hop Via are built once, as ProxyServer builds them.
  const MessagePtr invite = make_uac_invite();
  const Token proxy_host("proxy1.example.net");
  const SharedText mark(proxy_host.view());
  const Uri own_uri("", proxy_host);
  const Via hop{udp_protocol(), proxy_host, BranchGenerator(2).next()};
  std::vector<MessagePtr> window(kWindow);
  const auto forward_one = [&](int i) {
    Message fwd = clone(*invite);
    fwd.push_via(hop);
    fwd.decrement_max_forwards();
    fwd.set_header("X-Stateful", mark);
    fwd.prepend_record_route(own_uri);
    window[static_cast<std::size_t>(i) % kWindow] = std::move(fwd).finish();
  };
  for (int i = 0; i < kWarmup; ++i) forward_one(i);
  const std::uint64_t before = t_heap_allocs;
  for (int i = 0; i < kMeasured; ++i) forward_one(i);
  const std::uint64_t allocs = t_heap_allocs - before;
  EXPECT_EQ(allocs, 0u);
  const Message& fwd = *window.front();
  EXPECT_NE(fwd.cold_headers(), invite->cold_headers());
  EXPECT_EQ(fwd.header("X-Stateful"), "proxy1.example.net");
  EXPECT_EQ(fwd.record_routes().front().host(), "proxy1.example.net");
  EXPECT_EQ(fwd.contact(), invite->contact());
  EXPECT_GT(fwd.header("X-Stateful")->size(), std::string().capacity());
}

TEST(MessageAllocTest, WarmResponseFromRequestMakesNoHeapAllocation) {
  // The exit hop's view of the INVITE: three Vias and a Record-Route.
  Message at_uas = clone(*make_uac_invite());
  at_uas.push_via(Via{udp_protocol(), Token("proxy1.example.net"),
                      stateless_branch(at_uas.top_via().branch,
                                       "proxy1.example.net")});
  at_uas.prepend_record_route(Uri("", "proxy1.example.net"));
  const MessagePtr invite = std::move(at_uas).finish();

  std::vector<MessagePtr> window(kWindow);
  const auto respond_one = [&](int i) {
    Message ringing = Message::response(*invite, status::kRinging);
    ringing.to().tag = "uas4711";
    window[static_cast<std::size_t>(i) % kWindow] =
        std::move(ringing).finish();
  };
  for (int i = 0; i < kWarmup; ++i) respond_one(i);
  const std::uint64_t before = t_heap_allocs;
  for (int i = 0; i < kMeasured; ++i) respond_one(i);
  const std::uint64_t allocs = t_heap_allocs - before;
  EXPECT_EQ(allocs, 0u);
  EXPECT_EQ(window.front()->vias().size(), 3u);
  EXPECT_EQ(window.front()->call_id(), invite->call_id());
}

TEST(MessageAllocTest, UriCopyMakesNoHeapAllocation) {
  const Uri source("user0", "uas0.callee.example.net");
  std::vector<Uri> copies(kWindow);
  const std::uint64_t before = t_heap_allocs;
  for (int i = 0; i < kMeasured; ++i) {
    copies[static_cast<std::size_t>(i) % kWindow] = source;
  }
  // NOLINTNEXTLINE(performance-unnecessary-copy-initialization)
  const Uri copied = source;
  const std::uint64_t allocs = t_heap_allocs - before;
  EXPECT_EQ(allocs, 0u);
  EXPECT_EQ(copied, source);
  EXPECT_EQ(copies.back().host(), "uas0.callee.example.net");
}

TEST(SlabAllocTest, DrainAndRefillAfterThreeChunkPeakMakesNoHeapAllocation) {
  // The event store and the state tables drain and refill their slabs
  // every call; once a pool has peaked, neither the erases (freelist
  // pushes) nor the re-emplaces may reallocate anything.
  common::Slab<std::uint64_t> slab;
  constexpr std::size_t kPeak = 3 * common::Slab<std::uint64_t>::kChunkSlots;
  std::vector<common::SlabHandle> handles;
  handles.reserve(kPeak);
  for (std::size_t i = 0; i < kPeak; ++i) handles.push_back(slab.emplace(i));
  ASSERT_EQ(slab.stats().chunk_allocs, 3u);
  const std::uint64_t before = t_heap_allocs;
  for (const common::SlabHandle h : handles) slab.erase(h);
  for (std::size_t i = 0; i < kPeak; ++i) handles[i] = slab.emplace(i);
  const std::uint64_t allocs = t_heap_allocs - before;
  EXPECT_EQ(allocs, 0u);
  EXPECT_EQ(slab.size(), kPeak);
}

}  // namespace
}  // namespace svk::sip
