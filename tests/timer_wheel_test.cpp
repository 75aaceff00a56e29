// Timer-wheel event store: ordering vs a sort-based oracle, eager-cancel
// memory behavior, zero-allocation steady state, schedule/cancel-heavy
// determinism, and a pinned cascade count for a call-shaped schedule.
// These pin the contracts the simulator relies on (see
// src/sim/timer_wheel.hpp for the invariants being exercised).
#include <algorithm>
#include <array>
#include <cstdint>
#include <deque>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/md5.hpp"
#include "common/rng.hpp"
#include "common/sim_time.hpp"
#include "sim/simulator.hpp"
#include "sim/timer_wheel.hpp"
#include "sip/message.hpp"
#include "sip/message_pool.hpp"
#include "sip/parser.hpp"

namespace svk::sim {
namespace {

using svk::Rng;

constexpr std::int64_t kNever = std::numeric_limits<std::int64_t>::max();

/// Delays spanning every wheel regime: same time, same tick, low levels,
/// RFC 3261 timer scale, high levels, the top level, and "never" (an
/// event at SimTime::max(), the last tick of the top level).
std::int64_t random_delay_ns(Rng& rng) {
  switch (rng.uniform_int(7)) {
    case 0: return 0;                                             // same time
    case 1: return static_cast<std::int64_t>(rng.uniform_int(1024));
    case 2: return static_cast<std::int64_t>(rng.uniform_int(500'000));
    case 3: return 500'000'000 +                                  // timer A..F
                   static_cast<std::int64_t>(rng.uniform_int(63'500'000'000));
    case 4: return static_cast<std::int64_t>(rng.uniform_int(1ll << 46));
    case 5:                                                       // top level
      return static_cast<std::int64_t>(rng.uniform_int(1ll << 62));
    default: return kNever;
  }
}

/// now + delay, saturating at SimTime::max().
std::int64_t time_after(std::int64_t now, std::int64_t delay) {
  return delay > kNever - now ? kNever : now + delay;
}

// ---------------------------------------------------------------------------
// Ordering: the wheel must pop events in exactly (time, key) order, keys
// here being the schedule order. Oracle: a sorted list.
// ---------------------------------------------------------------------------

TEST(TimerWheelTest, MatchesReferenceOrderUnderRandomChurn) {
  Rng rng(0xfeedfaceu);
  TimerWheel wheel;

  struct Expected {
    std::int64_t at;
    std::uint64_t seq;
    EventId id;
  };
  std::vector<Expected> oracle;  // live events, unsorted
  std::vector<std::uint64_t> popped_seqs;
  std::uint64_t next_seq = 0;
  std::int64_t now = 0;

  for (int round = 0; round < 2000; ++round) {
    // Burst of schedules.
    const std::uint64_t burst = 1 + rng.uniform_int(8);
    for (std::uint64_t i = 0; i < burst; ++i) {
      const std::int64_t at = time_after(now, random_delay_ns(rng));
      const std::uint64_t seq = next_seq++;
      const EventId id = wheel.insert_keyed(
          SimTime::nanos(at), seq, /*locus=*/0,
          [seq, &popped_seqs] { popped_seqs.push_back(seq); });
      oracle.push_back(Expected{at, seq, id});
    }
    // Some cancels.
    while (!oracle.empty() && rng.uniform() < 0.25) {
      const std::size_t victim = rng.uniform_int(oracle.size());
      ASSERT_TRUE(wheel.cancel(oracle[victim].id));
      oracle.erase(oracle.begin() + static_cast<std::ptrdiff_t>(victim));
    }
    // Pop a few events and check exact (time, seq) order.
    std::sort(oracle.begin(), oracle.end(),
              [](const Expected& a, const Expected& b) {
                return a.at != b.at ? a.at < b.at : a.seq < b.seq;
              });
    const std::uint64_t pops = rng.uniform_int(6);
    for (std::uint64_t i = 0; i < pops && !oracle.empty(); ++i) {
      SimTime at;
      std::uint32_t locus;
      EventAction action;
      ASSERT_TRUE(wheel.pop_until(SimTime::max(), &at, &locus, &action));
      action();
      ASSERT_EQ(at.ns(), oracle.front().at);
      ASSERT_EQ(popped_seqs.back(), oracle.front().seq);
      now = std::max(now, at.ns());
      oracle.erase(oracle.begin());
    }
    ASSERT_EQ(wheel.size(), oracle.size());
  }

  // Drain; order must stay exact to the end.
  std::sort(oracle.begin(), oracle.end(),
            [](const Expected& a, const Expected& b) {
              return a.at != b.at ? a.at < b.at : a.seq < b.seq;
            });
  ASSERT_EQ(oracle.back().at, kNever);  // the top tick was exercised
  for (const Expected& e : oracle) {
    SimTime at;
    std::uint32_t locus;
    EventAction action;
    ASSERT_TRUE(wheel.pop_until(SimTime::max(), &at, &locus, &action));
    action();
    ASSERT_EQ(at.ns(), e.at);
    ASSERT_EQ(popped_seqs.back(), e.seq);
  }
  EXPECT_EQ(wheel.size(), 0u);
  EXPECT_FALSE(wheel.pop_until(SimTime::max(), nullptr, nullptr, nullptr));
}

TEST(TimerWheelTest, SameTickEventsPopByTimeThenKey) {
  // A level-0 slot is one 1.024 us tick, so events a few ns apart share
  // it. Time must still decide before key: the later-keyed earlier event
  // pops first.
  TimerWheel wheel;
  const std::int64_t tick = std::int64_t{1} << TimerWheel::kTickBits;
  const std::int64_t base = 7 * tick;
  wheel.insert_keyed(SimTime::nanos(base + 9), make_order_key(1, 1), 1,
                     EventAction([] {}));
  wheel.insert_keyed(SimTime::nanos(base + 3), make_order_key(4, 1), 4,
                     EventAction([] {}));
  wheel.insert_keyed(SimTime::nanos(base + 9), make_order_key(0, 5), 0,
                     EventAction([] {}));
  SimTime at;
  std::uint32_t locus;
  EventAction action;
  std::vector<std::uint32_t> order;
  // Nothing is due before the tick's first event.
  EXPECT_FALSE(wheel.pop_until(SimTime::nanos(base + 2), &at, &locus,
                               &action));
  while (wheel.pop_until(SimTime::max(), &at, &locus, &action)) {
    order.push_back(locus);
  }
  EXPECT_EQ(order, (std::vector<std::uint32_t>{4, 0, 1}));
}

// ---------------------------------------------------------------------------
// Memory behavior under heavy schedule/cancel churn.
// ---------------------------------------------------------------------------

TEST(TimerWheelTest, CancelIsEagerAndCapacityStaysBounded) {
  Simulator sim;
  constexpr std::size_t kBatch = 20'000;

  // Warm the pool with one full batch.
  std::vector<EventId> ids;
  ids.reserve(kBatch);
  for (std::size_t i = 0; i < kBatch; ++i) {
    ids.push_back(sim.schedule(SimTime::seconds(1.0 + double(i % 180)),
                               [] {}));
  }
  EXPECT_EQ(sim.pending_count(), kBatch);
  for (EventId id : ids) sim.cancel(id);
  // Eager removal: the count drops to zero immediately, with no tombstones
  // waiting for the clock to pass them.
  EXPECT_EQ(sim.pending_count(), 0u);

  const std::size_t capacity_after_warmup = sim.event_store().node_capacity();
  const std::uint64_t slabs_after_warmup = sim.event_stats().slab_allocs;
  EXPECT_GE(capacity_after_warmup, kBatch);

  // Many more churn rounds, 30% of events at day scale (the wheel's high
  // levels): capacity and slab count must not move.
  Rng rng(7);
  for (int round = 0; round < 50; ++round) {
    ids.clear();
    for (std::size_t i = 0; i < kBatch; ++i) {
      const double delay =
          rng.uniform() < 0.3 ? 3600.0 * 24 * (1 + double(rng.uniform_int(30)))
                              : 0.5 + double(rng.uniform_int(64));
      ids.push_back(sim.schedule(SimTime::seconds(delay), [] {}));
    }
    for (EventId id : ids) sim.cancel(id);
    ASSERT_EQ(sim.pending_count(), 0u);
  }
  EXPECT_EQ(sim.event_store().node_capacity(), capacity_after_warmup);
  EXPECT_EQ(sim.event_stats().slab_allocs, slabs_after_warmup);

  // Stale cancels remain harmless no-ops.
  sim.cancel(0);
  sim.cancel(ids.front());
  sim.cancel(0xdeadbeefdeadbeefull);
  EXPECT_EQ(sim.pending_count(), 0u);
}

TEST(TimerWheelTest, SteadyStateSchedulingAllocatesNothing) {
  Simulator sim;

  // 256 self-rescheduling timers plus per-tick schedule/cancel churn: the
  // working set of live events is constant, so after warmup the slab pool
  // must never grow again. This is the zero-heap-allocation-per-event
  // assertion, made via pool statistics.
  constexpr int kTimers = 256;
  struct Churn {
    Simulator* sim;
    SimTime period;
    std::uint64_t ticks = 0;
    EventId cancelled_probe = 0;
    void arm() {
      // Each tick also schedules a probe and cancels it — exercising the
      // cancel path's node recycling inside the steady loop.
      cancelled_probe = sim->schedule(SimTime::millis(250), [] {});
      sim->cancel(cancelled_probe);
      ++ticks;
      sim->schedule(period, [this] { arm(); });
    }
  };
  std::array<Churn, kTimers> churns;
  for (int i = 0; i < kTimers; ++i) {
    churns[i] = Churn{&sim, SimTime::micros(50 + i % 100)};
    churns[i].arm();
  }

  sim.run_until(SimTime::seconds(1.0));
  const std::uint64_t warm_slabs = sim.event_stats().slab_allocs;
  const std::size_t warm_capacity = sim.event_store().node_capacity();
  const std::uint64_t warm_executed = sim.executed_count();

  sim.run_until(SimTime::seconds(3.0));
  EXPECT_GT(sim.executed_count(), warm_executed + 1'000'000);
  EXPECT_EQ(sim.event_stats().slab_allocs, warm_slabs);
  EXPECT_EQ(sim.event_store().node_capacity(), warm_capacity);
}

// ---------------------------------------------------------------------------
// Determinism: a schedule/cancel-heavy randomized run is bit-reproducible.
// ---------------------------------------------------------------------------

std::string churn_digest(std::uint64_t seed) {
  Simulator sim;
  Rng rng(seed);
  Md5 md5;
  std::vector<EventId> live;
  // Schedule budget: each executed event spawns children only while budget
  // remains, so the run is schedule/cancel-heavy but strictly bounded.
  std::uint64_t budget = 50'000;

  struct Tick {
    Simulator* sim;
    Rng* rng;
    Md5* md5;
    std::vector<EventId>* live;
    std::uint64_t* budget;
    std::uint64_t label;
    void operator()() const {
      // Record execution (virtual time + label) into the digest.
      const std::int64_t t = sim->now().ns();
      md5->update(std::string_view(reinterpret_cast<const char*>(&t),
                                   sizeof(t)));
      md5->update(std::string_view(reinterpret_cast<const char*>(&label),
                                   sizeof(label)));
      // Reschedule-heavy behavior from inside events, at every delay
      // scale up to SimTime::max().
      for (int i = 0; i < 3 && *budget > 0; ++i) {
        --*budget;
        const std::int64_t at = time_after(t, random_delay_ns(*rng));
        live->push_back(sim->schedule_at(
            SimTime::nanos(at),
            Tick{sim, rng, md5, live, budget,
                 label * 31 + std::uint64_t(i)}));
      }
      while (!live->empty() && rng->uniform() < 0.5) {
        const std::size_t victim = rng->uniform_int(live->size());
        sim->cancel((*live)[victim]);
        live->erase(live->begin() + static_cast<std::ptrdiff_t>(victim));
      }
    }
  };

  for (std::uint64_t i = 0; i < 64; ++i) {
    live.push_back(
        sim.schedule(SimTime::nanos(random_delay_ns(rng) % 1000),
                     Tick{&sim, &rng, &md5, &live, &budget, i}));
  }
  sim.run();
  EXPECT_EQ(sim.now(), SimTime::max());
  const auto digest = md5.digest();
  return to_hex(digest);
}

TEST(TimerWheelTest, ChurnHeavyScheduleIsBitReproducible) {
  for (std::uint64_t seed : {1ull, 0x5151ull, 0xabcdef99ull}) {
    SCOPED_TRACE(seed);
    const std::string first = churn_digest(seed);
    const std::string second = churn_digest(seed);
    EXPECT_EQ(first, second);
    EXPECT_NE(first, churn_digest(seed + 1));
  }
}

// ---------------------------------------------------------------------------
// Run-horizon edge cases: the harness drives the simulator through
// successive run_until() slices (warm-up, then measurement windows) and
// schedules between them. These pin the wheel behaviors that relies on:
// rescheduling an event past a slice's horizon, key-order ties between an
// event that travelled down from the top level and one placed near the
// cursor, and a slice that stops short of a far event leaving the cursor
// at or before its horizon, so a schedule between slices still orders.
// ---------------------------------------------------------------------------

TEST(TimerWheelTest, RescheduleAcrossWindowBoundaryFiresOnceAtNewTime) {
  Simulator sim;
  std::vector<std::int64_t> fired;
  EventId id =
      sim.schedule_at(SimTime::micros(50),
                      [&fired, &sim] { fired.push_back(sim.now().ns()); });
  sim.schedule_at(SimTime::micros(40), [&] {
    // Move the 50us event past the first slice's 100us horizon.
    id = sim.reschedule(id, SimTime::micros(110),
                        [&fired, &sim] { fired.push_back(sim.now().ns()); });
  });

  sim.run_until(SimTime::micros(100));
  EXPECT_TRUE(fired.empty());  // the original 50us firing must be gone
  sim.run_until(SimTime::micros(200));
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0], SimTime::micros(150).ns());
}

TEST(TimerWheelTest, TopLevelAndNearEventsTieOnSameTickByKey) {
  TimerWheel wheel;
  // T is 2^62 ns out, so the first insert lands in the top level. Its key
  // says locus 2.
  const SimTime t = SimTime::nanos((1ll << 62) + 12345);
  wheel.insert_keyed(t, make_order_key(2, 1), /*locus=*/2, EventAction([] {}));

  // Drain an intermediate event to advance the cursor; popping T later
  // cascades it down through every level.
  wheel.insert_keyed(SimTime::seconds(1.0), make_order_key(3, 1), 3,
                     EventAction([] {}));
  SimTime at;
  std::uint32_t locus;
  EventAction action;
  ASSERT_TRUE(wheel.pop_until(SimTime::max(), &at, &locus, &action));
  EXPECT_EQ(locus, 3u);

  // A direct insert at exactly T with a smaller key (locus 1) must pop
  // BEFORE the cascaded event: same time, key order decides.
  wheel.insert_keyed(t, make_order_key(1, 7), /*locus=*/1, EventAction([] {}));
  ASSERT_TRUE(wheel.pop_until(SimTime::max(), &at, &locus, &action));
  EXPECT_EQ(at, t);
  EXPECT_EQ(locus, 1u);
  ASSERT_TRUE(wheel.pop_until(SimTime::max(), &at, &locus, &action));
  EXPECT_EQ(at, t);
  EXPECT_EQ(locus, 2u);
  EXPECT_FALSE(wheel.pop_until(SimTime::max(), &at, &locus, &action));
}

TEST(TimerWheelTest, ScheduleAfterShortRunKeepsTimeOrder) {
  Simulator sim;
  std::vector<std::int64_t> fired;
  const auto record = [&fired, &sim] { fired.push_back(sim.now().ns()); };

  // Only a far-future event exists: running to a horizon short of it must
  // not cascade toward it, which would move the cursor past the horizon.
  sim.schedule_at(SimTime::millis(10), record);
  sim.run_until(SimTime::micros(100));
  EXPECT_TRUE(fired.empty());
  EXPECT_EQ(sim.now(), SimTime::micros(100));
  EXPECT_EQ(sim.event_stats().cascades, 0u);

  // A schedule between slices lands between the horizon and the far event.
  sim.schedule_at(SimTime::micros(150), record);
  sim.run_until(SimTime::millis(1));
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0], SimTime::micros(150).ns());

  sim.run_until(SimTime::millis(20));
  ASSERT_EQ(fired.size(), 2u);
  EXPECT_EQ(fired[1], SimTime::millis(10).ns());
}

// ---------------------------------------------------------------------------
// Cascade gate: a deterministic count over a call-shaped schedule stands in
// for a wall-clock gate on the event core. A change to the tick width, the
// level layout or when the wheel cascades moves it.
// ---------------------------------------------------------------------------

/// Starts `calls` calls 100 us apart. Each walks 8 hops of 0.5 ms (link
/// plus CPU), re-arming a 500 ms Timer A/E at every hop and cancelling it
/// at the last, then arms a 5 s Timer K and a 32 s Timer J.
TimerWheel::Stats call_shaped_stats(int calls) {
  struct Call {
    Simulator* sim;
    EventId retransmit = 0;
    int hops_left = 8;
    void hop() {
      retransmit = sim->reschedule(retransmit, SimTime::millis(500), [] {});
      if (--hops_left > 0) {
        sim->schedule(SimTime::micros(500), [this] { hop(); });
        return;
      }
      sim->cancel(retransmit);
      sim->schedule(SimTime::seconds(5.0), [] {});   // Timer K
      sim->schedule(SimTime::seconds(32.0), [] {});  // Timer J
    }
  };
  Simulator sim;
  std::vector<Call> state(static_cast<std::size_t>(calls), Call{&sim});
  for (int i = 0; i < calls; ++i) {
    sim.schedule_at(SimTime::micros(100 * i), [c = &state[i]] { c->hop(); });
  }
  sim.run();
  return sim.event_stats();
}

TEST(TimerWheelTest, CallShapedScheduleCascadeCountIsPinned) {
  const TimerWheel::Stats s = call_shaped_stats(2000);
  EXPECT_EQ(s.scheduled, 2000u * 18);
  EXPECT_EQ(s.executed, 2000u * 10);
  EXPECT_EQ(s.cancelled, 2000u * 8);
  EXPECT_EQ(s.cascades, 6085u);
}

// ---------------------------------------------------------------------------
// Message pool: the copy-on-forward path recycles its shared blocks.
// ---------------------------------------------------------------------------

TEST(MessagePoolTest, ForwardPathReusesSharedBlocks) {
  using namespace svk::sip;
  Message base = Message::request(
      Method::kInvite, Uri("bob", "biloxi.example.com"),
      NameAddr{"", Uri("alice", "client.test"), "tag-a"},
      NameAddr{"", Uri("bob", "biloxi.example.com"), ""}, "pool-call-1",
      CSeq{1, Method::kInvite});
  base.push_via(Via{"SIP/2.0/UDP", "client.test", "z9hG4bK-pool-0"});
  MessagePtr shared = std::move(base).finish();

  // A sliding window of in-flight messages, as the proxy forward path
  // creates: each new hop's finish() is paired with an old hop's release.
  std::deque<MessagePtr> window;
  constexpr int kWarmup = 512;
  constexpr int kMeasured = 20'000;

  const auto& stats = message_pool_stats();
  std::uint64_t fresh_after_warmup = 0;
  std::uint64_t reuses_after_warmup = 0;

  for (int i = 0; i < kWarmup + kMeasured; ++i) {
    Message fwd = clone(*shared);
    fwd.push_via(Via{"SIP/2.0/UDP", "proxy0.test",
                     "z9hG4bK-pool-" + std::to_string(i)});
    fwd.decrement_max_forwards();
    window.push_back(std::move(fwd).finish());
    if (window.size() > 64) window.pop_front();
    if (i == kWarmup - 1) {
      fresh_after_warmup = stats.fresh_allocs;
      reuses_after_warmup = stats.reuses;
    }
  }

  // Steady state: every finish() was served from the freelist.
  EXPECT_EQ(stats.fresh_allocs, fresh_after_warmup);
  EXPECT_GE(stats.reuses, reuses_after_warmup + kMeasured);
}

// ---------------------------------------------------------------------------
// Interning: hot Via strings stay bounded and compare correctly.
// ---------------------------------------------------------------------------

TEST(InternTest, RepeatedViaStringsDoNotGrowTheTable) {
  using namespace svk::sip;
  const std::size_t before = intern_table_size();
  for (int i = 0; i < 10'000; ++i) {
    const Via via{"SIP/2.0/UDP", "intern-host.test",
                  "z9hG4bK-" + std::to_string(i)};
    ASSERT_EQ(via.sent_by, "intern-host.test");
  }
  // One new host (plus possibly the protocol on the very first run): the
  // 10k distinct branches must not intern anything.
  EXPECT_LE(intern_table_size(), before + 2);

  const Token a{"intern-host.test"};
  const Token b{std::string_view("intern-host.test")};
  EXPECT_EQ(a, b);
  EXPECT_EQ(a, std::string_view("intern-host.test"));
  EXPECT_EQ(a.str(), "intern-host.test");
}

TEST(InternTest, UriHostsInternButUsersDoNot) {
  using namespace svk::sip;
  (void)sip_scheme();  // the default scheme: interned once per process
  const std::size_t before = intern_table_size();
  std::string user;
  for (int i = 0; i < 10'000; ++i) {
    user = "subscriber";
    user += std::to_string(i);
    const Uri uri(user, "uri-host.callee.example.net");
    ASSERT_EQ(uri.host(), "uri-host.callee.example.net");
    ASSERT_EQ(uri.user(), user);
  }
  // One host; the 10k distinct users stay plain strings.
  EXPECT_LE(intern_table_size(), before + 1);
  const Uri parsed =
      Uri::parse("sip:subscriber7@uri-host.callee.example.net").value();
  EXPECT_EQ(parsed.host(), Uri("x", "uri-host.callee.example.net").host());
  EXPECT_EQ(parsed.scheme(), "sip");
  EXPECT_LE(intern_table_size(), before + 1);
}

}  // namespace
}  // namespace svk::sim
