// Admission-policy tests (src/overload): the queue-delay bound (kNone), the
// local occupancy gate, the RFC 7339-style hop-by-hop token-bucket
// throttler, and all three running end to end inside a proxy chain.
// Everything here must be bit-deterministic — the policies use no wall
// clock and no RNG.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "overload/overload.hpp"
#include "sim/cpu_queue.hpp"
#include "workload/runner.hpp"
#include "workload/scenarios.hpp"

namespace svk::overload {
namespace {

SimTime at(double seconds) { return SimTime::seconds(seconds); }

/// CPU backlog for admit() calls whose policy does not read it.
constexpr SimTime kIdle{};

OverloadConfig local_config() {
  OverloadConfig config;
  config.kind = ControlKind::kLocalOccupancy;
  config.smoothing_gain = 1.0;  // take samples verbatim: exact arithmetic
  return config;
}

OverloadConfig hop_config() {
  OverloadConfig config = local_config();
  config.kind = ControlKind::kHopByHopRate;
  return config;
}

// ---------------------------------------------------------------------------
// Queue-delay bound (kNone)
// ---------------------------------------------------------------------------

TEST(QueueBoundTest, NoneKindBuildsQueueBound) {
  auto policy = make_overload_policy(OverloadConfig{}, 1);
  ASSERT_NE(policy, nullptr);
  EXPECT_EQ(policy->name(), "none");
  EXPECT_EQ(policy->control_period(), SimTime{});  // arms no control tick
  EXPECT_LT(policy->advertised_rate(), 0.0);
}

TEST(QueueBoundTest, AdmitsAtBoundRefusesAbove) {
  // The bound reads the real queue: admitted while the backlog ahead is at
  // most the bound, refused (500) once it exceeds it.
  sim::Simulator sim;
  sim::CpuQueue cpu(sim, 1.0);
  OverloadConfig config;
  config.max_queue_delay = SimTime::seconds(2.0);
  auto policy = make_overload_policy(config, 1);
  for (int i = 0; i < 3; ++i) {  // backlog 0s, 1s, 2s == bound: admitted
    EXPECT_EQ(policy->admit(0, sim.now(), cpu.backlog()),
              AdmitDecision::kAdmit)
        << "backlog " << cpu.backlog().to_seconds() << "s";
    cpu.submit(1.0, {});
  }
  EXPECT_EQ(policy->admit(0, sim.now(), cpu.backlog()),  // 3s > bound
            AdmitDecision::kRejectBusy);
  sim.run_until(SimTime::seconds(1.0));  // drained back to the bound
  EXPECT_EQ(policy->admit(0, sim.now(), cpu.backlog()),
            AdmitDecision::kAdmit);
}

// ---------------------------------------------------------------------------
// Local occupancy gate
// ---------------------------------------------------------------------------

TEST(LocalOccupancyTest, AdmitsEverythingBelowTarget) {
  auto policy = make_overload_policy(local_config(), 1);
  policy->on_occupancy_sample(0.5, at(0.2));
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(policy->admit(0, at(0.3), kIdle), AdmitDecision::kAdmit);
  }
  EXPECT_EQ(policy->stats().local_rejects, 0u);
}

TEST(LocalOccupancyTest, ShedsExactFractionAboveTarget) {
  // Target 0.9, occupancy 1.2: accept fraction 0.75, so error diffusion
  // must reject exactly every 4th arrival — 25 of 100, deterministically.
  auto policy = make_overload_policy(local_config(), 1);
  policy->on_occupancy_sample(1.2, at(0.2));
  int rejects = 0;
  for (int i = 0; i < 100; ++i) {
    if (policy->admit(0, at(0.3), kIdle) == AdmitDecision::kRejectLocal) {
      ++rejects;
    }
  }
  EXPECT_EQ(rejects, 25);
  EXPECT_EQ(policy->stats().local_rejects, 25u);
}

TEST(LocalOccupancyTest, EwmaSmoothsSamples) {
  OverloadConfig config = local_config();
  config.smoothing_gain = 0.5;
  auto policy = make_overload_policy(config, 1);
  policy->on_occupancy_sample(1.0, at(0.2));
  EXPECT_DOUBLE_EQ(policy->stats().smoothed_occupancy, 0.5);
  policy->on_occupancy_sample(1.0, at(0.4));
  EXPECT_DOUBLE_EQ(policy->stats().smoothed_occupancy, 0.75);
  // One spike sample does not open the gate at gain 0.5 from 0.
  EXPECT_EQ(policy->stats().occupancy_samples, 2u);
}

TEST(LocalOccupancyTest, NeverAdvertisesARate) {
  auto policy = make_overload_policy(local_config(), 1);
  policy->on_occupancy_sample(2.0, at(0.2));
  EXPECT_LT(policy->advertised_rate(), 0.0);
}

// ---------------------------------------------------------------------------
// Hop-by-hop throttler (token bucket per path)
// ---------------------------------------------------------------------------

TEST(HopByHopTest, BucketEnforcesAdvertisedRate) {
  auto policy = make_overload_policy(hop_config(), 1);
  // rate 10/s, bucket_depth_s 0.2 -> burst of 2 tokens.
  policy->on_rate_advertisement(0, 10.0, at(1.0));
  EXPECT_EQ(policy->admit(0, at(1.0), kIdle), AdmitDecision::kAdmit);
  EXPECT_EQ(policy->admit(0, at(1.0), kIdle), AdmitDecision::kAdmit);
  EXPECT_EQ(policy->admit(0, at(1.0), kIdle), AdmitDecision::kRejectThrottled);
  EXPECT_EQ(policy->stats().throttled_rejects, 1u);

  // 0.5s later the lazy refill has accrued 5 tokens, capped at depth 2.
  policy->on_rate_advertisement(0, 10.0, at(1.5));  // refresh, same rate
  EXPECT_EQ(policy->admit(0, at(1.5), kIdle), AdmitDecision::kAdmit);
  EXPECT_EQ(policy->admit(0, at(1.5), kIdle), AdmitDecision::kAdmit);
  EXPECT_EQ(policy->admit(0, at(1.5), kIdle), AdmitDecision::kRejectThrottled);
}

TEST(HopByHopTest, AdvertExpiryLiftsThrottle) {
  // An advert not refreshed within advert_validity (1s default) expires:
  // the overloaded hop going quiet must never throttle a path forever.
  auto policy = make_overload_policy(hop_config(), 1);
  policy->on_rate_advertisement(0, 1.0, at(1.0));  // depth max(1, 0.2) = 1
  EXPECT_EQ(policy->admit(0, at(1.0), kIdle), AdmitDecision::kAdmit);
  EXPECT_EQ(policy->admit(0, at(1.0), kIdle), AdmitDecision::kRejectThrottled);
  EXPECT_EQ(policy->admit(0, at(3.0), kIdle),  // expired
            AdmitDecision::kAdmit);
  EXPECT_EQ(policy->stats().throttled_rejects, 1u);
}

TEST(HopByHopTest, UnadvertisedPathRunsUnrestricted) {
  auto policy = make_overload_policy(hop_config(), 2);
  policy->on_rate_advertisement(1, 1.0, at(1.0));
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(policy->admit(0, at(1.0), kIdle), AdmitDecision::kAdmit);
  }
}

TEST(HopByHopTest, Downstream503TaxesActiveBucket) {
  auto policy = make_overload_policy(hop_config(), 1);
  policy->on_rate_advertisement(0, 10.0, at(1.0));  // 2 tokens
  policy->on_downstream_503(0, at(1.0));            // -> 1 token
  EXPECT_EQ(policy->admit(0, at(1.0), kIdle), AdmitDecision::kAdmit);
  EXPECT_EQ(policy->admit(0, at(1.0), kIdle), AdmitDecision::kRejectThrottled);
  EXPECT_EQ(policy->stats().downstream_503, 1u);
}

TEST(HopByHopTest, RestrictorEntersAndLeavesControlledMode) {
  OverloadConfig config = hop_config();  // period 200ms, target 0.9
  auto policy = make_overload_policy(config, 1);
  EXPECT_LT(policy->advertised_rate(), 0.0);

  // 100 arrivals in the period (500/s offered), then an overload sample:
  // advertise offered * target / occupancy = 500 * 0.9 / 1.2 = 375.
  for (int i = 0; i < 100; ++i) (void)policy->admit(0, at(0.1), kIdle);
  policy->on_occupancy_sample(1.2, at(0.2));
  EXPECT_DOUBLE_EQ(policy->advertised_rate(), 375.0);

  // Comfortable recovery (occ < 0.8 * target) for release_periods ticks
  // withdraws the advertisement; each tick first raises the rate by at
  // most increase_factor.
  for (int i = 1; i <= config.release_periods; ++i) {
    EXPECT_GE(policy->advertised_rate(), 0.0) << "released too early";
    policy->on_occupancy_sample(0.1, at(0.2 + 0.2 * i));
  }
  EXPECT_LT(policy->advertised_rate(), 0.0);
  EXPECT_GE(policy->stats().rate_updates, 1u);
}

TEST(HopByHopTest, IdenticalCallSequencesGiveIdenticalDecisions) {
  auto a = make_overload_policy(hop_config(), 1);
  auto b = make_overload_policy(hop_config(), 1);
  std::vector<AdmitDecision> da, db;
  for (auto* policy : {a.get(), b.get()}) {
    auto& out = policy == a.get() ? da : db;
    policy->on_rate_advertisement(0, 25.0, at(1.0));
    policy->on_occupancy_sample(1.1, at(1.0));
    for (int i = 0; i < 200; ++i) {
      out.push_back(policy->admit(0, at(1.0 + 0.001 * i), kIdle));
    }
  }
  EXPECT_EQ(da, db);
  EXPECT_EQ(a->stats().local_rejects, b->stats().local_rejects);
  EXPECT_EQ(a->stats().throttled_rejects, b->stats().throttled_rejects);
}

}  // namespace
}  // namespace svk::overload

// ---------------------------------------------------------------------------
// End to end: the controls inside a two-proxy chain
// ---------------------------------------------------------------------------

namespace svk::workload {
namespace {

using overload::ControlKind;

/// Two proxies in series with the exit node at half the entry's capacity:
/// the bottleneck sits downstream, the shape hop-by-hop feedback exists
/// for. 1/100 scale: entry saturates ~207 cps, exit ~103.6 cps.
ScenarioOptions bottleneck_chain(ControlKind kind) {
  ScenarioOptions options;
  options.policy = PolicyKind::kStaticAllStateful;
  options.capacity_scale = {0.02, 0.01};
  options.overload_control.kind = kind;
  // Deep-buffer regime: with kNone's queue-delay bound this lax, an
  // uncontrolled node absorbs ~1.6 round trips of backlog before shedding,
  // so retransmissions pile up and goodput collapses — the regime the
  // overload controls exist for (only kNone reads the bound).
  options.overload_control.max_queue_delay = SimTime::millis(800);
  return options;
}

struct ChainRun {
  std::unique_ptr<TestBed> bed;
  std::uint64_t busy_503 = 0;
  std::uint64_t calls_rejected = 0;
  std::uint64_t calls_timed_out = 0;
  std::uint64_t backoff_pauses = 0;
};

ChainRun run_chain(ControlKind kind, double offered_cps, double seconds) {
  ChainRun run;
  run.bed = series_chain(2, bottleneck_chain(kind))(offered_cps);
  run.bed->start_load();
  run.bed->sim().run_until(SimTime::seconds(seconds));
  for (const auto& uac : run.bed->uacs()) {
    const UacMetrics& m = uac->metrics();
    run.busy_503 += m.busy_503_received;
    run.calls_rejected += m.calls_rejected;
    run.calls_timed_out += m.calls_timed_out;
    run.backoff_pauses += m.backoff_pauses;
  }
  return run;
}

TEST(OverloadChainTest, LocalGate503RelayedUpstreamWithRetryAfter) {
  // Only the exit node is overloaded, so every 503 originates there and
  // must be relayed through the entry proxy to the UAC (the best-response
  // fix) with its Retry-After intact (witnessed by the backoff pauses).
  const ChainRun run =
      run_chain(ControlKind::kLocalOccupancy, 160.0, 10.0);
  const auto& p0 = run.bed->proxies()[0]->stats();
  const auto& p1 = run.bed->proxies()[1]->stats();
  EXPECT_GT(p1.rejected_503, 0u);
  EXPECT_EQ(p0.rejected_503, 0u);  // the entry itself is not overloaded
  EXPECT_EQ(p0.throttled_503, 0u);
  EXPECT_GT(p0.downstream_503, 0u);  // it saw and relayed the exit's 503s
  EXPECT_GT(run.busy_503, 0u);
  EXPECT_GT(run.calls_rejected, 0u);
  EXPECT_GT(run.backoff_pauses, 0u);  // Retry-After survived the relay
  EXPECT_GT(run.bed->total_completed_calls(), 0u);
}

TEST(OverloadChainTest, HopByHopThrottlesAtTheEntry) {
  // With rate feedback the entry sheds on the exit's behalf: oc adverts
  // flow upstream and most rejections become entry-local throttles, which
  // never cost the bottleneck node a cycle.
  const ChainRun run = run_chain(ControlKind::kHopByHopRate, 160.0, 10.0);
  const auto& p0 = run.bed->proxies()[0]->stats();
  EXPECT_GT(p0.oc_advertisements, 0u);
  EXPECT_GT(p0.throttled_503, 0u);
  EXPECT_GT(run.busy_503, 0u);
  EXPECT_GT(run.backoff_pauses, 0u);
  EXPECT_GT(run.bed->total_completed_calls(), 0u);
}

TEST(OverloadChainTest, ControlledSheddingBeatsCongestionCollapse) {
  // The point of the subsystem: under 1.55x overload the uncontrolled
  // chain drowns in retransmissions and times calls out; both controls
  // must convert slow timeouts into fast 503s and carry more calls.
  const ChainRun none = run_chain(ControlKind::kNone, 160.0, 10.0);
  const ChainRun local =
      run_chain(ControlKind::kLocalOccupancy, 160.0, 10.0);
  const ChainRun hop = run_chain(ControlKind::kHopByHopRate, 160.0, 10.0);

  EXPECT_GT(local.bed->total_completed_calls(),
            none.bed->total_completed_calls());
  EXPECT_GT(hop.bed->total_completed_calls(),
            none.bed->total_completed_calls());
  EXPECT_LT(local.calls_timed_out, none.calls_timed_out + 1);
  EXPECT_LT(hop.calls_timed_out, none.calls_timed_out + 1);
}

TEST(OverloadChainTest, RerunsAreBitIdentical) {
  for (const ControlKind kind :
       {ControlKind::kLocalOccupancy, ControlKind::kHopByHopRate}) {
    const ChainRun a = run_chain(kind, 160.0, 8.0);
    const ChainRun b = run_chain(kind, 160.0, 8.0);
    EXPECT_EQ(a.bed->total_completed_calls(),
              b.bed->total_completed_calls());
    EXPECT_EQ(a.busy_503, b.busy_503);
    EXPECT_EQ(a.calls_rejected, b.calls_rejected);
    EXPECT_EQ(a.backoff_pauses, b.backoff_pauses);
    for (std::size_t i = 0; i < a.bed->proxies().size(); ++i) {
      const auto& pa = a.bed->proxies()[i]->stats();
      const auto& pb = b.bed->proxies()[i]->stats();
      EXPECT_EQ(pa.rejected_503, pb.rejected_503) << "proxy " << i;
      EXPECT_EQ(pa.throttled_503, pb.throttled_503) << "proxy " << i;
      EXPECT_EQ(pa.oc_advertisements, pb.oc_advertisements) << "proxy " << i;
    }
  }
}

TEST(OverloadChainTest, NoControlMatchesLegacyBehavior) {
  // kNone is the paper's server: no 503s anywhere, the queue-delay bound
  // answers 500 Server Busy.
  const ChainRun run = run_chain(ControlKind::kNone, 160.0, 8.0);
  std::uint64_t rejected_busy = 0;
  for (const auto& proxy : run.bed->proxies()) {
    EXPECT_EQ(proxy->stats().rejected_503, 0u);
    EXPECT_EQ(proxy->stats().throttled_503, 0u);
    EXPECT_EQ(proxy->overload_policy().name(), "none");
    rejected_busy += proxy->stats().rejected_busy;
  }
  EXPECT_EQ(run.busy_503, 0u);
  EXPECT_GT(rejected_busy, 0u);
}

TEST(OverloadTest, PoliciesMatchNoControlBelowKnee) {
  // Below the knee no policy ever refuses, so the controls must be
  // invisible: every RunRecord is bit-identical to no control's.
  const auto digest = [](PolicyKind policy, ControlKind kind, double cps) {
    ScenarioOptions options = bottleneck_chain(kind);
    options.policy = policy;
    RunRecord record = to_run_record(
        measure_point(series_chain(2, options), cps, MeasureOptions{}), 1.0,
        "below_knee");
    record.wall_seconds = 0.0;  // host noise, not simulation output
    return record.to_json().dump();
  };
  for (const PolicyKind policy :
       {PolicyKind::kStaticAllStateful, PolicyKind::kServartuka}) {
    for (const double cps : {60.0, 90.0}) {
      const std::string none = digest(policy, ControlKind::kNone, cps);
      EXPECT_EQ(digest(policy, ControlKind::kLocalOccupancy, cps), none)
          << "local at " << cps << " cps";
      EXPECT_EQ(digest(policy, ControlKind::kHopByHopRate, cps), none)
          << "hop-by-hop at " << cps << " cps";
    }
  }
}

}  // namespace
}  // namespace svk::workload
