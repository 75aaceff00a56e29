// Conformance suite (ctest -L conformance): the RFC 3261 oracle and
// run-invariant checker running in lockstep with full topologies.
//
//   * clean runs   — the paper's two-series shapes (Figure 5) and the fork
//                    pass a full load + drain cycle with zero violations;
//   * bit-identity — a checked measurement produces the exact RunRecord
//                    JSON of an unchecked one (checking is read-only);
//   * mutation smoke — reintroducing the historical Max-Forwards
//                    check-after-decrement bug via the debug hook makes the
//                    checker fire wire.premature_483, proving the oracle
//                    actually bites;
//   * end-to-end MF — with the fix, a request entering a 2-chain with
//                    Max-Forwards 2 still completes (the last hop forwards
//                    it carrying 0);
//   * dialog drain — dialog-stateful proxies hold zero dialogs after load
//                    stops and SIP timers drain, also when INVITEs are
//                    refused with 500 at the queue bound;
//   * overload     — the 503 paths of both overload controls run clean;
//   * CANCEL/REGISTER — abandoned calls (CANCEL, 487, hop-by-hop ACK) and
//                    a forwarded REGISTER run clean through stateful and
//                    stateless proxies;
//   * lossy links  — the overload and CANCEL/REGISTER runs again with 5%
//                    i.i.d. datagram loss, so the retransmission paths
//                    (Timer A/E/G resends, Completed-state replays of held
//                    responses, INVITE-client re-ACKs built from the
//                    retained request) run under the oracle too.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "check/run_checker.hpp"
#include "proxy/proxy.hpp"
#include "sim/network.hpp"
#include "workload/runner.hpp"
#include "workload/scenarios.hpp"
#include "workload/testbed.hpp"
#include "workload/uac.hpp"
#include "workload/uas.hpp"

namespace svk::workload {
namespace {

constexpr double kScale = 0.01;  // 1/100-scale nodes, as integration_test

ScenarioOptions scaled(PolicyKind policy) {
  ScenarioOptions options;
  options.policy = policy;
  options.capacity_scale = {kScale, kScale, kScale, kScale};
  options.controller_period = SimTime::seconds(0.5);
  return options;
}

// I.i.d. per-datagram drop of the lossy runs. At 5% the two lossy tests
// run about 1900 Timer A/E resends, 360 replays of held 200s, 38 Timer G
// resends and 19 re-ACKs; at 1% no hop-by-hop ACK happens to be lost, so
// no INVITE client ever re-ACKs.
constexpr double kLinkLoss = 0.05;

/// Drops `loss` of the datagrams on every default link of `bed`.
void add_link_loss(TestBed& bed, double loss) {
  sim::LinkParams link = bed.network().default_link();
  link.loss_probability = loss;
  bed.network().set_default_link(link);
}

/// `factory` with link loss added to every bed it builds.
BedFactory with_link_loss(BedFactory factory, double loss) {
  return [factory = std::move(factory), loss](double offered) {
    auto bed = factory(offered);
    add_link_loss(*bed, loss);
    return bed;
  };
}

/// Runs a factory-built bed under load, stops, drains every SIP timer
/// (client D / server H and J linger 32 s), finishes the checker and
/// asserts it saw real traffic and recorded nothing. Returns the drained
/// bed for further assertions.
std::unique_ptr<TestBed> expect_clean_checked_run(
    const BedFactory& factory, double offered, double load_seconds,
    check::CheckOptions check_options = {}) {
  auto bed = factory(offered);
  check::RunChecker& checker = bed->enable_checking(check_options);
  bed->start_load();
  bed->sim().run_until(SimTime::seconds(load_seconds));
  bed->stop_load();
  bed->sim().run_until(SimTime::seconds(load_seconds + 40.0));
  checker.finish();

  EXPECT_GT(checker.oracle().events_checked(), 0u);
  EXPECT_GT(checker.wire().datagrams_seen(), 0u);
  EXPECT_TRUE(checker.log().empty()) << checker.log().summary();
  return bed;
}

// ---------------------------------------------------------------------------
// Clean runs: oracle + invariants over the paper's topologies
// ---------------------------------------------------------------------------

TEST(ConformanceTest, TwoSeriesServartukaIsClean) {
  // Figure 5's shape at an offered load that forces state delegation, so
  // both the stateful and stateless proxy paths are exercised.
  expect_clean_checked_run(
      series_chain(2, scaled(PolicyKind::kServartuka)), 110.0, 6.0);
}

TEST(ConformanceTest, TwoSeriesWithInternalTrafficIsClean) {
  expect_clean_checked_run(
      two_series_with_internal(0.7, scaled(PolicyKind::kServartuka)), 110.0,
      6.0);
}

TEST(ConformanceTest, ParallelForkIsClean) {
  expect_clean_checked_run(parallel_fork(scaled(PolicyKind::kServartuka)),
                           110.0, 6.0);
}

TEST(ConformanceTest, StaticChainUnderOverloadIsClean) {
  // Above single-node stateful saturation: 500s, retransmissions and
  // timeouts all flow past the oracle and must still be RFC-clean. The
  // all-stateful baseline duplicates state at every hop *by design*
  // (that's the paper's degraded static configuration), so the
  // exactly-one-stateful run invariant doesn't apply to it.
  check::CheckOptions check_options;
  check_options.expect_single_stateful = false;
  expect_clean_checked_run(
      series_chain(2, scaled(PolicyKind::kStaticAllStateful)), 130.0, 6.0,
      check_options);
}

TEST(ConformanceTest, DialogStatefulChainDrainsToZeroDialogs) {
  auto options = scaled(PolicyKind::kStaticChainFirstStateful);
  options.stateful_mode = profile::HandlingMode::kDialogStateful;
  const BedFactory factory = series_chain(2, options);

  auto bed = factory(60.0);
  check::RunChecker& checker = bed->enable_checking();
  bed->start_load();
  bed->sim().run_until(SimTime::seconds(6.0));
  bed->stop_load();
  bed->sim().run_until(SimTime::seconds(46.0));
  checker.finish();

  EXPECT_TRUE(checker.log().empty()) << checker.log().summary();
  for (const auto& proxy : bed->proxies()) {
    EXPECT_EQ(proxy->dialogs().active_count(), 0u) << proxy->config().host;
    EXPECT_GT(proxy->dialogs().created_count() +
                  proxy->stats().forwarded_stateless,
              0u);
  }
}

TEST(ConformanceTest, DialogStatefulChainUnderOverloadDrainsToZeroDialogs) {
  // Past saturation the queue bound refuses INVITEs with 500 before any
  // early dialog exists; none may be left behind once the run drains.
  auto options = scaled(PolicyKind::kStaticAllStateful);
  options.stateful_mode = profile::HandlingMode::kDialogStateful;
  check::CheckOptions check_options;
  check_options.expect_single_stateful = false;  // all-stateful by design
  const auto bed = expect_clean_checked_run(series_chain(2, options), 130.0,
                                            6.0, check_options);
  std::uint64_t refused = 0;
  for (const auto& proxy : bed->proxies()) {
    EXPECT_EQ(proxy->dialogs().active_count(), 0u) << proxy->config().host;
    refused += proxy->stats().rejected_busy;
  }
  EXPECT_GT(refused, 0u);
}

/// The half-capacity-exit chain past its knee, under each 503 control and
/// state policy, with `loss` of the datagrams dropped.
void expect_clean_overload_runs(double loss) {
  for (const overload::ControlKind kind :
       {overload::ControlKind::kLocalOccupancy,
        overload::ControlKind::kHopByHopRate}) {
    for (const PolicyKind policy :
         {PolicyKind::kStaticAllStateful, PolicyKind::kServartuka}) {
      SCOPED_TRACE(std::string(overload::to_string(kind)) +
                   (policy == PolicyKind::kServartuka ? "/servartuka"
                                                      : "/static"));
      auto options = scaled(policy);
      options.capacity_scale = {0.02, 0.01};
      options.overload_control.kind = kind;
      options.overload_control.max_queue_delay = SimTime::millis(800);
      check::CheckOptions check_options;
      check_options.expect_single_stateful =
          policy == PolicyKind::kServartuka;
      const auto bed = expect_clean_checked_run(
          with_link_loss(series_chain(2, options), loss), 145.0, 8.0,
          check_options);
      std::uint64_t sent_503 = 0;
      for (const auto& proxy : bed->proxies()) {
        sent_503 += proxy->stats().rejected_503 + proxy->stats().throttled_503;
      }
      EXPECT_GT(sent_503, 0u);
      if (loss > 0.0) {
        EXPECT_GT(bed->network().stats().dropped_loss, 0u);
        std::uint64_t resent = 0;
        for (const auto& uac : bed->uacs()) {
          resent += uac->metrics().retransmissions;
        }
        EXPECT_GT(resent, 0u);
      }
    }
  }
}

TEST(ConformanceTest, OverloadPoliciesAreClean) {
  // Local-gate and throttled 503s, Retry-After pauses and oc adverts all
  // flow past the oracle and must stay RFC-clean.
  expect_clean_overload_runs(0.0);
}

TEST(ConformanceTest, OverloadPoliciesAreCleanUnderLinkLoss) {
  // The same runs with lost datagrams: requests are resent on Timer A/E,
  // Completed servers replay their held finals, and INVITE clients re-ACK
  // retransmitted ones.
  expect_clean_overload_runs(kLinkLoss);
}

// ---------------------------------------------------------------------------
// CANCEL and REGISTER: the Completed/Confirmed paths the call mix never takes
// ---------------------------------------------------------------------------

/// Two proxies in series; one keeps the call's transaction state, the
/// other forwards statelessly. The callee registers through the entry,
/// which forwards the REGISTER to the exit (the registrar). Half the
/// callers abandon before the 800 ms answer: their CANCEL is answered 200
/// (non-INVITE server Completed), the INVITE 487 (INVITE server Completed,
/// then Confirmed by the ACK; INVITE client Completed re-ACKs). `loss` of
/// the datagrams are dropped.
void expect_clean_cancel_and_register(double loss) {
  for (const bool entry_stateful : {true, false}) {
    SCOPED_TRACE(entry_stateful ? "stateful entry" : "stateless entry");
    auto bed = std::make_unique<TestBed>(7);
    add_link_loss(*bed, loss);
    const Address entry = bed->declare_host("proxy0.test");
    const Address exit = bed->declare_host("proxy1.test");
    for (const bool is_entry : {true, false}) {
      proxy::RouteTable routes;
      if (is_entry) {
        routes.add_route("example.com", {exit});
      } else {
        routes.add_local("example.com");
      }
      proxy::ProxyConfig config;
      config.host = is_entry ? "proxy0.test" : "proxy1.test";
      std::unique_ptr<proxy::StatePolicy> policy;
      if (is_entry == entry_stateful) {
        policy = std::make_unique<proxy::AlwaysStateful>();
      } else {
        policy = std::make_unique<proxy::AlwaysStateless>();
      }
      auto& proxy = bed->add_proxy(std::move(config), std::move(routes),
                                   std::move(policy));
      if (!is_entry) proxy.set_upstream_proxies({entry});
    }
    UasConfig uas_config;
    uas_config.host = "uas0.example.com";
    uas_config.answer_delay = SimTime::millis(800);
    Uas& uas = bed->add_uas(uas_config);
    UacConfig uac_config;
    uac_config.host = "uac0.client.test";
    uac_config.first_hop = entry;
    uac_config.target_domain = "example.com";
    uac_config.num_callees = 1;
    uac_config.call_rate_cps = 20.0;
    uac_config.cancel_probability = 0.5;
    uac_config.ring_abandon_after = SimTime::millis(400);
    Uac& uac = bed->add_uac(std::move(uac_config));

    check::RunChecker& checker = bed->enable_checking();
    uas.register_with(entry, "user0@example.com", SimTime::seconds(3600.0));
    // A lost REGISTER or 200 is resent on Timer E (500 ms, then 1 s).
    bed->sim().run_until(SimTime::seconds(loss > 0.0 ? 2.0 : 0.5));
    EXPECT_EQ(uas.registrations_confirmed(), 1u);
    bed->start_load();
    bed->sim().run_until(SimTime::seconds(8.0));
    bed->stop_load();
    bed->sim().run_until(SimTime::seconds(48.0));  // past timers D, H, J
    checker.finish();

    EXPECT_TRUE(checker.log().empty()) << checker.log().summary();
    EXPECT_GT(checker.oracle().events_checked(), 0u);
    EXPECT_EQ(checker.oracle().live_shadows(), 0u);
    EXPECT_GT(uac.metrics().calls_cancelled, 20u);
    EXPECT_GT(uac.metrics().calls_completed, 20u);
    if (loss == 0.0) {
      EXPECT_EQ(uac.metrics().calls_failed, 0u);
      EXPECT_EQ(uas.metrics().cancels_received,
                uac.metrics().calls_cancelled);
    } else {
      EXPECT_GT(bed->network().stats().dropped_loss, 0u);
      EXPECT_GT(uac.metrics().retransmissions, 0u);
    }
  }
}

TEST(ConformanceTest, CancelAndRegisterAreClean) {
  expect_clean_cancel_and_register(0.0);
}

TEST(ConformanceTest, CancelAndRegisterAreCleanUnderLinkLoss) {
  // Lost CANCELs, 487s, ACKs and 200s are resent or replayed: Completed
  // servers replay their held responses, INVITE clients re-ACK.
  expect_clean_cancel_and_register(kLinkLoss);
}

// ---------------------------------------------------------------------------
// Bit-identity: checking must never perturb the simulation
// ---------------------------------------------------------------------------

TEST(ConformanceTest, CheckedRunDigestMatchesUnchecked) {
  const BedFactory factory = series_chain(2, scaled(PolicyKind::kServartuka));
  MeasureOptions plain;
  MeasureOptions checked = plain;
  checked.check = true;

  const PointResult a = measure_point(factory, 110.0, plain);
  const PointResult b = measure_point(factory, 110.0, checked);
  EXPECT_EQ(b.check_violations, 0u);

  RunRecord ra = to_run_record(a, 1.0, "conformance");
  RunRecord rb = to_run_record(b, 1.0, "conformance");
  ra.wall_seconds = 0.0;  // host noise, not simulation output
  rb.wall_seconds = 0.0;
  EXPECT_EQ(ra.to_json().dump(), rb.to_json().dump());
}

// ---------------------------------------------------------------------------
// Max-Forwards end-to-end + mutation smoke
// ---------------------------------------------------------------------------

TEST(ConformanceTest, MaxForwardsTwoTraversesTwoChain) {
  // Entry proxy sees MF 2, exit proxy sees MF 1 and must still forward
  // (carrying 0). With the historical check-after-decrement the exit
  // rejected every call 483 — this run doubles as the regression test.
  auto options = scaled(PolicyKind::kStaticChainFirstStateful);
  options.uac_max_forwards = 2;
  const BedFactory factory = series_chain(2, options);

  auto bed = factory(50.0);
  check::RunChecker& checker = bed->enable_checking();
  bed->start_load();
  bed->sim().run_until(SimTime::seconds(4.0));
  bed->stop_load();
  bed->sim().run_until(SimTime::seconds(44.0));
  checker.finish();

  EXPECT_TRUE(checker.log().empty()) << checker.log().summary();
  EXPECT_GT(bed->total_completed_calls(), 0u);
  for (const auto& proxy : bed->proxies()) {
    EXPECT_EQ(proxy->stats().rejected_483, 0u) << proxy->config().host;
  }
}

TEST(ConformanceTest, MutationSmokeCatchesPredecrementBug) {
  // Same topology and load, with the off-by-one deliberately reintroduced
  // on every proxy. The checker must catch the premature 483s — if this
  // test fails, the oracle has gone blind and green checker runs mean
  // nothing.
  auto options = scaled(PolicyKind::kStaticChainFirstStateful);
  options.uac_max_forwards = 2;
  options.debug_predecrement_max_forwards = true;
  const BedFactory factory = series_chain(2, options);

  auto bed = factory(50.0);
  check::RunChecker& checker = bed->enable_checking();
  bed->start_load();
  bed->sim().run_until(SimTime::seconds(4.0));
  bed->stop_load();
  bed->sim().run_until(SimTime::seconds(44.0));
  checker.finish();

  EXPECT_FALSE(checker.log().empty());
  bool saw_premature_483 = false;
  for (const auto& violation : checker.log().entries()) {
    if (violation.kind == "wire.premature_483") saw_premature_483 = true;
  }
  EXPECT_TRUE(saw_premature_483) << checker.log().summary();
}

}  // namespace
}  // namespace svk::workload
