#include "workloads.hpp"

#include <utility>

#include "profile/cost_model.hpp"
#include "workload/scenarios.hpp"

namespace svk::perfbench {
namespace {

using workload::BedFactory;
using workload::PolicyKind;
using workload::ScenarioOptions;

// Warm-up outlasts the longest transaction lifetime (RFC 3261 timer J/D,
// 64*T1 = 32 s) plus margin, so the transaction tables, the event slab and
// the message pool are at steady state when the window opens: nothing in
// the window allocates from them.
constexpr SimTime kWarmup = SimTime::seconds(45.0);
constexpr SimTime kMeasure = SimTime::seconds(20.0);

ScenarioOptions base_options(PolicyKind policy, std::size_t num_proxies,
                             std::uint64_t seed) {
  ScenarioOptions options;
  options.policy = policy;
  options.capacity_scale.assign(num_proxies, kScale);
  options.controller_period = SimTime::seconds(1.0);  // the paper's window
  options.poisson_arrivals = false;                   // fixed pacing
  options.seed = seed;
  return options;
}

// Two proxies in series under the SERvartuka controller at 10400 cps, just
// above the single-node stateful threshold T_SF (10360 cps). The entry
// keeps about 10% of the state and delegates the rest downstream; the
// per-second recompute and X-Overload signalling are live; without loss,
// transaction timers are cancelled on completion rather than fired. The
// paper's headline regime, and the only mix in which `core` does work.
BedFactory fig5_servartuka(std::uint64_t seed) {
  return workload::series_chain(
      2, base_options(PolicyKind::kServartuka, 2, seed));
}

// The same chain, static all-stateful, at 12000 cps, well past its knee:
// about 30% of the calls are refused with 500 at the CPU-queue delay
// bound. The only mix that refuses work, so the only one running the
// admission path (`sim` CpuQueue bound, `proxy` 500 responses).
BedFactory fig5_overload(std::uint64_t seed) {
  return workload::series_chain(
      2, base_options(PolicyKind::kStaticAllStateful, 2, seed));
}

// A stateless balancer in front of 16 dialog-stateful exits (8 UACs,
// 8 UASes, 10 ms links, as in bench_perf_parallel) at 10000 cps, below its
// knee, with 10^5 callee bindings. Many hosts, `dialog` state, a `proxy`
// location table larger than L2, and a bed whose construction alone is a
// real share of setup.
BedFactory wide_fork(std::uint64_t seed) {
  constexpr int kExits = 16;
  ScenarioOptions options =
      base_options(PolicyKind::kStaticChainLastStateful, kExits + 1, seed);
  options.num_uacs = 8;
  options.num_uas = 8;
  options.num_users = 100000;
  options.stateful_mode = profile::HandlingMode::kDialogStateful;
  options.link_latency = SimTime::millis(10);
  return workload::wide_fork(kExits, std::move(options));
}

}  // namespace

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> kWorkloads = {
      {"fig5_servartuka", 10400.0, kWarmup, kMeasure,
       "ff587f32286d3bea310c66d5c88354a1", &fig5_servartuka},
      {"fig5_overload", 12000.0, kWarmup, kMeasure,
       "22d788448519c581d1ed19f66db1e5fe", &fig5_overload},
      {"wide_fork", 10000.0, kWarmup, kMeasure,
       "d2d10ab0d95157539958912372e180f4", &wide_fork},
  };
  return kWorkloads;
}

const Workload* find_workload(std::string_view name) {
  for (const Workload& w : workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

}  // namespace svk::perfbench
