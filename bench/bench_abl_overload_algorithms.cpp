// Ablation — overload-control algorithms (src/overload).
//
// Compares the three ingress controls {none, local occupancy gate,
// hop-by-hop rate feedback} under both state policies {static all-stateful,
// SERvartuka} on a two-series chain whose EXIT node has half the entry's
// capacity — the downstream-bottleneck shape hop-by-hop feedback exists
// for. The sweep runs from the static chain's knee (~5200 cps, measured)
// to 1.4x past it. The uncontrolled chain uses a lax queue-delay bound
// (800 ms — the deep-buffer regime of a vanilla server), so past the knee
// it melts down in retransmission storms; the controls must convert that
// collapse into cheap, early 503s and hold goodput. Local control pays the
// Retry-After oscillation tax (each 503 pauses a generator); hop-by-hop
// throttles at the entry against the exit's advertised rate, without
// Retry-After, so goodput holds near the bottleneck's capacity.
//
// The binary gates its own exit code on the subsystem's acceptance
// criteria:
//   * at 1.4x the knee (both policies deep past saturation there),
//     hop-by-hop goodput strictly exceeds no-control goodput under BOTH
//     state policies;
//   * the whole measurement is bit-deterministic: every point is run
//     twice and the MD5 over all serialized records must match.
//
// Full mode adds a second, ungated table: kNone's queue-delay bound swept
// 25–800 ms on the homogeneous two-series chain at 9600 cps (just past the
// static knee). A finding of this reproduction: the bound interacts with
// the SIP retransmission timers. If four queue traversals exceed T1
// (500 ms), UAS 200-OK retransmissions and UAC INVITE retransmissions keep
// a saturated queue saturated — a storm that pins throughput well below
// capacity. Bounds comfortably under T1/4 keep saturation graceful.
//
//   --quick    CI smoke: only the gate load (the gate still runs), no
//              queue-bound table.
#include <cstring>

#include "bench_util.hpp"
#include "common/md5.hpp"

namespace {

using namespace svk;
using namespace svk::bench;
using overload::ControlKind;
using workload::PolicyKind;

bool g_quick = false;

/// Uncontrolled knee of the half-capacity-exit static chain (cps, full
/// scale; measured — the exit saturates first at ~0.5 * T_SF with relay
/// slack at the entry).
constexpr double kKneeCps = 5200.0;
/// The acceptance gate is evaluated at 1.4x the knee: past saturation for
/// the static chain AND for SERvartuka (delegation buys ~15% more knee,
/// so 1.2x would still be sustainable for the dynamic policy).
constexpr double kGateLoad = 1.4 * kKneeCps;

struct Combo {
  ControlKind control;
  PolicyKind policy;
};

constexpr Combo kCombos[] = {
    {ControlKind::kNone, PolicyKind::kStaticAllStateful},
    {ControlKind::kLocalOccupancy, PolicyKind::kStaticAllStateful},
    {ControlKind::kHopByHopRate, PolicyKind::kStaticAllStateful},
    {ControlKind::kNone, PolicyKind::kServartuka},
    {ControlKind::kLocalOccupancy, PolicyKind::kServartuka},
    {ControlKind::kHopByHopRate, PolicyKind::kServartuka},
};

std::string combo_name(const Combo& combo) {
  return std::string(overload::to_string(combo.control)) + "/" +
         (combo.policy == PolicyKind::kServartuka ? "servartuka" : "static");
}

std::vector<double> loads() {
  if (g_quick) return {kGateLoad};
  return {kKneeCps, 1.2 * kKneeCps, kGateLoad};
}

workload::BedFactory make_factory(const Combo& combo) {
  auto options = scenario(combo.policy);
  options.capacity_scale = {kScale, 0.5 * kScale};  // bottleneck at the exit
  // More generators than the paper default: a Retry-After pause then idles
  // 1/6th of the offered load instead of half, separating the controls'
  // steady-state behavior from the pause granularity.
  options.num_uacs = 6;
  options.overload_control.kind = combo.control;
  // Deep-buffer regime: an uncontrolled node soaks up 1.6 RTTs of backlog
  // before kNone's 500 bound trips — past the knee that feeds the
  // retransmission storm the controls are measured against. Only kNone
  // reads the bound.
  options.overload_control.max_queue_delay = SimTime::millis(800);
  return workload::series_chain(2, options);
}

workload::MeasureOptions storm_measure() {
  auto options = measure_options();
  options.measure = SimTime::seconds(15.0);  // storms need time to show
  return options;
}

/// One full pass over every (combo, load) pair. Each job is an independent
/// deterministic simulation; order of results is combo-major.
std::vector<workload::PointResult> run_pass() {
  std::vector<std::function<workload::PointResult()>> jobs;
  for (const Combo& combo : kCombos) {
    for (const double load : loads()) {
      jobs.push_back([combo, load] {
        return workload::measure_point(make_factory(combo), scaled(load),
                                       storm_measure());
      });
    }
  }
  return workload::run_points_parallel(jobs, g_threads);
}

/// Queue-bound table: offered load just past the homogeneous static chain's
/// knee, and the kNone bounds swept.
constexpr double kBoundOffered = 9600.0;
constexpr double kBoundsMs[] = {25.0, 50.0, 100.0, 200.0, 400.0, 800.0};

struct BoundRow {
  double bound_ms;
  double static_tput;
  double servartuka_tput;
};

/// Every (bound, policy) pair is an independent simulation; all run across
/// the worker threads at once.
std::vector<BoundRow> run_bound_sweep() {
  std::vector<std::function<workload::PointResult()>> jobs;
  for (const double bound_ms : kBoundsMs) {
    for (const PolicyKind policy :
         {PolicyKind::kStaticAllStateful, PolicyKind::kServartuka}) {
      jobs.push_back([policy, bound_ms] {
        auto options = scenario(policy);
        options.overload_control.max_queue_delay =
            SimTime::millis(static_cast<std::int64_t>(bound_ms));
        return workload::measure_point(workload::series_chain(2, options),
                                       scaled(kBoundOffered),
                                       storm_measure());
      });
    }
  }
  const auto results = workload::run_points_parallel(jobs, g_threads);
  std::vector<BoundRow> rows;
  for (std::size_t i = 0; i < std::size(kBoundsMs); ++i) {
    rows.push_back(BoundRow{kBoundsMs[i],
                            full(results[2 * i].throughput_cps),
                            full(results[2 * i + 1].throughput_cps)});
  }
  return rows;
}

/// MD5 over every serialized record of a pass, wall-clock zeroed (host
/// timing is not simulation output).
std::string pass_digest(const std::vector<workload::PointResult>& points) {
  std::string all;
  for (const auto& point : points) {
    RunRecord record = full_record(point);
    record.wall_seconds = 0.0;
    all += record.to_json().dump();
  }
  return Md5::hex(all);
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      g_quick = true;
      for (int j = i; j + 1 < argc; ++j) argv[j] = argv[j + 1];
      --argc;
      break;
    }
  }
  svk::bench::initialize(&argc, argv);

  print_header("abl_overload_algorithms",
               "overload controls {none, local, hop-by-hop} x state "
               "policies, two-series chain");

  const std::vector<double> grid = loads();
  const auto results = run_pass();
  const std::string digest = pass_digest(results);
  const auto rerun = run_pass();
  const std::string rerun_digest = pass_digest(rerun);
  const bool digest_ok = digest == rerun_digest;

  // Results in series form (one per combo, points across the load grid).
  std::vector<Series> series;
  for (std::size_t c = 0; c < std::size(kCombos); ++c) {
    Series s;
    s.name = combo_name(kCombos[c]);
    for (std::size_t l = 0; l < grid.size(); ++l) {
      const auto& point = results[c * grid.size() + l];
      s.points.emplace_back(full(point.offered_cps),
                            full(point.throughput_cps));
      s.max_value = std::max(s.max_value, full(point.throughput_cps));
      s.records.push_back(full_record(point, s.name));
    }
    series.push_back(std::move(s));
  }

  print_series_table("goodput by overload control (cps)",
                     "completed calls/second at the UASes", series);

  // Fast-fail vs slow-fail split at the gate load: the controls' value is
  // not only carried calls but rejecting in one RTT instead of 64*T1.
  std::printf("\nat %.0f cps offered (1.4x knee):\n", kGateLoad);
  const std::size_t gate_idx =
      static_cast<std::size_t>(std::find(grid.begin(), grid.end(), kGateLoad) -
                               grid.begin());
  for (std::size_t c = 0; c < std::size(kCombos); ++c) {
    const auto& point = results[c * grid.size() + gate_idx];
    std::printf("  %-22s goodput %7.0f cps   rejected(503) %8llu   "
                "timed-out %8llu\n",
                combo_name(kCombos[c]).c_str(), full(point.throughput_cps),
                static_cast<unsigned long long>(point.calls_rejected),
                static_cast<unsigned long long>(point.calls_timed_out));
  }

  // -- Acceptance gates ------------------------------------------------------
  bool gate_ok = true;
  for (const PolicyKind policy :
       {PolicyKind::kStaticAllStateful, PolicyKind::kServartuka}) {
    double none_tput = 0.0, hop_tput = 0.0;
    for (std::size_t c = 0; c < std::size(kCombos); ++c) {
      if (kCombos[c].policy != policy) continue;
      const double tput =
          full(results[c * grid.size() + gate_idx].throughput_cps);
      if (kCombos[c].control == ControlKind::kNone) none_tput = tput;
      if (kCombos[c].control == ControlKind::kHopByHopRate) hop_tput = tput;
    }
    const bool ok = hop_tput > none_tput;
    gate_ok = gate_ok && ok;
    std::printf("gate: hop-by-hop > none at 1.4x knee (%s): "
                "%7.0f > %7.0f -> %s\n",
                policy == PolicyKind::kServartuka ? "servartuka" : "static",
                hop_tput, none_tput, ok ? "ok" : "FAIL");
  }
  std::printf("gate: bit-identical rerun digest %s -> %s\n", digest.c_str(),
              digest_ok ? "ok" : "FAIL");

  std::vector<BoundRow> bound_rows;
  if (!g_quick) {
    bound_rows = run_bound_sweep();
    std::printf("\nno control: queue-delay bound, homogeneous two-series "
                "chain at %.0f cps offered\n",
                kBoundOffered);
    std::printf("%-14s %16s %16s\n", "bound (ms)", "static (cps)",
                "SERvartuka (cps)");
    for (const BoundRow& row : bound_rows) {
      std::printf("%-14.0f %16.0f %16.0f\n", row.bound_ms, row.static_tput,
                  row.servartuka_tput);
    }
    std::printf("(T1 = 500 ms; bounds whose worst-case round trip exceeds"
                " T1 trigger\n retransmission storms that pin saturated"
                " queues — throughput collapses)\n");
  }

  BenchReport report("abl_overload_algorithms");
  report.root()["quick"] = g_quick;
  for (const Series& s : series) report.add_series(s);
  report.add_metric("knee_cps", kKneeCps);
  report.add_metric("gate_load_cps", kGateLoad);
  if (!g_quick) {
    JsonValue& bounds = report.root()["bounds"];
    bounds = JsonValue::array();
    for (const BoundRow& row : bound_rows) {
      JsonValue entry = JsonValue::object();
      entry["bound_ms"] = row.bound_ms;
      entry["static_throughput_cps"] = row.static_tput;
      entry["servartuka_throughput_cps"] = row.servartuka_tput;
      bounds.push_back(std::move(entry));
    }
    report.add_metric("bound_offered_cps", kBoundOffered);
  }
  report.root()["determinism_digest"] = digest;
  report.root()["determinism_rerun_match"] = digest_ok;
  report.root()["gate_pass"] = gate_ok && digest_ok;
  report.write();
  return gate_ok && digest_ok ? 0 : 1;
}
