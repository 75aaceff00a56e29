// svk_perfbench — one rep of one benchmark workload, in a fresh process.
//
//   svk_perfbench --workload NAME [--seed N]
//                 [--mode timed|observed|traced|runner] [--windows K]
//                 [--spans-out FILE]
//
// A rep builds the workload's bed through its workload:: factory, starts
// the load, simulates the warm-up, then simulates the measured window on
// the main thread and the bed's default engine, and prints one JSON line:
// host times (bed construction, setup, window), the window's RunRecord
// digest, exact per-layer counts from the layers' public stats and this
// binary's counting operator new, peak RSS, and the shard and thread counts
// the bed used. perfbench/run.py runs reps and turns them into metrics; a
// process per rep keeps allocator and pool state from leaking between reps.
//
// Modes:
//   timed     window simulated in 1 s slices, each timed; --windows K > 1
//             appends K-1 more steady-state windows as extra timing samples
//   observed  the same with obs (MeasureOptions::observe) switched on
//   traced    the window driven event by event through Simulator::step(),
//             one span per event, attributed to the element (proxy, UAC,
//             UAS) whose send/deliver tap fired inside it, else "other";
//             --spans-out writes the spans as CSV
//   runner    only the digest workload::measure_point yields for the window
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/json.hpp"
#include "common/md5.hpp"
#include "common/stats.hpp"
#include "counting_new.hpp"
#include "sim/cpu_queue.hpp"
#include "sip/message_pool.hpp"
#include "workload/runner.hpp"
#include "workloads.hpp"

namespace svk::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Spacing of the in-window samples: host time per slice and the peaks of
/// live transactions and dialogs.
constexpr SimTime kSlice = SimTime::seconds(1.0);

/// Every monotone counter read at a window boundary: the workload runner's
/// snapshot (for the RunRecord) plus each layer's public stats.
struct Counters {
  std::uint64_t completed = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t busy_500 = 0;
  std::uint64_t busy_503 = 0;
  std::uint64_t rejected = 0;
  std::uint64_t timed_out = 0;
  std::uint64_t retransmissions = 0;
  std::uint64_t trying = 0;
  std::uint64_t established = 0;
  std::vector<std::uint64_t> proxy_rejected;
  std::vector<std::uint64_t> proxy_rejected_503;
  std::vector<std::uint64_t> proxy_stateful;
  std::vector<std::uint64_t> proxy_stateless;

  sim::TimerWheel::Stats events;
  std::uint64_t datagrams = 0;
  std::uint64_t drops = 0;
  std::uint64_t cpu_rejected = 0;
  sip::MessagePoolStats messages;
  std::uint64_t txn_created = 0;
  std::uint64_t absorbed = 0;
  std::uint64_t dialog_created = 0;
  std::uint64_t location_queries = 0;
  std::uint64_t overload_signals = 0;
  AllocCounts allocs;
};

Counters read_counters(workload::TestBed& bed) {
  Counters c;
  c.completed = bed.total_completed_calls();
  c.attempted = bed.total_attempted_calls();
  for (const auto& uac : bed.uacs()) {
    const workload::UacMetrics& m = uac->metrics();
    c.failed += m.calls_failed;
    c.busy_500 += m.busy_500_received;
    c.busy_503 += m.busy_503_received;
    c.rejected += m.calls_rejected;
    c.timed_out += m.calls_timed_out;
    c.retransmissions += m.retransmissions;
    c.trying += m.trying_received;
    c.established += m.calls_established;
  }
  for (const auto& proxy : bed.proxies()) {
    const proxy::ProxyStats& p = proxy->stats();
    c.proxy_rejected.push_back(p.rejected_busy);
    c.proxy_rejected_503.push_back(p.rejected_503 + p.throttled_503);
    c.proxy_stateful.push_back(p.forwarded_stateful);
    c.proxy_stateless.push_back(p.forwarded_stateless);
    c.cpu_rejected += proxy->cpu().stats().rejected;
    c.txn_created += proxy->transactions().created_count();
    c.absorbed += p.absorbed_retransmits;
    c.dialog_created += proxy->dialogs().created_count();
    c.overload_signals += p.overload_signals_sent;
  }
  for (std::size_t i = 0; i < bed.shard_count(); ++i) {
    const sim::TimerWheel::Stats& s = bed.shards().shard(i).event_stats();
    c.events.scheduled += s.scheduled;
    c.events.executed += s.executed;
    c.events.cancelled += s.cancelled;
    c.events.slab_allocs += s.slab_allocs;
    c.events.cascades += s.cascades;
  }
  const sim::NetworkStats& net = bed.network().stats();
  c.datagrams = net.sent;
  c.drops = net.dropped_loss + net.dropped_burst + net.dropped_no_route +
            net.dropped_host_down + net.dropped_link_down;
  c.messages = sip::message_pool_stats();
  c.location_queries = bed.location()->query_count();
  // Last, so the snapshot's own allocations fall outside the window.
  c.allocs = alloc_counts();
  return c;
}

/// The workload runner's PointResult for the window between two snapshots,
/// computed exactly as workload::measure_point does, so the digest is the
/// RunRecord digest the repo's benches and golden tests use.
workload::PointResult window_point(
    const Counters& before, const Counters& after, workload::TestBed& bed,
    const std::vector<sim::UtilizationProbe>& probes, double offered_cps,
    double secs) {
  workload::PointResult r;
  r.offered_cps = offered_cps;
  r.throughput_cps =
      static_cast<double>(after.completed - before.completed) / secs;
  r.attempted_cps =
      static_cast<double>(after.attempted - before.attempted) / secs;
  r.goodput_ratio =
      r.attempted_cps > 0.0 ? r.throughput_cps / r.attempted_cps : 0.0;
  r.calls_failed = after.failed - before.failed;
  r.busy_500 = after.busy_500 - before.busy_500;
  r.busy_503 = after.busy_503 - before.busy_503;
  r.calls_rejected = after.rejected - before.rejected;
  r.calls_timed_out = after.timed_out - before.timed_out;
  r.retransmissions = after.retransmissions - before.retransmissions;
  r.trying_received = after.trying - before.trying;
  r.calls_established_uac = after.established - before.established;

  double weighted_mean = 0.0;
  std::size_t samples = 0;
  const Histogram* biggest = nullptr;
  for (const auto& uac : bed.uacs()) {
    const Histogram& h = uac->metrics().setup_time_ms;
    weighted_mean += h.mean() * static_cast<double>(h.count());
    samples += h.count();
    if (!biggest || h.count() > biggest->count()) biggest = &h;
  }
  if (samples > 0) {
    r.setup_ms_mean = weighted_mean / static_cast<double>(samples);
  }
  if (biggest != nullptr && biggest->count() > 0) {
    r.setup_ms_p50 = biggest->quantile(0.50);
    r.setup_ms_p90 = biggest->quantile(0.90);
    r.setup_ms_p99 = biggest->quantile(0.99);
  }
  for (std::size_t i = 0; i < probes.size(); ++i) {
    r.proxy_utilization.push_back(probes[i].utilization());
    r.proxy_rejected.push_back(after.proxy_rejected[i] -
                               before.proxy_rejected[i]);
    r.proxy_rejected_503.push_back(after.proxy_rejected_503[i] -
                                   before.proxy_rejected_503[i]);
    r.proxy_stateful.push_back(after.proxy_stateful[i] -
                               before.proxy_stateful[i]);
    r.proxy_stateless.push_back(after.proxy_stateless[i] -
                                before.proxy_stateless[i]);
  }
  return r;
}

std::string digest_of(const workload::PointResult& point,
                      const std::string& label) {
  RunRecord record = workload::to_run_record(point, 1.0 / kScale, label);
  record.wall_seconds = 0.0;  // host noise, not simulation output
  return Md5::hex(record.to_json().dump());
}

// ---------------------------------------------------------------------------
// Traced window: one span per executed event.
// ---------------------------------------------------------------------------

enum Element : std::uint8_t { kProxy, kUac, kUas, kOther, kElements };
constexpr std::array<const char*, kElements> kElementNames = {
    "proxy", "uac", "uas", "other"};

struct Span {
  std::int64_t end_ns;  // since the window start; a span begins where the
                        // previous one ended
  std::uint32_t locus;  // host address whose hook fired; 0 = none
  Element element;
};

/// Drives the bed's simulator event by event from now through `end`. Each
/// event is charged to the element whose send/deliver tap fired inside it
/// (the simulator's ambient locus, i.e. the executing host), or to kOther
/// when no hook fired (timer expiries, silent CPU completions, controller
/// ticks). Spans tile the window: their durations sum to its host time.
std::vector<Span> traced_window(workload::TestBed& bed, SimTime end) {
  std::vector<Element> element_of;
  const auto classify = [&](Address address, Element element) {
    if (element_of.size() <= address.value()) {
      element_of.resize(address.value() + 1, kOther);
    }
    element_of[address.value()] = element;
  };
  for (const auto& p : bed.proxies()) classify(p->config().address, kProxy);
  for (const auto& u : bed.uacs()) classify(u->config().address, kUac);
  for (const auto& u : bed.uases()) classify(u->config().address, kUas);

  sim::Simulator& sim = bed.sim();
  std::uint32_t hooked = 0;
  const auto tap = [&sim, &hooked](Address, Address, const sip::MessagePtr&) {
    hooked = sim.ambient_locus();
  };
  bed.network().set_send_tap(tap);
  bed.network().set_deliver_tap(tap);

  // A harness (rank 0) event at `end` stops the loop before any event past
  // the window: same-tick events order by locus rank first, so it does not
  // reorder the hosts' events. Those left at `end` run untraced below.
  bool reached = false;
  sim.schedule_at(end, [&reached] { reached = true; });

  std::vector<Span> spans;
  spans.reserve(1 << 18);
  const Clock::time_point start = Clock::now();
  const auto since_start = [start] {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                start)
        .count();
  };
  while (!reached && sim.step()) {
    const std::int64_t t = since_start();
    const Element element =
        hooked < element_of.size() ? element_of[hooked] : kOther;
    spans.push_back({t, hooked, element});
    hooked = 0;
  }
  bed.run_until(end);
  spans.push_back({since_start(), 0, kOther});

  bed.network().set_send_tap(nullptr);
  bed.network().set_deliver_tap(nullptr);
  return spans;
}

// ---------------------------------------------------------------------------
// One rep.
// ---------------------------------------------------------------------------

enum class Mode { kTimed, kObserved, kTraced };

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

struct Rep {
  std::string digest;
  std::size_t shards = 0;
  long threads = 0;
  double construct_s = 0.0;
  double setup_s = 0.0;
  double window_s = 0.0;
  std::uint64_t attempted = 0;
  /// Host µs per attempted call of each kSlice of each measured window
  /// (timed reps; the first window is the digested one).
  std::vector<std::vector<double>> windows;
  /// Deterministic per-layer counts of the window.
  std::vector<Metric> counts;
  /// Host seconds per element (traced reps).
  std::array<double, kElements> element_s{};
  std::uint64_t events = 0;
  std::vector<Span> spans;
};

long process_threads() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("Threads:", 0) == 0) return std::atol(line.c_str() + 8);
  }
  return 0;
}

struct Peaks {
  std::uint64_t txns = 0;
  std::uint64_t dialogs = 0;
  void sample(workload::TestBed& bed) {
    std::uint64_t t = 0;
    std::uint64_t d = 0;
    for (const auto& proxy : bed.proxies()) {
      t += proxy->transactions().active_count();
      d += proxy->dialogs().active_count();
    }
    txns = std::max(txns, t);
    dialogs = std::max(dialogs, d);
  }
};

std::vector<Metric> layer_counts(const Counters& b, const Counters& a,
                                 const Peaks& peaks, double window_sim_s) {
  const double calls = static_cast<double>(a.attempted - b.attempted);
  const auto per_call = [calls](std::uint64_t before, std::uint64_t after) {
    return static_cast<double>(after - before) / calls;
  };
  const auto sum = [](const std::vector<std::uint64_t>& v) {
    std::uint64_t s = 0;
    for (const std::uint64_t x : v) s += x;
    return s;
  };
  const std::uint64_t stateful = sum(a.proxy_stateful) - sum(b.proxy_stateful);
  const std::uint64_t stateless =
      sum(a.proxy_stateless) - sum(b.proxy_stateless);
  const std::uint64_t scheduled = a.events.scheduled - b.events.scheduled;
  return {
      {"sim.events_per_call", per_call(b.events.executed, a.events.executed),
       "1/call"},
      {"sim.cascades_per_call", per_call(b.events.cascades, a.events.cascades),
       "1/call"},
      {"sim.cancelled_per_scheduled",
       scheduled == 0 ? 0.0
                      : static_cast<double>(a.events.cancelled -
                                            b.events.cancelled) /
                            static_cast<double>(scheduled),
       "ratio"},
      {"sim.datagrams_per_call", per_call(b.datagrams, a.datagrams), "1/call"},
      {"sim.drops_per_call", per_call(b.drops, a.drops), "1/call"},
      {"sim.cpu_rejected_per_call", per_call(b.cpu_rejected, a.cpu_rejected),
       "1/call"},
      {"sim.event_slab_allocs",
       static_cast<double>(a.events.slab_allocs - b.events.slab_allocs),
       "count"},
      {"sip.msg_blocks_per_call",
       per_call(b.messages.fresh_allocs + b.messages.reuses,
                a.messages.fresh_allocs + a.messages.reuses),
       "1/call"},
      {"sip.msg_fresh_allocs",
       static_cast<double>(a.messages.fresh_allocs - b.messages.fresh_allocs),
       "count"},
      {"txn.created_per_call", per_call(b.txn_created, a.txn_created),
       "1/call"},
      {"txn.retransmissions_per_call",
       per_call(b.retransmissions, a.retransmissions), "1/call"},
      {"txn.absorbed_per_call", per_call(b.absorbed, a.absorbed), "1/call"},
      {"txn.active_peak", static_cast<double>(peaks.txns), "count"},
      {"dialog.created_per_call", per_call(b.dialog_created, a.dialog_created),
       "1/call"},
      {"dialog.active_peak", static_cast<double>(peaks.dialogs), "count"},
      {"proxy.stateful_share",
       stateful + stateless == 0
           ? 0.0
           : static_cast<double>(stateful) /
                 static_cast<double>(stateful + stateless),
       "ratio"},
      {"proxy.rejected_per_call",
       per_call(sum(b.proxy_rejected) + sum(b.proxy_rejected_503),
                sum(a.proxy_rejected) + sum(a.proxy_rejected_503)),
       "1/call"},
      {"proxy.location_queries_per_call",
       per_call(b.location_queries, a.location_queries), "1/call"},
      {"core.overload_signals_per_sim_s",
       static_cast<double>(a.overload_signals - b.overload_signals) /
           window_sim_s,
       "1/s"},
      {"workload.sim_failed_per_call", per_call(b.failed, a.failed),
       "1/call"},
      {"alloc.per_call", per_call(b.allocs.calls, a.allocs.calls), "1/call"},
      {"alloc.bytes_per_call", per_call(b.allocs.bytes, a.allocs.bytes),
       "B/call"},
  };
}

/// Simulates [from, to) in kSlice steps, returning each slice's host µs per
/// call attempted in it and sampling the live-state peaks at every step.
std::vector<double> timed_window(workload::TestBed& bed, SimTime from,
                                 SimTime to, Peaks* peaks) {
  std::vector<double> us_per_call;
  us_per_call.reserve(static_cast<std::size_t>((to - from).ns() / kSlice.ns()));
  Clock::time_point prev = Clock::now();
  std::uint64_t prev_attempted = bed.total_attempted_calls();
  for (SimTime t = from + kSlice; t <= to; t = t + kSlice) {
    bed.run_until(t);
    const Clock::time_point now = Clock::now();
    const std::uint64_t attempted = bed.total_attempted_calls();
    if (attempted > prev_attempted) {
      us_per_call.push_back(seconds_between(prev, now) * 1e6 /
                            static_cast<double>(attempted - prev_attempted));
    }
    prev = now;
    prev_attempted = attempted;
    peaks->sample(bed);
  }
  return us_per_call;
}

/// Builds, warms and measures one bed. `windows` > 1 (timed mode only)
/// appends more steady-state windows: host-time samples that cost no
/// further warm-up. Only the first window is digested and counted.
Rep run_rep(const Workload& w, std::uint64_t seed, Mode mode,
            int windows = 1) {
  Rep rep;
  const workload::BedFactory factory = w.make_factory(seed);
  const Clock::time_point t0 = Clock::now();
  std::unique_ptr<workload::TestBed> bed = factory(w.offered_scaled_cps());
  const Clock::time_point t1 = Clock::now();
  if (mode == Mode::kObserved) bed->enable_observability();
  bed->start_load();
  bed->run_until(w.warmup);
  const Clock::time_point t2 = Clock::now();
  rep.construct_s = seconds_between(t0, t1);
  rep.setup_s = seconds_between(t0, t2);

  std::vector<sim::UtilizationProbe> probes;
  probes.reserve(bed->proxies().size());
  for (const auto& proxy : bed->proxies()) {
    probes.emplace_back(proxy->cpu(), proxy->sim());
  }
  for (auto& uac : bed->uacs()) uac->metrics().setup_time_ms.reset();
  Peaks peaks;
  peaks.sample(*bed);
  const SimTime end = w.warmup + w.measure;

  const Counters before = read_counters(*bed);
  const Clock::time_point w0 = Clock::now();
  if (mode == Mode::kTraced) {
    rep.spans = traced_window(*bed, end);
  } else {
    rep.windows.push_back(timed_window(*bed, w.warmup, end, &peaks));
  }
  const Clock::time_point w1 = Clock::now();
  const Counters after = read_counters(*bed);
  rep.window_s = seconds_between(w0, w1);
  rep.attempted = after.attempted - before.attempted;
  rep.events = after.events.executed - before.events.executed;
  if (mode == Mode::kTraced) {
    std::int64_t prev = 0;
    for (const Span& s : rep.spans) {
      rep.element_s[s.element] += static_cast<double>(s.end_ns - prev) * 1e-9;
      prev = s.end_ns;
    }
    // The traced window is exactly what the spans tile.
    rep.window_s = static_cast<double>(prev) * 1e-9;
  } else if (mode == Mode::kTimed) {
    rep.counts = layer_counts(before, after, peaks, w.measure.to_seconds());
  }
  rep.digest = digest_of(window_point(before, after, *bed, probes,
                                      w.offered_scaled_cps(),
                                      w.measure.to_seconds()),
                         w.name);
  if (mode == Mode::kTimed) {
    for (int i = 1; i < windows; ++i) {
      const std::uint64_t calls = bed->total_attempted_calls();
      rep.windows.push_back(timed_window(*bed, w.warmup + w.measure * i,
                                         w.warmup + w.measure * (i + 1),
                                         &peaks));
      rep.attempted += bed->total_attempted_calls() - calls;
    }
  }
  rep.shards = bed->shard_count();
  rep.threads = process_threads();
  return rep;
}

/// The digest workload::measure_point itself yields for the same window,
/// tying the RunRecord built here to the runner's.
std::string runner_digest(const Workload& w, std::uint64_t seed) {
  workload::MeasureOptions options;
  options.warmup = w.warmup;
  options.measure = w.measure;
  return digest_of(workload::measure_point(w.make_factory(seed),
                                           w.offered_scaled_cps(), options),
                   w.name);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

/// The rep as one JSON line (read by run.py).
std::string rep_json(const Workload& w, std::uint64_t seed, const Rep& rep) {
  JsonValue out = JsonValue::object();
  out["workload"] = w.name;
  out["seed"] = seed;
  out["digest"] = rep.digest;
  out["pinned_digest"] =
      seed == kDefaultSeed ? JsonValue(w.pinned_digest) : JsonValue();
  out["shards"] = static_cast<std::uint64_t>(rep.shards);
  out["threads"] = static_cast<std::int64_t>(rep.threads);
  out["construct_s"] = rep.construct_s;
  out["setup_s"] = rep.setup_s;
  out["window_s"] = rep.window_s;
  out["attempted"] = rep.attempted;
  out["events"] = rep.events;
  out["peak_rss_mb"] = peak_rss_mb();
  JsonValue& windows = out["windows"] = JsonValue::array();
  for (const std::vector<double>& window : rep.windows) {
    windows.push_back(JsonValue::array_of(window));
  }
  JsonValue& counts = out["counts"] = JsonValue::object();
  for (const Metric& m : rep.counts) {
    JsonValue& count = counts[m.name] = JsonValue::object();
    count["value"] = m.value;
    count["unit"] = m.unit;
  }
  JsonValue& element_s = out["element_s"] = JsonValue::object();
  for (int e = 0; e < kElements; ++e) {
    element_s[kElementNames[e]] = rep.element_s[e];
  }
  return out.dump();
}

void write_spans(const std::string& path, const std::vector<Span>& spans) {
  std::ofstream out(path);
  out << "end_ns,duration_ns,locus,element\n";
  std::int64_t prev = 0;
  for (const Span& s : spans) {
    out << s.end_ns << ',' << s.end_ns - prev << ',' << s.locus << ','
        << kElementNames[s.element] << '\n';
    prev = s.end_ns;
  }
}

struct Args {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  std::string mode = "timed";
  int windows = 1;
  std::string spans_out;
};

bool parse_args(int argc, char** argv, Args* args) {
  if (argc % 2 != 1) return false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string_view flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--mode") {
      args->mode = value;
    } else if (flag == "--windows") {
      args->windows = std::atoi(value);
    } else if (flag == "--spans-out") {
      args->spans_out = value;
    } else {
      return false;
    }
  }
  return !args->workload.empty() && args->windows >= 1;
}

int run(const Args& args) {
  const Workload* w = find_workload(args.workload);
  if (w == nullptr) {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  if (args.mode == "runner") {
    JsonValue out = JsonValue::object();
    out["workload"] = w->name;
    out["seed"] = args.seed;
    out["digest"] = runner_digest(*w, args.seed);
    std::printf("%s\n", out.dump().c_str());
    return 0;
  }
  Mode mode = Mode::kTimed;
  if (args.mode == "observed") {
    mode = Mode::kObserved;
  } else if (args.mode == "traced") {
    mode = Mode::kTraced;
  } else if (args.mode != "timed") {
    std::fprintf(stderr, "unknown mode %s\n", args.mode.c_str());
    return 2;
  }
  const Rep rep = run_rep(*w, args.seed, mode, args.windows);
  if (!args.spans_out.empty()) write_spans(args.spans_out, rep.spans);
  std::printf("%s\n", rep_json(*w, args.seed, rep).c_str());
  return 0;
}

}  // namespace
}  // namespace svk::perfbench

int main(int argc, char** argv) {
  // The ambient environment must not change what runs: the bed resolves
  // its shard count from SVK_SIM_SHARDS, and the bench harness variables
  // would switch on threads, traces, metrics dumps or fault plans.
  for (const char* name : {"SVK_SIM_SHARDS", "SVK_BENCH_THREADS", "SVK_TRACE",
                           "SVK_METRICS", "SVK_FAULTS"}) {
    unsetenv(name);
  }
  svk::perfbench::Args args;
  if (!svk::perfbench::parse_args(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload NAME [--seed N] "
                 "[--mode timed|observed|traced|runner] [--windows K] "
                 "[--spans-out FILE]\n",
                 argv[0]);
    return 2;
  }
  return svk::perfbench::run(args);
}
