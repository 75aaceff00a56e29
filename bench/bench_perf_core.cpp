// Core perf baseline — the tracked wall-clock numbers every PR is held to.
//
// Unlike the figure benches (which reproduce the paper's *simulated*
// metrics), this binary measures the simulator itself: how fast the
// discrete-event core schedules, cancels and dispatches events, how fast
// the SIP layer clones and serializes messages on the forward path, and how
// long the standard Figure-5 two-series sweep takes end to end. Results go
// to BENCH_perf_core.json; EXPERIMENTS.md records the history.
//
// Modes:
//   (default)  full run: microbenches + the standard fig5 two-series sweep
//   --quick    CI smoke: smaller iteration counts, 3-point sweep. The
//              allocation-regression gate (events scheduled per event-pool
//              slab allocation, heap allocations per steady-state message
//              forward, state-store allocations in steady churn) is checked
//              in BOTH modes and reflected in the process exit code, so CI
//              fails on an allocation regression without depending on noisy
//              wall-clock numbers.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <new>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "bench_util.hpp"
#include "check/transaction_key.hpp"
#include "common/flat_table.hpp"
#include "common/hash.hpp"
#include "common/slab.hpp"
#include "sim/simulator.hpp"
#include "sip/branch.hpp"
#include "sip/message.hpp"

// Every heap allocation of this thread, counted: the message gate reads it
// around the steady forward loop.
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

namespace {

using namespace svk;
using namespace svk::bench;
using Clock = std::chrono::steady_clock;

bool g_quick = false;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Peak resident set size of this process, in bytes (Linux VmHWM).
std::uint64_t peak_rss_bytes() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  std::uint64_t kib = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kib = std::strtoull(line + 6, nullptr, 10);
      break;
    }
  }
  std::fclose(f);
  return kib * 1024;
}

// ---------------------------------------------------------------------------
// Microbench 1: schedule + cancel churn (the RFC 3261 timer pattern).
//
// Transactions arm timers far in the future (timer B/F at 32s, timer C at
// 180s, linger timers at 5-32s) and cancel nearly all of them milliseconds
// later when the response arrives. The old priority_queue core paid
// O(log n) per schedule and left a tombstone per cancel that stayed
// resident until the queue drained past it.
// ---------------------------------------------------------------------------
double bench_schedule_cancel(sim::Simulator& sim, std::uint64_t rounds,
                             std::uint64_t batch) {
  std::vector<sim::EventId> ids(batch);
  const auto start = Clock::now();
  for (std::uint64_t r = 0; r < rounds; ++r) {
    for (std::uint64_t i = 0; i < batch; ++i) {
      // Delays spread over the RFC timer range: A/E-scale (ms) through
      // B/F (32s) up to timer C (180s).
      const SimTime delay =
          SimTime::millis(500) + SimTime::seconds(static_cast<double>(i % 180));
      ids[i] = sim.schedule(delay, [] {});
    }
    for (std::uint64_t i = 0; i < batch; ++i) sim.cancel(ids[i]);
    // Advance virtual time a little, as the event loop would between
    // arrival bursts.
    sim.schedule(SimTime::micros(100), [] {});
    sim.step();
  }
  const double elapsed = seconds_since(start);
  return static_cast<double>(rounds * batch) / elapsed;  // schedule+cancel pairs
}

// ---------------------------------------------------------------------------
// Microbench 2: event dispatch throughput. A population of self-rescheduling
// "timers" (the steady-state shape of the simulation: every executed event
// schedules its successor) run for a fixed virtual horizon.
// ---------------------------------------------------------------------------
double bench_dispatch(sim::Simulator& sim, int population, double sim_seconds) {
  std::uint64_t fired = 0;
  struct Timer {
    sim::Simulator* sim;
    std::uint64_t* fired;
    SimTime period;
    void arm() {
      sim->schedule(period, [this] {
        ++*fired;
        arm();
      });
    }
  };
  std::vector<Timer> timers(static_cast<std::size_t>(population));
  for (int i = 0; i < population; ++i) {
    timers[static_cast<std::size_t>(i)] = {&sim, &fired,
                                           SimTime::micros(50 + i % 100)};
    timers[static_cast<std::size_t>(i)].arm();
  }
  const SimTime horizon = sim.now() + SimTime::seconds(sim_seconds);
  const auto start = Clock::now();
  sim.run_until(horizon);
  const double elapsed = seconds_since(start);
  return static_cast<double>(fired) / elapsed;
}

// ---------------------------------------------------------------------------
// Microbench 3: copy-on-forward. Clone a mid-chain INVITE, push a Via,
// decrement Max-Forwards and share it — exactly what ProxyServer does per
// hop. Field shapes are the fig5 run's: 18-23 char hosts, a 28-char Call-ID,
// generator-shaped branches and the UAC's SDP body, all longer than
// std::string's inline buffer, so a header that copied its text would
// allocate. The INVITE is the statelessly forwarded one, the common case,
// which carries no X-Stateful mark.
// ---------------------------------------------------------------------------
sip::Message make_invite() {
  const sip::Token uac_host("uac0.caller.example.net");
  sip::Message msg = sip::Message::request(
      sip::Method::kInvite, sip::Uri("user0", "callee.example.net"),
      sip::NameAddr{"", sip::Uri("caller", uac_host), "uac4711"},
      sip::NameAddr{"", sip::Uri("user0", "callee.example.net"), ""},
      "uac0.caller.example.net-4711", sip::CSeq{1, sip::Method::kInvite});
  msg.push_via(sip::Via{sip::udp_protocol(), uac_host,
                        sip::BranchGenerator((1ULL << 32) | 1).next()});
  msg.set_contact(sip::NameAddr{"", sip::Uri("caller", uac_host), ""});
  msg.set_body("v=0 o=sim c=IN IP4 0.0.0.0 m=audio 49170 RTP/AVP 0");
  return msg;
}

sip::Via proxy_via(std::string_view host, std::string_view incoming_branch) {
  return sip::Via{sip::udp_protocol(), sip::Token(host),
                  sip::stateless_branch(incoming_branch, host)};
}

double bench_forward(std::uint64_t iters, std::uint64_t* forwarded,
                     std::uint64_t* steady_heap_allocs) {
  const sip::MessagePtr base = [&] {
    sip::Message m = make_invite();
    m.push_via(proxy_via("proxy0.example.net", m.top_via().branch));
    return std::move(m).finish();
  }();
  // The hop's Via, built once: a proxy interns its host once, and minting a
  // branch is part of creating a transaction, not of copying a message.
  const sip::Via hop = proxy_via("proxy1.example.net", base->top_via().branch);
  // A small in-flight window models messages alive while traversing links.
  std::vector<sip::MessagePtr> window(64);
  const auto forward_one = [&](std::uint64_t i) {
    sip::Message fwd = sip::clone(*base);
    fwd.push_via(hop);
    fwd.decrement_max_forwards();
    window[i % window.size()] = std::move(fwd).finish();
  };
  // Warm the window and the message pool before measuring; from then on a
  // forward must touch no allocator at all.
  for (std::uint64_t i = 0; i < 4096; ++i) forward_one(i);
  const std::uint64_t allocs_before = t_heap_allocs;
  const auto start = Clock::now();
  for (std::uint64_t i = 0; i < iters; ++i) forward_one(i);
  const double elapsed = seconds_since(start);
  *steady_heap_allocs = t_heap_allocs - allocs_before;
  *forwarded = iters;
  return static_cast<double>(iters) / elapsed;
}

double bench_to_wire(std::uint64_t iters) {
  sip::Message msg = make_invite();
  msg.push_via(proxy_via("proxy0.example.net", msg.top_via().branch));
  msg.push_via(proxy_via("proxy1.example.net", msg.top_via().branch));
  std::uint64_t bytes = 0;
  const auto start = Clock::now();
  for (std::uint64_t i = 0; i < iters; ++i) {
    bytes += msg.to_wire().size();
  }
  const double elapsed = seconds_since(start);
  benchmark::DoNotOptimize(bytes);
  return static_cast<double>(iters) / elapsed;
}

// ---------------------------------------------------------------------------
// Microbench 4: state-store churn. The transaction/dialog tables were the
// last allocation-heavy layer of the hot loop; this measures the flat
// slab-backed store (FlatTable of precomputed-hash entries over a Slab,
// probes are hashed string_views) against the node-based layout it replaced
// (unordered_map keyed by owning TransactionKey strings, unique_ptr
// values), on the dispatch pattern the proxy actually runs: look up by key
// fields read off a message, and churn (erase + re-create) at call
// completion. The slab/table alloc counters around the steady churn phase
// are the regression gate: once warm, the store must touch no allocator.
// ---------------------------------------------------------------------------
struct StateStoreNumbers {
  double flat_dispatch_per_sec = 0.0;
  double map_dispatch_per_sec = 0.0;
  double flat_churn_per_sec = 0.0;
  double map_churn_per_sec = 0.0;
  std::uint64_t steady_allocs = 0;  // slab chunk allocs + table grows
};

StateStoreNumbers bench_state_store(std::size_t population,
                                    std::uint64_t lookups,
                                    std::uint64_t churn_iters) {
  // A slab-resident stand-in for a transaction: owns its key fields the way
  // a real transaction owns its retained request (key-inside-value).
  struct FakeTxn {
    std::string branch;
    std::string sent_by;
    sip::Method method = sip::Method::kInvite;
    std::uint64_t hits = 0;
  };

  // Key corpus with realistic shapes: per-call branch tokens, a handful of
  // sending hosts (Via sent-by values repeat across calls at one element).
  std::vector<std::string> branches(population);
  std::vector<std::string> hosts(8);
  for (std::size_t i = 0; i < hosts.size(); ++i) {
    hosts[i] = "proxy" + std::to_string(i) + ".example.test";
  }
  for (std::size_t i = 0; i < population; ++i) {
    char buf[48];
    std::snprintf(buf, sizeof(buf), "z9hG4bK-%zx-%zx", i, i * 2654435761u);
    branches[i] = buf;
  }
  const auto host_of = [&](std::size_t i) -> const std::string& {
    return hosts[i % hosts.size()];
  };
  // Deterministic scrambled visit order (no RNG: golden-ratio stride).
  const auto scrambled = [&](std::uint64_t i) {
    return static_cast<std::size_t>((i * common::kGolden64) % population);
  };

  StateStoreNumbers out;

  // ---- Flat slab-backed store (the shipped layout) ----
  {
    common::Slab<FakeTxn> slab;
    common::FlatTable<common::SlabHandle> table;
    std::vector<common::SlabHandle> handles(population);
    const auto probe_find = [&](std::size_t i) -> FakeTxn* {
      // What dispatch does: hash the key fields in place, probe, compare
      // views against the slab-resident object's own fields.
      const std::string_view branch = branches[i];
      const std::string_view sent_by = host_of(i);
      const std::uint64_t h =
          sip::txn_key_hash(branch, sent_by, sip::Method::kInvite);
      common::SlabHandle* slot =
          table.find(h, [&](const common::SlabHandle& v) {
            const FakeTxn* t = slab.get(v);
            return t->branch == branch && t->sent_by == sent_by &&
                   t->method == sip::Method::kInvite;
          });
      return slot != nullptr ? slab.get(*slot) : nullptr;
    };
    const auto create = [&](std::size_t i) {
      const std::uint64_t h = sip::txn_key_hash(branches[i], host_of(i),
                                                sip::Method::kInvite);
      handles[i] =
          slab.emplace(FakeTxn{branches[i], host_of(i), sip::Method::kInvite});
      table.insert(h, handles[i]);
    };
    const auto erase = [&](std::size_t i) {
      const std::uint64_t h = sip::txn_key_hash(branches[i], host_of(i),
                                                sip::Method::kInvite);
      table.erase(h, [&](const common::SlabHandle& v) {
        return v == handles[i];
      });
      slab.erase(handles[i]);
    };
    for (std::size_t i = 0; i < population; ++i) create(i);

    std::uint64_t found = 0;
    auto start = Clock::now();
    for (std::uint64_t i = 0; i < lookups; ++i) {
      FakeTxn* t = probe_find(scrambled(i));
      if (t != nullptr) {
        ++t->hits;
        ++found;
      }
    }
    out.flat_dispatch_per_sec =
        static_cast<double>(lookups) / seconds_since(start);
    benchmark::DoNotOptimize(found);

    // Steady churn: at a fixed live population, erase + re-create must be
    // served entirely from the freelist and the settled table capacity.
    const std::uint64_t allocs_before =
        slab.stats().chunk_allocs + table.stats().grows;
    start = Clock::now();
    for (std::uint64_t i = 0; i < churn_iters; ++i) {
      const std::size_t k = scrambled(i);
      erase(k);
      create(k);
    }
    out.flat_churn_per_sec =
        static_cast<double>(churn_iters) / seconds_since(start);
    out.steady_allocs =
        slab.stats().chunk_allocs + table.stats().grows - allocs_before;
  }

  // ---- Node-based baseline (the layout this replaced) ----
  {
    std::unordered_map<check::TransactionKey, std::unique_ptr<FakeTxn>,
                       check::TransactionKeyHash>
        map;
    const auto make_key = [&](std::size_t i) {
      // What the old dispatch did: materialize an owning TransactionKey
      // (two string copies) per probe.
      return check::TransactionKey{branches[i], host_of(i),
                                 sip::Method::kInvite};
    };
    for (std::size_t i = 0; i < population; ++i) {
      map[make_key(i)] = std::make_unique<FakeTxn>(
          FakeTxn{branches[i], host_of(i), sip::Method::kInvite});
    }

    std::uint64_t found = 0;
    auto start = Clock::now();
    for (std::uint64_t i = 0; i < lookups; ++i) {
      const auto it = map.find(make_key(scrambled(i)));
      if (it != map.end()) {
        ++it->second->hits;
        ++found;
      }
    }
    out.map_dispatch_per_sec =
        static_cast<double>(lookups) / seconds_since(start);
    benchmark::DoNotOptimize(found);

    start = Clock::now();
    for (std::uint64_t i = 0; i < churn_iters; ++i) {
      const std::size_t k = scrambled(i);
      map.erase(make_key(k));
      map[make_key(k)] = std::make_unique<FakeTxn>(
          FakeTxn{branches[k], host_of(k), sip::Method::kInvite});
    }
    out.map_churn_per_sec =
        static_cast<double>(churn_iters) / seconds_since(start);
  }

  return out;
}

// ---------------------------------------------------------------------------
// The standard Figure-5 two-series sweep, timed wall-clock end to end.
// ---------------------------------------------------------------------------
double bench_fig5_sweep(double* static_sat, double* dynamic_sat) {
  using workload::PolicyKind;
  const double lo = 7000.0, hi = g_quick ? 8000.0 : 13000.0, step = 500.0;
  const auto start = Clock::now();
  const Series s_static = run_throughput_series(
      "static(all-SF)",
      workload::series_chain(2, scenario(PolicyKind::kStaticAllStateful)), lo,
      hi, step);
  const Series s_dyn = run_throughput_series(
      "SERvartuka", workload::series_chain(2, scenario(PolicyKind::kServartuka)),
      lo, hi, step);
  const double elapsed = seconds_since(start);
  *static_sat = s_static.max_value;
  *dynamic_sat = s_dyn.max_value;
  return elapsed;
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

  const std::uint64_t churn_rounds = g_quick ? 2'000 : 20'000;
  const std::uint64_t churn_batch = 64;
  const int dispatch_population = 512;
  const double dispatch_sim_seconds = g_quick ? 0.5 : 4.0;
  const std::uint64_t forward_iters = g_quick ? 500'000 : 4'000'000;
  const std::uint64_t wire_iters = g_quick ? 200'000 : 1'000'000;

  print_header("perf_core", "simulator + SIP hot-path wall-clock baseline");

  sim::Simulator churn_sim;
  const double sched_cancel =
      bench_schedule_cancel(churn_sim, churn_rounds, churn_batch);
  std::printf("schedule+cancel churn : %12.0f pairs/sec (pending after: %zu)\n",
              sched_cancel, churn_sim.pending_count());

  sim::Simulator dispatch_sim;
  const double dispatch =
      bench_dispatch(dispatch_sim, dispatch_population, dispatch_sim_seconds);
  std::printf("event dispatch        : %12.0f events/sec (executed: %llu)\n",
              dispatch,
              static_cast<unsigned long long>(dispatch_sim.executed_count()));

  std::uint64_t forwarded = 0;
  std::uint64_t steady_heap_allocs = 0;
  const double forward =
      bench_forward(forward_iters, &forwarded, &steady_heap_allocs);
  std::printf("message forward       : %12.0f msgs/sec\n", forward);

  const double wire = bench_to_wire(wire_iters);
  std::printf("to_wire serialization : %12.0f msgs/sec\n", wire);

  // Live population models an element near saturation (thousands to tens of
  // thousands of in-flight transactions — 128k is already generous); the
  // churn phase then creates + erases well past 10^6 transactions through
  // that fixed live set, which is the ROADMAP-scale pattern (millions of
  // calls per sweep, bounded concurrency).
  const std::size_t store_population = g_quick ? 65'536 : 131'072;
  const std::uint64_t store_lookups = g_quick ? 2'000'000 : 8'000'000;
  const std::uint64_t store_churn = g_quick ? 500'000 : 2'000'000;
  const StateStoreNumbers store =
      bench_state_store(store_population, store_lookups, store_churn);
  const double dispatch_speedup =
      store.map_dispatch_per_sec > 0.0
          ? store.flat_dispatch_per_sec / store.map_dispatch_per_sec
          : 0.0;
  const double churn_speedup =
      store.map_churn_per_sec > 0.0
          ? store.flat_churn_per_sec / store.map_churn_per_sec
          : 0.0;
  std::printf("state store dispatch  : %12.0f lookups/sec flat, "
              "%12.0f map (%.2fx)\n",
              store.flat_dispatch_per_sec, store.map_dispatch_per_sec,
              dispatch_speedup);
  std::printf("state store churn     : %12.0f pairs/sec flat, "
              "%12.0f map (%.2fx)\n",
              store.flat_churn_per_sec, store.map_churn_per_sec,
              churn_speedup);

  double static_sat = 0.0, dynamic_sat = 0.0;
  const double sweep_seconds = bench_fig5_sweep(&static_sat, &dynamic_sat);
  std::printf("fig5 two-series sweep : %12.2f s wall-clock%s\n", sweep_seconds,
              g_quick ? " (--quick)" : "");
  std::printf("  simulated saturation: static %.0f cps, SERvartuka %.0f cps\n",
              static_sat, dynamic_sat);

  const std::uint64_t rss = peak_rss_bytes();
  std::printf("peak RSS              : %12.1f MiB\n",
              static_cast<double>(rss) / (1024.0 * 1024.0));

  // -- Allocation gate ------------------------------------------------------
  // Regression detection that does not depend on wall-clock noise: the
  // event pool must amortize its slab mallocs over a huge number of
  // scheduled events, and a warm forward (clone, push Via, finish) must
  // make no heap allocation at all — neither a pool block nor a string.
  const auto& churn_stats = churn_sim.event_stats();
  const auto& dispatch_stats = dispatch_sim.event_stats();
  const std::uint64_t events_scheduled =
      churn_stats.scheduled + dispatch_stats.scheduled;
  const std::uint64_t slab_allocs =
      churn_stats.slab_allocs + dispatch_stats.slab_allocs;
  const double events_per_slab =
      static_cast<double>(events_scheduled) /
      static_cast<double>(slab_allocs == 0 ? 1 : slab_allocs);
  // A healthy pool lands far above this (millions per slab); a core that
  // allocates per event would sit near the slab size (256).
  const double kMinEventsPerSlab = 50'000.0;
  const bool event_gate_ok = events_per_slab >= kMinEventsPerSlab;
  const bool message_gate_ok = steady_heap_allocs == 0;
  std::printf("alloc gate            : %llu events / %llu slab allocs "
              "(%.0f per slab, min %.0f) -> %s\n",
              static_cast<unsigned long long>(events_scheduled),
              static_cast<unsigned long long>(slab_allocs), events_per_slab,
              kMinEventsPerSlab, event_gate_ok ? "ok" : "FAIL");
  std::printf("alloc gate            : %llu heap allocs in %llu steady "
              "forwards (want 0) -> %s\n",
              static_cast<unsigned long long>(steady_heap_allocs),
              static_cast<unsigned long long>(forwarded),
              message_gate_ok ? "ok" : "FAIL");
  // The state store's steady churn (fixed live population) must be served
  // entirely from the slab freelist and the settled table capacity.
  const bool store_gate_ok = store.steady_allocs == 0;
  std::printf("alloc gate            : %llu state-store allocs in steady "
              "churn (want 0) -> %s\n",
              static_cast<unsigned long long>(store.steady_allocs),
              store_gate_ok ? "ok" : "FAIL");

  BenchReport report("perf_core");
  report.root()["quick"] = g_quick;
  report.add_metric("schedule_cancel_pairs_per_sec", sched_cancel);
  report.add_metric("dispatch_events_per_sec", dispatch);
  report.add_metric("forward_msgs_per_sec", forward);
  report.add_metric("to_wire_msgs_per_sec", wire);
  report.add_metric("fig5_sweep_seconds", sweep_seconds);
  report.add_metric("fig5_static_saturation_cps", static_sat);
  report.add_metric("fig5_servartuka_saturation_cps", dynamic_sat);
  report.add_metric("peak_rss_bytes", static_cast<double>(rss));
  report.add_metric("events_scheduled", static_cast<double>(events_scheduled));
  report.add_metric("event_pool_slab_allocs", static_cast<double>(slab_allocs));
  report.add_metric("events_per_slab_alloc", events_per_slab);
  report.add_metric("forward_steady_heap_allocs",
                    static_cast<double>(steady_heap_allocs));
  report.add_metric("message_pool_reuses",
                    static_cast<double>(sip::message_pool_stats().reuses));
  report.add_metric("state_store_flat_dispatch_per_sec",
                    store.flat_dispatch_per_sec);
  report.add_metric("state_store_map_dispatch_per_sec",
                    store.map_dispatch_per_sec);
  report.add_metric("state_store_dispatch_speedup", dispatch_speedup);
  report.add_metric("state_store_flat_churn_per_sec",
                    store.flat_churn_per_sec);
  report.add_metric("state_store_map_churn_per_sec", store.map_churn_per_sec);
  report.add_metric("state_store_churn_speedup", churn_speedup);
  report.add_metric("state_store_steady_allocs",
                    static_cast<double>(store.steady_allocs));
  report.root()["alloc_gate_pass"] =
      event_gate_ok && message_gate_ok && store_gate_ok;
  report.write();
  return event_gate_ok && message_gate_ok && store_gate_ok ? 0 : 1;
}
