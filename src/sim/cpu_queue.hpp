// Single-core CPU model.
//
// Each server node owns a CpuQueue: a non-idling FIFO work queue with a
// fixed processing capacity (abstract "CPU events" per second, matching the
// oprofile unit of Figure 3). It models service time only: every submitted
// unit of work is queued and served. Whether a request is worth serving is
// decided before it reaches the queue, by the proxy's one admission gate
// (overload::OverloadPolicy), which reads backlog().
#pragma once

#include <cstdint>

#include "common/sim_time.hpp"
#include "obs/metrics.hpp"
#include "sim/event_action.hpp"
#include "sim/simulator.hpp"

namespace svk::sim {

struct CpuStats {
  std::uint64_t admitted = 0;
  /// Requests the owning proxy refused with 500 at its admission gate
  /// (see record_rejection).
  std::uint64_t rejected = 0;
  double total_cost = 0.0;  // admitted cost units
};

/// FIFO CPU with utilization accounting.
class CpuQueue {
 public:
  /// Scheduled as the completion event itself: no std::function block
  /// wrapped inside the event's own small-buffer action.
  using Completion = EventAction;

  /// `capacity` is the processing capacity in cost units per second.
  CpuQueue(Simulator& sim, double capacity);

  /// Queues `cost` units of work; on completion (after queueing + service
  /// time) runs `done`, if set (pass `{}` for none).
  void submit(double cost, Completion done);

  /// Counts one request refused with 500 into stats().rejected. Only
  /// benchmark readers still take the count from here; the proxy's own
  /// ProxyStats::rejected_busy holds the same number.
  void record_rejection() { ++stats_.rejected; }

  /// Backlog ahead of newly submitted work, as a delay.
  [[nodiscard]] SimTime backlog() const;

  /// Cumulative busy time up to `now`. Because the server is non-idling and
  /// FIFO, busy time = total admitted service time minus the part still
  /// scheduled in the future.
  [[nodiscard]] SimTime busy_elapsed(SimTime now) const;

  [[nodiscard]] const CpuStats& stats() const { return stats_; }
  [[nodiscard]] double capacity() const { return capacity_; }

  /// Fault injection: scales the effective capacity (1.0 = nominal, 0.5 =
  /// half speed). The unserved backlog is rescaled to the new speed at the
  /// change instant, so a degrade (or recovery) immediately stretches (or
  /// shrinks) the queueing delay the admission gate and utilization see —
  /// not just the service time of work submitted afterwards. Completion
  /// callbacks already in the event queue keep their original fire times
  /// (the model treats queued jobs as dispatched); the backlog clock is
  /// what backlog() and busy_elapsed() read.
  void set_capacity_factor(double factor);
  [[nodiscard]] double capacity_factor() const { return capacity_factor_; }

  /// Node id used for trace events (the owning proxy's address); 0 until
  /// set. Tracing reads the simulator's observability sinks.
  void set_trace_tid(std::uint32_t tid) { trace_tid_ = tid; }

 private:
  Simulator& sim_;
  double capacity_;
  double capacity_factor_{1.0};  // fault-injected degradation multiplier
  SimTime busy_until_;        // when the last admitted work completes
  SimTime total_service_;     // sum of all admitted service times
  CpuStats stats_;
  std::uint32_t trace_tid_{0};
  // Pre-resolved instrument: submit runs once per message per node.
  obs::CounterHandle admitted_counter_{"cpu.admitted"};
};

/// Measures mean CPU utilization over an interval by snapshotting
/// CpuQueue::busy_elapsed at the interval start.
class UtilizationProbe {
 public:
  UtilizationProbe(const CpuQueue& cpu, const Simulator& sim);

  /// Restarts the measurement interval at the current time.
  void restart();

  /// Mean utilization in [restart time, now], in [0, 1].
  [[nodiscard]] double utilization() const;

 private:
  const CpuQueue& cpu_;
  const Simulator& sim_;
  SimTime start_;
  SimTime busy_at_start_;
};

}  // namespace svk::sim
