// Overload control (src/overload): the proxy's one admission gate.
//
// Every new INVITE a proxy accepts passes exactly one OverloadPolicy::admit
// call (ProxyServer::plan_new_request). Three policies sit behind it:
//
//  * kNone — the paper's OpenSER: no control loop. A new INVITE is refused
//    with `500 Server Busy` when the CPU backlog ahead of it implies more
//    than `max_queue_delay` of queueing. This is the saturation signature
//    the paper reports, and the deep-buffer baseline the controls below are
//    measured against.
//
//  * kLocalOccupancy — occupancy-based local admission. A smoothed CPU
//    occupancy estimate is compared against a target; above target, a
//    deterministic fraction of new INVITEs is rejected with
//    `503 Service Unavailable` + `Retry-After`, instead of waiting for the
//    queue-delay bound (which rejects only after the damage — a full
//    backlog — is already done).
//
//  * kHopByHopRate — RFC 7339-style rate-based feedback. In addition to the
//    local gate, the node runs a token-bucket restrictor per upstream
//    neighbor: when occupancy crosses the target it computes a permitted
//    upstream rate and piggybacks it as an `oc` parameter on the Via of
//    every response it sends upstream. The upstream neighbor throttles
//    before the wire (rejecting locally with 503 on the overloaded hop's
//    behalf), so the overloaded server never spends CPU on work it would
//    shed anyway.
//
// SERvartuka's delegation decides *where* transaction state lives but sheds
// no load: once the whole chain saturates, retransmission storms pin goodput
// far below capacity (the SIP congestion collapse studied by Shen,
// Schulzrinne & Nahum and by Hong, Huang & Yan). The controls add the
// missing piece; the X-Overload state-delegation signalling is separate and
// stays in src/core.
//
// Determinism invariants (the whole simulator is bit-reproducible):
//  * No wall clock, no RNG. All control state advances on sim time only:
//    occupancy samples arrive from the proxy's periodic control tick, token
//    buckets refill lazily from `now` deltas, and fractional shedding uses
//    error diffusion (acc += fraction; acc >= 1 -> act) instead of coin
//    flips.
//  * admit() mutates only policy-local state; identical call sequences give
//    identical decisions.
#pragma once

#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "common/sim_time.hpp"

namespace svk::overload {

enum class ControlKind {
  kNone,            // no control loop: queue-delay bound + 500
  kLocalOccupancy,  // local 503 + Retry-After above target occupancy
  kHopByHopRate,    // local gate + oc Via feedback to upstream throttlers
};

[[nodiscard]] std::string_view to_string(ControlKind kind);

struct OverloadConfig {
  ControlKind kind = ControlKind::kNone;
  /// kNone's admission bound: a new INVITE is refused with 500 when the CPU
  /// backlog ahead of it exceeds this queueing delay. Also the scale of the
  /// SERvartuka controller's observed backlog fraction.
  SimTime max_queue_delay = SimTime::millis(1500);
  /// Occupancy setpoint the controller regulates toward. Occupancy is
  /// utilization plus normalized backlog growth, so it exceeds 1.0 when the
  /// queue is building — that surplus is the control error.
  double target_occupancy = 0.9;
  /// EWMA gain for the occupancy estimate (per control period).
  double smoothing_gain = 0.3;
  /// Control period: how often the proxy feeds an occupancy sample.
  SimTime control_period = SimTime::millis(200);
  /// Retry-After value stamped on locally generated 503s, in seconds.
  double retry_after_s = 1.0;
  /// Per-period multiplicative rate adjustment clamps.
  double min_decrease = 0.5;
  double increase_factor = 1.1;
  /// The advertised rate never drops below this (cps); a trickle must keep
  /// flowing so responses keep refreshing the advertisement upstream.
  double min_rate_rps = 1.0;
  /// Token bucket depth, as seconds of burst at the advertised rate.
  double bucket_depth_s = 0.2;
  /// An advertisement not refreshed within this window expires and the
  /// throttler stops restricting (RFC 7339 oc-validity analog; guarantees
  /// recovery if the overloaded hop goes quiet).
  SimTime advert_validity = SimTime::millis(1000);
  /// Consecutive below-target control periods required before the
  /// restrictor leaves controlled mode.
  int release_periods = 5;
};

struct OverloadStats {
  std::uint64_t local_rejects = 0;      // shed by the local occupancy gate
  std::uint64_t throttled_rejects = 0;  // shed on a neighbor's behalf
  std::uint64_t occupancy_samples = 0;
  std::uint64_t rate_updates = 0;       // restrictor recomputations
  std::uint64_t advertisements_received = 0;
  std::uint64_t downstream_503 = 0;     // 503s seen from downstream
  double smoothed_occupancy = 0.0;
  /// Current advertised upstream rate (cps); negative = unrestricted.
  double advertised_rate_rps = -1.0;
};

enum class AdmitDecision {
  kAdmit,
  kRejectBusy,       // the CPU backlog exceeds max_queue_delay (500)
  kRejectLocal,      // this node is overloaded (local occupancy gate)
  kRejectThrottled,  // a downstream neighbor's advertised rate is exhausted
};

/// Ingress admission + feedback control, consulted by ProxyServer. One
/// instance per proxy; paths index the proxy's RouteTable paths. The
/// defaults are those of a policy with no feedback: it ignores occupancy
/// samples, advertises nothing and only counts what arrives from downstream.
class OverloadPolicy {
 public:
  explicit OverloadPolicy(OverloadConfig config) : config_(config) {}
  virtual ~OverloadPolicy() = default;

  OverloadPolicy(const OverloadPolicy&) = delete;
  OverloadPolicy& operator=(const OverloadPolicy&) = delete;

  /// Admission decision for a new session-initiating request bound for
  /// `path_index`, arriving while `backlog` of CPU work is queued ahead of
  /// it. Mutates throttle/shed state (a decision is a commitment).
  [[nodiscard]] virtual AdmitDecision admit(std::size_t path_index,
                                            SimTime now, SimTime backlog) = 0;

  /// How often the proxy should feed occupancy samples; zero arms no
  /// control tick.
  [[nodiscard]] virtual SimTime control_period() const {
    return config_.control_period;
  }

  /// Periodic occupancy sample from the proxy's control tick. `occupancy`
  /// is utilization + backlog growth (may exceed 1.0 under overload).
  virtual void on_occupancy_sample(double /*occupancy*/, SimTime /*now*/) {}

  /// Rate this node currently advertises to its upstream neighbors (cps);
  /// negative = no restriction. Stamped as `oc` on outgoing responses.
  [[nodiscard]] virtual double advertised_rate() const { return -1.0; }

  /// An `oc` advertisement arrived from the next hop of `path_index`.
  virtual void on_rate_advertisement(std::size_t /*path_index*/,
                                     double /*rate_rps*/, SimTime /*now*/) {
    ++stats_.advertisements_received;
  }

  /// A 503 (without oc feedback) arrived from the next hop of `path_index`.
  virtual void on_downstream_503(std::size_t /*path_index*/,
                                 SimTime /*now*/) {
    ++stats_.downstream_503;
  }

  [[nodiscard]] std::string_view name() const {
    return to_string(config_.kind);
  }

  [[nodiscard]] const OverloadStats& stats() const { return stats_; }
  [[nodiscard]] const OverloadConfig& config() const { return config_; }

 protected:
  OverloadConfig config_;
  OverloadStats stats_;
};

/// Builds the policy for `config.kind` (never null).
[[nodiscard]] std::unique_ptr<OverloadPolicy> make_overload_policy(
    const OverloadConfig& config, std::size_t num_paths);

}  // namespace svk::overload
