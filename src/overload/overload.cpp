#include "overload/overload.hpp"

#include <algorithm>
#include <cassert>

namespace svk::overload {

std::string_view to_string(ControlKind kind) {
  switch (kind) {
    case ControlKind::kNone:
      return "none";
    case ControlKind::kLocalOccupancy:
      return "local";
    case ControlKind::kHopByHopRate:
      return "hop-by-hop";
  }
  return "?";
}

namespace {

// ---------------------------------------------------------------------------
// Queue-delay bound (no control)
// ---------------------------------------------------------------------------

/// The paper's OpenSER: refuse with 500 once the backlog ahead of a new
/// INVITE implies more than max_queue_delay of queueing. Backlog equal to
/// the bound is still admitted. No control loop: no tick, no feedback.
class QueueBoundPolicy : public OverloadPolicy {
 public:
  using OverloadPolicy::OverloadPolicy;

  AdmitDecision admit(std::size_t, SimTime, SimTime backlog) override {
    return backlog > config_.max_queue_delay ? AdmitDecision::kRejectBusy
                                             : AdmitDecision::kAdmit;
  }

  SimTime control_period() const override { return SimTime{}; }
};

// ---------------------------------------------------------------------------
// Local occupancy gate
// ---------------------------------------------------------------------------

/// Occupancy-based local admission: EWMA the occupancy samples; above the
/// target, shed the fraction of arrivals that would bring the carried load
/// back to target (accept_fraction = target / smoothed), realized
/// deterministically by error diffusion.
class LocalOccupancyPolicy : public OverloadPolicy {
 public:
  explicit LocalOccupancyPolicy(OverloadConfig config)
      : OverloadPolicy(config) {}

  AdmitDecision admit(std::size_t, SimTime, SimTime) override {
    return local_gate();
  }

  void on_occupancy_sample(double occupancy, SimTime now) override {
    (void)now;
    ++stats_.occupancy_samples;
    const double g = config_.smoothing_gain;
    stats_.smoothed_occupancy =
        (1.0 - g) * stats_.smoothed_occupancy + g * occupancy;
  }

 protected:
  /// The shared shedding step: admit unless smoothed occupancy exceeds the
  /// target, in which case pass accept_fraction of arrivals through.
  [[nodiscard]] AdmitDecision local_gate() {
    const double occ = stats_.smoothed_occupancy;
    if (occ <= config_.target_occupancy) return AdmitDecision::kAdmit;
    const double accept = config_.target_occupancy / occ;
    shed_acc_ += 1.0 - accept;
    if (shed_acc_ >= 1.0) {
      shed_acc_ -= 1.0;
      ++stats_.local_rejects;
      return AdmitDecision::kRejectLocal;
    }
    return AdmitDecision::kAdmit;
  }

 private:
  double shed_acc_ = 0.0;  // error-diffusion accumulator (no RNG)
};

// ---------------------------------------------------------------------------
// Hop-by-hop rate feedback
// ---------------------------------------------------------------------------

/// RFC 7339-style control. Two roles in one object:
///
///  * Restrictor (this node as the overloaded server): measures its own
///    offered rate per control period; when smoothed occupancy crosses the
///    target it advertises rate = offered * target / occupancy, then
///    adjusts multiplicatively each period (clamped to
///    [min_decrease, increase_factor] per step). It leaves controlled mode
///    after `release_periods` consecutive periods comfortably below target.
///
///  * Throttler (this node as the upstream neighbor): one token bucket per
///    path, parameterized by the advert last read off that path's Via
///    `oc`. Buckets refill lazily on access from sim-time deltas; an advert
///    not refreshed within advert_validity expires and the path runs
///    unrestricted again.
class HopByHopPolicy : public LocalOccupancyPolicy {
 public:
  HopByHopPolicy(OverloadConfig config, std::size_t num_paths)
      : LocalOccupancyPolicy(config), buckets_(num_paths) {}

  AdmitDecision admit(std::size_t path_index, SimTime now, SimTime) override {
    ++offered_in_period_;
    // The local gate guards this node; the bucket guards the next hop.
    const AdmitDecision local = local_gate();
    if (local != AdmitDecision::kAdmit) return local;
    if (path_index >= buckets_.size()) return AdmitDecision::kAdmit;
    Bucket& bucket = buckets_[path_index];
    if (!bucket.active(now, config_.advert_validity)) {
      return AdmitDecision::kAdmit;
    }
    bucket.refill(now);
    if (bucket.tokens >= 1.0) {
      bucket.tokens -= 1.0;
      return AdmitDecision::kAdmit;
    }
    ++stats_.throttled_rejects;
    return AdmitDecision::kRejectThrottled;
  }

  void on_occupancy_sample(double occupancy, SimTime now) override {
    LocalOccupancyPolicy::on_occupancy_sample(occupancy, now);
    const double occ = stats_.smoothed_occupancy;
    const double period_s = config_.control_period.to_seconds();
    const double offered_rps =
        period_s > 0.0 ? static_cast<double>(offered_in_period_) / period_s
                       : 0.0;
    offered_in_period_ = 0;

    if (!controlled_) {
      if (occ > config_.target_occupancy) {
        // Enter controlled mode: carry what the target allows of what was
        // actually offered this period.
        controlled_ = true;
        below_target_periods_ = 0;
        stats_.advertised_rate_rps =
            std::max(config_.min_rate_rps,
                     offered_rps * config_.target_occupancy / occ);
        ++stats_.rate_updates;
      }
      return;
    }

    // Controlled: multiplicative adjustment toward the setpoint, clamped so
    // one bad sample cannot slam the rate to zero or double it.
    const double ratio =
        occ > 0.0 ? config_.target_occupancy / occ : config_.increase_factor;
    const double step =
        std::clamp(ratio, config_.min_decrease, config_.increase_factor);
    stats_.advertised_rate_rps =
        std::max(config_.min_rate_rps, stats_.advertised_rate_rps * step);
    ++stats_.rate_updates;

    if (occ < 0.8 * config_.target_occupancy) {
      if (++below_target_periods_ >= config_.release_periods) {
        controlled_ = false;
        below_target_periods_ = 0;
        stats_.advertised_rate_rps = -1.0;
      }
    } else {
      below_target_periods_ = 0;
    }
  }

  double advertised_rate() const override {
    return controlled_ ? stats_.advertised_rate_rps : -1.0;
  }

  void on_rate_advertisement(std::size_t path_index, double rate_rps,
                             SimTime now) override {
    ++stats_.advertisements_received;
    if (path_index >= buckets_.size() || rate_rps < 0.0) return;
    Bucket& bucket = buckets_[path_index];
    if (bucket.active(now, config_.advert_validity) &&
        bucket.rate_rps == rate_rps) {
      bucket.last_advert = now;  // refresh only; keep the token level
      return;
    }
    const bool was_active = bucket.active(now, config_.advert_validity);
    if (was_active) bucket.refill(now);
    bucket.rate_rps = rate_rps;
    const double depth = std::max(1.0, rate_rps * config_.bucket_depth_s);
    if (!was_active) {
      bucket.tokens = depth;  // fresh restriction starts with a full burst
    } else {
      bucket.tokens = std::min(bucket.tokens, depth);
    }
    bucket.depth = depth;
    bucket.last_refill = now;
    bucket.last_advert = now;
  }

  void on_downstream_503(std::size_t path_index, SimTime now) override {
    ++stats_.downstream_503;
    // A bare 503 (no oc param — e.g. a legacy hop) is a one-shot overload
    // hint: tax the bucket if one is active, otherwise nothing to do — the
    // UAC-facing Retry-After already slows the source.
    if (path_index >= buckets_.size()) return;
    Bucket& bucket = buckets_[path_index];
    if (bucket.active(now, config_.advert_validity)) {
      bucket.refill(now);
      bucket.tokens = std::max(0.0, bucket.tokens - 1.0);
    }
  }

 private:
  struct Bucket {
    double rate_rps = -1.0;  // negative = no advert ever received
    double tokens = 0.0;
    double depth = 0.0;
    SimTime last_refill;
    SimTime last_advert;

    [[nodiscard]] bool active(SimTime now, SimTime validity) const {
      return rate_rps >= 0.0 && now - last_advert <= validity;
    }

    void refill(SimTime now) {
      if (now > last_refill) {
        tokens = std::min(depth,
                          tokens + rate_rps *
                                       (now - last_refill).to_seconds());
        last_refill = now;
      }
    }
  };

  std::vector<Bucket> buckets_;
  std::uint64_t offered_in_period_ = 0;
  bool controlled_ = false;
  int below_target_periods_ = 0;
};

}  // namespace

std::unique_ptr<OverloadPolicy> make_overload_policy(
    const OverloadConfig& config, std::size_t num_paths) {
  switch (config.kind) {
    case ControlKind::kNone:
      break;
    case ControlKind::kLocalOccupancy:
      return std::make_unique<LocalOccupancyPolicy>(config);
    case ControlKind::kHopByHopRate:
      return std::make_unique<HopByHopPolicy>(config, num_paths);
  }
  return std::make_unique<QueueBoundPolicy>(config);
}

}  // namespace svk::overload
