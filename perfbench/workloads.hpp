// The benchmark's three SIP traffic mixes. Each is built only through the
// public workload:: factories, runs serially on the bed's default engine,
// and is simulated as fast as the host allows (open-loop, fixed-pace UACs).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/sim_time.hpp"
#include "workload/runner.hpp"

namespace svk::perfbench {

/// The seed the digests below are pinned for.
inline constexpr std::uint64_t kDefaultSeed = 1;

/// Capacities are simulated at 1/50 of the calibrated node; rates below
/// are full-scale calls/second. The bench binaries use 1/10, where the
/// live state (~60k transactions, ~400 MB) makes host time swing with the
/// DRAM latency of the shared machine; at 1/50 a rep costs a fifth as much
/// and the state is ~5x smaller, while the fig5 SERvartuka regime still
/// holds (entry ~10% stateful, overload signalling live; at 1/100 the
/// controller no longer delegates that far).
inline constexpr double kScale = 0.02;

struct Workload {
  std::string name;
  double offered_full_cps = 0.0;
  /// Simulated warm-up before the measured window (controller convergence,
  /// pools and tables filled).
  SimTime warmup;
  /// Simulated length of the measured window.
  SimTime measure;
  /// MD5 of the window's RunRecord JSON (wall_seconds zeroed) at
  /// kDefaultSeed. Any change to simulated behaviour flips it.
  std::string pinned_digest;

  /// Builds the bed factory with every random stream seeded from `seed`.
  workload::BedFactory (*make_factory)(std::uint64_t seed) = nullptr;

  [[nodiscard]] double offered_scaled_cps() const {
    return offered_full_cps * kScale;
  }
};

[[nodiscard]] const std::vector<Workload>& workloads();
/// Null when no workload has that name.
[[nodiscard]] const Workload* find_workload(std::string_view name);

}  // namespace svk::perfbench
