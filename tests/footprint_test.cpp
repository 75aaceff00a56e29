// Footprint gate (ctest -L footprint): how many message-pool blocks, and
// how many pooled bytes, each live transaction keeps alive at steady state.
//
// Most live transactions are lingering ones: about 85% here are BYE server
// transactions in Completed, which must keep their 200 to replay it for
// Timer J (32 s); the rest are BYE clients waiting out Timer K. A
// transaction that keeps only what its state uses (DESIGN.md §11) pins at
// most the response it replays, so the average stays under one block
// (0.87); one that also kept its request would pin a second (1.8). A
// block is the message's hot part (368 bytes with its control block); a
// 200 to a BYE carries no cold-header block, so the bytes stay near
// 0.87 x 368 (about 320; 550 when users, tags and reason phrases were
// std::string members, 1120 when every message also held its cold
// headers inline). The gate runs a 1/50-scale Figure 5 SERvartuka chain (the
// perfbench fig5_servartuka mix) past Timer J, counts the blocks and
// bytes still outstanding and divides by the transactions live at every
// element. The counts are deterministic: a single-threaded run from a
// fixed seed.
#include <gtest/gtest.h>

#include <cstdint>

#include "sip/message_pool.hpp"
#include "workload/scenarios.hpp"
#include "workload/testbed.hpp"
#include "workload/uac.hpp"
#include "workload/uas.hpp"

namespace svk::workload {
namespace {

/// Blocks this thread's message pool has handed out and not taken back.
std::int64_t outstanding_blocks() {
  const sip::MessagePoolStats& s = sip::message_pool_stats();
  return static_cast<std::int64_t>(s.fresh_allocs + s.reuses) -
         static_cast<std::int64_t>(s.returns + s.releases);
}

/// Bytes of those blocks.
std::int64_t outstanding_bytes() {
  return sip::message_pool_stats().bytes_outstanding;
}

TEST(FootprintTest, LiveTransactionsPinFewMessageBlocks) {
  constexpr double kScale = 0.02;
  ScenarioOptions options;
  options.policy = PolicyKind::kServartuka;
  options.capacity_scale = {kScale, kScale};

  const std::int64_t before = outstanding_blocks();
  const std::int64_t bytes_before = outstanding_bytes();
  auto bed = series_chain(2, options)(10400.0 * kScale);
  bed->start_load();
  bed->sim().run_until(SimTime::seconds(40.0));  // past Timer J

  std::size_t live = 0;
  for (const auto& proxy : bed->proxies()) {
    live += proxy->transactions().active_count();
  }
  for (const auto& uac : bed->uacs()) live += uac->transactions().active_count();
  for (const auto& uas : bed->uases()) live += uas->transactions().active_count();
  ASSERT_GT(live, 1000u);
  const double blocks_per_txn =
      static_cast<double>(outstanding_blocks() - before) /
      static_cast<double>(live);
  RecordProperty("blocks_per_live_txn", std::to_string(blocks_per_txn));
  // At most the one response a lingering server replays, on average.
  EXPECT_LE(blocks_per_txn, 1.0) << live << " live transactions";

  const double bytes_per_txn =
      static_cast<double>(outstanding_bytes() - bytes_before) /
      static_cast<double>(live);
  RecordProperty("bytes_per_live_txn", std::to_string(bytes_per_txn));
  // ...and that response holds no cold headers.
  EXPECT_LE(bytes_per_txn, 450.0) << live << " live transactions";
}

}  // namespace
}  // namespace svk::workload
