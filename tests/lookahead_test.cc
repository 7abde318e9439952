// Conservative-lookahead scheduler properties (DESIGN.md §14):
//
//   1. Soundness: over real workloads the topology-derived lookahead
//      matrix is a lower bound on every cross-shard effect — the
//      engine's min_slack counter (delivery time minus the stamp plus
//      window) never goes negative.
//   2. Liveness: with >= 2 shards and positive windows the concurrent
//      path actually engages (lookahead_active, slices/items counted).
//   3. Fallback: a zero-latency topology admits no concurrency window,
//      so the engine must reject it and run the sequenced scheduler.
#include <gtest/gtest.h>

#include <limits>
#include <vector>

#include "io/two_phase_driver.h"
#include "sim/engine.h"
#include "sim/topology.h"
#include "testing.h"
#include "util/check.h"

namespace mcio::sim {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// A cross-shard-heavy workload under a caller-supplied lookahead
/// matrix: every actor alternates advances with stamped posts to every
/// other-shard actor, exactly the traffic the horizon protocol gates.
struct WorkloadResult {
  std::vector<SimTime> finish;
  bool lookahead_active = false;
  Engine::LookaheadStats stats;
};

WorkloadResult run_workload(int threads, bool lookahead, double window) {
  Engine::Options opt;
  opt.threads = threads;
  opt.lookahead = lookahead;
  Engine engine(opt);
  // The deliveries below carry no payload: the timed handler is a no-op.
  engine.set_timed_handler([](int, std::uint32_t) {});
  engine.set_lookahead_provider(
      [window](const std::vector<int>&, int nshards) {
        const auto n = static_cast<std::size_t>(nshards);
        return std::vector<double>(n * n, window);
      });
  constexpr int kActors = 12;
  for (int i = 0; i < kActors; ++i) {
    engine.spawn([i, &engine](Actor& a) {
      for (int k = 0; k < 25; ++k) {
        a.advance(1e-6 * ((i * 7 + k) % 5 + 1));
        a.sync();
        for (int target = 0; target < kActors; ++target) {
          if (!engine.cross_shard(target)) continue;
          // Mirror the machine's NIC-ingress shape: the stamped item
          // runs on the target's shard and schedules a timed delivery
          // at stamp + wire latency — the event whose slack against
          // the promised window min_slack tracks.
          const SimTime stamp = a.now();
          engine.post_remote(target, [&engine, target, stamp] {
            engine.post_at(target, stamp + 2e-6, /*token=*/0);
          });
        }
      }
    });
  }
  engine.run();
  WorkloadResult out;
  out.finish = engine.finish_times();
  out.lookahead_active = engine.lookahead_active();
  out.stats = engine.lookahead_stats();
  return out;
}

TEST(Lookahead, EngagesAndMatchesSequencedResults) {
  const WorkloadResult seq = run_workload(1, false, 1e-6);
  ASSERT_FALSE(seq.lookahead_active);
  for (const int threads : {2, 3, 8}) {
    const WorkloadResult la = run_workload(threads, true, 1e-6);
    EXPECT_TRUE(la.lookahead_active) << "threads=" << threads;
    EXPECT_EQ(la.finish, seq.finish) << "threads=" << threads;
    // The concurrent path really ran: slices executed, mailbox items
    // drained at horizon boundaries.
    EXPECT_GT(la.stats.slices, 0u) << "threads=" << threads;
    EXPECT_GT(la.stats.items_drained, 0u) << "threads=" << threads;
  }
  // The sequenced run reports no lookahead activity at all.
  EXPECT_EQ(seq.stats.slices, 0u);
  EXPECT_EQ(seq.stats.items_drained, 0u);
}

TEST(Lookahead, MatrixIsSoundLowerBound) {
  // The soundness property: no drained item may schedule work earlier
  // than its stamp plus the promised window. min_slack aggregates the
  // worst case over the whole run; >= 0 proves the bound held for every
  // cross-shard effect the workload produced.
  for (const int threads : {2, 8}) {
    const WorkloadResult la = run_workload(threads, true, 1e-6);
    ASSERT_TRUE(la.lookahead_active) << "threads=" << threads;
    // Finite: drained items really scheduled deliveries, so the bound
    // below is a non-vacuous property of this run.
    EXPECT_LT(la.stats.min_slack, kInf) << "threads=" << threads;
    EXPECT_GE(la.stats.min_slack, 0.0)
        << "threads=" << threads
        << ": the lookahead matrix promised a window some effect beat";
  }
}

TEST(Lookahead, ZeroWindowForcesSequencedFallback) {
  // A zero-latency topology admits no concurrency: with a zero (or
  // negative) window the engine cannot let any shard run ahead, so it
  // must reject the matrix and replay the sequenced order.
  for (const double window : {0.0, -1.0}) {
    const WorkloadResult r = run_workload(4, true, window);
    EXPECT_FALSE(r.lookahead_active) << "window=" << window;
    EXPECT_EQ(r.stats.slices, 0u) << "window=" << window;
    EXPECT_EQ(r.finish, run_workload(1, false, 1e-6).finish)
        << "window=" << window;
  }
}

TEST(Lookahead, SingleShardFallsBack) {
  const WorkloadResult r = run_workload(1, true, 1e-6);
  EXPECT_FALSE(r.lookahead_active);
}

TEST(Lookahead, TopologyMatrixPositiveAndInfWhereUnreachable) {
  // shard_lookahead_matrix: cross-node entries are the minimum of the
  // NIC and far-memory fabric latencies; pairs with no cross-node
  // channel (a shard hosting no node, or a single-node shard paired
  // with itself) are +inf, never zero.
  ClusterConfig cfg;
  cfg.num_nodes = 4;
  cfg.ranks_per_node = 2;
  // 8 ranks over 4 nodes, sharded by node pairs: shard 0 = nodes {0,1},
  // shard 1 = nodes {2,3}.
  std::vector<int> shard_of = {0, 0, 0, 0, 1, 1, 1, 1};
  const std::vector<double> m = shard_lookahead_matrix(cfg, shard_of, 2);
  ASSERT_EQ(m.size(), 4u);
  const double expected =
      std::min(cfg.nic_latency, cfg.fabric_mem_latency);
  // Cross-shard entries: the cheapest cross-node channel.
  EXPECT_DOUBLE_EQ(m[0 * 2 + 1], expected);
  EXPECT_DOUBLE_EQ(m[1 * 2 + 0], expected);
  // Multi-node shards can reach themselves across nodes too.
  EXPECT_DOUBLE_EQ(m[0 * 2 + 0], expected);
  EXPECT_DOUBLE_EQ(m[1 * 2 + 1], expected);
  EXPECT_GT(expected, 0.0);

  // Single-node shards: no intra-shard cross-node channel -> +inf.
  std::vector<int> one_each = {0, 0, 1, 1, 2, 2, 3, 3};
  const std::vector<double> s = shard_lookahead_matrix(cfg, one_each, 4);
  ASSERT_EQ(s.size(), 16u);
  for (int p = 0; p < 4; ++p) {
    for (int q = 0; q < 4; ++q) {
      if (p == q) {
        EXPECT_EQ(s[static_cast<std::size_t>(p * 4 + q)], kInf)
            << p << "," << q;
      } else {
        EXPECT_DOUBLE_EQ(s[static_cast<std::size_t>(p * 4 + q)], expected)
            << p << "," << q;
      }
    }
  }
}

TEST(Lookahead, MachineFallsBackOnZeroLatencyTopology) {
  // End-to-end fallback: a cluster configured with zero NIC and fabric
  // latency yields a zero-window matrix, so a lookahead-enabled machine
  // run must degrade to the sequenced scheduler and still byte-verify.
  auto run_once = [](bool zero_latency, bool lookahead) {
    mcio::testing::MiniClusterOptions opts;
    if (zero_latency) {
      opts.nic_latency = 0.0;
      opts.fabric_mem_latency = 0.0;
    }
    mcio::testing::MiniCluster cluster(opts);
    cluster.machine().set_sim_shards(4);
    cluster.machine().set_sim_lookahead(lookahead);
    io::TwoPhaseDriver driver;
    metrics::CollectiveStats stats;
    const int nranks = cluster.total_ranks();
    mcio::testing::round_trip(
        cluster, driver, nranks,
        [](int rank, int nprocs, std::vector<std::byte>& storage) {
          storage.resize(32 << 10);
          std::vector<util::Extent> extents;
          for (int c = 0; c < 4; ++c) {
            extents.push_back(
                {static_cast<std::uint64_t>((c * nprocs + rank)) * (8 << 10),
                 8 << 10});
          }
          return io::make_plan(extents, util::Payload::of(storage));
        },
        /*seed=*/77, io::Hints{}, &stats);
    return std::make_tuple(stats.msgs_intra_node(), stats.msgs_inter_node(),
                           stats.bytes_inter_node());
  };
  // Zero-latency topology: identical counters with lookahead on or off
  // (it silently ran sequenced both times).
  EXPECT_EQ(run_once(true, true), run_once(true, false));
  // Normal topology: lookahead engages and still matches sequenced.
  EXPECT_EQ(run_once(false, true), run_once(false, false));
}

}  // namespace
}  // namespace mcio::sim
