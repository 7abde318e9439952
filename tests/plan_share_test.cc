// The once-per-collective plan, cross-checked: on every rank the drivers'
// shared ExchangePlan must equal the rank's own recompute from its own
// metadata copy, and every rank must hold the same plan object. Covers
// both drivers, flat and node-leader paths, idle ranks, uneven rank
// counts and fault plans whose exhausted groups either fall back to
// independent I/O or are rescued by the borrow rung (a live-memory read),
// under the classic loop and the sharded lookahead scheduler.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/mccio_driver.h"
#include "fuzz/plan_check.h"
#include "io/two_phase_driver.h"
#include "mpi/machine.h"
#include "node/fault.h"
#include "node/memory.h"
#include "pfs/pfs.h"

namespace mcio {
namespace {

constexpr int kNodes = 6;  // the last two host no ranks: borrow donors
constexpr int kRanksPerNode = 4;
constexpr std::uint64_t kBlock = 256ull << 10;

struct Case {
  bool mccio = true;
  bool hier = false;
  int nranks = 16;
  bool idle_ranks = false;  ///< every third rank plans nothing
  bool exhaust = false;     ///< node 0 exhausted, others healthy
  bool borrow = false;
  bool lookahead = false;
};

/// A fault seed under which node 0 is exhausted and every other node is
/// not: node 0's one-node group is then dead unless the borrow rung
/// rescues it from a healthy donor.
node::FaultConfig node0_exhausted() {
  node::FaultConfig f;
  f.exhaust_rate = 0.3;
  for (f.seed = 1;; ++f.seed) {
    const node::FaultPlan probe(kNodes, f);
    bool ok = probe.exhausted(0);
    for (int n = 1; n < kNodes; ++n) ok = ok && !probe.exhausted(n);
    if (ok) return f;
  }
}

struct Outcome {
  std::vector<std::string> errors;  ///< per rank, empty when clean
  io::ExchangePlan plan;            ///< rank 0's shared plan
  bool live_memory = false;
};

Outcome run_case(const Case& c) {
  sim::ClusterConfig cluster;
  cluster.num_nodes = kNodes;
  cluster.ranks_per_node = kRanksPerNode;
  mpi::Machine machine(cluster);
  if (c.lookahead) {
    machine.set_sim_shards(4);
    machine.set_sim_lookahead(true);
  }
  pfs::PfsConfig pfs_config;
  pfs_config.stripe_unit = 64ull << 10;
  pfs::Pfs fs(machine.cluster(), pfs_config);
  node::MemoryManager memory =
      node::MemoryManager::uniform(cluster, 2ull << 20);
  std::unique_ptr<node::FaultPlan> faults;
  if (c.exhaust) {
    faults = std::make_unique<node::FaultPlan>(kNodes, node0_exhausted());
    memory.set_fault_plan(faults.get());
  }

  // One group per node: serial blocks, Msg_group = one node's data.
  core::MccioConfig config;
  config.msg_group = kRanksPerNode * kBlock;
  config.msg_ind = kBlock;
  const core::MccioDriver mccio(config);
  const io::TwoPhaseDriver two_phase;
  const io::CollectiveDriver& driver =
      c.mccio ? static_cast<const io::CollectiveDriver&>(mccio) : two_phase;
  io::Hints hints;
  hints.cb_buffer_size = 1ull << 20;
  hints.cb_node_leaders = c.hier;
  hints.borrow_far_memory = c.borrow;

  Outcome out;
  out.errors.resize(static_cast<std::size_t>(c.nranks));
  const pfs::FileHandle file = fs.create("/plan_share");
  machine.run(c.nranks, [&](mpi::Rank& rank) {
    io::AccessPlan plan;
    plan.buffer = util::Payload::virtual_bytes(0);
    if (!(c.idle_ranks && rank.rank() % 3 == 1)) {
      plan.extents.push_back(util::Extent{
          static_cast<std::uint64_t>(rank.rank()) * kBlock, kBlock});
      plan.buffer = util::Payload::virtual_bytes(kBlock);
    }
    io::CollContext ctx;
    ctx.rank = &rank;
    ctx.comm = &rank.world();
    ctx.fs = &fs;
    ctx.file = file;
    ctx.memory = &memory;
    ctx.hints = hints;
    out.errors[static_cast<std::size_t>(rank.rank())] =
        fuzz::check_shared_plan(ctx, plan, driver);
    if (rank.rank() == 0) {
      out.plan = c.mccio ? mccio.build_plan(ctx, plan)
                         : io::TwoPhaseDriver::build_plan(ctx, plan);
      out.live_memory = c.mccio && mccio.plan_reads_live_memory(ctx);
    } else if (c.mccio) {
      (void)mccio.build_plan(ctx, plan);
    } else {
      (void)io::TwoPhaseDriver::build_plan(ctx, plan);
    }
  });
  return out;
}

void expect_clean(const Outcome& out) {
  for (std::size_t r = 0; r < out.errors.size(); ++r) {
    EXPECT_EQ(out.errors[r], "") << "rank " << r;
  }
}

class PlanShare : public ::testing::TestWithParam<bool> {};  // lookahead

TEST_P(PlanShare, BothDriversFlatAndHierarchical) {
  for (const bool use_mccio : {true, false}) {
    for (const bool hier : {false, true}) {
      SCOPED_TRACE(std::string(use_mccio ? "mccio" : "two-phase") +
                   (hier ? " hier" : " flat"));
      Case c;
      c.mccio = use_mccio;
      c.hier = hier;
      c.lookahead = GetParam();
      const Outcome out = run_case(c);
      expect_clean(out);
      EXPECT_FALSE(out.plan.domains.empty());
      EXPECT_EQ(out.plan.node_leaders, hier);
    }
  }
}

TEST_P(PlanShare, IdleRanksAndUnevenRankCounts) {
  for (const bool use_mccio : {true, false}) {
    for (const int nranks : {16, 13, 7}) {
      SCOPED_TRACE(std::string(use_mccio ? "mccio " : "two-phase ") +
                   std::to_string(nranks) + " ranks");
      Case c;
      c.mccio = use_mccio;
      c.hier = true;
      c.nranks = nranks;
      c.idle_ranks = true;
      c.lookahead = GetParam();
      const Outcome out = run_case(c);
      expect_clean(out);
      // Idle ranks stay out of the node-leader groups.
      EXPECT_EQ(out.plan.node_group_of[1], -1);
    }
  }
}

TEST_P(PlanShare, ExhaustedGroupFallsBackWithoutBorrow) {
  for (const bool hier : {false, true}) {
    Case c;
    c.hier = hier;
    c.exhaust = true;
    c.lookahead = GetParam();
    const Outcome out = run_case(c);
    expect_clean(out);
    // Node 0's group is dead: its ranks degrade to independent I/O.
    EXPECT_EQ(out.plan.independent_ranks, (std::vector<int>{0, 1, 2, 3}));
    EXPECT_FALSE(out.live_memory);
  }
}

TEST_P(PlanShare, ExhaustedGroupRescuedByBorrow) {
  for (const bool hier : {false, true}) {
    Case c;
    c.hier = hier;
    c.exhaust = true;
    c.borrow = true;
    c.lookahead = GetParam();
    const Outcome out = run_case(c);
    expect_clean(out);
    // The donor election (live memory) rescued node 0's group.
    EXPECT_TRUE(out.live_memory);
    EXPECT_TRUE(out.plan.independent_ranks.empty());
    EXPECT_EQ(out.plan.exhausted_nodes, 1u);
  }
}

INSTANTIATE_TEST_SUITE_P(Schedulers, PlanShare, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& p) {
                           return p.param ? std::string("ShardedLookahead")
                                          : std::string("Classic");
                         });

}  // namespace
}  // namespace mcio
