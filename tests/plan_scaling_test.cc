// Host memory of planning must grow near-linearly in rank count. One
// MCCIO plan-only pass (metadata allgather + plan) runs on the classic
// loop at 1024 and 2048 ranks, and util::memtrack measures its peak
// tracked bytes (all fibers share the one simulation thread, so the
// thread-local ledger sees every rank). Replicating the allgathered
// records and the plan on every rank makes the peak O(ranks²) — a ratio
// near 4 per doubling — while one shared result per collective keeps it
// near 2. Unlike a wall-clock budget, the ratio does not depend on the
// host.
#include <gtest/gtest.h>

#include <cstdint>

#include "core/mccio_driver.h"
#include "mpi/machine.h"
#include "node/memory.h"
#include "pfs/pfs.h"
#include "util/memtrack.h"

namespace mcio {
namespace {

constexpr int kRanksPerNode = 8;

/// Peak tracked bytes of one plan-only pass at `nranks`, measured from a
/// barrier before it to a barrier after it.
std::uint64_t plan_pass_peak_bytes(int nranks) {
  sim::ClusterConfig cluster;
  cluster.num_nodes = nranks / kRanksPerNode;
  cluster.ranks_per_node = kRanksPerNode;
  mpi::Machine machine(cluster);
  pfs::Pfs fs(machine.cluster(), pfs::PfsConfig{});
  node::MemoryManager memory =
      node::MemoryManager::uniform(cluster, 1ull << 20);
  const core::MccioDriver driver;
  const std::uint64_t block = 16ull << 10;
  std::uint64_t peak = 0;
  machine.run(nranks, [&](mpi::Rank& rank) {
    io::AccessPlan plan;
    plan.extents.push_back(
        util::Extent{static_cast<std::uint64_t>(rank.rank()) * block, block});
    plan.buffer = util::Payload::virtual_bytes(block);
    io::CollContext ctx;
    ctx.rank = &rank;
    ctx.comm = &rank.world();
    ctx.fs = &fs;
    ctx.memory = &memory;
    rank.world().barrier();
    if (rank.rank() == 0) util::memtrack::reset();
    (void)driver.build_plan(ctx, plan);
    rank.world().barrier();
    if (rank.rank() == 0) peak = util::memtrack::peak_bytes();
  });
  return peak;
}

TEST(PlanScaling, PlanPassPeakMemoryGrowsNearLinearly) {
  const std::uint64_t at_1k = plan_pass_peak_bytes(1024);
  const std::uint64_t at_2k = plan_pass_peak_bytes(2048);
  ASSERT_GT(at_1k, 0u);
  const double ratio =
      static_cast<double>(at_2k) / static_cast<double>(at_1k);
  RecordProperty("peak_bytes_1024", std::to_string(at_1k));
  RecordProperty("peak_bytes_2048", std::to_string(at_2k));
  EXPECT_LT(ratio, 2.5) << "plan-pass peak " << at_1k << " B at 1024 ranks, "
                        << at_2k << " B at 2048 ranks";
}

}  // namespace
}  // namespace mcio
