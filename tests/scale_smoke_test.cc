// 16k-rank scale smoke: one collective write at extreme rank count,
// budgeted on host wall clock so event-queue or fiber regressions that
// only show at scale fail tier-1 instead of only the nightly perf
// sweeps.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>

#include "common.h"  // the bench harness (tests/CMakeLists adds bench/)
#include "io/mpi_file.h"
#include "io/two_phase_driver.h"
#include "workloads/ior.h"

namespace mcio {
namespace {

#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define MCIO_TEST_UNDER_SANITIZER 1
#endif
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define MCIO_TEST_UNDER_SANITIZER 1
#endif

TEST(ScaleSmoke, SixteenKRanks) {
  // 2048 nodes x 8 ranks, one interleaved 16 KiB transfer per rank.
  // The interesting scale axis is rank/fiber/event count, not bytes:
  // memory levels are small so aggregators negotiate under pressure,
  // and the plan is one extent per rank so the smoke stays a smoke.
  bench::Testbed tb;
  tb.nodes = 2048;
  tb.ranks_per_node = 8;
  const int nranks = 16384;

  workloads::IorConfig w;
  w.block_size = 16ull << 10;
  w.transfer_size = 16ull << 10;
  w.segments = 1;
  w.interleaved = true;

  mpi::Machine machine(tb.cluster());
  pfs::Pfs fs(machine.cluster(), tb.pfs());
  node::MemoryManager memory =
      node::MemoryManager::uniform(tb.cluster(), 1ull << 20);
  io::TwoPhaseDriver driver;
  metrics::CollectiveStats stats;
  io::Hints hints;
  hints.cb_buffer_size = 1ull << 20;

  const auto t0 = std::chrono::steady_clock::now();
  double write_bw = 0.0;
  machine.run(nranks, [&](mpi::Rank& rank) {
    io::AccessPlan plan = workloads::ior_plan(
        rank.rank(), nranks, w,
        util::Payload::virtual_bytes(workloads::ior_bytes_per_rank(w)));
    const double my_bytes = static_cast<double>(plan.total_bytes());
    const double all_bytes = rank.world().allreduce_sum(my_bytes);

    io::MPIFile file(rank, rank.world(),
                     io::MPIFile::Services{&fs, &memory}, "/scale_smoke",
                     /*create=*/true, hints, &driver);
    file.set_stats(&stats);

    rank.world().barrier();
    const double s0 = rank.world().allreduce_max(rank.actor().now());
    file.write_all_plan(plan);
    rank.world().barrier();
    const double s1 = rank.world().allreduce_max(rank.actor().now());
    if (rank.rank() == 0) write_bw = all_bytes / (s1 - s0);
  });
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  // The run completed at scale and produced sane figures.
  EXPECT_GT(write_bw, 0.0);
  EXPECT_GT(stats.num_aggregators(), 0);
  EXPECT_GT(stats.io_bytes(), 0u);
  EXPECT_EQ(stats.io_bytes(), 16384ull * (16ull << 10));

  // Wall-clock budget: generous enough for slow shared CI hosts, tight
  // enough that an accidental O(ranks^2) scheduler or transport path
  // blows through it. A few seconds on one core; an O(ranks^2) path
  // regresses that to tens of minutes.
#if defined(MCIO_TEST_UNDER_SANITIZER)
  constexpr double kBudgetSeconds = 900.0;
#else
  constexpr double kBudgetSeconds = 300.0;
#endif
  EXPECT_LT(wall, kBudgetSeconds)
      << "16k-rank smoke regressed past the scale budget";
}

}  // namespace
}  // namespace mcio
