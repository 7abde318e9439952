// System-level properties: bit-for-bit determinism, virtual-payload /
// real-payload timing equivalence, and round trips across a sweep of
// workload × driver × memory configurations.
#include <gtest/gtest.h>

#include <ostream>

#include "testing.h"
#include "workloads/collperf.h"
#include "workloads/ior.h"
#include "workloads/strided.h"

namespace mcio {
namespace {

using testing::MiniCluster;
using testing::MiniClusterOptions;

/// Runs one collective write+read and returns the per-rank finish times.
std::vector<sim::SimTime> timed_run(bool mccio, bool real_payloads,
                                    std::uint64_t mem_mean,
                                    double stdev) {
  MiniClusterOptions opt;
  opt.num_nodes = 3;
  opt.ranks_per_node = 4;
  opt.node_memory_mean = mem_mean;
  opt.memory_stdev = stdev;
  MiniCluster cluster(opt);
  io::TwoPhaseDriver two_phase;
  core::MccioDriver mc;
  mc.config().msg_ind = 256 << 10;
  io::CollectiveDriver* driver =
      mccio ? static_cast<io::CollectiveDriver*>(&mc) : &two_phase;

  workloads::IorConfig w;
  w.block_size = 256 << 10;
  w.transfer_size = 32 << 10;
  w.segments = 2;
  w.interleaved = true;
  const int nranks = cluster.total_ranks();
  return cluster.machine().run(nranks, [&](mpi::Rank& rank) {
    std::vector<std::byte> storage;
    util::Payload buf;
    if (real_payloads) {
      storage.resize(workloads::ior_bytes_per_rank(w));
      buf = util::Payload::of(storage);
    } else {
      buf = util::Payload::virtual_bytes(workloads::ior_bytes_per_rank(w));
    }
    auto plan = workloads::ior_plan(rank.rank(), nranks, w, buf);
    if (real_payloads) workloads::fill_pattern(plan, 5);
    io::MPIFile file(rank, rank.world(), cluster.services(), "/t",
                     /*create=*/true, io::Hints{}, driver);
    file.write_all_plan(plan);
    rank.world().barrier();
    file.read_all_plan(plan);
    rank.world().barrier();
  });
}

TEST(SimulationProperties, DeterministicAcrossRuns) {
  const auto a = timed_run(true, false, 1 << 20, 0.5);
  const auto b = timed_run(true, false, 1 << 20, 0.5);
  EXPECT_EQ(a, b);
  const auto c = timed_run(false, false, 1 << 20, 0.5);
  const auto d = timed_run(false, false, 1 << 20, 0.5);
  EXPECT_EQ(c, d);
}

TEST(SimulationProperties, VirtualAndRealPayloadsSameTiming) {
  // The whole point of virtual payloads: identical virtual-time behaviour
  // without the memory. Bit-identical finish times required.
  for (const bool mccio : {false, true}) {
    const auto real = timed_run(mccio, true, 1 << 20, 0.5);
    const auto virt = timed_run(mccio, false, 1 << 20, 0.5);
    ASSERT_EQ(real.size(), virt.size());
    for (std::size_t i = 0; i < real.size(); ++i) {
      EXPECT_DOUBLE_EQ(real[i], virt[i])
          << "rank " << i << " mccio=" << mccio;
    }
  }
}

struct SweepParam {
  int workload;  // 0=strided, 1=ior interleaved, 2=ior segmented, 3=collperf
  bool mccio;
  std::uint64_t mem;
  double stdev;
};

// Names each instance by its fields. Without it gtest prints the raw
// bytes, padding included, and the ctest names change between builds.
void PrintTo(const SweepParam& p, std::ostream* os) {
  static const char* const kWorkloads[] = {"strided", "ior-interleaved",
                                           "ior-segmented", "collperf"};
  *os << kWorkloads[p.workload] << (p.mccio ? " mccio" : " two-phase")
      << " mem=" << (p.mem >> 10) << "KiB stdev=" << p.stdev;
}

class RoundTripSweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(RoundTripSweep, VerifiedEndToEnd) {
  const auto param = GetParam();
  MiniClusterOptions opt;
  opt.node_memory_mean = param.mem;
  opt.memory_stdev = param.stdev;
  MiniCluster cluster(opt);
  io::TwoPhaseDriver two_phase;
  core::MccioDriver mc;
  mc.config().msg_ind = 128 << 10;
  io::CollectiveDriver* driver =
      param.mccio ? static_cast<io::CollectiveDriver*>(&mc) : &two_phase;

  const auto factory = [&](int rank, int nprocs,
                           std::vector<std::byte>& storage)
      -> io::AccessPlan {
    switch (param.workload) {
      case 0: {
        workloads::StridedConfig cfg;
        cfg.block = 2000;
        cfg.stride = 4096;
        cfg.count = 7;
        storage.resize(workloads::strided_bytes_per_rank(cfg));
        return workloads::strided_plan(rank, nprocs, cfg,
                                       util::Payload::of(storage));
      }
      case 1:
      case 2: {
        workloads::IorConfig cfg;
        cfg.block_size = 64 << 10;
        cfg.transfer_size = 8 << 10;
        cfg.segments = 2;
        cfg.interleaved = param.workload == 1;
        storage.resize(workloads::ior_bytes_per_rank(cfg));
        return workloads::ior_plan(rank, nprocs, cfg,
                                   util::Payload::of(storage));
      }
      default: {
        workloads::CollPerfConfig cfg;
        cfg.dims = {24, 20, 16};
        storage.resize(
            workloads::collperf_bytes_per_rank(rank, nprocs, cfg));
        return workloads::collperf_plan(rank, nprocs, cfg,
                                        util::Payload::of(storage));
      }
    }
  };
  ASSERT_NO_THROW(round_trip(cluster, *driver, cluster.total_ranks(),
                             factory, /*seed=*/1000 + param.workload));
}

std::vector<SweepParam> sweep_params() {
  std::vector<SweepParam> out;
  for (int w = 0; w < 4; ++w) {
    for (const bool mccio : {false, true}) {
      for (const std::uint64_t mem :
           {std::uint64_t{256} << 10, std::uint64_t{2} << 20}) {
        for (const double stdev : {0.0, 0.7}) {
          out.push_back(SweepParam{w, mccio, mem, stdev});
        }
      }
    }
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(AllConfigs, RoundTripSweep,
                         ::testing::ValuesIn(sweep_params()));

TEST(SimulationProperties, ManyRanksSmoke) {
  // A 120-rank run exercising the fiber scheduler at figure-7 scale.
  MiniClusterOptions opt;
  opt.num_nodes = 10;
  opt.ranks_per_node = 12;
  opt.num_osts = 8;
  opt.stripe_unit = 64 << 10;
  opt.node_memory_mean = 1 << 20;
  opt.memory_stdev = 0.5;
  MiniCluster cluster(opt);
  core::MccioDriver driver;
  driver.config().msg_ind = 512 << 10;
  const int nranks = 120;
  workloads::IorConfig w;
  w.block_size = 64 << 10;
  w.transfer_size = 16 << 10;
  w.segments = 1;
  w.interleaved = true;
  cluster.machine().run(nranks, [&](mpi::Rank& rank) {
    auto plan = workloads::ior_plan(
        rank.rank(), nranks, w,
        util::Payload::virtual_bytes(workloads::ior_bytes_per_rank(w)));
    io::MPIFile file(rank, rank.world(), cluster.services(), "/smoke",
                     /*create=*/true, io::Hints{}, &driver);
    file.write_all_plan(plan);
    rank.world().barrier();
    file.read_all_plan(plan);
  });
}

}  // namespace
}  // namespace mcio
