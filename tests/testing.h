// Shared fixtures for integration tests: a small simulated cluster with a
// file system and memory manager, plus a round-trip helper that writes a
// pattern collectively, reads it back and verifies both the file contents
// and the received bytes.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/mccio_driver.h"
#include "io/mpi_file.h"
#include "io/two_phase_driver.h"
#include "mpi/machine.h"
#include "node/memory.h"
#include "pfs/pfs.h"
#include "util/check.h"
#include "workloads/pattern.h"

namespace mcio::testing {

/// Seed for randomized tests. Defaults to 42 so runs are reproducible;
/// `MCIO_TEST_SEED=<n>` overrides it to explore other schedules. The
/// effective seed is printed once so a failing run can always be replayed.
inline std::uint64_t test_seed() {
  static const std::uint64_t seed = [] {
    std::uint64_t s = 42;
    if (const char* env = std::getenv("MCIO_TEST_SEED")) {
      s = std::strtoull(env, nullptr, 10);
    }
    std::fprintf(stderr,
                 "[mcio] randomized tests seeded with %llu "
                 "(override with MCIO_TEST_SEED)\n",
                 static_cast<unsigned long long>(s));
    return s;
  }();
  return seed;
}

struct MiniClusterOptions {
  int num_nodes = 3;
  int ranks_per_node = 4;
  int num_osts = 4;
  std::uint64_t stripe_unit = 64 << 10;
  std::uint64_t node_memory_mean = 1 << 20;
  double memory_stdev = 0.0;
  std::uint64_t memory_seed = 7;
};

/// A self-contained simulated test cluster.
class MiniCluster {
 public:
  explicit MiniCluster(const MiniClusterOptions& options = {})
      : options_(options) {
    sim::ClusterConfig c;
    c.num_nodes = options.num_nodes;
    c.ranks_per_node = options.ranks_per_node;
    machine_ = std::make_unique<mpi::Machine>(c);
    pfs::PfsConfig p;
    p.num_osts = options.num_osts;
    p.stripe_unit = options.stripe_unit;
    p.store_data = true;
    fs_ = std::make_unique<pfs::Pfs>(machine_->cluster(), p);
    node::MemoryVariance var;
    var.relative_stdev = options.memory_stdev;
    memory_ = std::make_unique<node::MemoryManager>(
        c, options.node_memory_mean, var, options.memory_seed);
  }

  mpi::Machine& machine() { return *machine_; }
  pfs::Pfs& fs() { return *fs_; }
  node::MemoryManager& memory() { return *memory_; }
  io::MPIFile::Services services() {
    return io::MPIFile::Services{fs_.get(), memory_.get()};
  }
  int total_ranks() const {
    return options_.num_nodes * options_.ranks_per_node;
  }

 private:
  MiniClusterOptions options_;
  std::unique_ptr<mpi::Machine> machine_;
  std::unique_ptr<pfs::Pfs> fs_;
  std::unique_ptr<node::MemoryManager> memory_;
};

/// Builds a per-rank plan over a fresh buffer.
using PlanFactory =
    std::function<io::AccessPlan(int rank, int nprocs,
                                 std::vector<std::byte>& storage)>;

/// Writes the pattern collectively with `driver`, verifies the simulated
/// file contents, then reads it back collectively and verifies the
/// buffers. Throws util::Error (failing the test) on any mismatch.
inline void round_trip(MiniCluster& cluster, io::CollectiveDriver& driver,
                       int nranks, const PlanFactory& make_plan,
                       std::uint64_t seed = test_seed(),
                       const io::Hints& hints = io::Hints{},
                       metrics::CollectiveStats* stats = nullptr) {
  const std::string path = "/roundtrip";
  cluster.machine().run(nranks, [&](mpi::Rank& rank) {
    std::vector<std::byte> wstorage;
    io::AccessPlan wplan = make_plan(rank.rank(), nranks, wstorage);
    workloads::fill_pattern(wplan, seed);

    io::MPIFile file(rank, rank.world(), cluster.services(), path,
                     /*create=*/true, hints, &driver);
    if (stats != nullptr) file.set_stats(stats);
    file.write_all_plan(wplan);
    rank.world().barrier();

    // Verify the file itself (every rank checks its own extents).
    std::string err;
    MCIO_CHECK_MSG(workloads::verify_store(cluster.fs().store(
                                               file.handle()),
                                           wplan.extents, seed, &err),
                   "rank " << rank.rank() << " write: " << err);

    std::vector<std::byte> rstorage;
    io::AccessPlan rplan = make_plan(rank.rank(), nranks, rstorage);
    file.read_all_plan(rplan);
    rank.world().barrier();
    MCIO_CHECK_MSG(workloads::verify_pattern(rplan, seed, &err),
                   "rank " << rank.rank() << " read: " << err);
  });
}

}  // namespace mcio::testing
