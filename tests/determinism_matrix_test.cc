// The determinism matrix: figure-shaped sweeps and fuzz scenarios must
// produce byte-identical simulated results at every host thread count
// (--threads) — including the audit counter trail and the
// degradation-ladder counters under fault injection.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common.h"  // the bench harness (tests/CMakeLists adds bench/)
#include "fuzz/oracle.h"
#include "fuzz/scenario_gen.h"
#include "workloads/collperf.h"
#include "workloads/ior.h"

namespace mcio {
namespace {

using util::kMiB;

bench::RunOptions small_testbed() {
  bench::RunOptions base;
  base.testbed.nodes = 4;
  base.nranks = 16;
  return base;
}

bench::BenchPlanFactory ior_factory() {
  return [](int rank, int p) {
    workloads::IorConfig w;
    w.block_size = 4ull << 20;
    w.transfer_size = 256ull << 10;
    w.segments = 1;
    w.interleaved = true;
    return workloads::ior_plan(
        rank, p, w,
        util::Payload::virtual_bytes(workloads::ior_bytes_per_rank(w)));
  };
}

bench::BenchPlanFactory collperf_factory() {
  return [](int rank, int p) {
    workloads::CollPerfConfig w;
    w.dims = {64, 64, 64};
    w.elem_size = 8;
    return workloads::collperf_plan(
        rank, p, w,
        util::Payload::virtual_bytes(
            workloads::collperf_bytes_per_rank(rank, p, w)));
  };
}

/// The sub-sweep keeping the matrix fast while still crossing the
/// memory-starved regime where schedules differ most.
std::vector<std::uint64_t> mini_sweep() {
  return {8 * kMiB, 4 * kMiB, 2 * kMiB};
}

void expect_matrix_identical(const bench::RunOptions& base,
                             const bench::BenchPlanFactory& plan) {
  const auto golden =
      bench::run_memory_sweep(1, mini_sweep(), base, plan);
  // Host-thread axis: cells computed concurrently.
  for (const int threads : {2, 8}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    bench::check_sweep_equal(
        golden, bench::run_memory_sweep(threads, mini_sweep(), base, plan));
  }
}

TEST(DeterminismMatrix, Fig7ShapedIorSweep) {
  expect_matrix_identical(small_testbed(), ior_factory());
}

TEST(DeterminismMatrix, Fig8ShapedHierarchicalIorSweep) {
  bench::RunOptions base = small_testbed();
  base.hints.cb_node_leaders = true;  // fig8 --hier code path
  expect_matrix_identical(base, ior_factory());
}

TEST(DeterminismMatrix, Fig6ShapedCollPerfSweep) {
  expect_matrix_identical(small_testbed(), collperf_factory());
}

TEST(DeterminismMatrix, FaultLadderSweep) {
  // Degradation-ladder paths (denial/retry/revocation/shrink/spill) must
  // replay identically: check_sweep_equal pins the full degradation
  // counter set.
  bench::RunOptions base = small_testbed();
  base.faults.denial_rate = 0.2;
  base.faults.revoke_rate = 0.1;
  base.faults.delay_rate = 0.1;
  base.attach_fault_plan = true;
  expect_matrix_identical(base, ior_factory());
}

TEST(DeterminismMatrix, BorrowAndHierarchyFaultSweep) {
  // Far-memory borrow migration crossed with node-leader hierarchy and
  // node exhaustion.
  bench::RunOptions base = small_testbed();
  base.hints.cb_node_leaders = true;
  base.hints.borrow_far_memory = true;
  base.faults.denial_rate = 0.15;
  base.faults.exhaust_rate = 0.25;
  base.attach_fault_plan = true;
  expect_matrix_identical(base, ior_factory());
}

TEST(DeterminismMatrix, FuzzOracleIdenticalAcrossHostThreads) {
  // The fuzz --threads pool: cases run concurrently, each through its
  // own private auditor, and must match a serial run of the same cases.
  const fuzz::ScenarioGen gen(2026);
  constexpr int kCases = 6;
  std::vector<fuzz::DiffResult> serial;
  for (int i = 0; i < kCases; ++i) {
    serial.push_back(
        fuzz::run_differential(gen.generate(static_cast<std::uint64_t>(i))));
  }
  std::vector<fuzz::DiffResult> pooled(kCases);
  bench::parallel_for(4, kCases, [&](int i) {
    pooled[static_cast<std::size_t>(i)] =
        fuzz::run_differential(gen.generate(static_cast<std::uint64_t>(i)));
  });
  for (std::size_t i = 0; i < serial.size(); ++i) {
    const fuzz::DiffResult& base = serial[i];
    const fuzz::DiffResult& r = pooled[i];
    EXPECT_EQ(r.classify(), base.classify()) << "case " << i;
    for (int d = 0; d < 3; ++d) {
      SCOPED_TRACE("case " + std::to_string(i) + " driver " +
                   std::to_string(d));
      EXPECT_EQ(r.runs[d].completed, base.runs[d].completed);
      EXPECT_EQ(r.runs[d].file_hash, base.runs[d].file_hash);
      EXPECT_EQ(r.runs[d].read_hash, base.runs[d].read_hash);
      EXPECT_EQ(r.runs[d].pattern_ok, base.runs[d].pattern_ok);
      EXPECT_EQ(r.runs[d].findings.size(), base.runs[d].findings.size());
      // The audit trail — every delivered message, wait, lease and PFS
      // access — must match event-for-event, not just the bytes.
      EXPECT_TRUE(r.runs[d].counters == base.runs[d].counters);
    }
  }
}

}  // namespace
}  // namespace mcio
