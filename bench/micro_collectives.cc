// Microbenchmarks: host cost of the schedule-driven collectives
// (google-benchmark). One simulated run per iteration, on 16 ranks per
// node. The clock starts once every rank is past a warm-up barrier and
// stops when the last rank leaves the timed collectives, so fiber setup
// is not counted. `host_ns_per_msg` divides that host time by the
// messages the collectives model:
//   barrier        P * ceil(log2 P) zero-byte messages (dissemination);
//   allreduce_max  2 * (P - 1) framed messages (binomial gather, then the
//                  binomial broadcast of the shared result).
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdint>

#include "micro_main.h"
#include "mpi/comm.h"
#include "mpi/machine.h"

namespace {

using Clock = std::chrono::steady_clock;

constexpr int kRanksPerNode = 16;

std::int64_t ceil_log2(int p) {
  std::int64_t r = 0;
  while ((1 << r) < p) ++r;
  return r;
}

/// Runs `calls` collectives of `op` on `p` ranks per iteration.
template <typename Op>
void run_collective(benchmark::State& state, int calls,
                    std::int64_t msgs_per_call, Op op) {
  const int p = static_cast<int>(state.range(0));
  mcio::sim::ClusterConfig cfg;
  cfg.ranks_per_node = kRanksPerNode;
  cfg.num_nodes = (p + kRanksPerNode - 1) / kRanksPerNode;
  double total_s = 0.0;
  std::int64_t total_msgs = 0;
  for (auto _ : state) {
    mcio::mpi::Machine machine(cfg);
    int warm = 0;
    int done = 0;
    Clock::time_point t0;
    Clock::time_point t1;
    machine.run(p, [&](mcio::mpi::Rank& rank) {
      mcio::mpi::Comm& world = rank.world();
      world.barrier();
      // The classic loop runs one rank at a time, so plain counters
      // see every rank.
      if (++warm == 1) t0 = Clock::now();
      for (int i = 0; i < calls; ++i) op(world, rank.rank());
      if (++done == p) t1 = Clock::now();
    });
    const double s = std::chrono::duration<double>(t1 - t0).count();
    state.SetIterationTime(s);
    total_s += s;
    total_msgs += calls * msgs_per_call;
  }
  state.counters["host_ns_per_msg"] =
      total_msgs > 0 ? total_s * 1e9 / static_cast<double>(total_msgs) : 0.0;
  state.counters["msgs_per_iter"] = static_cast<double>(calls * msgs_per_call);
}

void BM_Barrier(benchmark::State& state) {
  const int p = static_cast<int>(state.range(0));
  run_collective(state, /*calls=*/10, p * ceil_log2(p),
                 [](mcio::mpi::Comm& c, int) { c.barrier(); });
}
BENCHMARK(BM_Barrier)
    ->Arg(1024)
    ->Arg(4096)
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond);

void BM_AllreduceMax(benchmark::State& state) {
  const int p = static_cast<int>(state.range(0));
  run_collective(state, /*calls=*/10, 2 * (p - 1),
                 [](mcio::mpi::Comm& c, int rank) {
                   benchmark::DoNotOptimize(
                       c.allreduce_max(static_cast<double>(rank)));
                 });
}
BENCHMARK(BM_AllreduceMax)
    ->Arg(1024)
    ->Arg(4096)
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  return mcio::bench::micro_main(argc, argv, "micro_collectives");
}
