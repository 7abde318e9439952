// Microbenchmarks: derived-datatype flattening and extent algebra
// (google-benchmark) — the per-collective metadata cost.
#include <benchmark/benchmark.h>

#include "micro_main.h"
#include "mpi/datatype.h"
#include "util/extent.h"
#include "workloads/collperf.h"

namespace {

using mcio::mpi::Datatype;
using mcio::util::Extent;
using mcio::util::ExtentList;

void BM_SubarrayFlatten(benchmark::State& state) {
  const auto n = static_cast<std::uint64_t>(state.range(0));
  for (auto _ : state) {
    const Datatype t = Datatype::subarray({n, n, n}, {n / 2, n / 2, n / 2},
                                          {n / 4, n / 4, n / 4},
                                          Datatype::bytes(8));
    benchmark::DoNotOptimize(t.num_runs());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(n / 2 * n / 2));
}
BENCHMARK(BM_SubarrayFlatten)->Arg(32)->Arg(64)->Arg(128);

void BM_VectorFlattenBytes(benchmark::State& state) {
  const auto count = static_cast<std::uint64_t>(state.range(0));
  const Datatype t = Datatype::vector(count, 3, 7, Datatype::bytes(512));
  for (auto _ : state) {
    auto runs = t.flatten_bytes(0, t.size() * 4);
    benchmark::DoNotOptimize(runs.size());
  }
}
BENCHMARK(BM_VectorFlattenBytes)->Arg(128)->Arg(1024)->Arg(8192);

void BM_ExtentListClip(benchmark::State& state) {
  const auto n = static_cast<std::uint64_t>(state.range(0));
  std::vector<Extent> runs;
  runs.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    runs.push_back(Extent{i * 4096, 2048});
  }
  const ExtentList list = ExtentList::normalize(std::move(runs));
  for (auto _ : state) {
    std::uint64_t total = 0;
    for (std::uint64_t w = 0; w < 16; ++w) {
      total += list.clipped(Extent{w * n * 256, n * 256}).total_bytes();
    }
    benchmark::DoNotOptimize(total);
  }
}
BENCHMARK(BM_ExtentListClip)->Arg(1024)->Arg(16384);

// The union of the plans a write epoch's close builds, at collperf_120's
// shape: 120 ranks' 512^3 subarray views of 8 B
// elements, about 8.7k sorted 1 KiB runs each, interleaved across the
// whole file.
void BM_EpochCloseUnion(benchmark::State& state) {
  const int ranks = static_cast<int>(state.range(0));
  mcio::workloads::CollPerfConfig cfg;
  cfg.dims = {512, 512, 512};
  cfg.elem_size = 8;
  std::vector<ExtentList> plans;
  std::size_t extents = 0;
  for (int r = 0; r < ranks; ++r) {
    plans.push_back(ExtentList::normalize(
        mcio::workloads::collperf_filetype(r, ranks, cfg).flatten(0, 1)));
    extents += plans.back().size();
  }
  std::vector<const ExtentList*> ptrs;
  for (const ExtentList& p : plans) ptrs.push_back(&p);
  ExtentList planned;
  for (auto _ : state) {
    planned.assign_union(ptrs);
    benchmark::DoNotOptimize(planned.size());
  }
  state.counters["extents"] = static_cast<double>(extents);
  // Seconds per input extent; the console prints it as e.g. "13ns".
  state.counters["time_per_extent"] = benchmark::Counter(
      static_cast<double>(extents),
      benchmark::Counter::kIsIterationInvariantRate |
          benchmark::Counter::kInvert);
}
BENCHMARK(BM_EpochCloseUnion)->Arg(120)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  return mcio::bench::micro_main(argc, argv, "micro_datatype");
}
