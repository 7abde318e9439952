// Figure 6: coll_perf (ROMIO) write/read bandwidth vs per-aggregator
// memory at 120 cores. The benchmark writes and reads a 3-D
// block-distributed array in row-major order through subarray file views.
//
// Paper reference: 2048³ array (32 GB) over 120 processes; MCCIO average
// gain +34.2 % write / +22.9 % read. The default array here is 1024³
// (8 GiB) to keep the flattened-extent memory of the simulation modest;
// pass --dim=2048 for the paper's full size.
#include "common.h"
#include "util/cli.h"

using namespace mcio;

int main(int argc, char** argv) {
  util::Cli cli(argc, argv);
  bench::Testbed tb;
  tb.nodes = static_cast<int>(cli.get_int("nodes", 10));
  const int nranks = static_cast<int>(
      cli.get_int("ranks", tb.nodes * tb.ranks_per_node));
  const auto dim =
      static_cast<std::uint64_t>(cli.get_int("dim", 1024));
  const double stdev = cli.get_double("mem-stdev", 0.5);
  const bool hier = cli.get_bool("hier", false);
  const int threads = bench::threads_flag(cli);
  bench::JsonReporter rep(cli, "fig6_collperf");
  bench::configure_audit(cli);
  cli.check_unused();

  workloads::CollPerfConfig w;
  w.dims = {dim, dim, dim};
  w.elem_size = 8;

  const auto make_plan = [&](int rank, int p) {
    return workloads::collperf_plan(
        rank, p, w,
        util::Payload::virtual_bytes(
            workloads::collperf_bytes_per_rank(rank, p, w)));
  };

  util::Table table({"mem/agg", "normal wr MB/s", "mccio wr MB/s",
                     "wr gain", "normal rd MB/s", "mccio rd MB/s",
                     "rd gain", "aggs(mccio)", "groups"});
  double wr_gain_sum = 0.0;
  double rd_gain_sum = 0.0;
  int count = 0;
  bench::RunOptions base;
  base.nranks = nranks;
  base.testbed = tb;
  base.mem_stdev = stdev;
  base.hints.cb_node_leaders = hier;
  const auto points = bench::run_memory_sweep(
      threads, bench::paper_memory_sweep(), base, make_plan);
  for (const bench::SweepPoint& pt : points) {
    const std::uint64_t mem = pt.mem_bytes;
    const bench::RunResult& normal = pt.normal;
    const bench::RunResult& mccio = pt.mccio;

    const double wr_gain = mccio.write_bw / normal.write_bw - 1.0;
    const double rd_gain = mccio.read_bw / normal.read_bw - 1.0;
    util::Json& point =
        rep.add_point(util::format_bytes(mem), pt.meter)
            .set("mem_bytes", mem)
            .set("normal_write_mbs", normal.write_bw / 1e6)
            .set("mccio_write_mbs", mccio.write_bw / 1e6)
            .set("normal_read_mbs", normal.read_bw / 1e6)
            .set("mccio_read_mbs", mccio.read_bw / 1e6)
            .set("mccio_aggregators", mccio.write_stats.num_aggregators())
            .set("mccio_groups", mccio.write_stats.num_groups());
    bench::set_message_counters(point, "normal_write_", normal.write_stats);
    bench::set_message_counters(point, "normal_read_", normal.read_stats);
    bench::set_message_counters(point, "mccio_write_", mccio.write_stats);
    bench::set_message_counters(point, "mccio_read_", mccio.read_stats);
    wr_gain_sum += wr_gain;
    rd_gain_sum += rd_gain;
    ++count;
    table.add(util::format_bytes(mem), util::fixed(normal.write_bw / 1e6),
              util::fixed(mccio.write_bw / 1e6), util::percent(wr_gain),
              util::fixed(normal.read_bw / 1e6),
              util::fixed(mccio.read_bw / 1e6), util::percent(rd_gain),
              mccio.write_stats.num_aggregators(),
              mccio.write_stats.num_groups());
  }
  std::cout << "# Figure 6 — coll_perf, " << nranks << " processes, "
            << dim << "^3 doubles ("
            << util::format_bytes(workloads::collperf_total_bytes(w))
            << " file)\n";
  table.print(std::cout);
  std::cout << "average write improvement: "
            << util::percent(wr_gain_sum / count)
            << "   (paper: +34.2%)\n";
  std::cout << "average read improvement:  "
            << util::percent(rd_gain_sum / count)
            << "   (paper: +22.9%)\n";
  rep.write();
  return 0;
}
