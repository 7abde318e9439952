// perfbench: the repository benchmark harness.
//
//   perfbench --workload=<name> --seed=<n> --seconds=<s> --trace=<0|1>
//             [--trace-out=<path>]
//
// Runs one named workload through the public simulator API on one
// simulation thread (the classic single-loop scheduler, auditor on):
// for every memory point, a collective write then a collective read of
// the same file with each driver (two-phase baseline, MCCIO). The seed
// draws the per-node memory availability (and the fault schedule of the
// pressure workload), so the same seed gives the same inputs.
//
// --trace=0 repeats the workload until --seconds have passed and prints
// the end-to-end metrics. --trace=1 prints the per-layer metrics: one
// untraced pass, one pass with the counting observer tee and spans, one
// pass without the auditor, and the plan probes. The last stdout line is
// one JSON object {correct, attempted, failed, metrics}.
#include <algorithm>
#include <cmath>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <thread>

#include "harness.h"
#include "util/stats.h"

using namespace mcio;

namespace mcio::perfbench {
namespace {

using bench::DriverKind;
using util::kMiB;

/// One named workload: a testbed shape, its memory points and the
/// per-rank plan generator.
struct Workload {
  std::string name;
  bench::RunOptions base;  ///< driver and mem_mean set per cell
  std::vector<std::uint64_t> mems;
  std::uint64_t planned_bytes = 0;  ///< bytes every collective must move
  bench::BenchPlanFactory make_plan;
};

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ull + salt;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

bench::BenchPlanFactory ior_factory(const workloads::IorConfig& w) {
  return [w](int rank, int p) {
    return workloads::ior_plan(
        rank, p, w,
        util::Payload::virtual_bytes(workloads::ior_bytes_per_rank(w)));
  };
}

Workload make_workload(const std::string& name, std::uint64_t seed) {
  Workload wl;
  wl.name = name;
  bench::RunOptions& b = wl.base;
  if (name == "ior_1080") {
    // Figure 8's shape: a whole-domain memory point and a seek-bound one.
    b.testbed.nodes = 90;
    workloads::IorConfig w;
    w.block_size = 32 * kMiB;
    w.transfer_size = 1 * kMiB;
    b.nranks = b.testbed.nodes * b.testbed.ranks_per_node;
    wl.mems = {128 * kMiB, 16 * kMiB};
    wl.planned_bytes = workloads::ior_total_bytes(b.nranks, w);
    wl.make_plan = ior_factory(w);
  } else if (name == "plan_scale_4k") {
    // The scale-smoke shape at 4096 ranks: planning dominates host time.
    b.testbed.nodes = 512;
    b.testbed.ranks_per_node = 8;
    workloads::IorConfig w;
    w.block_size = 16ull << 10;
    w.transfer_size = 16ull << 10;
    b.nranks = b.testbed.nodes * b.testbed.ranks_per_node;
    wl.mems = {1 * kMiB};
    wl.planned_bytes = workloads::ior_total_bytes(b.nranks, w);
    wl.make_plan = ior_factory(w);
  } else if (name == "collperf_120") {
    // Figure 6's shape: subarray views, thousands of extents per rank.
    b.testbed.nodes = 10;
    b.nranks = b.testbed.nodes * b.testbed.ranks_per_node;
    workloads::CollPerfConfig w;
    w.dims = {512, 512, 512};
    w.elem_size = 8;
    wl.mems = {16 * kMiB};
    wl.planned_bytes = workloads::collperf_total_bytes(w);
    wl.make_plan = [w](int rank, int p) {
      return workloads::collperf_plan(
          rank, p, w,
          util::Payload::virtual_bytes(
              workloads::collperf_bytes_per_rank(rank, p, w)));
    };
  } else if (name == "ior_pressure") {
    // 120 data ranks on 10 nodes plus 6 idle donor nodes, scarce memory,
    // a fault plan and the borrow rung: the degradation ladder's workload.
    b.testbed.nodes = 16;
    b.nranks = 120;
    workloads::IorConfig w;
    w.block_size = 32 * kMiB;
    w.transfer_size = 256ull << 10;
    b.faults.denial_rate = 0.7;
    b.faults.delay_rate = 0.05;
    b.faults.revoke_rate = 0.3;
    b.attach_fault_plan = true;
    b.hints.fault_backoff_s = 20e-3;
    b.hints.borrow_far_memory = true;
    wl.mems = {16 * kMiB, 4 * kMiB};
    wl.planned_bytes = workloads::ior_total_bytes(b.nranks, w);
    wl.make_plan = ior_factory(w);
  } else {
    MCIO_CHECK_MSG(false, "unknown workload " << name);
  }
  // The seed places the workload in the file: a shift by whole stripe
  // rounds (stripe unit x OST count), which keeps every byte on the same
  // OST at the same object position. No fault-free simulated figure may
  // depend on it, so neither may the digest. Fault draws are keyed by
  // domain offset, so a fault plan would turn the shift into a different
  // schedule: ior_pressure stays in place. Memory draws and fault
  // schedules keep the testbed's fixed seeds, as in the figures.
  const pfs::PfsConfig pc = b.testbed.pfs();
  const std::uint64_t disp =
      b.attach_fault_plan ? 0
                          : mix_seed(seed, 1) % 1024 * pc.stripe_unit *
                                static_cast<std::uint64_t>(pc.num_osts);
  wl.make_plan = [inner = std::move(wl.make_plan), disp](int rank, int p) {
    io::AccessPlan plan = inner(rank, p);
    for (util::Extent& e : plan.extents) e.offset += disp;
    return plan;
  };
  return wl;
}

/// Everything one (memory point, driver) cell measured.
struct Cell {
  DriverKind driver = DriverKind::kTwoPhase;
  std::string error;          ///< empty when both collectives passed
  int failed = 0;             ///< failed collectives of the two
  double setup_s = 0.0;       ///< start until rank 0 leaves the barrier
  double collectives_s = 0.0; ///< write + flush + read on rank 0
  double write_host_s = 0.0;
  double read_host_s = 0.0;
  double run_s = 0.0;         ///< stack construction through teardown
  double plan_gen_s = 0.0;    ///< plan generators, summed over ranks
  double write_sim_s = 0.0;
  double read_sim_s = 0.0;
  double ost_busy_max_frac = 0.0;
  std::uint64_t rpcs = 0;
  std::uint64_t seeks = 0;
  metrics::CollectiveStats write_stats;
  metrics::CollectiveStats read_stats;
};

/// Largest OST busy time over a phase, from per-OST busy snapshots.
double ost_busy_frac(pfs::Pfs& fs, const std::vector<double>& before,
                     double phase_sim_s) {
  double busiest = 0.0;
  for (int i = 0; i < fs.num_osts(); ++i) {
    busiest = std::max(busiest, fs.ost_queue(i).busy_time() -
                                    before[static_cast<std::size_t>(i)]);
  }
  return phase_sim_s > 0.0 ? busiest / phase_sim_s : 0.0;
}

std::vector<double> ost_busy(pfs::Pfs& fs) {
  std::vector<double> out;
  for (int i = 0; i < fs.num_osts(); ++i) {
    out.push_back(fs.ost_queue(i).busy_time());
  }
  return out;
}

/// One cell: collective write, locality flush, collective read — the
/// loop of bench::run_experiment with host timers and correctness checks
/// around each call.
Cell run_cell(const Workload& wl, DriverKind driver, std::uint64_t mem,
              SpanTrace& trace, int parent) {
  Cell c;
  c.driver = driver;
  bench::RunOptions opt = wl.base;
  opt.driver = driver;
  opt.mem_mean = mem;
  const std::uint64_t findings0 =
      verify::global_auditor().counters().findings;
  const double start = bench::wall_now();
  const int cell_span =
      trace.open(std::string(bench::driver_name(driver)) + "@" +
                     util::format_bytes(mem),
                 parent, start);
  double pfs_written = 0.0;
  double pfs_read = 0.0;
  try {
    Stack st(opt);
    io::TwoPhaseDriver two_phase;
    core::MccioDriver mccio(opt.mccio);
    io::CollectiveDriver* drv = driver == DriverKind::kMccio
                                    ? static_cast<io::CollectiveDriver*>(&mccio)
                                    : &two_phase;
    const io::Hints hints = run_hints(opt);
    int setup_span = trace.open("setup", cell_span, start);
    st.machine.run(opt.nranks, [&](mpi::Rank& rank) {
      const bool root = rank.rank() == 0;
      const double g0 = bench::wall_now();
      const io::AccessPlan plan = wl.make_plan(rank.rank(), opt.nranks);
      c.plan_gen_s += bench::wall_now() - g0;
      mpi::Comm& world = rank.world();
      io::MPIFile file(rank, world, io::MPIFile::Services{&st.fs, &st.memory},
                       "/perfbench", /*create=*/true, hints, drv);
      file.set_stats(&c.write_stats);
      world.barrier();
      double h0 = 0.0;
      std::vector<double> busy0;
      double written0 = 0.0;
      if (root) {
        h0 = bench::wall_now();
        c.setup_s = h0 - start;
        trace.close(setup_span, h0);
        busy0 = ost_busy(st.fs);
        written0 = st.fs.total_bytes_written();
      }
      const double t0 = world.allreduce_max(rank.actor().now());
      int span = root ? trace.open("io.write_all", cell_span, h0) : -1;
      file.write_all_plan(plan);
      world.barrier();
      const double t1 = world.allreduce_max(rank.actor().now());
      double h1 = 0.0;
      double read0 = 0.0;
      if (root) {
        h1 = bench::wall_now();
        trace.close(span, h1);
        c.write_host_s = h1 - h0;
        c.write_sim_s = t1 - t0;
        c.write_stats.set_elapsed(t1 - t0);
        pfs_written = st.fs.total_bytes_written() - written0;
        c.ost_busy_max_frac = ost_busy_frac(st.fs, busy0, t1 - t0);
        busy0 = ost_busy(st.fs);
        read0 = st.fs.total_bytes_read();
        st.fs.flush_locality();
      }
      world.barrier();
      file.set_stats(&c.read_stats);
      const double t2 = world.allreduce_max(rank.actor().now());
      const double h2 = bench::wall_now();
      span = root ? trace.open("io.read_all", cell_span, h2) : -1;
      file.read_all_plan(plan);
      world.barrier();
      const double t3 = world.allreduce_max(rank.actor().now());
      if (root) {
        const double h3 = bench::wall_now();
        trace.close(span, h3);
        c.read_host_s = h3 - h2;
        c.collectives_s = h3 - h0;
        c.read_sim_s = t3 - t2;
        c.read_stats.set_elapsed(t3 - t2);
        pfs_read = st.fs.total_bytes_read() - read0;
        c.ost_busy_max_frac = std::max(c.ost_busy_max_frac,
                                       ost_busy_frac(st.fs, busy0, t3 - t2));
        c.rpcs = st.fs.total_rpcs();
        c.seeks = st.fs.total_seeks();
      }
    });
  } catch (const std::exception& e) {
    c.error = e.what();
    c.failed = 2;
  }
  c.run_s = bench::wall_now() - start;
  trace.close(cell_span, start + c.run_s);
  if (!c.error.empty()) return c;

  // Correctness gate: no auditor finding, and every collective moved
  // exactly the planned bytes through the exchange and the PFS.
  const auto planned = static_cast<double>(wl.planned_bytes);
  std::ostringstream why;
  if (verify::global_auditor().counters().findings != findings0) {
    why << "auditor findings; ";
    c.failed = 2;
  }
  if (c.write_stats.io_bytes() != wl.planned_bytes ||
      pfs_written != planned) {
    why << "write moved " << c.write_stats.io_bytes() << " B (PFS "
        << pfs_written << " B) of " << wl.planned_bytes << " planned; ";
    ++c.failed;
  }
  if (c.read_stats.io_bytes() != wl.planned_bytes || pfs_read != planned) {
    why << "read moved " << c.read_stats.io_bytes() << " B (PFS " << pfs_read
        << " B) of " << wl.planned_bytes << " planned; ";
    ++c.failed;
  }
  c.failed = std::min(c.failed, 2);
  c.error = why.str();
  return c;
}

/// FNV-1a over every simulated field of a pass: bandwidth bits, message
/// censuses, PFS counters, aggregator records and the degradation trail.
class Digest {
 public:
  template <class T>
  void add(const T& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    const auto* p = reinterpret_cast<const unsigned char*>(&v);
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      h_ = (h_ ^ p[i]) * 0x100000001B3ull;
    }
  }
  void add_stats(const metrics::CollectiveStats& s) {
    add(s.elapsed());
    add(s.num_groups());
    add(s.msgs_intra_node());
    add(s.msgs_inter_node());
    add(s.bytes_inter_node());
    add(s.shuffle_intra_node());
    add(s.shuffle_inter_node());
    add(s.rmw_bytes());
    add(s.io_bytes());
    for (const metrics::AggregatorRecord& a : s.aggregators()) {
      add(a.rank);
      add(a.node);
      add(a.buffer_bytes);
      add(a.pressure);
      add(a.bytes_received);
      add(a.bytes_sent);
      add(a.io_bytes);
      add(a.rounds);
    }
    const metrics::DegradationStats& d = s.degradation();
    add(d.lease_denials);
    add(d.lease_retries);
    add(d.backoff_s);
    add(d.grant_delays);
    add(d.grant_delay_s);
    add(d.revocations);
    add(d.buffer_shrinks);
    add(d.spills);
    add(d.spilled_bytes);
    add(d.plan_remerges);
    add(d.exhausted_nodes);
    add(d.fallback_ranks);
    add(d.fallback_bytes);
    add(d.lease_retry_giveups);
    add(d.borrows);
    add(d.borrowed_bytes);
    add(d.borrow_denials);
    add(d.donor_revocations);
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xCBF29CE484222325ull;
};

/// One pass over every cell of a workload.
struct Pass {
  std::vector<Cell> cells;
  std::uint64_t digest = 0;
  double wall_s = 0.0;  ///< whole pass, set-up included
  int attempted = 0;
  int failed = 0;
  std::string errors;

  double sum(double Cell::*field) const {
    double s = 0.0;
    for (const Cell& c : cells) s += c.*field;
    return s;
  }
};

Pass run_pass(const Workload& wl, SpanTrace& trace, int parent,
              const char* label) {
  Pass p;
  const double t0 = bench::wall_now();
  const int span = trace.open(label, parent, t0);
  Digest dg;
  for (const std::uint64_t mem : wl.mems) {
    for (const DriverKind d : {DriverKind::kTwoPhase, DriverKind::kMccio}) {
      Cell c = run_cell(wl, d, mem, trace, span);
      p.attempted += 2;
      p.failed += c.failed;
      if (!c.error.empty()) {
        p.errors += std::string(bench::driver_name(d)) + "@" +
                    util::format_bytes(mem) + ": " + c.error + "\n";
      }
      dg.add(c.write_sim_s);
      dg.add(c.read_sim_s);
      dg.add(c.rpcs);
      dg.add(c.seeks);
      dg.add(c.ost_busy_max_frac);
      dg.add_stats(c.write_stats);
      dg.add_stats(c.read_stats);
      p.cells.push_back(std::move(c));
    }
  }
  p.wall_s = bench::wall_now() - t0;
  trace.close(span, t0 + p.wall_s);
  p.digest = dg.value();
  return p;
}

double median(std::vector<double> v) {
  MCIO_CHECK(!v.empty());
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Metric name -> (value, unit), printed in insertion order.
class Metrics {
 public:
  void set(const std::string& name, double value, const char* unit) {
    rows_.push_back({name, value, unit});
  }
  void print_json(std::ostream& os) const {
    os << "{";
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      const Row& r = rows_[i];
      os << (i ? ", " : "") << "\"" << r.name << "\": {\"value\": "
         << json_number(r.value) << ", \"unit\": \"" << r.unit << "\"}";
    }
    os << "}";
  }
  void print_table(std::ostream& os) const {
    for (const Row& r : rows_) {
      os << "#   " << std::left << std::setw(30) << r.name << " "
         << std::setw(16) << json_number(r.value) << " " << r.unit << "\n";
    }
  }

 private:
  struct Row {
    std::string name;
    double value;
    std::string unit;
  };
  static std::string json_number(double v) {
    if (!std::isfinite(v)) return "null";
    std::ostringstream os;
    os << std::setprecision(17) << v;
    return os.str();
  }
  std::vector<Row> rows_;
};

/// Simulated bandwidth of one driver and direction over all memory
/// points: total bytes over summed simulated seconds, in MB/s.
double sim_mbs(const Pass& p, const Workload& wl, DriverKind d, bool write) {
  double secs = 0.0;
  double bytes = 0.0;
  for (const Cell& c : p.cells) {
    if (c.driver != d) continue;
    secs += write ? c.write_sim_s : c.read_sim_s;
    bytes += static_cast<double>(wl.planned_bytes);
  }
  return secs > 0.0 ? bytes / secs / 1e6 : 0.0;
}

void end_to_end(const Workload& wl, double seconds, Metrics& m, int& attempted,
                int& failed, std::uint64_t& digest, std::string& errors) {
  SpanTrace off(false);
  std::vector<double> walls;
  std::vector<double> setups;
  std::vector<Pass> passes;
  const double t0 = bench::wall_now();
  do {
    passes.push_back(run_pass(wl, off, -1, "pass"));
    const Pass& p = passes.back();
    walls.push_back(p.sum(&Cell::collectives_s));
    for (const Cell& c : p.cells) setups.push_back(c.setup_s);
    std::cout << "# pass " << passes.size() << ": collectives "
              << walls.back() << " s, whole pass " << p.wall_s << " s\n";
  } while (bench::wall_now() - t0 < seconds);
  const Pass& first = passes.front();
  for (const Pass& p : passes) {
    attempted += p.attempted;
    failed += p.failed;
    errors += p.errors;
    if (p.digest != first.digest) errors += "digest changed between passes\n";
  }
  digest = first.digest;
  const int ok = attempted - failed;
  m.set("host_wall_s", median(walls), "s");
  m.set("setup_s", median(setups), "s");
  m.set("peak_rss_mib",
        static_cast<double>(bench::run_peak_rss_bytes()) / (1 << 20), "MiB");
  m.set("sim_write_mbs.mccio", sim_mbs(first, wl, DriverKind::kMccio, true),
        "MB/s");
  m.set("sim_read_mbs.mccio", sim_mbs(first, wl, DriverKind::kMccio, false),
        "MB/s");
  m.set("sim_write_mbs.two_phase",
        sim_mbs(first, wl, DriverKind::kTwoPhase, true), "MB/s");
  m.set("sim_read_mbs.two_phase",
        sim_mbs(first, wl, DriverKind::kTwoPhase, false), "MB/s");
  m.set("ops_ok_frac", static_cast<double>(ok) / attempted, "frac");
}

void per_layer(const Workload& wl, Metrics& m, int& attempted, int& failed,
               std::uint64_t& digest, std::string& errors, SpanTrace& trace) {
  // 1. Untraced, audited: the baseline of the tracing overhead.
  SpanTrace off(false);
  const Pass plain = run_pass(wl, off, -1, "pass");
  // 2. Traced: the counting tee forwards every hook to the Auditor.
  CountingTee tee(verify::global_observer());
  const Pass traced = [&] {
    const ScopedGlobalObserver install(&tee);
    return run_pass(wl, trace, -1, "pass.traced");
  }();
  // 3. Unaudited: the auditor's host cost is the difference.
  const Pass unaudited = [&] {
    const ScopedGlobalObserver install(nullptr);
    return run_pass(wl, off, -1, "pass.unaudited");
  }();
  for (const Pass* p : {&plain, &traced, &unaudited}) {
    attempted += p->attempted;
    failed += p->failed;
    errors += p->errors;
    if (p->digest != plain.digest) {
      errors += "digest differs between untraced, traced and unaudited\n";
    }
  }
  digest = plain.digest;

  // 4. Plan probes at every memory point, with the cross-check.
  const int probe_span = trace.open("plan_probes", -1, bench::wall_now());
  PlanProbe sum;
  double sim_plan_s = 0.0;
  double at_full = 0.0;  // MCCIO plan-only pass at the first memory point
  for (const std::uint64_t mem : wl.mems) {
    bench::RunOptions opt = wl.base;
    opt.mem_mean = mem;
    const PlanProbe point = probe_plans(opt, wl.make_plan, trace, probe_span);
    ++attempted;
    if (!point.mismatch.empty()) {
      ++failed;
      errors += "plan cross-check @" + util::format_bytes(mem) + ": " +
                point.mismatch + "\n";
    }
    if (mem == wl.mems.front()) at_full = point.mccio_plan.host_s;
    sum.mccio_plan.host_s += point.mccio_plan.host_s;
    sum.two_phase_plan.host_s += point.two_phase_plan.host_s;
    sum.allgather.host_s += point.allgather.host_s;
    sum.divide_groups_s += point.divide_groups_s;
    sum.partition_s += point.partition_s;
    sum.locate_aggregators_s += point.locate_aggregators_s;
    sum.default_aggregators_s += point.default_aggregators_s;
    sim_plan_s += point.mccio_plan.sim_s + point.two_phase_plan.sim_s;
  }
  trace.close(probe_span, bench::wall_now());
  // 5. Scaling: the MCCIO plan-only pass at P over the same at P/2
  // (half the nodes, same ranks per node and per-rank shape).
  const int scale_span = trace.open("core.scaling", -1, bench::wall_now());
  bench::RunOptions half = wl.base;
  half.mem_mean = wl.mems.front();
  half.testbed.nodes = std::max(1, half.testbed.nodes / 2);
  half.nranks = std::max(1, half.nranks / 2);
  const double at_half = mccio_plan_pass_s(half, wl.make_plan);
  trace.close(scale_span, bench::wall_now());

  const double ranks = wl.base.nranks;
  const double nmems = static_cast<double>(wl.mems.size());
  m.set("core.build_plan_host_s", sum.mccio_plan.host_s, "s");
  m.set("io.build_plan_host_s", sum.two_phase_plan.host_s, "s");
  m.set("mpi.allgather_host_s", sum.allgather.host_s, "s");
  m.set("core.plan_compute_host_s",
        sum.mccio_plan.host_s - sum.allgather.host_s, "s");
  m.set("core.divide_groups_host_s", sum.divide_groups_s / nmems, "s");
  m.set("core.partition_host_s", sum.partition_s / nmems, "s");
  m.set("core.locate_aggregators_host_s", sum.locate_aggregators_s / nmems,
        "s");
  m.set("io.default_aggregators_host_s", sum.default_aggregators_s / nmems,
        "s");
  m.set("core.replicated_plan_host_s",
        (sum.divide_groups_s + sum.partition_s + sum.locate_aggregators_s +
         sum.default_aggregators_s) /
            nmems * ranks,
        "s");
  m.set("core.host_scaling_ratio", at_full / at_half, "ratio");

  const TeeCounts& n = tee.counts();
  m.set("sim.slices", static_cast<double>(n.slices), "count");
  m.set("sim.host_ns_per_slice",
        traced.sum(&Cell::run_s) / static_cast<double>(n.slices) * 1e9, "ns");
  m.set("mpi.messages", static_cast<double>(n.messages), "count");
  m.set("mpi.bytes", static_cast<double>(n.bytes), "B");
  m.set("mpi.waits", static_cast<double>(n.waits), "count");
  m.set("mpi.unexpected_frac",
        static_cast<double>(n.unexpected) / static_cast<double>(n.messages),
        "frac");

  const double write_s = traced.sum(&Cell::write_host_s);
  m.set("io.write_all_host_s", write_s, "s");
  m.set("io.read_all_host_s", traced.sum(&Cell::read_host_s), "s");
  m.set("io.exchange_host_s",
        write_s - sum.mccio_plan.host_s - sum.two_phase_plan.host_s, "s");
  m.set("io.sim_plan_s", sim_plan_s, "sim_s");
  double sim_w = 0.0, sim_r = 0.0;
  double msgs_inter = 0.0, msgs_intra = 0.0, bytes_inter = 0.0;
  double rmw = 0.0, io_bytes = 0.0, rpcs = 0.0, seeks = 0.0, busy = 0.0;
  double buf_sum = 0.0, buf_n = 0.0, press_sum = 0.0, press_n = 0.0;
  double cv_sum = 0.0, mccio_colls = 0.0, groups = 0.0, aggs = 0.0;
  metrics::DegradationStats deg;
  for (const Cell& c : traced.cells) {
    sim_w += c.write_stats.elapsed();
    sim_r += c.read_stats.elapsed();
    rpcs += static_cast<double>(c.rpcs);
    seeks += static_cast<double>(c.seeks);
    busy = std::max(busy, c.ost_busy_max_frac);
    for (const metrics::CollectiveStats* s : {&c.write_stats, &c.read_stats}) {
      msgs_inter += static_cast<double>(s->msgs_inter_node());
      msgs_intra += static_cast<double>(s->msgs_intra_node());
      bytes_inter += static_cast<double>(s->bytes_inter_node());
      rmw += static_cast<double>(s->rmw_bytes());
      io_bytes += static_cast<double>(s->io_bytes());
      const util::RunningStats b = s->buffer_stats();
      buf_sum += b.sum();
      buf_n += static_cast<double>(b.count());
      const util::RunningStats press = s->pressure_stats();
      press_sum += press.sum();
      press_n += static_cast<double>(press.count());
      const metrics::DegradationStats& d = s->degradation();
      deg.lease_denials += d.lease_denials;
      deg.buffer_shrinks += d.buffer_shrinks;
      deg.borrows += d.borrows;
      deg.spills += d.spills;
      deg.fallback_ranks += d.fallback_ranks;
      deg.plan_remerges += d.plan_remerges;
      if (c.driver != DriverKind::kMccio) continue;
      util::RunningStats per_node;
      for (const auto& [node, bytes] : s->per_node_buffer_bytes()) {
        per_node.add(static_cast<double>(bytes));
      }
      cv_sum += per_node.cv();
      groups += s->num_groups();
      aggs += s->num_aggregators();
      mccio_colls += 1.0;
    }
  }
  m.set("io.sim_write_s", sim_w, "sim_s");
  m.set("io.sim_read_s", sim_r, "sim_s");
  m.set("io.msgs_inter_node", msgs_inter, "count");
  m.set("io.msgs_intra_node", msgs_intra, "count");
  m.set("io.bytes_inter_node", bytes_inter, "B");
  m.set("io.rmw_frac", io_bytes > 0.0 ? rmw / io_bytes : 0.0, "frac");
  m.set("pfs.writes", static_cast<double>(n.pfs_writes), "count");
  m.set("pfs.reads", static_cast<double>(n.pfs_reads), "count");
  m.set("pfs.rpcs", rpcs, "count");
  m.set("pfs.seeks", seeks, "count");
  m.set("pfs.ost_busy_max_frac", busy, "frac");
  m.set("core.groups", groups / mccio_colls, "count");
  m.set("core.aggregators", aggs / mccio_colls, "count");
  m.set("core.plan_remerges", static_cast<double>(deg.plan_remerges),
        "count");
  m.set("node.buffer_mib_mean", buf_n > 0.0 ? buf_sum / buf_n / kMiB : 0.0,
        "MiB");
  m.set("node.buffer_cv", cv_sum / mccio_colls, "ratio");
  m.set("node.pressure_mean", press_n > 0.0 ? press_sum / press_n : 0.0,
        "frac");
  m.set("node.lease_grants", static_cast<double>(n.lease_grants), "count");
  m.set("node.lease_denials", static_cast<double>(deg.lease_denials),
        "count");
  m.set("node.shrinks", static_cast<double>(deg.buffer_shrinks), "count");
  m.set("node.borrows", static_cast<double>(deg.borrows), "count");
  m.set("node.spills", static_cast<double>(deg.spills), "count");
  m.set("node.fallback_ranks", static_cast<double>(deg.fallback_ranks),
        "count");
  m.set("workloads.plan_host_s", traced.sum(&Cell::plan_gen_s), "s");
  m.set("verify.audit_host_s", plain.wall_s - unaudited.wall_s, "s");
  m.set("trace.overhead_s", traced.wall_s - plain.wall_s, "s");
}

}  // namespace
}  // namespace mcio::perfbench

#if defined(__clang__)
constexpr const char* kCompiler = "clang";
#else
constexpr const char* kCompiler = "gcc";
#endif

int main(int argc, char** argv) {
  using namespace mcio::perfbench;
  try {
    util::Cli cli(argc, argv);
    const std::string name = cli.get_string("workload", "");
    const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));
    const double seconds = cli.get_double("seconds", 10.0);
    const bool traced = cli.get_int("trace", 0) != 0;
    const std::string trace_out = cli.get_string("trace-out", "");
    cli.check_unused();

    const Workload wl = make_workload(name, seed);
    Metrics m;
    int attempted = 0;
    int failed = 0;
    std::uint64_t digest = 0;
    std::string errors;
    SpanTrace trace(traced);
    if (traced) {
      per_layer(wl, m, attempted, failed, digest, errors, trace);
    } else {
      end_to_end(wl, seconds, m, attempted, failed, digest, errors);
    }

    std::ostringstream facts;
    facts << "workload=" << name << " seed=" << seed
          << " trace=" << (traced ? 1 : 0)
          << " host_cpus=" << std::thread::hardware_concurrency()
          << " build=" << PERFBENCH_BUILD_TYPE << " compiler=\"" << kCompiler
          << " " << __VERSION__
          << "\" digest=" << std::hex << std::setw(16) << std::setfill('0')
          << digest << std::dec << std::setfill(' ');
    if (!trace_out.empty()) {
      std::ofstream os(trace_out);
      MCIO_CHECK_MSG(os.good(), "cannot write " << trace_out);
      os << "{\"facts\": \"";
      for (const char ch : facts.str()) os << (ch == '"' ? '\'' : ch);
      os << "\", \"trace\": ";
      trace.write_json(os);
      os << "}\n";
    }
    if (!errors.empty()) std::cerr << "perfbench: FAILED\n" << errors;
    std::cout << "# perfbench " << facts.str() << "\n";
    m.print_table(std::cout);
    std::cout << "{\"correct\": " << (errors.empty() ? "true" : "false")
              << ", \"attempted\": " << attempted << ", \"failed\": " << failed
              << ", \"metrics\": ";
    m.print_json(std::cout);
    std::cout << "}" << std::endl;
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
