// Shared bench harness: the simulated testbed (paper §4: 640-node Linux
// cluster, 2×6-core Xeons, 24 GB/node, DDR InfiniBand, DDN-backed Lustre
// with 1 MB stripes) and the write/read measurement loop used by every
// figure reproduction.
#pragma once

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <exception>
#include <fstream>
#include <functional>
#include <iostream>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/mccio_driver.h"
#include "core/tuner.h"
#include "io/independent.h"
#include "io/mpi_file.h"
#include "io/two_phase_driver.h"
#include "metrics/collective_stats.h"
#include "mpi/machine.h"
#include "node/memory.h"
#include "pfs/pfs.h"
#include "util/bytes.h"
#include "util/check.h"
#include "util/cli.h"
#include "util/memtrack.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"
#include "verify/auditor.h"
#include "util/json.h"
#include "util/table.h"
#include "workloads/collperf.h"
#include "workloads/ior.h"

namespace mcio::bench {

/// Consumes `--no-audit`: benches run under the global simulation Auditor
/// by default (observers are passive, so figures are byte-identical
/// either way); the flag detaches it for hot-loop profiling.
inline void configure_audit(const util::Cli& cli) {
  if (cli.get_bool("no-audit", false)) {
    verify::set_global_observer(nullptr);
  }
}

/// Host wall clock in seconds (monotonic; only differences are meaningful).
inline double wall_now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Peak resident set size of this *process* in bytes — a lifetime
/// high-water mark that only ever grows. Useful as a whole-run figure;
/// never attribute it to an individual sweep point (ISSUE 8: every later
/// point would inherit the max of the earlier ones). Per-point peaks come
/// from util::memtrack instead.
inline std::uint64_t run_peak_rss_bytes() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  // ru_maxrss is KiB on Linux.
  return static_cast<std::uint64_t>(ru.ru_maxrss) * 1024;
}

/// First-exception slot shared by a worker pool: workers capture under
/// the capability, the pool owner takes after the join. Guarded so the
/// clang thread-safety analysis (DESIGN.md §13) checks the discipline.
struct FirstError {
  util::Mutex mu;
  std::exception_ptr error MCIO_GUARDED_BY(mu);

  /// Records the current exception if it is the first one.
  void capture() MCIO_EXCLUDES(mu) {
    const util::MutexLock lock(mu);
    if (!error) error = std::current_exception();
  }

  /// Returns the first captured exception (call after joining workers).
  std::exception_ptr take() MCIO_EXCLUDES(mu) {
    const util::MutexLock lock(mu);
    return error;
  }
};

/// Runs tasks 0..n-1 on up to `threads` host threads. threads <= 1 is a
/// plain sequential loop (the exact classic code path). Tasks must be
/// independent: each bench point builds its own simulation stack, so
/// running them concurrently cannot change any simulated number — the
/// only shared mutable state, the global audit counters, merges through
/// Auditor::absorb_counters. The first task exception is rethrown after
/// all workers drain.
inline void parallel_for(int threads, int n,
                         const std::function<void(int)>& fn) {
  if (threads <= 1 || n <= 1) {
    for (int i = 0; i < n; ++i) fn(i);
    return;
  }
  std::atomic<int> next{0};
  FirstError first_error;
  auto worker = [&] {
    for (;;) {
      const int i = next.fetch_add(1);
      if (i >= n) return;
      try {
        fn(i);
      } catch (...) {
        first_error.capture();
      }
    }
  };
  std::vector<std::thread> pool;
  const int width = std::min(threads, n);
  pool.reserve(static_cast<std::size_t>(width));
  for (int t = 0; t < width; ++t) pool.emplace_back(worker);
  for (std::thread& t : pool) t.join();
  if (std::exception_ptr e = first_error.take()) std::rethrow_exception(e);
}

/// Host-side meters of one bench task: wall clock and the peak of
/// tracked heap allocations while it ran (memtrack is thread-local, so a
/// task's meters are valid wherever the pool schedules it).
struct TaskMeter {
  double wall_s = 0.0;
  std::uint64_t tracked_peak_bytes = 0;
};

/// Meters `fn` on the calling thread: resets the thread's allocation
/// tracker, runs it, and reports wall time + allocation high-water.
inline TaskMeter metered(const std::function<void()>& fn) {
  TaskMeter m;
  const double t0 = wall_now();
  util::memtrack::reset();
  fn();
  m.tracked_peak_bytes = util::memtrack::peak_bytes();
  m.wall_s = wall_now() - t0;
  return m;
}

/// Machine-readable results behind `--json[=path]`; the bare flag writes
/// BENCH_<name>.json in the working directory. Each figure point records
/// whatever simulated metrics the caller sets plus the host wall-clock
/// spent producing it and its tracked-allocation peak — the numbers the
/// perf harness tracks across revisions. Per-point `peak_rss_bytes` is
/// the thread-local allocation high-water (reset per point); the
/// process-lifetime getrusage maximum is reported once, per document, as
/// `run_peak_rss_bytes` (it is monotone and must not be attributed to
/// points). The human-readable table output is unchanged either way.
class JsonReporter {
 public:
  JsonReporter(const util::Cli& cli, std::string name)
      : name_(std::move(name)), path_(cli.get_string("json", "")) {
    // Bare `--json` parses as "true"; `--json=` as "". Both mean
    // "the default file".
    if (cli.has("json") && (path_.empty() || path_ == "true")) {
      path_ = "BENCH_" + name_ + ".json";
    }
    mark_ = start_ = wall_now();
    util::memtrack::reset();
  }

  bool enabled() const { return !path_.empty(); }

  /// Records one figure point; chain .set() on the result to attach the
  /// point's parameters and simulated metrics. The wall-clock and the
  /// allocation peak charged to the point cover everything since the
  /// previous add_point() (or construction), so call it right after
  /// computing the point — or use the explicit-meter overload when
  /// points are computed on a pool.
  util::Json& add_point(std::string label) {
    const double now = wall_now();
    util::Json& p =
        add_point(std::move(label),
                  TaskMeter{now - mark_, util::memtrack::peak_bytes()});
    mark_ = now;
    util::memtrack::reset();
    return p;
  }

  /// Records one figure point whose meters were measured by the caller
  /// (bench::metered() inside a parallel_for task).
  util::Json& add_point(std::string label, const TaskMeter& meter) {
    util::Json p = util::Json::object();
    p.set("label", std::move(label));
    p.set("wall_s", meter.wall_s);
    p.set("peak_rss_bytes", meter.tracked_peak_bytes);
    points_.push_back(std::move(p));
    return points_.back();
  }

  /// Writes the document when --json was given; no-op otherwise.
  void write() {
    if (!enabled()) return;
    util::Json doc = util::Json::object();
    doc.set("schema", "mcio-bench-v2");
    doc.set("bench", name_);
    doc.set("wall_s", wall_now() - start_);
    doc.set("run_peak_rss_bytes", run_peak_rss_bytes());
    // Audit counters (README "Audit counters"): present unless the
    // process opted out with --no-audit.
    if (verify::global_audit_active()) {
      const verify::AuditCounters& c = verify::global_auditor().counters();
      util::Json audit = util::Json::object();
      audit.set("runs", c.runs)
          .set("slices", c.slices)
          .set("messages", c.messages)
          .set("unexpected", c.unexpected)
          .set("waits", c.waits)
          .set("lease_grants", c.lease_grants)
          .set("lease_releases", c.lease_releases)
          .set("pfs_writes", c.pfs_writes)
          .set("pfs_reads", c.pfs_reads)
          .set("pfs_bytes_written", c.pfs_bytes_written)
          .set("pfs_bytes_read", c.pfs_bytes_read)
          .set("collectives", c.collectives)
          .set("findings", c.findings);
      doc.set("audit", std::move(audit));
    }
    util::Json pts = util::Json::array();
    for (util::Json& p : points_) pts.push(std::move(p));
    doc.set("points", std::move(pts));
    std::ofstream os(path_);
    MCIO_CHECK_MSG(os.good(), "cannot write " << path_);
    doc.dump(os);
    std::cerr << "wrote " << path_ << "\n";
  }

 private:
  std::string name_;
  std::string path_;
  double start_ = 0.0;
  double mark_ = 0.0;
  std::vector<util::Json> points_;
};

/// The simulated testbed, calibrated so the baseline two-phase anchors of
/// Figure 8 land in the right ballpark (see EXPERIMENTS.md).
struct Testbed {
  int nodes = 10;
  int ranks_per_node = 12;

  sim::ClusterConfig cluster() const {
    sim::ClusterConfig c;
    c.num_nodes = nodes;
    c.ranks_per_node = ranks_per_node;
    c.nic_bandwidth = 1.5e9;       // DDR InfiniBand, ~1.5 GB/s per port
    c.nic_latency = 2.0e-6;
    c.membus_bandwidth = 25.0e9;   // per-node off-chip bandwidth
    c.node_memory = 24ull << 30;   // 24 GB per node
    c.swap_bandwidth = 40.0e6;     // paging device
    return c;
  }

  pfs::PfsConfig pfs() const {
    pfs::PfsConfig p;
    p.num_osts = 32;
    p.stripe_unit = 1ull << 20;    // 1 MB round-robin stripes (paper)
    p.default_stripe_count = -1;   // striped over all servers (paper)
    // Each "OST" models a DDN RAID LUN: streaming transfers are fast
    // (controller write-back caching), discontiguous access pays heavy
    // head movement + RAID read-modify-write, and reads seek less but
    // stream slower than cached writes.
    p.ost_write_bandwidth = 1.0e9;
    p.ost_read_bandwidth = 117.0e6;
    p.rpc_latency = 0.4e-3;
    p.seek_latency = 79.0e-3;       // write seek: RAID RMW dominated
    p.read_seek_latency = 28.5e-3;  // read seek: head movement only
    p.max_rpc_bytes = 16ull << 20;
    p.store_data = false;          // virtual payloads at paper scale
    return p;
  }
};

enum class DriverKind { kTwoPhase, kMccio, kIndependent };

inline const char* driver_name(DriverKind k) {
  switch (k) {
    case DriverKind::kTwoPhase:
      return "two-phase";
    case DriverKind::kMccio:
      return "mccio";
    case DriverKind::kIndependent:
      return "independent";
  }
  return "?";
}

/// Builds each rank's (virtual-payload) plan.
using BenchPlanFactory = std::function<io::AccessPlan(int rank, int nranks)>;

struct RunResult {
  double write_bw = 0.0;  ///< bytes/s
  double read_bw = 0.0;
  metrics::CollectiveStats write_stats;
  metrics::CollectiveStats read_stats;
};

struct RunOptions {
  DriverKind driver = DriverKind::kTwoPhase;
  int nranks = 0;
  Testbed testbed;
  /// Per-aggregator memory knob M of the paper's sweeps: the baseline's
  /// fixed cb_buffer_size and the mean of each node's available
  /// aggregation memory.
  std::uint64_t mem_mean = 16ull << 20;
  /// Availability stdev as a fraction of the mean (paper §4 ¶4).
  double mem_stdev = 0.5;
  std::uint64_t mem_seed = 20120512;  ///< fixed: same draws for all drivers
  core::MccioConfig mccio;
  io::Hints hints;
  /// Memory-pressure fault injection; a FaultPlan is attached to the
  /// MemoryManager only when any rate is nonzero, so the default keeps
  /// every run on the exact fault-free code path (golden-compatible).
  node::FaultConfig faults;
  /// Attach the FaultPlan even when every rate is zero. Fault sweeps set
  /// this so their zero-rate point runs the same degraded protocol
  /// (buffer negotiation before data movement) as every other point —
  /// otherwise the first step of the sweep compares two protocols.
  bool attach_fault_plan = false;
  /// Audit this run through a private deferred Auditor instead of the
  /// global one, folding its counters into the global totals afterwards.
  /// Required when run_experiment calls execute concurrently (the global
  /// Auditor is single-simulation state); findings become a thrown
  /// util::Error either way.
  bool private_audit = false;
};

/// Attaches the degradation-ladder counters of one collective phase to a
/// JSON point, prefixed "write_"/"read_" (the --json fault schema).
inline void set_fault_counters(util::Json& point, const std::string& prefix,
                               const metrics::CollectiveStats& stats) {
  const metrics::DegradationStats& d = stats.degradation();
  point.set(prefix + "lease_denials", d.lease_denials)
      .set(prefix + "lease_retries", d.lease_retries)
      .set(prefix + "backoff_s", d.backoff_s)
      .set(prefix + "grant_delays", d.grant_delays)
      .set(prefix + "grant_delay_s", d.grant_delay_s)
      .set(prefix + "revocations", d.revocations)
      .set(prefix + "buffer_shrinks", d.buffer_shrinks)
      .set(prefix + "spills", d.spills)
      .set(prefix + "spilled_bytes", d.spilled_bytes)
      .set(prefix + "plan_remerges", d.plan_remerges)
      .set(prefix + "exhausted_nodes", d.exhausted_nodes)
      .set(prefix + "fallback_ranks", d.fallback_ranks)
      .set(prefix + "fallback_bytes", d.fallback_bytes)
      .set(prefix + "lease_retry_giveups", d.lease_retry_giveups)
      .set(prefix + "borrows", d.borrows)
      .set(prefix + "borrowed_bytes", d.borrowed_bytes)
      .set(prefix + "borrow_denials", d.borrow_denials)
      .set(prefix + "donor_revocations", d.donor_revocations);
}

/// Attaches the exchange-engine message counters of one collective phase
/// to a JSON point, prefixed e.g. "normal_write_"/"mccio_read_" (the
/// --json hierarchy schema): how many logical messages stayed on the node
/// vs crossed the interconnect, and the bytes that crossed.
inline void set_message_counters(util::Json& point,
                                 const std::string& prefix,
                                 const metrics::CollectiveStats& stats) {
  point.set(prefix + "msgs_intra_node", stats.msgs_intra_node())
      .set(prefix + "msgs_inter_node", stats.msgs_inter_node())
      .set(prefix + "bytes_inter_node", stats.bytes_inter_node());
}

/// One experiment: collective write of the whole workload, cache flush,
/// collective read; returns the paper-style aggregate bandwidths.
inline RunResult run_experiment(const RunOptions& opt,
                                const BenchPlanFactory& make_plan) {
  // Concurrent experiments cannot share the global Auditor (it holds
  // single-simulation state); give each its own and fold the monotone
  // counters back into the global totals on completion. Enforcement is
  // unchanged: a private Auditor throws on findings exactly like the
  // global one. Declared before the simulation stack — Machine, Pfs and
  // MemoryManager all notify their observer from their destructors.
  std::optional<verify::Auditor> private_auditor;
  if (opt.private_audit && verify::global_audit_active()) {
    private_auditor.emplace();
  }
  struct AbsorbOnExit {
    verify::Auditor* aud;
    ~AbsorbOnExit() {
      if (aud != nullptr) {
        verify::global_auditor().absorb_counters(aud->counters());
      }
    }
  } absorb{private_auditor ? &*private_auditor : nullptr};

  mpi::Machine machine(opt.testbed.cluster());
  pfs::Pfs fs(machine.cluster(), opt.testbed.pfs());
  node::MemoryVariance var;
  var.relative_stdev = opt.mem_stdev;
  node::MemoryManager memory(opt.testbed.cluster(), opt.mem_mean, var,
                             opt.mem_seed);
  node::FaultPlan fault_plan(opt.testbed.nodes, opt.faults);
  if (opt.faults.any() || opt.attach_fault_plan) {
    memory.set_fault_plan(&fault_plan);
  }

  if (private_auditor) {
    machine.set_observer(&*private_auditor);
    fs.set_observer(&*private_auditor);
    memory.set_observer(&*private_auditor);
  }

  io::TwoPhaseDriver two_phase;
  core::MccioDriver mccio(opt.mccio);
  io::IndependentDriver independent;
  io::CollectiveDriver* driver = nullptr;
  switch (opt.driver) {
    case DriverKind::kTwoPhase:
      driver = &two_phase;
      break;
    case DriverKind::kMccio:
      driver = &mccio;
      break;
    case DriverKind::kIndependent:
      driver = &independent;
      break;
  }

  io::Hints hints = opt.hints;
  hints.cb_buffer_size = opt.mem_mean;  // the baseline's fixed buffer

  RunResult result;

  machine.run(opt.nranks, [&](mpi::Rank& rank) {
    io::AccessPlan plan = make_plan(rank.rank(), opt.nranks);
    const double my_bytes = static_cast<double>(plan.total_bytes());
    const double all_bytes = rank.world().allreduce_sum(my_bytes);

    io::MPIFile file(rank, rank.world(),
                     io::MPIFile::Services{&fs, &memory}, "/bench",
                     /*create=*/true, hints, driver);
    file.set_stats(&result.write_stats);

    rank.world().barrier();
    const double t0 = rank.world().allreduce_max(rank.actor().now());
    file.write_all_plan(plan);
    rank.world().barrier();
    const double t1 = rank.world().allreduce_max(rank.actor().now());

    // The paper evicts cached data with memory flushing after the write
    // phase; drop server-side locality state the same way.
    if (rank.rank() == 0) fs.flush_locality();
    rank.world().barrier();

    file.set_stats(&result.read_stats);
    const double t2 = rank.world().allreduce_max(rank.actor().now());
    file.read_all_plan(plan);
    rank.world().barrier();
    const double t3 = rank.world().allreduce_max(rank.actor().now());

    if (rank.rank() == 0) {
      result.write_bw = all_bytes / (t1 - t0);
      result.read_bw = all_bytes / (t3 - t2);
      result.write_stats.set_elapsed(t1 - t0);
      result.read_stats.set_elapsed(t3 - t2);
    }
  });
  return result;
}

/// The memory sweep of Figures 6-8, largest first like the paper's plots.
inline std::vector<std::uint64_t> paper_memory_sweep() {
  using util::kMiB;
  return {128 * kMiB, 64 * kMiB, 32 * kMiB, 16 * kMiB,
          8 * kMiB,   4 * kMiB,  2 * kMiB};
}

/// One memory-sweep point of Figures 6-8: the baseline and MCCIO runs at
/// one aggregation-memory setting, plus host meters covering both runs
/// (wall summed, allocation peak maxed — the two runs may execute on
/// different pool threads, so their thread-local peaks are independent).
struct SweepPoint {
  std::uint64_t mem_bytes = 0;
  RunResult normal;
  RunResult mccio;
  TaskMeter meter;
};

/// Computes the (memory × {two-phase, mccio}) grid of a figure on up to
/// `threads` host threads (`--threads`). Every cell builds its own
/// simulation stack, so the grid parallelizes without changing any
/// simulated number; concurrent cells audit through private Auditors
/// (counters fold into the global totals, which stay independent of
/// scheduling). Results come back in sweep order — callers emit their
/// tables and JSON sequentially afterwards, so the figure output is
/// identical for every --threads value; only host wall time varies.
inline std::vector<SweepPoint> run_memory_sweep(
    int threads, const std::vector<std::uint64_t>& mems,
    const RunOptions& base, const BenchPlanFactory& make_plan) {
  std::vector<SweepPoint> points(mems.size());
  for (std::size_t i = 0; i < mems.size(); ++i) {
    points[i].mem_bytes = mems[i];
  }
  const int n = static_cast<int>(mems.size()) * 2;
  std::vector<TaskMeter> meters(static_cast<std::size_t>(n));
  parallel_for(threads, n, [&](int task) {
    SweepPoint& pt = points[static_cast<std::size_t>(task / 2)];
    const bool is_mccio = (task % 2) != 0;
    RunOptions opt = base;
    opt.mem_mean = pt.mem_bytes;
    opt.driver = is_mccio ? DriverKind::kMccio : DriverKind::kTwoPhase;
    opt.private_audit = threads > 1;
    RunResult& out = is_mccio ? pt.mccio : pt.normal;
    meters[static_cast<std::size_t>(task)] =
        metered([&] { out = run_experiment(opt, make_plan); });
  });
  for (std::size_t i = 0; i < mems.size(); ++i) {
    const TaskMeter& a = meters[2 * i];
    const TaskMeter& b = meters[2 * i + 1];
    points[i].meter.wall_s = a.wall_s + b.wall_s;
    points[i].meter.tracked_peak_bytes =
        std::max(a.tracked_peak_bytes, b.tracked_peak_bytes);
  }
  return points;
}

/// CHECK-fails unless two sweeps produced identical simulated results:
/// bandwidths bit-exact, aggregation and message counters equal. Host
/// meters are exempt — wall clock legitimately varies. Backs the
/// --threads-sweep determinism assertion (every simulated number must be
/// independent of the host thread count).
inline void check_sweep_equal(const std::vector<SweepPoint>& a,
                              const std::vector<SweepPoint>& b) {
  MCIO_CHECK_EQ(a.size(), b.size());
  const auto check_stats = [](const metrics::CollectiveStats& x,
                              const metrics::CollectiveStats& y) {
    MCIO_CHECK_EQ(x.num_aggregators(), y.num_aggregators());
    MCIO_CHECK_EQ(x.num_groups(), y.num_groups());
    MCIO_CHECK_EQ(x.msgs_intra_node(), y.msgs_intra_node());
    MCIO_CHECK_EQ(x.msgs_inter_node(), y.msgs_inter_node());
    MCIO_CHECK_EQ(x.bytes_inter_node(), y.bytes_inter_node());
    MCIO_CHECK_EQ(x.shuffle_intra_node(), y.shuffle_intra_node());
    MCIO_CHECK_EQ(x.shuffle_inter_node(), y.shuffle_inter_node());
    MCIO_CHECK_EQ(x.rmw_bytes(), y.rmw_bytes());
    MCIO_CHECK_EQ(x.io_bytes(), y.io_bytes());
    // Degradation-ladder trail (nonzero only under fault plans): the
    // ladder's grant/deny/borrow decisions must replay identically too.
    const metrics::DegradationStats& dx = x.degradation();
    const metrics::DegradationStats& dy = y.degradation();
    MCIO_CHECK_EQ(dx.lease_denials, dy.lease_denials);
    MCIO_CHECK_EQ(dx.lease_retries, dy.lease_retries);
    MCIO_CHECK_EQ(dx.backoff_s, dy.backoff_s);
    MCIO_CHECK_EQ(dx.grant_delays, dy.grant_delays);
    MCIO_CHECK_EQ(dx.grant_delay_s, dy.grant_delay_s);
    MCIO_CHECK_EQ(dx.revocations, dy.revocations);
    MCIO_CHECK_EQ(dx.buffer_shrinks, dy.buffer_shrinks);
    MCIO_CHECK_EQ(dx.spills, dy.spills);
    MCIO_CHECK_EQ(dx.spilled_bytes, dy.spilled_bytes);
    MCIO_CHECK_EQ(dx.plan_remerges, dy.plan_remerges);
    MCIO_CHECK_EQ(dx.exhausted_nodes, dy.exhausted_nodes);
    MCIO_CHECK_EQ(dx.fallback_ranks, dy.fallback_ranks);
    MCIO_CHECK_EQ(dx.fallback_bytes, dy.fallback_bytes);
    MCIO_CHECK_EQ(dx.lease_retry_giveups, dy.lease_retry_giveups);
    MCIO_CHECK_EQ(dx.borrows, dy.borrows);
    MCIO_CHECK_EQ(dx.borrowed_bytes, dy.borrowed_bytes);
    MCIO_CHECK_EQ(dx.borrow_denials, dy.borrow_denials);
    MCIO_CHECK_EQ(dx.donor_revocations, dy.donor_revocations);
  };
  const auto check_run = [&](const RunResult& x, const RunResult& y) {
    MCIO_CHECK_EQ(x.write_bw, y.write_bw);
    MCIO_CHECK_EQ(x.read_bw, y.read_bw);
    check_stats(x.write_stats, y.write_stats);
    check_stats(x.read_stats, y.read_stats);
  };
  for (std::size_t i = 0; i < a.size(); ++i) {
    MCIO_CHECK_EQ(a[i].mem_bytes, b[i].mem_bytes);
    check_run(a[i].normal, b[i].normal);
    check_run(a[i].mccio, b[i].mccio);
  }
}

/// Consumes `--threads`, the figure benches' host parallelism: sweep
/// cells run on this many host threads. It changes no simulated output.
inline int threads_flag(const util::Cli& cli) {
  const int threads = static_cast<int>(cli.get_int("threads", 1));
  MCIO_CHECK_GE(threads, 1);
  return threads;
}

}  // namespace mcio::bench
