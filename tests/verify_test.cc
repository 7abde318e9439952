// Tests for the simulation Auditor (src/verify): seeded invariant
// violations must each produce a structured finding with an actionable
// diagnostic, and fault-free (including fault-injected but correct)
// collectives must stay zero-finding.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/mccio_driver.h"
#include "io/driver.h"
#include "io/mpi_file.h"
#include "testing.h"
#include "util/check.h"
#include "util/extent.h"
#include "util/payload.h"
#include "util/rng.h"
#include "verify/auditor.h"
#include "workloads/ior.h"

namespace mcio {
namespace {

using testing::MiniCluster;

/// Attaches a deferred-mode Auditor to every component of a MiniCluster
/// for one test, restoring the process-wide default observer on exit so
/// the cluster's destructors never touch a dead local auditor.
class ScopedAudit {
 public:
  explicit ScopedAudit(MiniCluster& cluster) : cluster_(&cluster) {
    auditor_.set_deferred(true);
    attach(&auditor_);
  }
  ~ScopedAudit() { attach(verify::global_observer()); }

  verify::Auditor& auditor() { return auditor_; }

  /// Enforcing mode: machine.run throws at on_run_end when findings
  /// accumulated.
  void set_enforcing() { auditor_.set_deferred(false); }

  bool has(const std::string& kind) const {
    return !messages_of(kind).empty();
  }

  std::vector<std::string> messages_of(const std::string& kind) const {
    std::vector<std::string> out;
    for (const verify::Finding& f : auditor_.findings()) {
      if (f.kind == kind) out.push_back(f.message);
    }
    return out;
  }

 private:
  void attach(verify::Observer* obs) {
    cluster_->machine().set_observer(obs);
    cluster_->fs().set_observer(obs);
    cluster_->memory().set_observer(obs);
  }

  MiniCluster* cluster_;
  verify::Auditor auditor_;
};

/// A deliberately buggy collective driver: writes each rank's own plan
/// directly (independent style), with a selectable seeded violation.
class SabotageDriver final : public io::CollectiveDriver {
 public:
  enum class Mode {
    kFaithful,       ///< writes exactly the plan — must stay zero-finding
    kDropLastByte,   ///< rank 0 writes one byte short of its first extent
    kDoubleWrite,    ///< rank 0 writes its first extent twice
    kUnplannedWrite, ///< rank 0 writes bytes nobody planned
    kLeakLease,      ///< rank 0 leaks a memory lease past collective end
  };

  explicit SabotageDriver(Mode mode) : mode_(mode) {}

  void write_all(io::CollContext& ctx, const io::AccessPlan& plan) override {
    const bool sabot = ctx.comm->rank() == 0;
    if (mode_ == Mode::kLeakLease && sabot) {
      leaked_.push_back(ctx.memory->lease(ctx.rank->node(), 4096));
    }
    std::uint64_t buf_off = 0;
    bool first = true;
    for (const util::Extent& e : plan.extents) {
      std::uint64_t len = e.len;
      if (first && sabot && mode_ == Mode::kDropLastByte) len = e.len - 1;
      ctx.fs->write(ctx.rank->actor(), ctx.file, e.offset,
                    util::ConstPayload::real(plan.buffer.data + buf_off,
                                             len));
      if (first && sabot && mode_ == Mode::kDoubleWrite) {
        ctx.fs->write(ctx.rank->actor(), ctx.file, e.offset,
                      util::ConstPayload::real(plan.buffer.data + buf_off,
                                               e.len));
      }
      buf_off += e.len;
      first = false;
    }
    if (sabot && mode_ == Mode::kUnplannedWrite) {
      const std::byte junk[16] = {};
      ctx.fs->write(ctx.rank->actor(), ctx.file, 1u << 20,
                    util::ConstPayload::real(junk, sizeof junk));
    }
    ctx.comm->barrier();
  }

  void read_all(io::CollContext& ctx, const io::AccessPlan& plan) override {
    std::uint64_t buf_off = 0;
    for (const util::Extent& e : plan.extents) {
      ctx.fs->read(ctx.rank->actor(), ctx.file, e.offset,
                   util::Payload::real(plan.buffer.data + buf_off, e.len));
      buf_off += e.len;
    }
    ctx.comm->barrier();
  }

  const char* name() const override { return "sabotage"; }

  /// Leaked leases survive until the driver dies — after machine.run.
  std::vector<node::Lease> leaked_;

 private:
  Mode mode_;
};

/// Runs one collective write (and optionally a read-back) of 64 B per
/// rank through `driver` on an audited MiniCluster.
void run_collective(MiniCluster& cluster, io::CollectiveDriver& driver,
                    bool also_read = false) {
  cluster.machine().run(
      cluster.total_ranks(), [&](mpi::Rank& rank) {
        std::vector<std::byte> buf(64);
        io::AccessPlan plan;
        plan.extents.push_back(
            util::Extent{static_cast<std::uint64_t>(rank.rank()) * 64, 64});
        plan.buffer = util::Payload::of(buf);
        io::MPIFile file(rank, rank.world(), cluster.services(), "/audit",
                         /*create=*/true, io::Hints{}, &driver);
        file.write_all_plan(plan);
        if (also_read) file.read_all_plan(plan);
      });
}

TEST(Auditor, FaithfulCollectiveIsZeroFinding) {
  MiniCluster cluster;
  ScopedAudit audit(cluster);
  SabotageDriver driver(SabotageDriver::Mode::kFaithful);
  run_collective(cluster, driver, /*also_read=*/true);
  EXPECT_TRUE(audit.auditor().clean()) << audit.auditor().report();
  const verify::AuditCounters& c = audit.auditor().counters();
  EXPECT_EQ(c.runs, 1u);
  EXPECT_EQ(c.collectives, 2u);  // one write epoch + one read epoch
  EXPECT_GT(c.pfs_writes, 0u);
  EXPECT_GT(c.messages, 0u);
  EXPECT_EQ(c.findings, 0u);
}

TEST(Auditor, DroppedByteIsReported) {
  MiniCluster cluster;
  ScopedAudit audit(cluster);
  SabotageDriver driver(SabotageDriver::Mode::kDropLastByte);
  run_collective(cluster, driver);
  const auto msgs = audit.messages_of("byte-loss");
  ASSERT_EQ(msgs.size(), 1u) << audit.auditor().report();
  // The diagnostic names the missing byte: rank 0's extent is [0,64), so
  // byte 63 never lands.
  EXPECT_NE(msgs[0].find("1 B in [63,64)"), std::string::npos) << msgs[0];
  EXPECT_NE(msgs[0].find("collective write"), std::string::npos);
}

TEST(Auditor, DoubleWriteIsReported) {
  MiniCluster cluster;
  ScopedAudit audit(cluster);
  SabotageDriver driver(SabotageDriver::Mode::kDoubleWrite);
  run_collective(cluster, driver);
  const auto msgs = audit.messages_of("byte-duplicate");
  ASSERT_EQ(msgs.size(), 1u) << audit.auditor().report();
  EXPECT_NE(msgs[0].find("[0,64)"), std::string::npos) << msgs[0];
  EXPECT_FALSE(audit.has("byte-loss")) << audit.auditor().report();
}

TEST(Auditor, UnplannedWriteIsReported) {
  MiniCluster cluster;
  ScopedAudit audit(cluster);
  SabotageDriver driver(SabotageDriver::Mode::kUnplannedWrite);
  run_collective(cluster, driver);
  const auto msgs = audit.messages_of("unplanned-write");
  ASSERT_EQ(msgs.size(), 1u) << audit.auditor().report();
  EXPECT_NE(msgs[0].find("[1048576,1048592)"), std::string::npos) << msgs[0];
}

TEST(Auditor, LeakedLeaseIsReported) {
  MiniCluster cluster;
  ScopedAudit audit(cluster);
  SabotageDriver driver(SabotageDriver::Mode::kLeakLease);
  run_collective(cluster, driver);
  const auto msgs = audit.messages_of("lease-leak");
  ASSERT_EQ(msgs.size(), 1u) << audit.auditor().report();
  EXPECT_NE(msgs[0].find("4096 B"), std::string::npos) << msgs[0];
  EXPECT_NE(msgs[0].find("node 0"), std::string::npos) << msgs[0];
  driver.leaked_.clear();  // release outside the epoch: legal
}

TEST(Auditor, EnforcingModeFailsTheRun) {
  MiniCluster cluster;
  ScopedAudit audit(cluster);
  audit.set_enforcing();
  SabotageDriver driver(SabotageDriver::Mode::kDropLastByte);
  try {
    run_collective(cluster, driver);
    FAIL() << "expected the audit to fail the run";
  } catch (const util::Error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("simulation audit failed"), std::string::npos) << msg;
    EXPECT_NE(msg.find("byte-loss"), std::string::npos) << msg;
  }
  // Findings are consumed by the throw: the next run starts clean.
  EXPECT_TRUE(audit.auditor().clean());
}

TEST(Auditor, SeededDeadlockNamesFibersTagsAndCycle) {
  MiniCluster cluster;
  ScopedAudit audit(cluster);
  try {
    cluster.machine().run(3, [](mpi::Rank& rank) {
      // Cyclic receive: every rank waits on its successor, nobody sends.
      std::byte buf[8];
      rank.world().recv((rank.rank() + 1) % 3, /*tag=*/7,
                        util::Payload::real(buf, sizeof buf), nullptr);
    });
    FAIL() << "expected a deadlock";
  } catch (const util::Error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("deadlock"), std::string::npos) << msg;
    EXPECT_NE(msg.find("blocked in recv(src=1, tag=7"), std::string::npos)
        << msg;
    EXPECT_NE(msg.find("wait-for cycle"), std::string::npos) << msg;
    EXPECT_NE(msg.find("rank 0 -> rank 1 -> rank 2 -> rank 0"),
              std::string::npos)
        << msg;
  }
  EXPECT_TRUE(audit.has("deadlock")) << audit.auditor().report();
}

TEST(Auditor, OrphanMessageIsReported) {
  MiniCluster cluster;
  ScopedAudit audit(cluster);
  cluster.machine().run(2, [](mpi::Rank& rank) {
    if (rank.rank() == 0) {
      const std::byte b[4] = {};
      rank.world().send(1, /*tag=*/99,
                        util::ConstPayload::real(b, sizeof b));
    }
  });
  const auto msgs = audit.messages_of("orphan-message");
  ASSERT_EQ(msgs.size(), 1u) << audit.auditor().report();
  EXPECT_NE(msgs[0].find("tag 99"), std::string::npos) << msgs[0];
  EXPECT_NE(msgs[0].find("never received"), std::string::npos) << msgs[0];
  EXPECT_EQ(audit.auditor().counters().unexpected, 1u);
}

TEST(Auditor, OrphanRecvIsReported) {
  MiniCluster cluster;
  ScopedAudit audit(cluster);
  cluster.machine().run(2, [](mpi::Rank& rank) {
    if (rank.rank() == 0) {
      std::byte buf[4];
      mpi::Request req =
          rank.world().irecv(1, /*tag=*/5,
                             util::Payload::real(buf, sizeof buf));
      (void)req;  // never waited on, never matched
    }
  });
  const auto msgs = audit.messages_of("orphan-recv");
  ASSERT_EQ(msgs.size(), 1u) << audit.auditor().report();
  EXPECT_NE(msgs[0].find("tag=5"), std::string::npos) << msgs[0];
}

TEST(Auditor, TimeRegressionIsReported) {
  // The public Actor API cannot move a clock backwards, so feed the
  // monitor the event stream a broken scheduler would produce.
  verify::Auditor aud;
  aud.set_deferred(true);
  aud.on_engine_start(2);
  aud.on_actor_resumed(0, 1.0);
  aud.on_actor_yielded(0, 1.5);
  aud.on_actor_resumed(0, 0.25);  // regression
  ASSERT_EQ(aud.findings().size(), 1u);
  EXPECT_EQ(aud.findings()[0].kind, "time-regression");
  EXPECT_NE(aud.findings()[0].message.find("rank 0"), std::string::npos);
  // A fresh engine start resets the per-fiber watermarks.
  aud.clear_findings();
  aud.on_engine_start(2);
  aud.on_actor_resumed(0, 0.0);
  EXPECT_TRUE(aud.clean());
}

/// Epoch close over many interleaved per-rank plans and out-of-order PFS
/// logs, fed straight through the observer hooks. 8 ranks each plan every
/// 8th 16 B block of [0, 8192), and four aggregators own 2 KiB domains.
/// The write log holds each domain as one ascending burst, last domain
/// first (a few long sorted runs: the merge path); the read log holds the
/// domains newest block first, interleaved round by round (runs of one to
/// four: the sort path). The pinned findings — including the overlap
/// report, capped at its first 4 ranges in offset order — are exactly
/// those of a full sort of each log.
TEST(Auditor, InterleavedEpochPinsFindings) {
  constexpr int kRanks = 8;
  constexpr int kAggs = 4;
  constexpr std::uint64_t kBlock = 16;
  constexpr std::uint64_t kBlocksPerAgg = 128;
  const int fs_tag = 0;
  const void* fs = &fs_tag;
  const int file = 3;
  verify::Auditor aud;
  aud.set_deferred(true);
  aud.on_engine_start(kRanks);
  auto begin = [&](bool is_write) {
    for (int r = 0; r < kRanks; ++r) {
      std::vector<util::Extent> plan;
      for (std::uint64_t i = 0; i < 64; ++i) {
        plan.push_back({(i * kRanks + static_cast<std::uint64_t>(r)) * kBlock,
                        kBlock});
      }
      aud.on_collective_begin(fs, file, is_write, kRanks, r, plan);
    }
  };
  auto end = [&](bool is_write) {
    for (int r = 0; r < kRanks; ++r) {
      aud.on_collective_end(fs, file, is_write, r);
    }
  };
  // Aggregator `a` logs block `j` of its domain: every block but 200,
  // and only the first half of 201.
  auto log_block = [&](bool is_write, int a, std::uint64_t j) {
    aud.on_actor_resumed(a, 0.0);
    const std::uint64_t block =
        static_cast<std::uint64_t>(a) * kBlocksPerAgg + j;
    if (block == 200) return;
    const std::uint64_t len = block == 201 ? kBlock / 2 : kBlock;
    if (is_write) {
      aud.on_pfs_write(fs, file, block * kBlock, len);
    } else {
      aud.on_pfs_read(fs, file, block * kBlock, len);
    }
  };

  begin(/*is_write=*/true);
  for (int a = kAggs; a-- > 0;) {
    for (std::uint64_t j = 0; j < kBlocksPerAgg; ++j) log_block(true, a, j);
  }
  aud.on_actor_resumed(2, 0.0);
  aud.on_pfs_write(fs, file, 300 * kBlock, kBlock);      // 5th overlap
  aud.on_pfs_write(fs, file, 8192, 8);                   // past the plan
  aud.on_pfs_write(fs, file, 100 * kBlock, kBlock);      // double write
  aud.on_pfs_write(fs, file, 40 * kBlock, 2 * kBlock);   // spans 40, 41
  aud.on_pfs_write(fs, file, 5 * kBlock + 4, 8);         // partial
  aud.on_pfs_write(fs, file, 1u << 20, kBlock);          // unplanned
  end(/*is_write=*/true);

  begin(/*is_write=*/false);
  for (std::uint64_t j = kBlocksPerAgg; j-- > 0;) {
    for (int a = 0; a < kAggs; ++a) log_block(false, a, j);
  }
  end(/*is_write=*/false);

  std::vector<std::pair<std::string, std::string>> got;
  for (const verify::Finding& f : aud.findings()) {
    got.emplace_back(f.kind, f.message);
  }
  const std::vector<std::pair<std::string, std::string>> want = {
      {"byte-duplicate", "collective write #0 on file 3: bytes written "
                         "more than once: 56 B in [84,92) [640,672) "
                         "[1600,1616)"},
      {"byte-loss", "collective write #0 on file 3: planned bytes never "
                    "reached the PFS: 24 B in [3200,3216) [3224,3232)"},
      {"unplanned-write",
       "collective write #0 on file 3: bytes written that no rank planned "
       "and no read-modify-write pre-read: 24 B in [8192,8200) "
       "[1048576,1048592)"},
      {"read-loss", "collective read #0 on file 3: planned bytes never "
                    "read from the PFS: 24 B in [3200,3216) [3224,3232)"},
  };
  EXPECT_EQ(got, want) << aud.report();
  EXPECT_EQ(aud.counters().collectives, 2u);
}

// --- Reference epoch close: every plan concatenated, normalized once ---

/// a − b over normalized lists, carving each run of `a` by every run of
/// `b` — quadratic, and independent of the auditor's sweep.
util::ExtentList ref_subtract(const util::ExtentList& a,
                              const util::ExtentList& b) {
  std::vector<util::Extent> out;
  for (const util::Extent& run : a.runs()) {
    std::uint64_t pos = run.offset;
    for (const util::Extent& cut : b.runs()) {
      if (cut.end() <= pos || cut.offset >= run.end()) continue;
      if (cut.offset > pos) out.push_back({pos, cut.offset - pos});
      pos = std::max(pos, cut.end());
    }
    if (pos < run.end()) out.push_back({pos, run.end() - pos});
  }
  return util::ExtentList::normalize(std::move(out));
}

std::string ref_describe(const util::ExtentList& list) {
  std::ostringstream os;
  os << list.total_bytes() << " B in";
  const auto& runs = list.runs();
  for (std::size_t i = 0; i < runs.size() && i < 4; ++i) {
    os << " [" << runs[i].offset << "," << runs[i].end() << ")";
  }
  if (runs.size() > 4) os << " ... (" << runs.size() << " runs total)";
  return os.str();
}

using Logged = std::pair<int, util::Extent>;  ///< (reporting rank, extent)
using Findings = std::vector<std::pair<std::string, std::string>>;

/// One epoch's logs, as the observer hooks deliver them.
struct EpochLog {
  std::vector<std::vector<util::Extent>> plans;  ///< per rank, as given
  std::vector<Logged> writes;
  std::vector<Logged> reads;
};

std::vector<util::Extent> extents_of(const std::vector<Logged>& log) {
  std::vector<util::Extent> out;
  for (const auto& [r, e] : log) out.push_back(e);
  return out;
}

/// The findings the concatenate-then-normalize close reports for `log`.
Findings reference_close(const EpochLog& log, bool is_write,
                         const std::string& where) {
  Findings out;
  auto report = [&](const char* kind, const char* what,
                    const util::ExtentList& list) {
    if (list.empty()) return;
    out.emplace_back(kind, where + ": " + what + ": " + ref_describe(list));
  };
  std::vector<util::Extent> all;
  for (const auto& p : log.plans) all.insert(all.end(), p.begin(), p.end());
  const util::ExtentList planned = util::ExtentList::normalize(all);
  const util::ExtentList read =
      util::ExtentList::normalize(extents_of(log.reads));
  if (!is_write) {
    report("read-loss", "planned bytes never read from the PFS",
           ref_subtract(planned, read));
    return out;
  }
  // The first four doubly covered ranges of the fully sorted write log.
  std::vector<util::Extent> sorted = extents_of(log.writes);
  std::sort(sorted.begin(), sorted.end(), util::extent_less);
  std::vector<util::Extent> dup;
  std::uint64_t cover_end = 0;
  bool any = false;
  for (const util::Extent& e : sorted) {
    if (e.empty()) continue;
    if (any && e.offset < cover_end && dup.size() < 4) {
      dup.push_back({e.offset, std::min(cover_end, e.end()) - e.offset});
    }
    cover_end = any ? std::max(cover_end, e.end()) : e.end();
    any = true;
  }
  const util::ExtentList written = util::ExtentList::normalize(sorted);
  report("byte-duplicate", "bytes written more than once",
         util::ExtentList::normalize(dup));
  report("byte-loss", "planned bytes never reached the PFS",
         ref_subtract(planned, written));
  const char* unplanned =
      "bytes written that no rank planned and no read-modify-write pre-read";
  report("unplanned-write", unplanned,
         ref_subtract(ref_subtract(written, planned), read));
  return out;
}

/// A random rank plan: empty, validated-style (sorted, touching runs), or
/// raw (unsorted, overlapping, with empty extents).
std::vector<util::Extent> random_plan(util::Rng& rng) {
  std::vector<util::Extent> plan;
  const auto n = rng.uniform_u64(10);
  const auto shape = rng.uniform_u64(3);
  if (shape == 1) {
    std::uint64_t pos = rng.uniform_u64(512);
    for (std::uint64_t i = 0; i < n; ++i) {
      const std::uint64_t len = 1 + rng.uniform_u64(32);
      plan.push_back({pos, len});
      pos += len + (rng.uniform_u64(2) == 0 ? 0 : rng.uniform_u64(48));
    }
  } else if (shape == 2) {
    for (std::uint64_t i = 0; i < n; ++i) {
      plan.push_back({rng.uniform_u64(1024), rng.uniform_u64(40)});
    }
  }
  return plan;
}

/// A PFS log derived from the plans: each planned extent kept or split
/// and, when `faulty`, also trimmed, dropped or doubled, plus some bytes
/// nobody planned; logged by random ranks in random order.
std::vector<Logged> random_log(
    util::Rng& rng, const std::vector<std::vector<util::Extent>>& plans,
    bool faulty) {
  std::vector<util::Extent> out;
  for (const auto& plan : plans) {
    for (const util::Extent& e : plan) {
      if (e.empty()) continue;
      const std::uint64_t half = e.len / 2;
      const util::Extent front{e.offset, half};
      const util::Extent back{e.offset + half, e.len - half};
      switch (faulty ? rng.uniform_u64(8) : 3 + rng.uniform_u64(5)) {
        case 0:  // dropped
          break;
        case 1:  // trimmed
          out.push_back(front);
          break;
        case 2:  // doubled
          out.push_back(e);
          out.push_back(e);
          break;
        case 3:  // split, back half first
          out.push_back(back);
          out.push_back(front);
          break;
        default:
          out.push_back(e);
      }
    }
  }
  for (std::uint64_t i = faulty ? rng.uniform_u64(3) : 0; i > 0; --i) {
    const std::uint64_t offset = rng.uniform_u64(1200);
    out.push_back({offset, 1 + rng.uniform_u64(24)});
  }
  const auto ranks = static_cast<std::uint64_t>(plans.size());
  std::vector<Logged> log;
  for (const util::Extent& e : out) {
    log.emplace_back(static_cast<int>(rng.uniform_u64(ranks)), e);
  }
  for (std::size_t i = log.size(); i > 1; --i) {
    std::swap(log[i - 1], log[rng.uniform_u64(i)]);
  }
  return log;
}

/// The epoch close must report exactly what the close it replaced
/// reported — concatenate every plan, normalize once, subtract — for
/// plans that are unsorted, overlapping, touching or empty, ranks that
/// overlap each other, and missing, doubled, unplanned and pre-read bytes.
TEST(Auditor, PerRankCloseMatchesConcatenatedReference) {
  const int fs_tag = 0;
  const void* fs = &fs_tag;
  const int file = 5;
  util::Rng rng(20261020);
  int with_findings = 0;
  for (int trial = 0; trial < 400; ++trial) {
    const int ranks = 1 + static_cast<int>(rng.uniform_u64(6));
    const bool faulty = rng.uniform_u64(2) == 0;
    verify::Auditor aud;
    aud.set_deferred(true);
    aud.on_engine_start(ranks);
    Findings want;
    for (const bool is_write : {true, false}) {
      EpochLog log;
      for (int r = 0; r < ranks; ++r) log.plans.push_back(random_plan(rng));
      if (is_write) {
        log.writes = random_log(rng, log.plans, faulty);
        if (rng.uniform_u64(2) == 0) {
          // Read-modify-write pre-reads, covering some unplanned bytes.
          for (const auto& [r, e] : random_log(rng, log.plans, faulty)) {
            log.reads.emplace_back(r, util::Extent{e.offset, e.len + 8});
          }
        }
      } else {
        log.reads = random_log(rng, log.plans, faulty);
      }
      for (int r = 0; r < ranks; ++r) {
        aud.on_collective_begin(fs, file, is_write, ranks, r,
                                log.plans[static_cast<std::size_t>(r)]);
      }
      for (const auto& [r, e] : log.writes) {
        aud.on_actor_resumed(r, 0.0);
        aud.on_pfs_write(fs, file, e.offset, e.len);
      }
      for (const auto& [r, e] : log.reads) {
        aud.on_actor_resumed(r, 0.0);
        aud.on_pfs_read(fs, file, e.offset, e.len);
      }
      for (int r = 0; r < ranks; ++r) {
        aud.on_collective_end(fs, file, is_write, r);
      }
      const std::string where = is_write ? "collective write #0 on file 5"
                                         : "collective read #0 on file 5";
      for (auto& f : reference_close(log, is_write, where)) {
        want.push_back(std::move(f));
      }
    }
    Findings got;
    for (const verify::Finding& f : aud.findings()) {
      got.emplace_back(f.kind, f.message);
    }
    ASSERT_EQ(got, want) << "trial " << trial << "\n" << aud.report();
    if (!want.empty()) ++with_findings;
  }
  // The generator must exercise both clean and violating closes.
  EXPECT_GT(with_findings, 50);
  EXPECT_GT(400 - with_findings, 50);
}

io::AccessPlan ior_factory(int rank, int nprocs,
                           std::vector<std::byte>& storage) {
  workloads::IorConfig cfg;
  cfg.block_size = 64 << 10;
  cfg.transfer_size = 8 << 10;
  cfg.segments = 2;
  cfg.interleaved = true;
  storage.resize(workloads::ior_bytes_per_rank(cfg));
  return workloads::ior_plan(rank, nprocs, cfg, util::Payload::of(storage));
}

/// The degradation ladder under memory faults must stay invariant-clean:
/// denials, delays, revocations and spills are legal behaviours, not
/// conservation violations.
TEST(Auditor, FaultMatrixStaysZeroFinding) {
  const double denial_rates[] = {0.3, 1.0};
  for (const double denial : denial_rates) {
    MiniCluster cluster;
    ScopedAudit audit(cluster);
    node::FaultConfig cfg;
    cfg.denial_rate = denial;
    cfg.revoke_rate = 0.3;
    cfg.delay_rate = 0.3;
    node::FaultPlan plan(3, cfg);
    cluster.memory().set_fault_plan(&plan);
    core::MccioDriver driver;
    mcio::testing::round_trip(cluster, driver, cluster.total_ranks(),
                              ior_factory);
    cluster.memory().set_fault_plan(nullptr);
    EXPECT_TRUE(audit.auditor().clean())
        << "denial=" << denial << "\n"
        << audit.auditor().report();
  }
}

TEST(CheckMacros, OperandsEvaluateExactlyOnce) {
  int calls = 0;
  auto next = [&calls] { return ++calls; };
  MCIO_CHECK_EQ(next(), 1);
  EXPECT_EQ(calls, 1);  // evaluated once on the passing path

  calls = 0;
  try {
    MCIO_CHECK_EQ(next(), 999);
    FAIL() << "check should have thrown";
  } catch (const util::Error& e) {
    // The message reports the value from the single evaluation.
    EXPECT_NE(std::string(e.what()).find("lhs=1"), std::string::npos)
        << e.what();
  }
  EXPECT_EQ(calls, 1);  // not re-evaluated for the failure message
}

}  // namespace
}  // namespace mcio
