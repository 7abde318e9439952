#include "fuzz/oracle.h"

#include <algorithm>
#include <optional>
#include <sstream>
#include <vector>

#include "core/mccio_driver.h"
#include "fuzz/plan_check.h"
#include "io/independent.h"
#include "io/mpi_file.h"
#include "io/two_phase_driver.h"
#include "mpi/machine.h"
#include "node/fault.h"
#include "node/memory.h"
#include "pfs/pfs.h"
#include "util/check.h"
#include "workloads/pattern.h"

namespace mcio::fuzz {

namespace {

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

std::uint64_t fnv1a(std::uint64_t h, const std::byte* data,
                    std::uint64_t len) {
  for (std::uint64_t i = 0; i < len; ++i) {
    h ^= static_cast<std::uint64_t>(data[i]);
    h *= kFnvPrime;
  }
  return h;
}

io::Hints hints_for(const Scenario& s, DriverKind kind) {
  io::Hints h;
  h.cb_buffer_size = s.cb_buffer_size;
  h.cb_nodes = s.cb_nodes;
  h.align_file_domains = s.align_file_domains;
  h.data_sieving_writes = s.data_sieving_writes;
  h.ds_max_gap = s.ds_max_gap;
  // Hierarchy goes on the MCCIO leg only: the flat two-phase run then
  // serves as the byte oracle for the node-leader combine/scatter path.
  h.cb_node_leaders = s.node_leaders && kind == DriverKind::kMccio;
  // The borrow rung arms on both collective legs (it is part of their
  // shared exchange ladder); the independent driver never aggregates, so
  // it stays the un-borrowed byte oracle.
  h.borrow_far_memory = s.borrow && kind != DriverKind::kIndependent;
  return h;
}

core::MccioConfig mccio_config_for(const Scenario& s) {
  core::MccioConfig c;
  c.msg_group = s.msg_group;
  c.msg_ind = s.msg_ind;
  c.n_ah = s.n_ah;
  c.group_division = s.group_division;
  c.remerging = s.remerging;
  c.memory_aware = s.memory_aware;
  return c;
}

node::FaultConfig fault_config_for(const Scenario& s) {
  node::FaultConfig f;
  f.denial_rate = s.fault_denial;
  f.revoke_rate = s.fault_revoke;
  f.delay_rate = s.fault_delay;
  f.exhaust_rate = s.fault_exhaust;
  f.seed = s.fault_seed;
  return f;
}

}  // namespace

const char* driver_kind_name(DriverKind kind) {
  switch (kind) {
    case DriverKind::kMccio:
      return "mccio";
    case DriverKind::kTwoPhase:
      return "two-phase";
    case DriverKind::kIndependent:
      return "independent";
  }
  return "?";
}

RunOutcome run_scenario(const Scenario& scenario, DriverKind kind) {
  scenario.validate();
  RunOutcome out;

  // A private deferred Auditor per run: enforcing mode would make a
  // finding thrown mid-run indistinguishable from a driver crash, and a
  // run-local instance (instead of the global one) makes the oracle
  // reentrant for the case-parallel fuzz loop. Declared before the
  // simulation stack — Machine, Pfs and MemoryManager all notify their
  // observer from their destructors. Monotone counters fold into the
  // global totals on return.
  verify::Auditor audit;
  audit.set_deferred(true);

  // A fresh cluster + PFS + memory stack per run: the three drivers see
  // byte-identical clones of the same simulated world.
  sim::ClusterConfig cluster;
  cluster.num_nodes = scenario.nodes;
  cluster.ranks_per_node = scenario.ranks_per_node;
  mpi::Machine machine(cluster);
  machine.set_observer(&audit);

  pfs::PfsConfig pfs_config;
  pfs_config.num_osts = scenario.num_osts;
  pfs_config.stripe_unit = scenario.stripe_unit;
  pfs_config.max_rpc_bytes = scenario.max_rpc_bytes;
  pfs_config.store_data = true;
  pfs::Pfs fs(machine.cluster(), pfs_config);
  fs.set_observer(&audit);

  node::MemoryVariance variance;
  variance.relative_stdev = scenario.mem_stdev;
  // The default floor (1 MiB) would erase the starved end of the sampled
  // mean range; keep draws meaningful below it.
  variance.floor_bytes =
      std::min<std::uint64_t>(variance.floor_bytes,
                              std::max<std::uint64_t>(scenario.mem_mean / 4,
                                                      64ull << 10));
  node::MemoryManager memory(cluster, scenario.mem_mean, variance,
                             scenario.mem_seed);
  memory.set_observer(&audit);

  std::optional<node::FaultPlan> faults;
  const node::FaultConfig fault_config = fault_config_for(scenario);
  if (fault_config.any()) {
    faults.emplace(cluster.num_nodes, fault_config);
    memory.set_fault_plan(&*faults);
  }

  core::MccioDriver mccio(mccio_config_for(scenario));
  io::TwoPhaseDriver two_phase;
  io::IndependentDriver independent;
  io::CollectiveDriver* driver = nullptr;
  switch (kind) {
    case DriverKind::kMccio:
      driver = &mccio;
      break;
    case DriverKind::kTwoPhase:
      driver = &two_phase;
      break;
    case DriverKind::kIndependent:
      driver = &independent;
      break;
  }

  const io::Hints hints = hints_for(scenario, kind);
  const io::MPIFile::Services services{&fs, &memory};
  const std::string path = "/fuzz";

  std::vector<std::uint64_t> rank_read_hash(
      static_cast<std::size_t>(scenario.nranks), kFnvOffset);
  std::vector<std::string> rank_plan_error(
      static_cast<std::size_t>(scenario.nranks));
  pfs::FileHandle handle = -1;

  try {
    machine.run(scenario.nranks, [&](mpi::Rank& rank) {
      const std::vector<util::Extent> extents =
          scenario.rank_extents(rank.rank());
      std::uint64_t bytes = 0;
      for (const util::Extent& e : extents) bytes += e.len;

      std::vector<std::byte> wstorage(bytes);
      io::AccessPlan wplan =
          io::make_plan(extents, util::Payload::of(wstorage));
      workloads::fill_pattern(wplan, scenario.pattern_seed);

      io::MPIFile file(rank, rank.world(), services, path,
                       /*create=*/true, hints, driver);
      if (rank.rank() == 0) handle = file.handle();
      file.write_all_plan(wplan);
      rank.world().barrier();

      std::vector<std::byte> rstorage(bytes);
      io::AccessPlan rplan =
          io::make_plan(extents, util::Payload::of(rstorage));
      file.read_all_plan(rplan);
      rank.world().barrier();
      rank_read_hash[static_cast<std::size_t>(rank.rank())] =
          fnv1a(kFnvOffset, rstorage.data(), rstorage.size());

      // Cross-check the collective's shared plan against every rank's own
      // recompute, after the data path so its timeline is untouched.
      io::CollContext ctx;
      ctx.rank = &rank;
      ctx.comm = &rank.world();
      ctx.fs = &fs;
      ctx.file = file.handle();
      ctx.memory = &memory;
      ctx.hints = hints;
      rank_plan_error[static_cast<std::size_t>(rank.rank())] =
          check_shared_plan(ctx, wplan, *driver);
    });
    out.completed = true;
  } catch (const std::exception& e) {
    out.error = e.what();
  }

  const bool tolerate_duplicates = scenario.has_cross_rank_overlap();
  for (const verify::Finding& f : audit.findings()) {
    if (tolerate_duplicates && f.kind == "byte-duplicate") {
      ++out.tolerated_duplicates;
      continue;
    }
    out.findings.push_back(f);
  }
  out.counters = audit.counters();
  verify::global_auditor().absorb_counters(audit.counters());

  if (out.completed) {
    MCIO_CHECK_GE(handle, 0);
    out.file_hash = fs.content_hash(handle);
    std::uint64_t rh = kFnvOffset;
    for (const std::uint64_t h : rank_read_hash) {
      for (int b = 0; b < 64; b += 8) {
        rh ^= (h >> b) & 0xff;
        rh *= kFnvPrime;
      }
    }
    out.read_hash = rh;
    for (const std::string& e : rank_plan_error) {
      if (!e.empty()) {
        out.plan_error = e;
        break;
      }
    }

    std::string err;
    out.pattern_ok = workloads::verify_store(
        fs.store(handle), scenario.all_extents(), scenario.pattern_seed,
        &err);
    out.pattern_error = err;
  }
  return out;
}

DiffResult run_differential(const Scenario& scenario) {
  DiffResult result;
  result.scenario = scenario;
  for (const DriverKind kind : {DriverKind::kMccio, DriverKind::kTwoPhase,
                                DriverKind::kIndependent}) {
    result.runs[static_cast<int>(kind)] =
        run_scenario(scenario, kind);
  }
  return result;
}

bool DiffResult::ok() const {
  const RunOutcome& ref = run(DriverKind::kTwoPhase);
  for (const RunOutcome& r : runs) {
    if (!r.completed || !r.findings.empty() || !r.pattern_ok ||
        !r.plan_error.empty()) {
      return false;
    }
    if (r.file_hash != ref.file_hash || r.read_hash != ref.read_hash) {
      return false;
    }
  }
  return true;
}

std::string DiffResult::classify() const {
  for (int i = 0; i < 3; ++i) {
    const RunOutcome& r = runs[i];
    const char* name = driver_kind_name(static_cast<DriverKind>(i));
    if (!r.completed) {
      return std::string("exception:") + name;
    }
    if (!r.findings.empty()) {
      return std::string("findings:") + name + ":" + r.findings[0].kind;
    }
    if (!r.plan_error.empty()) return std::string("plan-share:") + name;
  }
  const RunOutcome& ref = run(DriverKind::kTwoPhase);
  for (int i = 0; i < 3; ++i) {
    if (runs[i].file_hash != ref.file_hash) return "file-hash-mismatch";
  }
  for (int i = 0; i < 3; ++i) {
    if (runs[i].read_hash != ref.read_hash) return "read-hash-mismatch";
  }
  for (int i = 0; i < 3; ++i) {
    if (!runs[i].pattern_ok) {
      return std::string("pattern-mismatch:") +
             driver_kind_name(static_cast<DriverKind>(i));
    }
  }
  return "ok";
}

std::string DiffResult::describe() const {
  if (ok()) return "";
  std::ostringstream os;
  os << "differential failure (" << classify() << ") on seed "
     << scenario.gen_seed << " case " << scenario.gen_case << " ("
     << pattern_kind_name(scenario.kind) << ", " << scenario.nranks
     << " ranks on " << scenario.nodes << "x" << scenario.ranks_per_node
     << ", " << scenario.total_bytes() << " bytes)\n";
  for (int i = 0; i < 3; ++i) {
    const RunOutcome& r = runs[i];
    os << "  " << driver_kind_name(static_cast<DriverKind>(i)) << ": ";
    if (!r.completed) {
      os << "exception: " << r.error << "\n";
      continue;
    }
    os << "file=" << std::hex << r.file_hash << " read=" << r.read_hash
       << std::dec;
    if (!r.pattern_ok) os << " pattern: " << r.pattern_error;
    if (!r.plan_error.empty()) os << " plan: " << r.plan_error;
    if (r.tolerated_duplicates > 0) {
      os << " (tolerated " << r.tolerated_duplicates
         << " overlap duplicates)";
    }
    os << "\n";
    for (const verify::Finding& f : r.findings) {
      os << "    finding " << f.kind << ": " << f.message << "\n";
    }
  }
  return os.str();
}

}  // namespace mcio::fuzz
