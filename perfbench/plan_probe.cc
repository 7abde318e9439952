// Plan probes of the traced run. Every rank derives the same file domains
// from the same allgathered metadata; these passes split that replicated
// cost into its allgather and its computation, and the single-call
// pipeline recomputes rank 0's plan once from the allgathered inputs and
// requires it to equal what each driver's build_plan returned.
#include <algorithm>
#include <map>
#include <sstream>
#include <utility>

#include "core/aggregator_location.h"
#include "core/group_division.h"
#include "core/partition_tree.h"
#include "harness.h"

namespace mcio::perfbench {

using util::Extent;

namespace {

/// node::MemoryVariance of a run.
node::MemoryVariance variance_of(const bench::RunOptions& opt) {
  node::MemoryVariance var;
  var.relative_stdev = opt.mem_stdev;
  return var;
}

/// Same layout as the metadata record MccioDriver::build_plan allgathers,
/// so the allgather-only pass moves the same bytes.
struct Meta {
  std::uint64_t offset = 0;
  std::uint64_t len = 0;
  std::uint64_t data_bytes = 0;
  std::uint8_t is_virtual = 0;
  std::int32_t node = 0;
  std::uint64_t node_available = 0;
};

/// Runs `body` on every rank between barriers and times it on rank 0.
template <class Body>
PassTiming timed_pass(const bench::RunOptions& opt,
                      const bench::BenchPlanFactory& make_plan, Body body) {
  Stack st(opt);
  const io::Hints hints = run_hints(opt);
  PassTiming out;
  st.machine.run(opt.nranks, [&](mpi::Rank& rank) {
    const io::AccessPlan plan = make_plan(rank.rank(), opt.nranks);
    io::CollContext ctx;
    ctx.rank = &rank;
    ctx.comm = &rank.world();
    ctx.fs = &st.fs;
    ctx.memory = &st.memory;
    ctx.hints = hints;
    mpi::Comm& world = rank.world();
    world.barrier();
    const double s0 = world.allreduce_max(rank.actor().now());
    const double h0 = bench::wall_now();
    body(ctx, plan);
    world.barrier();
    const double h1 = bench::wall_now();
    const double s1 = world.allreduce_max(rank.actor().now());
    if (rank.rank() == 0) {
      out.host_s = h1 - h0;
      out.sim_s = s1 - s0;
    }
  });
  return out;
}

/// Times one call in host seconds.
template <class Fn>
double timed(Fn&& fn) {
  const double t0 = bench::wall_now();
  fn();
  return bench::wall_now() - t0;
}

/// The baseline's domains from the allgathered bounds and aggregator set.
io::ExchangePlan two_phase_plan_of(const std::vector<Meta>& all,
                                   const std::vector<int>& aggs,
                                   const io::Hints& hints,
                                   std::uint64_t stripe) {
  io::ExchangePlan x;
  std::uint64_t gmin = UINT64_MAX;
  std::uint64_t gmax = 0;
  for (const Meta& m : all) {
    x.rank_bounds.push_back(Extent{m.offset, m.len});
    if (m.len > 0) {
      gmin = std::min(gmin, m.offset);
      gmax = std::max(gmax, m.offset + m.len);
    }
  }
  if (gmax <= gmin) return x;
  const auto naggs = static_cast<std::uint64_t>(aggs.size());
  std::uint64_t fd = (gmax - gmin + naggs - 1) / naggs;
  if (hints.align_file_domains) fd = (fd + stripe - 1) / stripe * stripe;
  fd = std::max<std::uint64_t>(fd, 1);
  for (std::uint64_t i = 0; i < naggs; ++i) {
    const std::uint64_t start = gmin + i * fd;
    if (start >= gmax) break;
    io::FileDomain d;
    d.extent = Extent{start, std::min(fd, gmax - start)};
    d.aggregator = aggs[static_cast<std::size_t>(i)];
    d.buffer_bytes = hints.cb_buffer_size;
    x.domains.push_back(d);
  }
  return x;
}

/// The MCCIO pipeline computed once from rank 0's allgathered metadata:
/// group division, memory-weighted bisection (or the leaf search with
/// remerging where no host of a group qualifies) and aggregator
/// placement, each timed. Dead groups of a fault plan are out of scope;
/// the caller reports them as a mismatch.
io::ExchangePlan mccio_plan_of(const std::vector<Meta>& all,
                               const core::MccioConfig& cfg,
                               const node::FaultPlan* faults,
                               std::uint64_t stripe, PlanProbe& probe,
                               std::string& unsupported) {
  io::ExchangePlan x;
  std::vector<int> rank_nodes;
  int max_node = 0;
  std::uint64_t total_bytes = 0;
  for (const Meta& m : all) {
    x.rank_bounds.push_back(Extent{m.offset, m.len});
    rank_nodes.push_back(m.node);
    max_node = std::max(max_node, static_cast<int>(m.node));
    if (m.len > 0) total_bytes += m.data_bytes;
  }
  if (total_bytes == 0) {
    x.num_groups = 0;
    return x;
  }
  std::vector<std::uint64_t> avail(static_cast<std::size_t>(max_node) + 1, 0);
  std::vector<int> data_nodes;
  for (const Meta& m : all) {
    auto& slot = avail[static_cast<std::size_t>(m.node)];
    slot = std::max(slot, m.node_available);
    if (m.len > 0) data_nodes.push_back(m.node);
  }
  std::sort(data_nodes.begin(), data_nodes.end());
  data_nodes.erase(std::unique(data_nodes.begin(), data_nodes.end()),
                   data_nodes.end());

  const std::uint64_t msg_ind = std::max<std::uint64_t>(cfg.msg_ind, 1);
  std::uint64_t msg_group = cfg.msg_group;
  if (msg_group == 0) {
    const auto target =
        std::clamp<std::uint64_t>(data_nodes.size() / 3, 1, 16);
    msg_group = std::max<std::uint64_t>(msg_ind, total_bytes / target);
  }
  std::uint64_t best = 0;
  double avail_sum = 0.0;
  for (const int n : data_nodes) {
    best = std::max(best, avail[static_cast<std::size_t>(n)]);
    avail_sum += static_cast<double>(avail[static_cast<std::size_t>(n)]);
  }
  std::uint64_t mem_min = cfg.mem_min;
  if (mem_min == 0) {
    mem_min = std::max<std::uint64_t>(
        1ull << 20, static_cast<std::uint64_t>(
                        avail_sum / static_cast<double>(data_nodes.size()) /
                        2.0));
  }
  mem_min = std::min(mem_min, best);
  const std::uint64_t per_slot =
      std::max(msg_ind, std::max(mem_min, stripe));
  const auto slot_plan = [&](std::uint64_t a) -> std::pair<int, std::uint64_t> {
    if (a < mem_min) return {0, 0};
    const auto sn = static_cast<int>(std::clamp<std::uint64_t>(
        a / per_slot, 1, static_cast<std::uint64_t>(cfg.n_ah)));
    std::uint64_t budget = a / static_cast<std::uint64_t>(sn);
    if (stripe > 1) budget = (budget + stripe / 2) / stripe * stripe;
    return {sn, std::max(budget, stripe)};
  };

  core::GroupDivisionInput gin;
  gin.rank_bounds = x.rank_bounds;
  gin.rank_nodes = rank_nodes;
  gin.msg_group = msg_group;
  gin.align = stripe;
  gin.node_weights.assign(avail.size(), 0.0);
  for (const int n : data_nodes) {
    const auto [sn, budget] = slot_plan(avail[static_cast<std::size_t>(n)]);
    gin.node_weights[static_cast<std::size_t>(n)] =
        static_cast<double>(sn) * static_cast<double>(budget);
  }
  std::vector<core::AggregationGroup> groups;
  probe.divide_groups_s = timed([&] { groups = core::divide_groups(gin); });
  x.num_groups = static_cast<int>(groups.size());

  if (faults != nullptr) {
    for (const core::AggregationGroup& g : groups) {
      bool all_exhausted = !g.ranks.empty();
      for (const int r : g.ranks) {
        all_exhausted = all_exhausted &&
                        faults->exhausted(rank_nodes[static_cast<std::size_t>(r)]);
      }
      if (all_exhausted && !g.region.empty()) {
        unsupported = "a group lives on exhausted nodes only";
      }
    }
  }

  std::vector<int> node_aggs(avail.size(), 0);
  std::uint64_t remerges = 0;
  for (const core::AggregationGroup& g : groups) {
    if (g.region.empty()) continue;
    std::vector<int> gnodes;
    for (const int r : g.ranks) {
      gnodes.push_back(rank_nodes[static_cast<std::size_t>(r)]);
    }
    std::sort(gnodes.begin(), gnodes.end());
    gnodes.erase(std::unique(gnodes.begin(), gnodes.end()), gnodes.end());
    struct Slot {
      int node;
      std::uint64_t budget;
    };
    std::vector<Slot> slots;
    for (const int n : gnodes) {
      const auto [sn, budget] = slot_plan(avail[static_cast<std::size_t>(n)]);
      for (int k = 0; k < sn; ++k) slots.push_back(Slot{n, budget});
    }
    core::PartitionTree tree(g.region);
    if (slots.empty()) {
      // Leaf search with remerging: no host of the group qualifies.
      const std::uint64_t parts = std::clamp<std::uint64_t>(
          (g.region.len + msg_ind - 1) / msg_ind, 1,
          std::max<std::uint64_t>(
              1, gnodes.size() * static_cast<std::uint64_t>(cfg.n_ah)));
      probe.partition_s += timed([&] { tree.bisect_into(parts, stripe); });
      core::LocationInput lin;
      lin.rank_bounds = x.rank_bounds;
      lin.rank_nodes = rank_nodes;
      lin.candidate_ranks = g.ranks;
      lin.node_available = &avail;
      lin.node_aggregators = &node_aggs;
      lin.mem_min = mem_min;
      lin.msg_ind = msg_ind;
      lin.buffer_align = stripe;
      lin.n_ah = cfg.n_ah;
      lin.remerging = cfg.remerging;
      lin.memory_aware = cfg.memory_aware;
      lin.remerges = &remerges;
      probe.locate_aggregators_s += timed([&] {
        for (io::FileDomain& d : core::locate_aggregators(tree, lin)) {
          x.domains.push_back(d);
        }
      });
      continue;
    }
    std::vector<double> weights;
    for (const Slot& s : slots) weights.push_back(static_cast<double>(s.budget));
    probe.partition_s += timed([&] { tree.bisect_weighted(weights, stripe); });
    probe.locate_aggregators_s += timed([&] {
      const auto leaves = tree.leaf_ids();
      std::map<int, std::vector<int>> node_ranks;
      for (const int r : g.ranks) {
        node_ranks[rank_nodes[static_cast<std::size_t>(r)]].push_back(r);
      }
      for (std::size_t j = 0; j < leaves.size(); ++j) {
        const Slot& slot = slots[std::min(j, slots.size() - 1)];
        const Extent ext = tree.extent_of(leaves[j]);
        std::uint64_t buffer = std::min<std::uint64_t>(ext.len, slot.budget);
        if (stripe > 1 && buffer > stripe) buffer = buffer / stripe * stripe;
        buffer = std::max<std::uint64_t>(
            buffer, std::min<std::uint64_t>(stripe, ext.len));
        int& count = node_aggs[static_cast<std::size_t>(slot.node)];
        const auto& here = node_ranks[slot.node];
        io::FileDomain d;
        d.extent = ext;
        d.aggregator = here[static_cast<std::size_t>(count) % here.size()];
        d.buffer_bytes = buffer;
        ++count;
        auto& a = avail[static_cast<std::size_t>(slot.node)];
        a = a >= buffer ? a - buffer : 0;
        x.domains.push_back(d);
      }
    });
  }
  return x;
}

/// Empty when `got` (a driver's build_plan on rank 0) equals `want`.
std::string compare_plans(const char* driver, const io::ExchangePlan& got,
                          const io::ExchangePlan& want) {
  std::ostringstream os;
  if (got.num_groups != want.num_groups) {
    os << driver << ": groups " << got.num_groups << " vs " << want.num_groups;
  } else if (got.rank_bounds != want.rank_bounds) {
    os << driver << ": rank bounds differ";
  } else if (!got.independent_ranks.empty()) {
    os << driver << ": " << got.independent_ranks.size()
       << " ranks fell back to independent I/O";
  } else if (got.domains.size() != want.domains.size()) {
    os << driver << ": " << got.domains.size() << " domains vs "
       << want.domains.size();
  } else {
    for (std::size_t i = 0; i < got.domains.size(); ++i) {
      const io::FileDomain& a = got.domains[i];
      const io::FileDomain& b = want.domains[i];
      if (a == b) continue;
      os << driver << ": domain " << i << " [" << a.extent.offset << "+"
         << a.extent.len << " agg " << a.aggregator << " buf "
         << a.buffer_bytes << "] vs [" << b.extent.offset << "+"
         << b.extent.len << " agg " << b.aggregator << " buf "
         << b.buffer_bytes << "]";
      break;
    }
  }
  return os.str();
}

}  // namespace

Stack::Stack(const bench::RunOptions& opt)
    : machine(opt.testbed.cluster()),
      fs(machine.cluster(), opt.testbed.pfs()),
      memory(opt.testbed.cluster(), opt.mem_mean, variance_of(opt),
             opt.mem_seed),
      fault_plan(opt.testbed.nodes, opt.faults) {
  if (opt.faults.any() || opt.attach_fault_plan) {
    memory.set_fault_plan(&fault_plan);
  }
}

io::Hints run_hints(const bench::RunOptions& opt) {
  io::Hints hints = opt.hints;
  hints.cb_buffer_size = opt.mem_mean;
  return hints;
}

PlanProbe probe_plans(const bench::RunOptions& opt,
                      const bench::BenchPlanFactory& make_plan,
                      SpanTrace& trace, int parent) {
  PlanProbe probe;
  const core::MccioDriver mccio(opt.mccio);
  io::ExchangePlan mccio_got;
  io::ExchangePlan two_phase_got;
  std::vector<Meta> all;
  std::vector<int> aggs;
  const bool faulty = opt.faults.any() || opt.attach_fault_plan;
  const node::FaultPlan faults(opt.testbed.nodes, opt.faults);

  int span = trace.open("core.build_plan", parent, bench::wall_now());
  probe.mccio_plan = timed_pass(
      opt, make_plan, [&](io::CollContext& ctx, const io::AccessPlan& plan) {
        io::ExchangePlan x = mccio.build_plan(ctx, plan);
        if (ctx.comm->rank() == 0) mccio_got = std::move(x);
      });
  trace.close(span, bench::wall_now());

  span = trace.open("io.build_plan", parent, bench::wall_now());
  probe.two_phase_plan = timed_pass(
      opt, make_plan, [&](io::CollContext& ctx, const io::AccessPlan& plan) {
        io::ExchangePlan x = io::TwoPhaseDriver::build_plan(ctx, plan);
        if (ctx.comm->rank() == 0) two_phase_got = std::move(x);
      });
  trace.close(span, bench::wall_now());

  span = trace.open("mpi.allgather", parent, bench::wall_now());
  probe.allgather = timed_pass(
      opt, make_plan, [&](io::CollContext& ctx, const io::AccessPlan& plan) {
        const Extent b = plan.bounds();
        Meta mine;
        mine.offset = b.offset;
        mine.len = b.len;
        mine.data_bytes = plan.total_bytes();
        mine.is_virtual = plan.buffer.is_virtual() ? 1 : 0;
        mine.node = ctx.comm->node_of(ctx.comm->rank());
        mine.node_available = ctx.memory->available(mine.node);
        std::vector<Meta> got = ctx.comm->allgather(mine);
        if (ctx.comm->rank() == 0) {
          all = std::move(got);
          probe.default_aggregators_s = timed([&] {
            aggs = io::TwoPhaseDriver::default_aggregators(
                *ctx.comm, ctx.hints.cb_nodes);
          });
        }
      });
  // The single-call timing happened inside the timed window; keep the
  // allgather figure to the allgather alone.
  probe.allgather.host_s -= probe.default_aggregators_s;
  trace.close(span, bench::wall_now());

  span = trace.open("core.single_call_plan", parent, bench::wall_now());
  const std::uint64_t stripe = opt.testbed.pfs().stripe_unit;
  std::string unsupported;
  const io::ExchangePlan mccio_want = mccio_plan_of(
      all, opt.mccio, faulty ? &faults : nullptr, stripe, probe, unsupported);
  const io::ExchangePlan two_phase_want =
      two_phase_plan_of(all, aggs, run_hints(opt), stripe);
  trace.close(span, bench::wall_now());

  if (!unsupported.empty()) {
    probe.mismatch = "mccio: " + unsupported;
  } else {
    probe.mismatch = compare_plans("mccio", mccio_got, mccio_want);
  }
  if (probe.mismatch.empty()) {
    probe.mismatch = compare_plans("two-phase", two_phase_got, two_phase_want);
  }
  return probe;
}

double mccio_plan_pass_s(const bench::RunOptions& opt,
                         const bench::BenchPlanFactory& make_plan) {
  const core::MccioDriver mccio(opt.mccio);
  return timed_pass(opt, make_plan,
                    [&](io::CollContext& ctx, const io::AccessPlan& plan) {
                      (void)mccio.build_plan(ctx, plan);
                    })
      .host_s;
}

}  // namespace mcio::perfbench
