// Memory-Conscious Collective I/O — the paper's contribution (§3).
//
// The driver composes the four components of Figure 3 on top of the
// shared two-phase exchange engine:
//   1. Aggregation Group Division   (group_division.h, Fig 4)
//   2. I/O Workload Partition       (partition_tree.h, recursive bisection)
//   3. Workload Portion Remerging   (partition_tree remerge, Figs 5a/5b)
//   4. Aggregators Location         (aggregator_location.h)
//
// All decisions are made at run time from allgathered metadata — request
// bounds, node placement and each node's available memory. A real MPI
// job repeats them on every rank; here plan_from() is a pure function of
// the one shared allgather result (mpi/gathered.h), run once per
// collective, and every rank's exchange holds the same plan object.
#pragma once

#include <memory>
#include <span>

#include "core/config.h"
#include "io/driver.h"
#include "io/exchange.h"

namespace mcio::core {

class MccioDriver final : public io::CollectiveDriver {
 public:
  /// Metadata every rank contributes before the decisions are made.
  struct Meta {
    std::uint64_t offset = 0;
    std::uint64_t len = 0;           ///< bounds length
    std::uint64_t data_bytes = 0;    ///< actual request bytes
    std::uint8_t is_virtual = 0;
    std::int32_t node = 0;
    std::uint64_t node_available = 0;  ///< Mem_avl of the reporting node
  };

  MccioDriver() = default;
  explicit MccioDriver(const MccioConfig& config) : config_(config) {}

  void write_all(io::CollContext& ctx, const io::AccessPlan& plan) override;
  void read_all(io::CollContext& ctx, const io::AccessPlan& plan) override;
  const char* name() const override { return "mccio"; }

  const MccioConfig& config() const { return config_; }
  MccioConfig& config() { return config_; }

  /// The collective's plan: one allgather of meta_of(), then plan_from()
  /// run once on the shared result; every rank gets the same object.
  /// Rank 0 records the plan's degradation counts into ctx.stats.
  /// Collective over ctx.comm.
  std::shared_ptr<const io::ExchangePlan> shared_plan(
      io::CollContext& ctx, const io::AccessPlan& plan) const;

  /// A copy of shared_plan(), exposed for tests and plan probes.
  io::ExchangePlan build_plan(io::CollContext& ctx,
                              const io::AccessPlan& plan) const;

  /// This rank's contribution to the plan's allgather.
  static Meta meta_of(const io::CollContext& ctx, const io::AccessPlan& plan);

  /// The run-time decision pipeline — group division, partition trees,
  /// remerges, aggregator placement and the dead-group fallback — as a
  /// function of every rank's record (rank order), the hints, the stripe
  /// unit and `memory` (its fault plan; with the borrow rung on, the
  /// dead-group rescue also elects a donor from live availability). Not
  /// yet sealed (see io::share_plan()).
  io::ExchangePlan plan_from(std::span<const Meta> all,
                             const io::Hints& hints,
                             std::uint64_t stripe_unit,
                             const node::MemoryManager& memory) const;

  /// True when plan_from() may elect a donor, which reads live memory
  /// state: callers then plan from a global-class slice (Actor::sync()),
  /// so the read is ordered like any other memory interaction.
  bool plan_reads_live_memory(const io::CollContext& ctx) const;

 private:
  MccioConfig config_;
};

}  // namespace mcio::core
