// The baseline: ROMIO-style two-phase collective I/O.
//
// Aggregators are fixed at one process per node (the ROMIO default the
// paper compares against), the aggregate file region is divided evenly
// into one file domain per aggregator, and every aggregator uses the same
// cb_buffer_size aggregation buffer regardless of how much memory its node
// actually has — the rigidity MCCIO removes.
#pragma once

#include <memory>
#include <span>

#include "io/driver.h"
#include "io/exchange.h"

namespace mcio::io {

class TwoPhaseDriver final : public CollectiveDriver {
 public:
  /// The record every rank contributes to the plan's allgather.
  struct Meta {
    std::uint64_t offset = 0;
    std::uint64_t len = 0;
    std::uint8_t is_virtual = 0;
  };

  void write_all(CollContext& ctx, const AccessPlan& plan) override;
  void read_all(CollContext& ctx, const AccessPlan& plan) override;
  const char* name() const override { return "two-phase"; }

  /// The collective's plan: one allgather of meta_of(plan), then
  /// plan_from() run once on the shared result; every rank gets the same
  /// object. Collective over ctx.comm.
  static std::shared_ptr<const ExchangePlan> shared_plan(
      CollContext& ctx, const AccessPlan& plan);

  /// A copy of shared_plan(), exposed for tests and plan probes.
  static ExchangePlan build_plan(CollContext& ctx, const AccessPlan& plan);

  /// This rank's contribution to the plan's allgather.
  static Meta meta_of(const AccessPlan& plan);

  /// The domain/aggregator decision: a pure function of every rank's
  /// record (rank order), the communicator's node placement and the
  /// hints. Not yet sealed (see share_plan()).
  static ExchangePlan plan_from(std::span<const Meta> all,
                                const mpi::Comm& comm, const Hints& hints,
                                std::uint64_t stripe_unit);

  /// ROMIO default aggregator set: the lowest rank on each node, in rank
  /// order, optionally capped at cb_nodes.
  static std::vector<int> default_aggregators(const mpi::Comm& comm,
                                              int cb_nodes);
};

}  // namespace mcio::io
