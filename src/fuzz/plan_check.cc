#include "fuzz/plan_check.h"

#include <cstdint>
#include <cstring>
#include <memory>
#include <sstream>
#include <vector>

#include "core/mccio_driver.h"
#include "io/two_phase_driver.h"
#include "util/check.h"

namespace mcio::fuzz {

namespace {

/// Every rank's record, collected on this rank by an alltoall of `mine`
/// and parsed here: this rank's own copy of what the allgather shares.
template <typename Meta>
std::vector<Meta> own_copy(mpi::Comm& comm, const Meta& mine) {
  const auto* p = reinterpret_cast<const std::byte*>(&mine);
  const std::vector<std::vector<std::byte>> to_each(
      static_cast<std::size_t>(comm.size()),
      std::vector<std::byte>(p, p + sizeof(Meta)));
  const auto got = comm.alltoallv_blobs(to_each);
  std::vector<Meta> all(got.size());
  for (std::size_t r = 0; r < got.size(); ++r) {
    MCIO_CHECK_EQ(got[r].size(), sizeof(Meta));
    std::memcpy(&all[r], got[r].data(), sizeof(Meta));
  }
  return all;
}

/// First field where the recomputed plan `own` departs from `shared`.
std::string difference(const io::ExchangePlan& shared,
                       const io::ExchangePlan& own) {
  std::ostringstream os;
  if (shared.rank_bounds != own.rank_bounds) {
    os << "rank bounds differ";
  } else if (shared.independent_ranks != own.independent_ranks) {
    os << "independent ranks differ (" << shared.independent_ranks.size()
       << " shared vs " << own.independent_ranks.size() << " recomputed)";
  } else if (shared.domains.size() != own.domains.size()) {
    os << shared.domains.size() << " shared domains vs "
       << own.domains.size() << " recomputed";
  } else if (shared.domains != own.domains) {
    for (std::size_t i = 0; i < own.domains.size(); ++i) {
      const io::FileDomain& a = shared.domains[i];
      const io::FileDomain& b = own.domains[i];
      if (a == b) continue;
      os << "domain " << i << " [" << a.extent.offset << "+" << a.extent.len
         << " agg " << a.aggregator << " buf " << a.buffer_bytes << "] vs ["
         << b.extent.offset << "+" << b.extent.len << " agg " << b.aggregator
         << " buf " << b.buffer_bytes << "]";
      break;
    }
  } else {
    os << "groups, counters or node groups differ";
  }
  return os.str();
}

}  // namespace

std::string check_shared_plan(io::CollContext& ctx,
                              const io::AccessPlan& plan,
                              const io::CollectiveDriver& driver) {
  mpi::Comm& comm = *ctx.comm;
  const std::uint64_t stripe = ctx.fs->config().stripe_unit;
  std::shared_ptr<const io::ExchangePlan> shared;
  io::ExchangePlan own;
  if (const auto* mccio = dynamic_cast<const core::MccioDriver*>(&driver)) {
    shared = mccio->shared_plan(ctx, plan);
    const auto all = own_copy(comm, core::MccioDriver::meta_of(ctx, plan));
    if (mccio->plan_reads_live_memory(ctx)) ctx.rank->actor().sync();
    own = mccio->plan_from(all, ctx.hints, stripe, *ctx.memory);
  } else if (dynamic_cast<const io::TwoPhaseDriver*>(&driver) != nullptr) {
    shared = io::TwoPhaseDriver::shared_plan(ctx, plan);
    const auto all = own_copy(comm, io::TwoPhaseDriver::meta_of(plan));
    own = io::TwoPhaseDriver::plan_from(all, comm, ctx.hints, stripe);
  } else {
    return "";
  }

  std::ostringstream os;
  os << driver.name() << " rank " << comm.rank() << ": ";
  const auto holders =
      comm.allgather(reinterpret_cast<std::uintptr_t>(shared.get()));
  for (std::size_t r = 0; r < holders.size(); ++r) {
    if (holders[r] != holders.front()) {
      os << "rank " << r << " holds a different plan object than rank 0";
      return os.str();
    }
  }
  const auto sealed = io::share_plan(std::move(own), comm,
                                     ctx.hints.cb_node_leaders);
  if (*sealed == *shared) return "";
  os << "shared plan differs from the per-rank recompute: "
     << difference(*shared, *sealed);
  return os.str();
}

}  // namespace mcio::fuzz
