// Cross-check of the once-per-collective plan.
//
// The collective drivers compute one ExchangePlan per collective from one
// shared allgather result and hand every rank the same object (DESIGN.md
// §15). A sharing bug — a memo reused across collectives, a plan input
// that differs per rank, such as live memory read at a different time —
// would not show in the shared path itself. check_shared_plan() replays
// what every rank computed before the plan was shared: the rank collects
// its own copy of everyone's metadata (an alltoall, so the copy shares
// no code with the allgather result), recomputes the plan with the
// driver's pure planning function, and requires it to equal the shared
// plan. Every rank must also hold the very same plan object.
#pragma once

#include <string>

#include "io/driver.h"

namespace mcio::fuzz {

/// Collective over ctx.comm: plans `plan` once through `driver`'s shared
/// path and once from this rank's own metadata copy. Returns "" when the
/// two agree and every rank holds the same plan object, else what
/// differed. Drivers without a collective plan (independent I/O) pass.
std::string check_shared_plan(io::CollContext& ctx,
                              const io::AccessPlan& plan,
                              const io::CollectiveDriver& driver);

}  // namespace mcio::fuzz
