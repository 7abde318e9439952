// Shared pieces of the benchmark harness: the per-run simulation stack
// (built exactly like bench::run_experiment builds it) and the plan
// probes of the traced run.
#pragma once

#include <cstdint>
#include <string>

#include "common.h"
#include "observe.h"

namespace mcio::perfbench {

/// One simulation stack: machine, PFS, memory manager and the fault plan,
/// attached under the same rule bench::run_experiment uses. Components
/// capture the process-wide observer when they are constructed.
struct Stack {
  explicit Stack(const bench::RunOptions& opt);

  mpi::Machine machine;
  pfs::Pfs fs;
  node::MemoryManager memory;
  node::FaultPlan fault_plan;
};

/// The hints a collective of `opt` runs with (the baseline's fixed buffer
/// is the memory point, as in bench::run_experiment).
io::Hints run_hints(const bench::RunOptions& opt);

/// Host and simulated seconds of one pass, measured on rank 0 between the
/// barriers placed around the call.
struct PassTiming {
  double host_s = 0.0;
  double sim_s = 0.0;
};

/// What the plan probes of one memory point measured.
struct PlanProbe {
  PassTiming mccio_plan;      ///< MccioDriver::build_plan on every rank
  PassTiming two_phase_plan;  ///< TwoPhaseDriver::build_plan on every rank
  PassTiming allgather;       ///< allgather of the MCCIO metadata record
  /// Single calls on rank 0's allgathered inputs.
  double divide_groups_s = 0.0;
  double partition_s = 0.0;
  double locate_aggregators_s = 0.0;
  double default_aggregators_s = 0.0;
  /// Empty when the single-call pipeline reproduced both drivers'
  /// rank-0 ExchangePlans exactly; otherwise what differed.
  std::string mismatch;
};

/// Runs the plan-only passes (both drivers), the allgather-only pass and
/// the single-call pipeline with its cross-check at one memory point.
PlanProbe probe_plans(const bench::RunOptions& opt,
                      const bench::BenchPlanFactory& make_plan,
                      SpanTrace& trace, int parent);

/// Host seconds of the MCCIO plan-only pass alone (the scaling probe).
double mccio_plan_pass_s(const bench::RunOptions& opt,
                         const bench::BenchPlanFactory& make_plan);

}  // namespace mcio::perfbench
