// Instrumentation of one collective I/O operation.
//
// The paper's claims are about more than wall-clock: aggregator memory
// consumption and its variance across aggregators, intra- vs inter-node
// shuffle traffic, and read-modify-write overhead. The exchange engine
// records all of it here.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "sim/time.h"
#include "util/stats.h"

namespace mcio::metrics {

/// Counters for the graceful-degradation ladder driven by node::FaultPlan
/// (authoritative rung table in src/io/exchange.h: plan-time remerge,
/// then retry → revocation tolerance → shrink → borrow far memory →
/// spill, with independent fallback as the plan-time last resort). All
/// zero when no fault plan is attached.
struct DegradationStats {
  std::uint64_t lease_denials = 0;   ///< fault-plan denied lease attempts
  std::uint64_t lease_retries = 0;   ///< backed-off re-attempts
  double backoff_s = 0.0;            ///< virtual seconds spent backing off
  std::uint64_t grant_delays = 0;    ///< transient-delay grants
  double grant_delay_s = 0.0;        ///< virtual seconds of grant delay
  std::uint64_t revocations = 0;     ///< leases revoked mid-collective
  std::uint64_t buffer_shrinks = 0;  ///< ladder halvings of a buffer
  std::uint64_t spills = 0;          ///< forced overcommitted (swap) leases
  std::uint64_t spilled_bytes = 0;   ///< bytes moved through swap backing
  std::uint64_t plan_remerges = 0;   ///< domains remerged away at plan time
  std::uint64_t exhausted_nodes = 0; ///< data-bearing nodes exhausted
  std::uint64_t fallback_ranks = 0;  ///< ranks degraded to independent I/O
  std::uint64_t fallback_bytes = 0;  ///< bytes moved by those ranks
  /// Ladder runs that hit hints.fault_attempt_cap and gave up on local
  /// memory (jumping to the terminal borrow/spill rungs).
  std::uint64_t lease_retry_giveups = 0;
  std::uint64_t borrows = 0;          ///< far-memory borrowed buffers
  std::uint64_t borrowed_bytes = 0;   ///< bytes through borrowed windows
  std::uint64_t borrow_denials = 0;   ///< donor-less or fault-denied borrows
  std::uint64_t donor_revocations = 0;///< borrowed backing pulled mid-op
};

/// Per-aggregator record.
struct AggregatorRecord {
  int rank = -1;
  int node = -1;
  std::uint64_t buffer_bytes = 0;  ///< leased aggregation buffer
  double pressure = 0.0;           ///< overcommit fraction of the lease
  std::uint64_t bytes_received = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t io_bytes = 0;
  int rounds = 0;
};

/// Shared by every rank of a collective; record_* calls arrive in the
/// engine's event order. Readers are quiescent (between collectives /
/// after the run).
class CollectiveStats {
 public:
  void record_aggregator(const AggregatorRecord& record);
  void record_shuffle(int src_node, int dst_node, std::uint64_t bytes);
  /// One logical exchange-engine message (extent list, window-size
  /// announcement, data blob, …), classified by whether it crossed the
  /// interconnect. Counts messages the hierarchy is meant to eliminate;
  /// pure accounting, never charges virtual time.
  void record_msg(int src_node, int dst_node, std::uint64_t bytes) {
    if (src_node == dst_node) {
      bump(msgs_intra_node_);
    } else {
      bump(msgs_inter_node_);
      bump(bytes_inter_node_, bytes);
    }
  }
  void record_rmw(std::uint64_t bytes) { bump(rmw_bytes_, bytes); }
  void record_io(std::uint64_t bytes) { bump(io_bytes_, bytes); }
  void set_groups(int n) { num_groups_ = n; }
  void set_elapsed(sim::SimTime t) { elapsed_ = t; }

  // Degradation-ladder events (see DegradationStats).
  void record_denial() { bump(degradation_.lease_denials); }
  void record_retry(double backoff_s) {
    bump(degradation_.lease_retries);
    degradation_.backoff_s += backoff_s;  // global slices only (ladder)
  }
  void record_grant_delay(double delay_s) {
    bump(degradation_.grant_delays);
    degradation_.grant_delay_s += delay_s;  // global slices only (ladder)
  }
  void record_revocation() { bump(degradation_.revocations); }
  void record_shrink() { bump(degradation_.buffer_shrinks); }
  void record_spill() { bump(degradation_.spills); }
  void record_spilled_bytes(std::uint64_t bytes) {
    bump(degradation_.spilled_bytes, bytes);
  }
  void record_plan_degradation(std::uint64_t remerges,
                               std::uint64_t exhausted_nodes) {
    bump(degradation_.plan_remerges, remerges);
    bump(degradation_.exhausted_nodes, exhausted_nodes);
  }
  void record_fallback(std::uint64_t bytes) {
    bump(degradation_.fallback_ranks);
    bump(degradation_.fallback_bytes, bytes);
  }
  void record_retry_giveup() { bump(degradation_.lease_retry_giveups); }
  void record_borrow() { bump(degradation_.borrows); }
  void record_borrowed_bytes(std::uint64_t bytes) {
    bump(degradation_.borrowed_bytes, bytes);
  }
  void record_borrow_denial() { bump(degradation_.borrow_denials); }
  void record_donor_revocation() { bump(degradation_.donor_revocations); }
  const DegradationStats& degradation() const { return degradation_; }

  const std::vector<AggregatorRecord>& aggregators() const {
    return aggregators_;
  }
  int num_aggregators() const {
    return static_cast<int>(aggregators_.size());
  }
  int num_groups() const { return num_groups_; }

  /// Mean/stdev/min/max over per-aggregator buffer bytes — the paper's
  /// "memory consumption and variance among processes".
  util::RunningStats buffer_stats() const;
  /// Mean/stdev over per-aggregator pressure.
  util::RunningStats pressure_stats() const;

  std::uint64_t shuffle_intra_node() const { return intra_node_bytes_; }
  std::uint64_t shuffle_inter_node() const { return inter_node_bytes_; }
  std::uint64_t shuffle_total() const {
    return intra_node_bytes_ + inter_node_bytes_;
  }
  std::uint64_t msgs_intra_node() const { return msgs_intra_node_; }
  std::uint64_t msgs_inter_node() const { return msgs_inter_node_; }
  std::uint64_t bytes_inter_node() const { return bytes_inter_node_; }
  std::uint64_t rmw_bytes() const { return rmw_bytes_; }
  std::uint64_t io_bytes() const { return io_bytes_; }
  sim::SimTime elapsed() const { return elapsed_; }

  /// Peak leased aggregation bytes per node (max over aggregators
  /// co-located on the node).
  std::map<int, std::uint64_t> per_node_buffer_bytes() const;

  void clear();

 private:
  static void bump(std::uint64_t& counter, std::uint64_t v = 1) {
    counter += v;
  }

  std::vector<AggregatorRecord> aggregators_;
  std::uint64_t intra_node_bytes_ = 0;
  std::uint64_t inter_node_bytes_ = 0;
  std::uint64_t msgs_intra_node_ = 0;
  std::uint64_t msgs_inter_node_ = 0;
  std::uint64_t bytes_inter_node_ = 0;
  std::uint64_t rmw_bytes_ = 0;
  std::uint64_t io_bytes_ = 0;
  DegradationStats degradation_;
  int num_groups_ = 1;
  sim::SimTime elapsed_ = 0.0;
};

}  // namespace mcio::metrics
