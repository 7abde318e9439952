// The generalized two-phase shuffle engine.
//
// Both collective drivers reduce to the same machinery once file domains
// and aggregators are chosen: clients ship the extents of their request to
// each relevant aggregator, then data moves in cb_buffer-sized windows —
// clients→aggregators→PFS for writes, PFS→aggregators→clients for reads.
// The baseline ROMIO driver feeds this engine an even partition with one
// aggregator per node and a fixed buffer; the MCCIO driver feeds it the
// partition-tree domains with memory-aware aggregators and per-domain
// buffers. Sharing the engine means both strategies are compared on
// exactly the same transport mechanics, differing only in the decisions
// the paper is about.
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "io/driver.h"
#include "util/extent.h"

namespace mcio::io {

/// One file domain: a contiguous byte range served by one aggregator with
/// an aggregation buffer of `buffer_bytes`.
struct FileDomain {
  util::Extent extent;
  int aggregator = -1;  ///< rank within the collective communicator
  std::uint64_t buffer_bytes = 0;

  friend bool operator==(const FileDomain&, const FileDomain&) = default;
};

/// One physical node's data ranks (hierarchical mode): the lowest rank is
/// the leader; independent-fallback and idle ranks are excluded.
struct NodeGroup {
  int leader = -1;
  std::vector<int> members;  ///< ascending comm ranks, leader first

  friend bool operator==(const NodeGroup&, const NodeGroup&) = default;
};

/// The decisions a driver hands to the exchange engine. One collective
/// has exactly one: the drivers compute it once from the shared
/// allgather result (mpi/gathered.h) and every rank's exchange holds the
/// same immutable object, sealed by share_plan().
struct ExchangePlan {
  std::vector<FileDomain> domains;  ///< sorted by offset, disjoint
  /// Per-rank request bounds (len 0 = rank has no data). Used to decide
  /// who exchanges extent lists with whom, exactly like ROMIO's
  /// st_offsets/end_offsets arrays.
  std::vector<util::Extent> rank_bounds;
  /// Whether payloads are real bytes (tests) or virtual (paper-scale).
  bool real_data = true;
  /// Number of aggregation groups (metrics only; 1 for the baseline).
  int num_groups = 1;
  /// Ranks degraded to independent I/O (ascending): the degradation
  /// ladder's plan-time last resort (see the rung table below). Their
  /// rank_bounds entries are empty — they take no part in the shuffle —
  /// and the owning driver performs their I/O outside the exchange.
  std::vector<int> independent_ranks;
  /// Plan-time degradation counts (MCCIO): domains remerged away from
  /// memory-poor hosts, and exhausted data-bearing nodes. Rank 0 records
  /// them into the collective's stats.
  std::uint64_t remerges = 0;
  std::uint64_t exhausted_nodes = 0;

  /// Set by share_plan() for the node-leader hierarchy: the data ranks
  /// grouped by node (ascending by leader), and each rank's index into
  /// node_groups (-1 = no data, so no group).
  bool node_leaders = false;
  std::vector<NodeGroup> node_groups;
  std::vector<int> node_group_of;

  void validate(int comm_size) const;

  friend bool operator==(const ExchangePlan&, const ExchangePlan&) = default;
};

/// Seals a plan for sharing: validates it once and, when `node_leaders`
/// is set on a multi-rank communicator, derives the hierarchy's node
/// groups from its rank bounds and the communicator's node grouping.
std::shared_ptr<const ExchangePlan> share_plan(ExchangePlan xplan,
                                               const mpi::Comm& comm,
                                               bool node_leaders);

// The graceful-degradation ladder — authoritative rung table. Every
// other description (collective_stats.h, DESIGN.md §11, bench/README
// docs) refers here. Plan-time steps run in the drivers; rungs 1–5 run
// in TwoPhaseExchange::acquire_buffer and the aggregator data phases.
//
//   plan    remerge        domains merged away from memory-poor hosts
//                          (MCCIO placement, §3.3; plan_remerges)
//   rung 1  retry          exponential backoff, fault_max_retries per
//                          level, capped at fault_attempt_cap total
//                          attempts (lease_retries, lease_retry_giveups)
//   rung 2  revocation     granted backing pulled mid-collective: finish
//           tolerance      at swap speed, data intact (revocations /
//                          donor_revocations for borrowed buffers)
//   rung 3  shrink         halve the buffer down to fault_shrink_floor,
//                          retry budget restarts per level (buffer_shrinks)
//   rung 4  borrow far     lease a full-size window on an elected donor
//           memory         node, reached over the fabric channel; only
//                          with hints.borrow_far_memory (borrows,
//                          borrowed_bytes, borrow_denials)
//   rung 5  spill          forced overcommitted lease: swap-backed
//                          buffer, every byte pages (spills,
//                          spilled_bytes)
//   plan    independent    fully exhausted donor-less groups leave the
//           fallback       exchange and write/read independently
//                          (fallback_ranks, fallback_bytes)

/// Runs one collective write or read. Construct per operation, on every
/// rank, from the collective's one shared plan.
class TwoPhaseExchange {
 public:
  TwoPhaseExchange(CollContext& ctx, const AccessPlan& plan,
                   std::shared_ptr<const ExchangePlan> xplan);

  void write();
  void read();

  /// The degraded protocol ends buffer negotiation with a barrier (see
  /// write()); ranks that skip the exchange for independent-I/O fallback
  /// must still participate, and call this instead of write()/read().
  void fallback_sync();

 private:
  /// Advancing cursor over the local plan's extents; windows must be
  /// queried in increasing file order (amortized O(1) per extent).
  class PieceCursor {
   public:
    explicit PieceCursor(const std::vector<util::Extent>& extents);
    /// Pieces of the plan inside `window` with packed buffer offsets,
    /// replacing `out`'s contents (caller-owned scratch).
    void advance(const util::Extent& window, std::vector<util::Piece>* out);

   private:
    const std::vector<util::Extent>& extents_;
    std::size_t idx_ = 0;
    std::uint64_t buf_prefix_ = 0;
  };

  struct DomainWork {
    int index = -1;  ///< index into xplan_.domains
    /// Per-source clipped extent lists, ascending by source (aggregator
    /// side).
    std::vector<std::pair<int, util::ExtentList>> per_source;
  };

  /// Aggregator-side sweep state for one source: a monotone cursor over
  /// the source's extent list (windows ascend within a domain) and a
  /// reusable clip scratch, replacing a full clipped() rescan per window.
  struct SourceSweep {
    int source = -1;
    util::ExtentCursor cursor;
    util::ExtentList clip;
  };

  /// Outcome of the degradation ladder for one owned domain's aggregation
  /// buffer (fault-injected runs only). The ladder settles the *terms* of
  /// the buffer at negotiation time; the lease itself is taken while the
  /// domain is processed, so memory accounting matches the fault-free
  /// protocol (one domain's buffer held at a time, not all at once).
  struct BufferGrant {
    /// Actual per-window buffer bytes (≤ the planned buffer after
    /// shrinking; may *exceed* it for a borrowed window, which restores
    /// the full planned size).
    std::uint64_t window_bytes = 0;
    /// Virtual seconds after processing starts at which the backing
    /// disappears; infinity = never.
    double revoke_after = std::numeric_limits<double>::infinity();
    bool spilled = false;  ///< ladder bottomed out: swap-backed buffer
    bool revoked = false;  ///< revocation already observed
    /// Rung 4: donor node backing this buffer over the fabric; -1 = the
    /// buffer is local.
    int borrow_donor = -1;
    bool borrowed() const { return borrow_donor >= 0; }
  };

  /// Leader-side state for one domain this node's members touch.
  struct NodeDomain {
    int index = -1;  ///< index into xplan_.domains
    /// Per-member clipped lists, ascending by member rank.
    std::vector<std::pair<int, util::ExtentList>> per_member;
    util::ExtentList merged;  ///< union of the member lists
  };

  // Phase helpers.
  /// The extent-list phase: send (or, for a node leader, the fold of its
  /// members' lists), then receive. Each list is clipped from the plan or
  /// adopted off the wire in one pass; none is re-normalized.
  void exchange_extent_lists();
  /// Flat client or node member: ships the plan's part in each client
  /// domain to its aggregator (flat) or to its leader (hierarchical).
  void send_extent_lists();
  void recv_extent_lists();
  void negotiate_buffers();
  void recv_window_sizes();
  void close_negotiation();
  void client_send_data();
  void aggregator_write();
  void aggregator_read();
  void client_recv_data();

  // Hierarchical (node-leader) stages, active when hints.cb_node_leaders:
  // members move metadata and payloads into their leader over the node's
  // shm channel; only leaders exchange with aggregators. The aggregator
  // phases above are untouched — their sources simply become leaders.
  void build_hierarchy();
  /// Ranks that ship directly to `d`'s aggregator, ascending: every
  /// intersecting rank on the flat path, one leader per intersecting node
  /// on the hierarchical path. Appends to `out`.
  void direct_sources(const FileDomain& d, std::vector<int>* out) const;
  /// Leader: drain member extent lists, merge per domain with its own,
  /// forward the merged lists to the aggregators.
  void leader_collect_extent_lists();
  /// Degraded protocol: leaders take window sizes from aggregators and
  /// fan them out to their members; members take them from their leader.
  void recv_window_sizes_hier();
  /// Leader write stage: per (domain, window) combine member payloads and
  /// its own pieces into one staging buffer, forward merged runs.
  void leader_combine_write();
  /// Leader read stage: per (domain, window) take the merged blob from
  /// the aggregator and scatter member slices over shm.
  void leader_scatter_read();

  /// Runs the degradation ladder (rung table above) for one aggregation
  /// buffer: fault-aware lease attempts with exponential backoff in
  /// virtual time, then shrink-and-retry, then — once local memory is
  /// out — a far-memory borrow when enabled, and finally a forced
  /// swap-backed spill lease. `site` keys the fault schedule (the
  /// domain's file offset); `borrow_want` is the window the borrow rung
  /// tries to restore (the full planned buffer, capped by the domain
  /// extent) before settling for the ladder's current size.
  BufferGrant acquire_buffer(std::uint64_t want, std::uint64_t site,
                             std::uint64_t borrow_want);

  /// Mutable per-domain buffer state shared between the data phases and
  /// handle_revocation: which node backs the window, the lease held on
  /// it, when the fault plan pulls it, and the bandwidth scales derived
  /// from its pressure.
  struct WindowBacking {
    bool borrowed = false;
    int buf_node = -1;
    node::Lease lease;
    double revoke_at = 0.0;
    double copy_scale = 1.0;
    double io_scale = 1.0;
    double fabric_scale = 1.0;
  };

  /// One rung-4 attempt to move `grant`'s backing onto an elected donor
  /// while keeping the negotiated window geometry (sources stream
  /// against the announced window size, so only the backing may move —
  /// always at a window boundary, where the buffer holds no live data).
  /// On grant: swaps the lease to the donor, clears the revoked flag and
  /// refreshes every scale in `b`. Returns false (and counts a
  /// borrow_denial) when no donor grants.
  bool try_reborrow(std::uint64_t site, BufferGrant* grant,
                    WindowBacking* b);

  /// Responds to a mid-collective revocation of `grant`'s backing at a
  /// window boundary (rung 2). With the borrow rung enabled the window
  /// demotes sideways instead of down: the backing migrates to the next
  /// elected donor — local windows and already-borrowed windows alike,
  /// so far-memory churn costs a re-election per revocation. Only when
  /// no donor grants does the window fall to spill semantics, and even
  /// then the data phases keep probing once per round and promote the
  /// window back onto the fabric when a donor reappears. Bounded: at
  /// most one borrow attempt per window round. Updates `b` in place;
  /// data is never at risk because windows are filled and drained whole
  /// from live sources and the file.
  void handle_revocation(std::uint64_t site, BufferGrant* grant,
                         WindowBacking* b);

  int my_rank() const;
  int my_node() const;
  sim::Actor& actor();

  /// Charges a packing/scatter memcpy on `node` and advances the actor.
  void charge_copy(int node, std::uint64_t bytes, double bw_scale);

  /// Charges `bytes` through the donor's far-memory port (borrowed
  /// aggregation buffers: every fill and drain crosses the fabric).
  void charge_fabric(int donor, std::uint64_t bytes, double bw_scale);

  /// Counts one logical message to `dst` (metrics only, no virtual time).
  void count_msg(int dst, std::uint64_t bytes);

  CollContext& ctx_;
  const AccessPlan& plan_;
  std::shared_ptr<const ExchangePlan> shared_plan_;
  const ExchangePlan& xplan_;  ///< *shared_plan_
  int tag_lists_ = 0;
  int tag_data_base_ = 0;
  /// Domains this rank serves as aggregator, ascending by index.
  std::vector<DomainWork> owned_;
  /// Domain indices whose extent intersects this rank's bounds, ascending.
  std::vector<int> client_domains_;

  /// Fault-injected run: aggregation buffers go through the degradation
  /// ladder and their final window sizes are negotiated with the clients
  /// before data moves. False (the exact legacy protocol) when no
  /// FaultPlan is attached.
  bool degraded_ = false;
  int tag_wsize_ = 0;
  /// Ladder outcome per owned domain (parallel to owned_).
  std::vector<BufferGrant> grants_;
  /// Negotiated window bytes per client domain (parallel to
  /// client_domains_).
  std::vector<std::uint64_t> client_window_;

  // --- node-leader hierarchy (hints.cb_node_leaders) ---
  bool hier_ = false;
  int tag_hier_lists_ = 0;
  int tag_hier_wsize_ = 0;
  int tag_hier_data_base_ = 0;
  /// My node's group (data ranks only; empty when I have no data).
  std::vector<int> members_;
  int my_leader_ = -1;
  bool is_leader_ = false;
  /// Leader only: domains any member of my node touches, ascending.
  std::vector<NodeDomain> node_domains_;
  /// Leader only, degraded: negotiated window per node domain.
  std::vector<std::uint64_t> node_window_;
};

}  // namespace mcio::io
