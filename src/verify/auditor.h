// The simulation Auditor: an always-on verification layer over the
// observer events of observer.h.
//
// Invariants checked (see DESIGN.md §8):
//   1. Deadlock diagnosis — a wait-for graph over blocked receives turns
//      an engine deadlock into a diagnostic naming the blocked fibers,
//      the (source, tag) each waits on, any wait cycle, and the memory
//      leases still held.
//   2. Lease ledger — every memory lease granted during a collective is
//      released by the time that collective ends, per (manager, node).
//   3. Byte conservation — within one collective write epoch, every
//      planned byte is written to the PFS exactly once, and every
//      written byte was either planned or pre-read by a
//      read-modify-write; collective reads must read back every planned
//      byte. Virtual-time monotonicity is monitored per fiber.
//   4. Orphan sweep — at end of run no delivered message is left
//      unreceived and no posted receive is left unmatched.
//
// The Auditor is strictly passive (it never touches virtual time), so
// enabling it cannot change simulated results. Violations are recorded
// as structured Findings; in enforcing mode (the default) a run that
// ends with findings throws util::Error listing them, and a deadlock
// diagnostic is appended to the engine's error. Deferred mode
// (set_deferred(true)) accumulates findings for inspection instead —
// used by the auditor's own tests.
//
// Thread safety: one simulation reports from the one thread that runs
// its engine, but the bench/fuzz host pools run simulations on several
// threads and fold their private auditors' counters into the global one
// (absorb_counters()). Every hook therefore serializes on hook_mu_, and
// the executing actor is tracked per thread. Accessors (findings(),
// counters(), report()) are for quiescent use between runs.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "util/extent.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"
#include "verify/observer.h"

namespace mcio::verify {

/// One detected invariant violation.
struct Finding {
  /// Stable machine-readable kind: "deadlock", "lease-leak",
  /// "byte-loss", "byte-duplicate", "unplanned-write", "read-loss",
  /// "time-regression", "orphan-message", "orphan-recv",
  /// "collective-incomplete".
  std::string kind;
  /// Human-readable diagnostic naming the ranks/nodes/extents involved.
  std::string message;
};

/// Monotone event totals, exposed through the benches' --json output
/// (see README "Audit counters").
struct AuditCounters {
  std::uint64_t runs = 0;             ///< Machine::run calls completed
  std::uint64_t slices = 0;           ///< fiber scheduling slices
  std::uint64_t messages = 0;         ///< envelopes delivered
  std::uint64_t unexpected = 0;       ///< deliveries with no posted recv
  std::uint64_t waits = 0;            ///< blocking receive waits
  std::uint64_t lease_grants = 0;     ///< memory leases granted
  std::uint64_t lease_releases = 0;   ///< memory leases released
  std::uint64_t pfs_writes = 0;       ///< PFS write requests
  std::uint64_t pfs_reads = 0;        ///< PFS read requests
  std::uint64_t pfs_bytes_written = 0;
  std::uint64_t pfs_bytes_read = 0;
  std::uint64_t collectives = 0;      ///< collective epochs closed
  std::uint64_t findings = 0;         ///< findings ever recorded

  friend bool operator==(const AuditCounters&,
                         const AuditCounters&) = default;
};

class Auditor final : public Observer {
 public:
  Auditor();
  ~Auditor() override;

  Auditor(const Auditor&) = delete;
  Auditor& operator=(const Auditor&) = delete;

  /// Deferred mode: keep findings for inspection instead of throwing at
  /// on_run_end / embedding-and-dropping at deadlock time.
  void set_deferred(bool deferred) { deferred_ = deferred; }
  bool deferred() const { return deferred_; }

  const std::vector<Finding>& findings() const { return findings_; }
  bool clean() const { return findings_.empty(); }
  void clear_findings() { findings_.clear(); }
  const AuditCounters& counters() const { return counters_; }

  /// Folds another auditor's monotone counters into this one. Safe
  /// against concurrent absorb_counters() calls: parallel bench/fuzz
  /// tasks each audit their own simulation with a private Auditor and
  /// fold its totals into the global instance when they finish — the
  /// sums are commutative, so the global totals are independent of task
  /// completion order (and of --threads entirely).
  void absorb_counters(const AuditCounters& other)
      MCIO_EXCLUDES(hook_mu_);

  /// Multi-line "kind: message" listing of the current findings.
  std::string report() const;

  // Observer overrides.
  void on_engine_start(int num_actors) override;
  void on_actor_resumed(int actor, double clock) override;
  void on_actor_yielded(int actor, double clock) override;
  std::string describe_deadlock(std::span<const int> stuck) override;
  void on_message_delivered(std::uint64_t comm_id, int src, int dst_world,
                            int tag, std::uint64_t bytes,
                            bool matched) override;
  void on_wait_begin(int actor, std::uint64_t comm_id, int src_world,
                     int tag) override;
  void on_wait_end(int actor) override;
  void on_orphan_message(int dst_world, std::uint64_t comm_id, int src,
                         int tag, std::uint64_t bytes) override;
  void on_orphan_recv(int dst_world, std::uint64_t comm_id, int src,
                      int tag) override;
  void on_lease_grant(const void* mgr, int node,
                      std::uint64_t bytes) override;
  void on_lease_release(const void* mgr, int node,
                        std::uint64_t bytes) override;
  void on_manager_destroyed(const void* mgr) override;
  void on_pfs_write(const void* fs, int file, std::uint64_t offset,
                    std::uint64_t len) override;
  void on_pfs_read(const void* fs, int file, std::uint64_t offset,
                   std::uint64_t len) override;
  void on_pfs_destroyed(const void* fs) override;
  void on_collective_begin(const void* fs, int file, bool is_write,
                           int participants, int rank,
                           std::span<const util::Extent> extents) override;
  void on_collective_end(const void* fs, int file, bool is_write,
                         int rank) override;
  void on_run_end() override;
  void on_run_aborted() override;

 private:
  /// One collective operation on one (fs, file, direction), possibly
  /// pipelined with its successor (a rank may finish epoch N and enter
  /// N+1 while slower ranks are still inside N).
  struct Epoch {
    const void* fs = nullptr;
    int file = -1;
    bool is_write = true;
    std::uint64_t seq = 0;
    int participants = 0;
    int begun = 0;
    int ended = 0;
    // Raw event accumulation — O(1) per event on the simulation's hot
    // path; normalized and checked once, when the epoch closes.
    std::vector<util::Extent> planned;  ///< all ranks' plan extents
    std::vector<util::Extent> written;  ///< PFS writes observed
    std::vector<util::Extent> preread;  ///< PFS reads (write RMW / read)
    /// Outstanding lease bytes and grant count per (manager id, node).
    /// Keyed by the dense manager id of mgr_id(), never by the manager
    /// pointer itself: this map is *iterated* when the epoch closes, and
    /// pointer keys would make the finding order ASLR-dependent.
    std::map<std::pair<int, int>, std::pair<std::int64_t, std::uint64_t>>
        leases;
  };

  struct EpochKey {
    const void* fs = nullptr;
    int file = -1;
    bool is_write = true;
    friend auto operator<=>(const EpochKey&, const EpochKey&) = default;
  };

  /// Per-key pipeline of open epochs; a rank's n-th begin on a key
  /// enters epoch base_seq + n.
  struct KeyState {
    std::vector<std::shared_ptr<Epoch>> open;  ///< ascending by seq
    std::uint64_t base_seq = 0;                ///< seq of open.front()
    std::map<int, std::uint64_t> begun_by_rank;
  };

  struct WaitInfo {
    bool waiting = false;
    std::uint64_t comm_id = 0;
    int src_world = -1;
    int tag = -1;
  };

  void add_finding(std::string kind, std::string message)
      MCIO_REQUIRES(hook_mu_);
  /// Dense id of a MemoryManager, assigned in first-observation order —
  /// the deterministic stand-in for the manager's address everywhere a
  /// key can reach an iteration (lease maps, finding messages). A
  /// destroyed manager's slot is cleared, so an allocator reusing its
  /// address yields a fresh id.
  int mgr_id(const void* mgr) MCIO_REQUIRES(hook_mu_);
  /// The innermost open collective `actor` is inside matching (fs, file),
  /// or null.
  Epoch* epoch_for(int actor, const void* fs, int file) const
      MCIO_REQUIRES(hook_mu_);
  /// The innermost open collective `actor` is inside, or null.
  Epoch* innermost_epoch(int actor) const MCIO_REQUIRES(hook_mu_);
  void close_epoch(Epoch& epoch) MCIO_REQUIRES(hook_mu_);
  /// Drops all per-run transient state (open epochs, wait records,
  /// collective stacks, the current actor).
  void reset_transient() MCIO_REQUIRES(hook_mu_);

  bool deferred_ = false;
  // Findings and counters mutate only under hook_mu_; the unlocked
  // accessors above are for quiescent (between-run) inspection.
  std::vector<Finding> findings_;
  AuditCounters counters_;

  // Engine state. The executing actor is per thread: an engine resumes
  // every fiber on the thread that runs it, so simulations on different
  // pool threads cannot clobber each other's attribution of lease/PFS
  // events.
  static thread_local int tl_cur_actor_;
  std::vector<double> last_clock_ MCIO_GUARDED_BY(hook_mu_);
  std::vector<WaitInfo> waits_ MCIO_GUARDED_BY(hook_mu_);

  // Lease ledger across all managers (for deadlock resource reports);
  // epoch-scoped balances live in Epoch::leases. Keyed (manager id,
  // node) — see mgr_id().
  std::map<std::pair<int, int>, std::int64_t> ledger_
      MCIO_GUARDED_BY(hook_mu_);
  /// mgr_id() slots: index = id, value = live manager pointer (null
  /// after on_manager_destroyed). Linear scan — a handful of managers
  /// exist per simulation.
  std::vector<const void*> mgr_slots_ MCIO_GUARDED_BY(hook_mu_);

  /// Serializes every observer hook and absorb_counters() from parallel
  /// bench/fuzz tasks.
  mutable util::Mutex hook_mu_;

  // Collective epochs.
  std::map<EpochKey, KeyState> keys_ MCIO_GUARDED_BY(hook_mu_);
  /// Stack of open collectives per world rank (innermost last).
  std::vector<std::vector<std::shared_ptr<Epoch>>> stacks_
      MCIO_GUARDED_BY(hook_mu_);
};

/// The process-wide Auditor instance behind verify::global_observer().
Auditor& global_auditor();

}  // namespace mcio::verify
