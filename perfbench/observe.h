// Outside-in instrumentation for the benchmark: a counting observer tee
// and an in-memory span recorder. Neither touches the simulator's code;
// both sit at the seams the simulator already exposes.
#pragma once

#include <cstdint>
#include <ostream>
#include <span>
#include <string>
#include <vector>

#include "verify/observer.h"

namespace mcio::perfbench {

/// Event counts one traced run accumulates at the observer seam.
struct TeeCounts {
  std::uint64_t slices = 0;      ///< engine scheduling slices
  std::uint64_t messages = 0;    ///< envelopes delivered
  std::uint64_t bytes = 0;       ///< envelope payload bytes delivered
  std::uint64_t unexpected = 0;  ///< deliveries with no posted receive
  std::uint64_t waits = 0;       ///< blocking receive waits
  std::uint64_t lease_grants = 0;
  std::uint64_t pfs_writes = 0;  ///< PFS write requests
  std::uint64_t pfs_reads = 0;   ///< PFS read requests
};

/// Counts every hook it sees and forwards it unchanged to `next` (the
/// global Auditor, or the no-op observer for an unaudited run), so the
/// Auditor's enforcement is exactly what it is without the tee.
class CountingTee final : public verify::Observer {
 public:
  explicit CountingTee(verify::Observer* next)
      : next_(verify::observer_or_noop(next)) {}
  CountingTee(const CountingTee&) = delete;
  CountingTee& operator=(const CountingTee&) = delete;

  const TeeCounts& counts() const { return counts_; }

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
  verify::Observer* next_;
  TeeCounts counts_;
};

/// Installs an observer as the process-wide default for the lifetime of
/// the guard (components capture the default when they are constructed),
/// restoring the previous default afterwards.
class ScopedGlobalObserver {
 public:
  explicit ScopedGlobalObserver(verify::Observer* observer)
      : saved_(verify::global_observer()) {
    verify::set_global_observer(observer);
  }
  ~ScopedGlobalObserver() { verify::set_global_observer(saved_); }
  ScopedGlobalObserver(const ScopedGlobalObserver&) = delete;
  ScopedGlobalObserver& operator=(const ScopedGlobalObserver&) = delete;

 private:
  verify::Observer* saved_;
};

/// Span recorder for the traced run: one span per call the benchmark
/// makes into a layer, kept in memory and written out when the run ends.
/// Disabled recorders cost one branch per span.
class SpanTrace {
 public:
  explicit SpanTrace(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// Opens a span under `parent` (-1 = root) and returns its id (-1 when
  /// disabled). `start` is host seconds from wall_now().
  int open(std::string name, int parent, double start);
  void close(int id, double end);

  /// Writes {"spans": [...]} with times relative to the first span.
  void write_json(std::ostream& os) const;

 private:
  struct Span {
    std::string name;
    int parent = -1;
    double start = 0.0;
    double end = 0.0;
  };
  bool enabled_;
  std::vector<Span> spans_;
};

}  // namespace mcio::perfbench
