// The simulated parallel machine: cluster resources + message transport +
// rank launcher.
//
// Machine::run() spawns one fiber per MPI rank, hands each a Rank context
// (actor + world communicator) and drives the virtual-time engine to
// completion. Transport costs: inter-node messages traverse the sender's
// NIC egress queue then the receiver's NIC ingress queue; intra-node
// messages cross the shared node memory bus — which is exactly where the
// paper's off-chip bandwidth contention shows up.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "mpi/gathered.h"
#include "mpi/message.h"
#include "mpi/schedule.h"
#include "sim/engine.h"
#include "sim/topology.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"
#include "verify/observer.h"

namespace mcio::mpi {

class Comm;
class Rank;

class Machine {
 public:
  explicit Machine(const sim::ClusterConfig& config);

  sim::Cluster& cluster() { return cluster_; }
  const sim::ClusterConfig& config() const { return cluster_.config(); }

  /// Runs `nranks` rank bodies to completion (nranks defaults to all core
  /// slots). Returns per-rank virtual finish times.
  std::vector<sim::SimTime> run(int nranks,
                                const std::function<void(Rank&)>& body);

  /// Engine shards (worker threads) for subsequent run() calls. Ranks
  /// are partitioned by node, so co-located ranks stay on one shard;
  /// results are bit-identical for any value (DESIGN.md §12).
  void set_sim_shards(int shards);
  int sim_shards() const { return sim_shards_; }

  /// Conservative lookahead (DESIGN.md §14) for subsequent run() calls:
  /// shards advance concurrently inside the topology's latency windows
  /// instead of replaying the global order under one lock. Results stay
  /// bit-identical; needs sim_shards > 1 and a strictly positive
  /// cross-node latency to engage (Engine::lookahead_active() reports
  /// whether it did).
  void set_sim_lookahead(bool lookahead);
  bool sim_lookahead() const { return sim_lookahead_; }

  /// Interns a communicator group: identical member lists get the same
  /// shared CommGroup, whose node grouping is computed once, by the first
  /// interning rank. The id is a content hash of the member list (top bit
  /// reserved for Comm::dup()'s generated ids), so it does not depend on
  /// the interleaving of first-interning ranks across engine shards.
  std::shared_ptr<const CommGroup> intern_group(
      std::vector<int> world_members);

  /// The world group of the current run() (all of its ranks).
  const std::shared_ptr<const CommGroup>& world_group() const {
    return world_group_;
  }

  // --- transport internals (used by Comm) ---

  /// Computes delivery time for `bytes` from src_node to dst_node starting
  /// at `start` and charges the resources involved.
  sim::SimTime transfer(int src_node, int dst_node, std::uint64_t bytes,
                        sim::SimTime start);

  /// Same-node single-copy transfer over the node's shared-memory channel
  /// (the node-leader hierarchy's combine/scatter path). Charges only the
  /// shm queue: the receiver maps the segment, no membus double-pass.
  sim::SimTime shm_transfer(int node, std::uint64_t bytes,
                            sim::SimTime start);

  /// Delivers an envelope (arrival already stamped) to a same-node —
  /// therefore same-shard — world rank: the delivery applies as a timed
  /// event at env.arrival, where it matches a posted receive or queues
  /// as unexpected and wakes a parked receiver.
  void deliver(int world_dst, Envelope env);

  /// Transport + delivery of one envelope whose arrival is still
  /// unknown: charges the source-side leg inline; a cross-node
  /// receiver's NIC ingress is charged on the destination's shard in
  /// stamped mailbox order (so the ingress queue's FIFO matches the
  /// sequenced schedule exactly), then the delivery applies at its
  /// arrival time.
  void transfer_deliver(int src_node, int dst_node, int world_dst,
                        Envelope env, std::uint64_t bytes,
                        sim::SimTime start);

  /// Starts one framed (header/body) send of `size` body bytes from the
  /// executing actor: the two transport passes of the historical
  /// two-message protocol, charged by charge_framed() and delivered as
  /// one envelope by deliver_framed(). Comm::send_framed and the
  /// schedule's framed Send both go through these three calls.
  FramedSend begin_framed(int src_node, int dst_node, int world_dst,
                          std::uint64_t size);

  /// Charges one pass of `f` (the 8-byte size header, or the body) from
  /// `start`: the source-side leg inline, and the destination's ingress
  /// inline too unless it is deferred to the destination's shard.
  void charge_framed(FramedSend& f, bool body, sim::SimTime start);

  /// Delivers the framed envelope of `f` at its body arrival. Deferred
  /// stamps are read on the destination's shard once the sender's
  /// ingress charges have resolved (mailbox FIFO order per shard pair
  /// guarantees they drain first).
  void deliver_framed(FramedSend&& f, Envelope env);

  Endpoint& endpoint(int world_rank);
  sim::Engine& engine();

  /// The collective schedule of `world_rank` (schedule.h), valid during
  /// run().
  Schedule& schedule(int world_rank);

  /// Verification observer for transport and run-lifecycle events (never
  /// null; defaults to verify::global_observer() or a no-op). Also
  /// attached to the engine of each run().
  void set_observer(verify::Observer* observer);
  verify::Observer* observer() const { return observer_; }

 private:
  /// Stashes `env` in the destination shard's slab and posts a timed
  /// event at env.arrival carrying its slot; the run's timed handler
  /// takes it back out and calls deliver_now(). The destination's shard
  /// must be the executing shard.
  void schedule_delivery(int world_dst, Envelope&& env);
  /// Applies a delivery (no scheduling): to the destination's schedule
  /// for schedule traffic, to its endpoint otherwise.
  void deliver_now(int world_dst, Envelope&& env);
  /// The in-flight slab of `world_dst`'s engine shard. A delivery is
  /// stashed and applied only on its target's shard, so each slab has
  /// one owner at a time and needs no lock (DESIGN.md §12).
  EnvelopeSlab& slab_of(int world_dst);
  /// True when the destination's side of a cross-node transport must be
  /// applied through the stamped mailbox instead of inline: always for a
  /// cross-shard receiver, and for every cross-node receiver under
  /// lookahead (the ingress queue's serve order must be the machine-wide
  /// stamp order, not the executing shard's local progress).
  bool defer_ingress(int world_dst) const;

  sim::Cluster cluster_;
  std::vector<Endpoint> endpoints_;
  /// One collective schedule per rank, during run().
  std::vector<Schedule> schedules_;
  /// Envelopes in flight during run(), one slab per engine shard.
  std::vector<EnvelopeSlab> slabs_;
  /// Interned groups by content hash. Guarded: under lookahead, ranks on
  /// different shards intern concurrently.
  std::map<std::uint64_t, std::shared_ptr<const CommGroup>> groups_
      MCIO_GUARDED_BY(group_mu_);
  util::Mutex group_mu_;
  std::shared_ptr<const CommGroup> world_group_;
  sim::Engine* engine_ = nullptr;  // valid during run()
  int sim_shards_ = 1;
  bool sim_lookahead_ = false;
  verify::Observer* observer_;
};

/// Per-rank execution context passed to rank bodies.
class Rank {
 public:
  Rank(Machine& machine, sim::Actor& actor, int world_rank);
  ~Rank();

  Rank(const Rank&) = delete;
  Rank& operator=(const Rank&) = delete;

  int rank() const { return world_rank_; }
  int node() const;
  sim::Actor& actor() { return actor_; }
  Machine& machine() { return machine_; }

  /// World communicator (all ranks of this run).
  Comm& world() { return *world_; }

 private:
  Machine& machine_;
  sim::Actor& actor_;
  int world_rank_;
  std::unique_ptr<Comm> world_;
};

}  // namespace mcio::mpi
