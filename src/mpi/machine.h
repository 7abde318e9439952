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

  /// Interns a communicator group: identical member lists get the same
  /// shared CommGroup, whose node grouping is computed once, by the first
  /// interning rank. The id is a content hash of the member list (top bit
  /// reserved for Comm::dup()'s generated ids), so it does not depend on
  /// which rank interns the group first.
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

  /// Delivers an envelope (arrival already stamped) to a world rank: the
  /// delivery applies as a timed
  /// event at env.arrival, where it matches a posted receive or queues
  /// as unexpected and wakes a parked receiver.
  void deliver(int world_dst, Envelope env);

  /// Transport + delivery of one envelope whose arrival is still
  /// unknown: charges the transport (transfer()) from `start`, then the
  /// delivery applies at its arrival time.
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
  /// `start` and records its arrival stamp.
  void charge_framed(FramedSend& f, bool body, sim::SimTime start);

  /// Delivers the framed envelope of `f` at its body arrival.
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
  /// Stashes `env` in the slab and posts a timed event at env.arrival
  /// carrying its slot; the run's timed handler takes it back out and
  /// calls deliver_now().
  void schedule_delivery(int world_dst, Envelope&& env);
  /// Applies a delivery (no scheduling): to the destination's schedule
  /// for schedule traffic, to its endpoint otherwise.
  void deliver_now(int world_dst, Envelope&& env);

  sim::Cluster cluster_;
  std::vector<Endpoint> endpoints_;
  /// One collective schedule per rank, during run().
  std::vector<Schedule> schedules_;
  /// Envelopes in flight during run().
  EnvelopeSlab slab_;
  /// Interned groups by content hash.
  std::map<std::uint64_t, std::shared_ptr<const CommGroup>> groups_;
  std::shared_ptr<const CommGroup> world_group_;
  sim::Engine* engine_ = nullptr;  // valid during run()
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
