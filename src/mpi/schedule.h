// Collective schedules: the dissemination barrier and the shared-result
// broadcast as data the engine runs, instead of fiber loops over
// point-to-point calls.
//
// A rank's part of one of these collectives is a short list of steps:
//   PostRecv(src)  a slice boundary, then match an early arrival from
//                  `src` or post the receive;
//   Send(dst)      a zero-byte plain message (barrier), or the shared
//                  result as a framed blob of its wire bytes (broadcast),
//                  with the slice boundaries of the point-to-point send;
//   Wait           park until the posted receive matched, then replay the
//                  receive charges (plain, or the framed header + body).
// The fiber builds the list and runs it until it would block, then
// suspends once (sim::Actor::suspend). Later slices of that rank call the
// machine's continuation handler, which runs the list on from where it
// stopped; the fiber resumes inside the slice where the list ends. Each
// step crosses the same slice boundaries, charges the same resources
// through the same Machine calls and emits the same observer events as
// the point-to-point loop it replaces, so every heap key, queue order,
// clock and audit counter is unchanged (DESIGN.md §16).
//
// Schedule traffic carries Envelope::scheduled. Delivery hands it to the
// receiver's schedule: to the posted receive when it matches, else to a
// per-rank early-arrival list that a later PostRecv consumes in arrival
// order. It never enters the Endpoint. The machine checks at run end
// that every early-arrival list is empty.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "mpi/gathered.h"
#include "mpi/message.h"

namespace mcio::sim {
class Actor;
}

namespace mcio::mpi {

class Machine;

/// One rank's collective schedule. Machine keeps one per rank; only that
/// rank's slices and the deliveries addressed to it touch it.
class Schedule {
 public:
  /// Starts a schedule of `actor`, rank `rank` on `node` of communicator
  /// `comm_id`, on collective tag `tag`. A framed schedule sends and
  /// receives the shared result: `result` is set at the broadcast root
  /// and null elsewhere (it arrives with the PostRecv/Wait pair). A
  /// plain one moves zero-byte messages.
  void begin(sim::Actor& actor, std::uint64_t comm_id, int rank, int node,
             int tag, bool framed, std::shared_ptr<const Gathered> result);

  /// Appends a step. `peer` is a communicator rank; `world` and `node`
  /// are its world rank and node.
  void post_recv(int peer, int world, int node);
  void send(int peer, int world, int node);
  void wait();

  /// Runs the schedule on the calling fiber, suspending it at most once.
  /// Returns the shared result (null for a plain schedule) and keeps no
  /// reference to it.
  std::shared_ptr<const Gathered> run(Machine& machine);

  /// Runs steps until the actor's slice must end (false) or the list is
  /// done (true). The fiber's first pass and the continuation handler.
  bool advance(Machine& machine);

  /// Routes one schedule envelope delivered to this rank (`self`).
  void deliver(Machine& machine, int self, Envelope&& env);

  /// Envelopes delivered before their PostRecv and not yet consumed.
  std::size_t early_arrivals() const { return early_.size(); }

 private:
  enum class Op : std::uint8_t { kPostRecv, kSend, kWait };
  struct Step {
    Op op = Op::kWait;
    int peer = -1;
    int world = -1;
    int node = -1;
  };

  /// Completes the posted receive with `env`.
  void take(Envelope&& env);
  Envelope envelope() const;

  sim::Actor* actor_ = nullptr;
  std::uint64_t comm_id_ = 0;
  int rank_ = 0;
  int node_ = 0;
  int tag_ = 0;
  bool framed_ = false;
  std::shared_ptr<const Gathered> result_;

  std::vector<Step> steps_;
  std::size_t pc_ = 0;
  /// Progress inside steps_[pc_]: 0 before its first slice boundary, 1
  /// past it, 2 past a framed Send's header pass.
  int phase_ = 0;
  FramedSend framed_send_;

  /// The one outstanding receive: posted (waiting for a match), then
  /// done with its envelope held until the Wait step replays it.
  bool posted_ = false;
  bool done_ = false;
  int recv_peer_ = -1;
  int recv_world_ = -1;
  Envelope recv_;
  /// Inside a Wait's park loop (between on_wait_begin and on_wait_end).
  bool waiting_ = false;

  std::vector<Envelope> early_;
};

}  // namespace mcio::mpi
