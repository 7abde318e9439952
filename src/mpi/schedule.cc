#include "mpi/schedule.h"

#include <algorithm>
#include <utility>

#include "mpi/machine.h"
#include "sim/engine.h"
#include "util/check.h"

namespace mcio::mpi {

void Schedule::begin(sim::Actor& actor, std::uint64_t comm_id, int rank,
                     int node, int tag, bool framed,
                     std::shared_ptr<const Gathered> result) {
  MCIO_CHECK_MSG(actor_ == nullptr, "collective schedules cannot nest");
  actor_ = &actor;
  comm_id_ = comm_id;
  rank_ = rank;
  node_ = node;
  tag_ = tag;
  framed_ = framed;
  result_ = std::move(result);
  steps_.clear();
  pc_ = 0;
  phase_ = 0;
}

void Schedule::post_recv(int peer, int world, int node) {
  steps_.push_back(Step{Op::kPostRecv, peer, world, node});
}

void Schedule::send(int peer, int world, int node) {
  steps_.push_back(Step{Op::kSend, peer, world, node});
}

void Schedule::wait() { steps_.push_back(Step{Op::kWait}); }

std::shared_ptr<const Gathered> Schedule::run(Machine& machine) {
  if (!advance(machine)) actor_->suspend();
  MCIO_CHECK_EQ(pc_, steps_.size());
  actor_ = nullptr;
  return std::move(result_);
}

Envelope Schedule::envelope() const {
  Envelope env;
  env.comm_id = comm_id_;
  env.src = rank_;
  env.tag = tag_;
  env.scheduled = true;
  return env;
}

void Schedule::take(Envelope&& env) {
  MCIO_CHECK_MSG(env.framed == framed_,
                 (env.framed ? "framed blob delivered into a plain receive"
                             : "plain message consumed by a blob receive")
                     << " (tag " << env.tag << ")");
  posted_ = false;
  done_ = true;
  recv_ = std::move(env);
}

bool Schedule::advance(Machine& machine) {
  const sim::ClusterConfig& cfg = machine.config();
  while (pc_ < steps_.size()) {
    const Step& s = steps_[pc_];
    switch (s.op) {
      case Op::kPostRecv: {
        if (phase_ == 0) {
          phase_ = 1;
          if (!actor_->try_sync_local()) return false;
        }
        const auto it =
            std::find_if(early_.begin(), early_.end(), [&](const Envelope& e) {
              return e.comm_id == comm_id_ && e.src == s.peer &&
                     e.tag == tag_;
            });
        recv_peer_ = s.peer;
        recv_world_ = s.world;
        if (it != early_.end()) {
          take(std::move(*it));
          early_.erase(it);
        } else {
          posted_ = true;
        }
        break;
      }
      case Op::kSend: {
        if (phase_ == 0) {
          phase_ = 1;
          if (!actor_->try_sync_local()) return false;
        }
        if (!framed_) {
          machine.transfer_deliver(node_, s.node, s.world, envelope(),
                                   /*bytes=*/0, actor_->now());
          actor_->advance(cfg.send_overhead);
          break;
        }
        MCIO_CHECK_MSG(result_ != nullptr,
                       "framed schedule sends before it has a result");
        const std::uint64_t size = result_->wire_bytes();
        if (phase_ == 1) {
          // The size header and the body are two passes with a slice
          // boundary between them, as in Comm::send_framed.
          framed_send_ = machine.begin_framed(node_, s.node, s.world, size);
          machine.charge_framed(framed_send_, /*body=*/false, actor_->now());
          actor_->advance(cfg.send_overhead);
          phase_ = 2;
          if (size > 0 && !actor_->try_sync_local()) return false;
        }
        if (size > 0) {
          machine.charge_framed(framed_send_, /*body=*/true, actor_->now());
          actor_->advance(cfg.send_overhead);
        }
        Envelope env = envelope();
        env.body = util::OwnedPayload(util::ConstPayload::virtual_bytes(size));
        env.shared = result_;
        machine.deliver_framed(std::move(framed_send_), std::move(env));
        framed_send_ = FramedSend{};
        break;
      }
      case Op::kWait: {
        while (!done_) {
          // Audited park (see DESIGN.md §8): the deadlock report names
          // the receive this rank blocks on.
          if (!waiting_) {
            machine.observer()->on_wait_begin(actor_->id(), comm_id_,
                                              recv_world_, tag_);
            waiting_ = true;
          }
          if (!actor_->try_park()) return false;
        }
        if (waiting_) {
          machine.observer()->on_wait_end(actor_->id());
          waiting_ = false;
        }
        // Replay of the point-to-point receive charges: the plain
        // receive's, or the framed blob's header then body.
        if (framed_) {
          actor_->advance_to(recv_.header_arrival);
          actor_->advance(cfg.recv_overhead);
          if (recv_.body.size() > 0) {
            actor_->advance_to(recv_.arrival);
            actor_->advance(cfg.recv_overhead);
          }
          MCIO_CHECK_MSG(recv_.shared != nullptr,
                         "byte blob consumed as a shared collective result "
                         "(tag " << tag_ << ")");
          result_ = std::move(recv_.shared);
        } else {
          actor_->advance_to(recv_.arrival);
          actor_->advance(cfg.recv_overhead);
        }
        recv_ = Envelope{};
        done_ = false;
        break;
      }
    }
    ++pc_;
    phase_ = 0;
  }
  return true;
}

void Schedule::deliver(Machine& machine, int self, Envelope&& env) {
  const bool matched = posted_ && env.comm_id == comm_id_ &&
                       env.src == recv_peer_ && env.tag == tag_;
  machine.observer()->on_message_delivered(env.comm_id, env.src, self,
                                           env.tag, env.body.size(), matched);
  if (!matched) {
    early_.push_back(std::move(env));
    return;
  }
  const sim::SimTime arrival = env.arrival;
  take(std::move(env));
  sim::Engine& engine = machine.engine();
  if (waiting_ && engine.is_parked(self)) engine.unpark(self, arrival);
}

}  // namespace mcio::mpi
