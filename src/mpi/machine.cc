#include "mpi/machine.h"

#include "mpi/comm.h"
#include "util/check.h"

namespace mcio::mpi {

Machine::Machine(const sim::ClusterConfig& config)
    : cluster_(config), observer_(verify::default_observer()) {}

void Machine::set_observer(verify::Observer* observer) {
  observer_ = verify::observer_or_noop(observer);
}

std::vector<sim::SimTime> Machine::run(
    int nranks, const std::function<void(Rank&)>& body) {
  MCIO_CHECK_GT(nranks, 0);
  MCIO_CHECK_MSG(nranks <= cluster_.total_ranks(),
                 "nranks " << nranks << " exceeds cluster slots "
                           << cluster_.total_ranks());
  endpoints_.assign(static_cast<std::size_t>(nranks), Endpoint{});
  sim::Engine engine;
  engine.set_observer(observer_);
  // A fresh slab per run: a run that aborted mid-flight leaves stashed
  // envelopes behind.
  slab_ = EnvelopeSlab{};
  engine.set_timed_handler([this](int world_dst, std::uint32_t token) {
    deliver_now(world_dst, slab_.take(token));
  });
  schedules_.clear();
  schedules_.resize(static_cast<std::size_t>(nranks));
  engine.set_continuation_handler([this](int world_rank) {
    return schedules_[static_cast<std::size_t>(world_rank)].advance(*this);
  });
  engine_ = &engine;
  {
    std::vector<int> world(static_cast<std::size_t>(nranks));
    for (int r = 0; r < nranks; ++r) world[static_cast<std::size_t>(r)] = r;
    world_group_ = intern_group(std::move(world));
  }
  for (int r = 0; r < nranks; ++r) {
    engine.spawn([this, r, &body](sim::Actor& actor) {
      Rank rank(*this, actor, r);
      body(rank);
    });
  }
  try {
    engine.run();
  } catch (...) {
    engine_ = nullptr;
    slab_ = EnvelopeSlab{};
    schedules_.clear();
    observer_->on_run_aborted();
    throw;
  }
  engine_ = nullptr;
  slab_ = EnvelopeSlab{};
  // Every collective consumed the schedule messages addressed to it: a
  // leftover early arrival means two ranks disagreed on a collective
  // without deadlocking, which the matching contract rules out.
  for (std::size_t r = 0; r < schedules_.size(); ++r) {
    MCIO_CHECK_MSG(schedules_[r].early_arrivals() == 0,
                   "rank " << r << " ended its run with "
                           << schedules_[r].early_arrivals()
                           << " unconsumed collective schedule messages");
  }
  schedules_.clear();
  // Orphan sweep: every delivered message must have been received and
  // every posted receive matched by the time the run completes.
  for (std::size_t r = 0; r < endpoints_.size(); ++r) {
    const int world = static_cast<int>(r);
    endpoints_[r].for_each_orphan_message([&](const Envelope& env) {
      observer_->on_orphan_message(world, env.comm_id, env.src, env.tag,
                                   env.body.size());
    });
    endpoints_[r].for_each_orphan_recv([&](const RecvSlot& slot) {
      observer_->on_orphan_recv(world, slot.comm_id, slot.src, slot.tag);
    });
  }
  observer_->on_run_end();  // may throw on findings (enforcing mode)
  return engine.finish_times();
}

std::shared_ptr<const CommGroup> Machine::intern_group(
    std::vector<int> world_members) {
  // Content hash (FNV-1a over the member list): the id is a pure
  // function of the membership, so it can never leak the order in which
  // ranks first intern a group into figures or audit keys. The top bit
  // is reserved for Comm::dup()'s generated ids.
  std::uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffu;
      h *= 1099511628211ull;
    }
  };
  mix(static_cast<std::uint64_t>(world_members.size()));
  for (const int m : world_members) {
    mix(static_cast<std::uint64_t>(static_cast<std::uint32_t>(m)));
  }
  h &= ~(1ull << 63);
  if (h == 0) h = 1;
  auto& slot = groups_[h];
  if (slot != nullptr) {
    MCIO_CHECK_MSG(slot->members == world_members,
                   "communicator group hash collision on id " << h);
    return slot;
  }
  auto group = std::make_shared<CommGroup>();
  group->id = h;
  group->members = std::move(world_members);
  // Ranks ascend, so each node's group is created by (and ordered after)
  // its lowest rank: the leader order falls out of one pass.
  const auto n = group->members.size();
  std::vector<int> group_of_node(
      static_cast<std::size_t>(cluster_.num_nodes()), -1);
  group->group_of.resize(n);
  for (std::size_t r = 0; r < n; ++r) {
    const auto node =
        static_cast<std::size_t>(cluster_.node_of_rank(group->members[r]));
    int& gi = group_of_node[node];
    if (gi < 0) {
      gi = static_cast<int>(group->node_groups.size());
      group->node_groups.emplace_back();
    }
    group->node_groups[static_cast<std::size_t>(gi)].push_back(
        static_cast<int>(r));
    group->group_of[r] = gi;
  }
  slot = std::move(group);
  return slot;
}

sim::SimTime Machine::transfer(int src_node, int dst_node,
                               std::uint64_t bytes, sim::SimTime start) {
  const auto fbytes = static_cast<double>(bytes);
  if (src_node == dst_node) {
    // Intra-node: one pass over the shared off-chip memory bus.
    return cluster_.membus(src_node).serve(start, fbytes);
  }
  const sim::SimTime sent =
      cluster_.nic_out(src_node).serve(start, fbytes);
  return cluster_.nic_in(dst_node).serve(sent, fbytes);
}

sim::SimTime Machine::shm_transfer(int node, std::uint64_t bytes,
                                   sim::SimTime start) {
  return cluster_.shm(node).serve(start, static_cast<double>(bytes));
}

void Machine::transfer_deliver(int src_node, int dst_node, int world_dst,
                               Envelope env, std::uint64_t bytes,
                               sim::SimTime start) {
  env.arrival = transfer(src_node, dst_node, bytes, start);
  schedule_delivery(world_dst, std::move(env));
}

FramedSend Machine::begin_framed(int src_node, int dst_node, int world_dst,
                                 std::uint64_t size) {
  FramedSend f;
  f.src_node = src_node;
  f.dst_node = dst_node;
  f.world_dst = world_dst;
  f.size = size;
  return f;
}

void Machine::charge_framed(FramedSend& f, bool body, sim::SimTime start) {
  (body ? f.arrival : f.header_arrival) =
      transfer(f.src_node, f.dst_node, body ? f.size : sizeof(std::uint64_t),
               start);
}

void Machine::deliver_framed(FramedSend&& f, Envelope env) {
  env.framed = true;
  env.header_arrival = f.header_arrival;
  env.arrival = f.size > 0 ? f.arrival : f.header_arrival;
  schedule_delivery(f.world_dst, std::move(env));
}

void Machine::deliver(int world_dst, Envelope env) {
  schedule_delivery(world_dst, std::move(env));
}

void Machine::schedule_delivery(int world_dst, Envelope&& env) {
  // Deliveries apply at their arrival virtual time, keyed (arrival,
  // stamping actor, seq), which fixes any-source matching and
  // unexpected-queue contents.
  MCIO_CHECK_MSG(engine_ != nullptr, "delivery outside run()");
  const sim::SimTime arrival = env.arrival;
  engine_->post_at(world_dst, arrival, slab_.stash(std::move(env)));
}

void Machine::deliver_now(int world_dst, Envelope&& env) {
  if (env.scheduled) {
    schedules_[static_cast<std::size_t>(world_dst)].deliver(*this, world_dst,
                                                            std::move(env));
    return;
  }
  Endpoint& ep = endpoint(world_dst);
  const sim::SimTime arrival = env.arrival;
  const std::shared_ptr<RecvSlot> slot = ep.match_posted(env);
  observer_->on_message_delivered(env.comm_id, env.src, world_dst, env.tag,
                                  env.body.size(),
                                  /*matched=*/slot != nullptr);
  if (slot) {
    fulfill(*slot, std::move(env));
    if (ep.waiting > 0 && engine_ != nullptr &&
        engine_->is_parked(world_dst)) {
      engine_->unpark(world_dst, arrival);
    }
    return;
  }
  ep.push_unexpected(std::move(env));
}

Endpoint& Machine::endpoint(int world_rank) {
  return endpoints_.at(static_cast<std::size_t>(world_rank));
}

Schedule& Machine::schedule(int world_rank) {
  return schedules_.at(static_cast<std::size_t>(world_rank));
}

sim::Engine& Machine::engine() {
  MCIO_CHECK_MSG(engine_ != nullptr, "engine only valid during run()");
  return *engine_;
}

Rank::Rank(Machine& machine, sim::Actor& actor, int world_rank)
    : machine_(machine), actor_(actor), world_rank_(world_rank) {
  const auto& group = machine.world_group();
  world_ = std::unique_ptr<Comm>(
      new Comm(&machine, this, group, world_rank, group->id));
}

Rank::~Rank() = default;

int Rank::node() const {
  return machine_.cluster().node_of_rank(world_rank_);
}

}  // namespace mcio::mpi
