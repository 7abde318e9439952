#include "mpi/comm.h"

#include <algorithm>

#include "mpi/machine.h"
#include "util/check.h"

namespace mcio::mpi {

Comm::Comm(Machine* machine, Rank* owner,
           std::shared_ptr<const CommGroup> group, int my_index,
           std::uint64_t comm_id)
    : machine_(machine),
      owner_(owner),
      group_(std::move(group)),
      my_index_(my_index),
      comm_id_(comm_id) {
  MCIO_CHECK_GE(my_index_, 0);
  MCIO_CHECK_LT(my_index_, size());
  MCIO_CHECK_EQ(group_->members[static_cast<std::size_t>(my_index_)],
                owner_->rank());
}

int Comm::node_of(int crank) const {
  return machine_->cluster().node_of_rank(world_rank(crank));
}

Endpoint& Comm::my_endpoint() {
  return machine_->endpoint(owner_->rank());
}

int Comm::next_coll_tag() {
  return static_cast<int>(0x20000000u +
                          static_cast<std::uint32_t>(coll_seq_++ &
                                                     0x0fffffffu));
}

int Comm::reserve_tags(int n) {
  MCIO_CHECK_GT(n, 0);
  constexpr std::uint64_t kTagSpace = 1ull << 28;
  MCIO_CHECK_MSG(static_cast<std::uint64_t>(n) <= kTagSpace,
                 "cannot reserve " << n << " tags from a " << kTagSpace
                                   << "-tag collective space");
  // A block must stay contiguous inside the 28-bit collective-tag window:
  // wrapping mid-block would alias tags still live in an earlier range
  // (seen at high file-domain counts). Skip to the next window instead.
  // Deterministic, so every rank skips identically.
  const std::uint64_t used = coll_seq_ & (kTagSpace - 1);
  if (used + static_cast<std::uint64_t>(n) > kTagSpace) {
    coll_seq_ += kTagSpace - used;
  }
  const int base = next_coll_tag();
  coll_seq_ += static_cast<std::uint64_t>(n - 1);
  return base;
}

void Comm::send(int dst, int tag, util::ConstPayload data) {
  sim::Actor& actor = owner_->actor();
  actor.sync_local();  // stamp the send in virtual-time order
  const int wdst = world_rank(dst);
  Envelope env;
  env.comm_id = comm_id_;
  env.src = rank();
  env.tag = tag;
  env.body = util::OwnedPayload(data);
  machine_->transfer_deliver(node_of(rank()), node_of(dst), wdst,
                             std::move(env), data.size, actor.now());
  actor.advance(machine_->config().send_overhead);
}

Request Comm::isend(int dst, int tag, util::ConstPayload data) {
  // Buffered-eager transport: the send buffer is copied at post time, so
  // the request is already complete locally.
  send(dst, tag, data);
  Request r;
  r.send_ = true;
  return r;
}

Request Comm::irecv(int src, int tag, util::Payload buf) {
  sim::Actor& actor = owner_->actor();
  actor.sync_local();
  Endpoint& ep = my_endpoint();
  auto slot = ep.acquire_slot();
  slot->comm_id = comm_id_;
  slot->src = src;
  slot->tag = tag;
  slot->buf = buf;
  if (auto env = ep.take_unexpected(comm_id_, src, tag)) {
    fulfill(*slot, std::move(*env));
  } else {
    ep.post(slot);
  }
  Request r;
  r.slot_ = std::move(slot);
  return r;
}

void Comm::recv(int src, int tag, util::Payload buf, Status* status) {
  Request r = irecv(src, tag, buf);
  wait(r, status);
}

void Comm::wait(Request& request, Status* status) {
  MCIO_CHECK_MSG(request.valid(), "wait on an invalid/consumed request");
  if (request.send_) {
    request.send_ = false;
    return;
  }
  sim::Actor& actor = owner_->actor();
  Endpoint& ep = my_endpoint();
  if (!request.slot_->done) {
    // Audited park: the observer is told what this fiber blocks on so a
    // deadlock report can name the missing message (see DESIGN.md §8).
    verify::Observer* obs = machine_->observer();
    const int wsrc = request.slot_->src == kAnySource
                         ? kAnySource
                         : world_rank(request.slot_->src);
    obs->on_wait_begin(owner_->rank(), comm_id_, wsrc, request.slot_->tag);
    while (!request.slot_->done) {
      ++ep.waiting;
      actor.park();
      --ep.waiting;
    }
    obs->on_wait_end(owner_->rank());
  }
  actor.advance_to(request.slot_->status.arrival);
  actor.advance(machine_->config().recv_overhead);
  if (status != nullptr) *status = request.slot_->status;
  ep.release_slot(std::move(request.slot_));
  request.slot_.reset();
}

void Comm::waitall(std::span<Request> requests) {
  for (Request& r : requests) {
    if (r.valid()) wait(r);
  }
}

bool Comm::test(const Request& request) const {
  if (request.send_) return true;
  return request.slot_ == nullptr || request.slot_->done;
}

void Comm::send_blob(int dst, int tag, std::span<const std::byte> blob) {
  send_framed(dst, tag,
              util::OwnedPayload(util::ConstPayload::real(
                  blob.empty() ? nullptr : blob.data(), blob.size())),
              nullptr);
}

void Comm::send_shared(int dst, int tag,
                       const std::shared_ptr<const Gathered>& result) {
  send_framed(dst, tag,
              util::OwnedPayload(
                  util::ConstPayload::virtual_bytes(result->wire_bytes())),
              result);
}

void Comm::send_framed(int dst, int tag, util::OwnedPayload body,
                       std::shared_ptr<const Gathered> shared) {
  sim::Actor& actor = owner_->actor();
  const std::uint64_t size = body.size();
  // Charge both transport passes of the historical two-message protocol
  // (size header, then body) so the simulated clock and resource state
  // are bit-identical; deliver the result as a single framed envelope.
  actor.sync_local();
  FramedSend f =
      machine_->begin_framed(node_of(rank()), node_of(dst), world_rank(dst),
                             size);
  machine_->charge_framed(f, /*body=*/false, actor.now());
  actor.advance(machine_->config().send_overhead);
  if (size > 0) {
    actor.sync_local();
    machine_->charge_framed(f, /*body=*/true, actor.now());
    actor.advance(machine_->config().send_overhead);
  }
  Envelope env;
  env.comm_id = comm_id_;
  env.src = rank();
  env.tag = tag;
  env.body = std::move(body);
  env.shared = std::move(shared);
  machine_->deliver_framed(std::move(f), std::move(env));
}

void Comm::send_shm(int dst, int tag, util::ConstPayload data) {
  sim::Actor& actor = owner_->actor();
  actor.sync_local();
  const int wdst = world_rank(dst);
  const int node = node_of(rank());
  MCIO_CHECK_EQ(node, node_of(dst));
  const sim::SimTime arrival =
      machine_->shm_transfer(node, data.size, actor.now());
  actor.advance(machine_->config().shm_send_overhead);
  Envelope env;
  env.comm_id = comm_id_;
  env.src = rank();
  env.tag = tag;
  env.body = util::OwnedPayload(data);
  env.arrival = arrival;
  machine_->deliver(wdst, std::move(env));
}

void Comm::send_blob_shm(int dst, int tag, std::span<const std::byte> blob) {
  send_framed_shm(dst, tag,
                  util::OwnedPayload(util::ConstPayload::real(
                      blob.empty() ? nullptr : blob.data(), blob.size())),
                  nullptr);
}

void Comm::send_shared_shm(int dst, int tag,
                           const std::shared_ptr<const Gathered>& result) {
  send_framed_shm(
      dst, tag,
      util::OwnedPayload(
          util::ConstPayload::virtual_bytes(result->wire_bytes())),
      result);
}

void Comm::send_framed_shm(int dst, int tag, util::OwnedPayload body,
                           std::shared_ptr<const Gathered> shared) {
  sim::Actor& actor = owner_->actor();
  const int wdst = world_rank(dst);
  const int node = node_of(rank());
  MCIO_CHECK_EQ(node, node_of(dst));
  const std::uint64_t size = body.size();
  // Same two-pass framing as send_blob (header then body) so a receiver
  // cannot tell which channel a blob crossed — only the charged resource
  // differs.
  actor.sync_local();
  const sim::SimTime header_arrival =
      machine_->shm_transfer(node, sizeof(size), actor.now());
  actor.advance(machine_->config().shm_send_overhead);
  sim::SimTime arrival = header_arrival;
  if (size > 0) {
    actor.sync_local();
    arrival = machine_->shm_transfer(node, size, actor.now());
    actor.advance(machine_->config().shm_send_overhead);
  }
  Envelope env;
  env.comm_id = comm_id_;
  env.src = rank();
  env.tag = tag;
  env.body = std::move(body);
  env.framed = true;
  env.shared = std::move(shared);
  env.header_arrival = header_arrival;
  env.arrival = arrival;
  machine_->deliver(wdst, std::move(env));
}

FramedBlob Comm::recv_blob_deferred(int src, int tag) {
  sim::Actor& actor = owner_->actor();
  actor.sync_local();
  Endpoint& ep = my_endpoint();
  auto slot = ep.acquire_slot();
  slot->comm_id = comm_id_;
  slot->src = src;
  slot->tag = tag;
  slot->buf = util::Payload{};
  slot->take = true;
  if (auto env = ep.take_unexpected(comm_id_, src, tag)) {
    fulfill(*slot, std::move(*env));
  } else {
    ep.post(slot);
    // Audited park (see DESIGN.md §8).
    verify::Observer* obs = machine_->observer();
    const int wsrc = src == kAnySource ? kAnySource : world_rank(src);
    obs->on_wait_begin(owner_->rank(), comm_id_, wsrc, tag);
    while (!slot->done) {
      ++ep.waiting;
      actor.park();
      --ep.waiting;
    }
    obs->on_wait_end(owner_->rank());
  }
  Envelope& env = slot->taken;
  FramedBlob out;
  out.source = env.src;
  out.tag = env.tag;
  out.header_arrival = env.header_arrival;
  out.arrival = env.arrival;
  out.size = env.body.size();
  out.shared = std::move(env.shared);
  out.bytes = env.body.release();
  ep.release_slot(std::move(slot));
  return out;
}

void Comm::charge_blob(const FramedBlob& b, Status* status) {
  sim::Actor& actor = owner_->actor();
  // Replay of the two-message receive: header charge, then body charge
  // when the blob is non-empty (an empty blob was header-only).
  actor.advance_to(b.header_arrival);
  actor.advance(machine_->config().recv_overhead);
  Status st{b.source, b.tag, sizeof(std::uint64_t), b.header_arrival};
  if (b.size > 0) {
    actor.advance_to(b.arrival);
    actor.advance(machine_->config().recv_overhead);
    st.arrival = b.arrival;
    st.bytes = b.size;
  }
  if (status != nullptr) *status = st;
}

std::vector<std::byte> Comm::recv_blob(int src, int tag, Status* status) {
  FramedBlob b = recv_blob_deferred(src, tag);
  MCIO_CHECK_MSG(b.shared == nullptr,
                 "shared collective result consumed as bytes (tag " << tag
                                                                    << ")");
  charge_blob(b, status);
  return std::move(b.bytes);
}

std::shared_ptr<const Gathered> Comm::recv_shared(int src, int tag) {
  FramedBlob b = recv_blob_deferred(src, tag);
  MCIO_CHECK_MSG(b.shared != nullptr,
                 "byte blob consumed as a shared collective result (tag "
                     << tag << ")");
  charge_blob(b);
  return std::move(b.shared);
}

Comm Comm::split(int color, int key) {
  MCIO_CHECK_GE(color, 0);
  struct Item {
    int color;
    int key;
    int wrank;
  };
  const auto all = allgather_shared(Item{color, key, owner_->rank()});
  std::vector<Item> mine;
  for (const Item& it : all->as<Item>()) {
    if (it.color == color) mine.push_back(it);
  }
  std::sort(mine.begin(), mine.end(), [](const Item& a, const Item& b) {
    return a.key != b.key ? a.key < b.key : a.wrank < b.wrank;
  });
  std::vector<int> members;
  members.reserve(mine.size());
  int my_index = -1;
  for (const Item& it : mine) {
    if (it.wrank == owner_->rank()) {
      my_index = static_cast<int>(members.size());
    }
    members.push_back(it.wrank);
  }
  MCIO_CHECK_GE(my_index, 0);
  auto group = machine_->intern_group(std::move(members));
  const std::uint64_t id = group->id;
  return Comm(machine_, owner_, std::move(group), my_index, id);
}

Comm Comm::dup() {
  // Collective: rank 0 draws a fresh id (distinct from any interned group
  // id thanks to the high bit) and broadcasts it.
  std::uint64_t id = 0;
  if (rank() == 0) {
    static_assert(sizeof(std::uint64_t) == 8);
    id = (1ull << 63) | (comm_id_ << 20) | (coll_seq_ & 0xfffffu);
  }
  bcast(id, 0);
  return Comm(machine_, owner_, group_, my_index_, id);
}

}  // namespace mcio::mpi
