// Communicators: point-to-point messaging and collectives.
//
// The API mirrors the MPI subset ROMIO's collective I/O machinery uses.
// All operations are byte-oriented; typed helpers (allgather<T> etc.) wrap
// them for trivially copyable metadata.
#pragma once

#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <type_traits>
#include <vector>

#include "mpi/gathered.h"
#include "mpi/message.h"
#include "util/payload.h"

namespace mcio::mpi {

class Machine;
class Rank;

/// Handle for a non-blocking operation. Send requests complete at post
/// time (buffered-eager transport); receive requests complete on match.
class Request {
 public:
  Request() = default;
  bool valid() const { return slot_ != nullptr || send_; }

 private:
  friend class Comm;
  std::shared_ptr<RecvSlot> slot_;  // null for send requests
  bool send_ = false;
};

/// A received variable-size blob plus the virtual arrival times of its
/// size header and body, so the receive cost can be charged later (and in
/// a different order than the blobs were drained in).
struct FramedBlob {
  int source = kAnySource;  ///< rank within the communicator
  int tag = 0;
  std::vector<std::byte> bytes;  ///< empty for a shared-result blob
  std::uint64_t size = 0;        ///< modeled body bytes
  std::shared_ptr<const Gathered> shared;
  sim::SimTime header_arrival = 0.0;
  sim::SimTime arrival = 0.0;  ///< body arrival (== header for empty blobs)
};

class Comm {
 public:
  int rank() const { return my_index_; }
  int size() const { return static_cast<int>(group_->members.size()); }

  /// World rank of a rank in this communicator.
  int world_rank(int crank) const {
    MCIO_CHECK_GE(crank, 0);
    MCIO_CHECK_LT(crank, size());
    return group_->members[static_cast<std::size_t>(crank)];
  }
  /// Physical node hosting a rank of this communicator.
  int node_of(int crank) const;
  /// This communicator's ranks by physical node (each node's ranks
  /// ascending, nodes ordered by leader = lowest rank). Computed once per
  /// communicator group and shared by every rank's handle.
  const std::vector<std::vector<int>>& node_groups() const {
    return group_->node_groups;
  }

  // --- point-to-point ---
  void send(int dst, int tag, util::ConstPayload data);
  Request isend(int dst, int tag, util::ConstPayload data);
  void recv(int src, int tag, util::Payload buf, Status* status = nullptr);
  Request irecv(int src, int tag, util::Payload buf);
  void wait(Request& request, Status* status = nullptr);
  void waitall(std::span<Request> requests);
  /// True when the request has completed (non-blocking poll).
  bool test(const Request& request) const;

  /// Sends a variable-size byte blob as one framed message. The virtual
  /// time charged is identical to the historical two-message protocol
  /// (8-byte size header then body on the same tag): both transport
  /// passes still run, but only one envelope is delivered and matched.
  void send_blob(int dst, int tag, std::span<const std::byte> blob);
  /// Receives a blob of unknown size (kAnySource allowed).
  std::vector<std::byte> recv_blob(int src, int tag,
                                   Status* status = nullptr);
  /// Matches the next framed blob *without* advancing virtual time; pair
  /// with charge_blob(). Lets a drain loop collect blobs in arrival order
  /// yet charge their receive cost in a canonical order, keeping the
  /// simulated clock independent of arrival interleaving.
  FramedBlob recv_blob_deferred(int src, int tag);
  /// Replays the virtual-time cost of receiving `b` (header then body).
  void charge_blob(const FramedBlob& b, Status* status = nullptr);

  /// Same-node variants of send/send_blob moving the payload over the
  /// node's shared-memory channel instead of the membus/NIC transport —
  /// the modeled single-copy path of the node-leader hierarchy. The
  /// destination must live on the sender's node. Received with the normal
  /// recv/recv_blob family.
  void send_shm(int dst, int tag, util::ConstPayload data);
  void send_blob_shm(int dst, int tag, std::span<const std::byte> blob);

  // --- collectives (must be called by every rank of the communicator in
  //     the same order) ---
  void barrier();
  void bcast_bytes(util::Payload data, int root);
  /// Variable-size gather: returns one blob per rank at root (empty
  /// elsewhere). Blobs are real bytes; metadata is always real.
  std::vector<std::vector<std::byte>> gather_blobs(
      std::span<const std::byte> mine, int root);
  /// Variable-size allgather (gather + bcast of the concatenation).
  std::vector<std::vector<std::byte>> allgather_blobs(
      std::span<const std::byte> mine);
  /// Binomial broadcast of a shared result (gathered.h) from `root`:
  /// every rank returns the root's object, and each hop models moving
  /// its wire bytes. `result` is ignored off the root.
  std::shared_ptr<const Gathered> bcast_shared(
      std::shared_ptr<const Gathered> result, int root);

  /// Allgather returning the one result object every rank of the
  /// communicator shares (gathered.h); `hier` takes the node-leader
  /// route. Read it with Gathered::as<T>().
  template <typename T>
  std::shared_ptr<const Gathered> allgather_shared(const T& v,
                                                   bool hier = false);

  // Typed helpers for trivially copyable metadata.
  template <typename T>
  std::vector<T> allgather(const T& v);
  template <typename T>
  std::vector<T> gather(const T& v, int root);
  template <typename T>
  void bcast(T& v, int root);
  template <typename T>
  std::vector<std::vector<T>> allgatherv(std::span<const T> mine);

  double allreduce_max(double v);
  double allreduce_sum(double v);
  std::int64_t allreduce_max(std::int64_t v);
  std::int64_t allreduce_sum(std::int64_t v);

  /// All-to-all of variable blobs: out[src] is the blob `src` addressed to
  /// me (to_each needs size() entries; empty entries arrive empty).
  std::vector<std::vector<std::byte>> alltoallv_blobs(
      std::span<const std::vector<std::byte>> to_each);

  // --- hierarchical (node-leader) collectives ---
  // Intra-node legs ride the shm channel into the node's lowest rank, only
  // leaders take the inter-node binomial step, and results fan back out
  // over shm. Results are identical to the flat variants; only the modeled
  // traffic pattern differs. Same collective-call discipline applies.
  std::vector<std::vector<std::byte>> allgather_blobs_hier(
      std::span<const std::byte> mine);
  template <typename T>
  std::vector<T> allgather_hier(const T& v);
  double allreduce_max_hier(double v);
  std::int64_t allreduce_max_hier(std::int64_t v);
  std::vector<std::vector<std::byte>> alltoallv_blobs_hier(
      std::span<const std::vector<std::byte>> to_each);

  /// Reserves `n` consecutive tags from the collective tag space and
  /// returns the first. Collective in the weak sense: every rank must
  /// reserve the same counts in the same order (drivers do).
  int reserve_tags(int n);

  /// Splits into sub-communicators by color; ranks ordered by (key, rank).
  /// Every rank must participate (use color >= 0).
  Comm split(int color, int key);

  /// Duplicate handle (same group, fresh collective-sequence space).
  Comm dup();

 private:
  friend class Rank;
  friend class Machine;

  Comm(Machine* machine, Rank* owner, std::shared_ptr<const CommGroup> group,
       int my_index, std::uint64_t comm_id);

  int next_coll_tag();
  Endpoint& my_endpoint();

  // Framed-blob transport shared by send_blob/send_shared (and their shm
  // twins): identical charges, the body either copied bytes or a
  // size-only payload carrying `shared`.
  void send_framed(int dst, int tag, util::OwnedPayload body,
                   std::shared_ptr<const Gathered> shared);
  void send_framed_shm(int dst, int tag, util::OwnedPayload body,
                       std::shared_ptr<const Gathered> shared);
  /// Sends `result` as a framed blob of result->wire_bytes() modeled
  /// bytes without copying them.
  void send_shared(int dst, int tag,
                   const std::shared_ptr<const Gathered>& result);
  void send_shared_shm(int dst, int tag,
                       const std::shared_ptr<const Gathered>& result);
  std::shared_ptr<const Gathered> recv_shared(int src, int tag);

  // Gathers move one flat wire bundle (u64 count, then per item u64
  // rank, u64 len, raw bytes) up a binomial tree; the root parses it once
  // into a Gathered, which bcast_shared hands down by reference.
  std::vector<std::byte> tree_gather_wire(int tag, int root,
                                          std::span<const std::byte> mine);
  /// The one allgather path: flat (binomial gather at rank 0, binomial
  /// bcast) or node-leader hierarchical.
  std::shared_ptr<const Gathered> allgather_bytes(
      std::span<const std::byte> mine, bool hier);
  std::shared_ptr<const Gathered> allgather_bytes_hier(
      std::span<const std::byte> mine);
  /// Gather at `root`: the parsed result there, null elsewhere.
  std::shared_ptr<const Gathered> gather_bytes(
      std::span<const std::byte> mine, int root);

  Machine* machine_;
  Rank* owner_;
  std::shared_ptr<const CommGroup> group_;
  int my_index_;
  std::uint64_t comm_id_;
  std::uint64_t coll_seq_ = 0;
};

// --- template implementations ---

template <typename T>
std::shared_ptr<const Gathered> Comm::allgather_shared(const T& v,
                                                       bool hier) {
  static_assert(std::is_trivially_copyable_v<T>);
  return allgather_bytes(
      std::span<const std::byte>(reinterpret_cast<const std::byte*>(&v),
                                 sizeof(T)),
      hier);
}

template <typename T>
std::vector<T> Comm::allgather(const T& v) {
  const auto all = allgather_shared(v);
  const auto items = all->template as<T>();
  return std::vector<T>(items.begin(), items.end());
}

template <typename T>
std::vector<T> Comm::allgather_hier(const T& v) {
  const auto all = allgather_shared(v, /*hier=*/true);
  const auto items = all->template as<T>();
  return std::vector<T>(items.begin(), items.end());
}

template <typename T>
std::vector<T> Comm::gather(const T& v, int root) {
  static_assert(std::is_trivially_copyable_v<T>);
  const auto all = gather_bytes(
      std::span<const std::byte>(reinterpret_cast<const std::byte*>(&v),
                                 sizeof(T)),
      root);
  if (all == nullptr) return {};
  const auto items = all->as<T>();
  return std::vector<T>(items.begin(), items.end());
}

template <typename T>
void Comm::bcast(T& v, int root) {
  static_assert(std::is_trivially_copyable_v<T>);
  bcast_bytes(util::Payload::real(reinterpret_cast<std::byte*>(&v),
                                  sizeof(T)),
              root);
}

template <typename T>
std::vector<std::vector<T>> Comm::allgatherv(std::span<const T> mine) {
  static_assert(std::is_trivially_copyable_v<T>);
  const auto all = allgather_bytes(
      std::span<const std::byte>(
          reinterpret_cast<const std::byte*>(mine.data()), mine.size_bytes()),
      /*hier=*/false);
  std::vector<std::vector<T>> out(static_cast<std::size_t>(all->size()));
  for (int r = 0; r < all->size(); ++r) {
    const auto item = all->item(r);
    MCIO_CHECK_EQ(item.size() % sizeof(T), 0u);
    auto& dst = out[static_cast<std::size_t>(r)];
    dst.resize(item.size() / sizeof(T));
    if (!item.empty()) std::memcpy(dst.data(), item.data(), item.size());
  }
  return out;
}

}  // namespace mcio::mpi
