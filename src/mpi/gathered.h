// Per-collective shared results.
//
// In a ROMIO-style collective every rank derives the same decisions from
// the same allgathered metadata. The simulator runs all ranks in one
// process, so it keeps that metadata once: the gather root parses the
// wire bundle into one immutable, rank-indexed Gathered, and the
// broadcast tree hands every rank a reference to it. The modeled
// messages (count, bytes, tags, order) are those of the byte-copying
// broadcast they replace, so no virtual-time charge moves; only the
// host-side copies go. A value every rank would derive from the result —
// a collective's plan — is memoized on the same object by derive(), so it
// too is computed once per collective. Both die with the last reference.
//
// CommGroup is the per-communicator counterpart: the member list and its
// node grouping, interned once per Machine and shared by every rank's
// Comm handle.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <mutex>
#include <span>
#include <type_traits>
#include <typeinfo>
#include <vector>

#include "util/check.h"

namespace mcio::mpi {

/// One communicator group, interned by Machine::intern_group.
struct CommGroup {
  std::uint64_t id = 0;
  std::vector<int> members;  ///< world ranks, in communicator rank order
  /// Communicator ranks by physical node: each node's ranks ascending,
  /// nodes ordered by their lowest rank (the node leader).
  std::vector<std::vector<int>> node_groups;
  /// node_groups index of every communicator rank.
  std::vector<int> group_of;
};

/// The result of one allgather: one item per rank, immutable once built
/// and shared by reference count across every rank of the communicator.
class Gathered {
 public:
  /// Parses a wire bundle — u64 count, then per item u64 rank, u64 len,
  /// raw bytes, in any rank order — holding exactly one item per rank of
  /// a `comm_size`-rank communicator.
  Gathered(const std::vector<std::byte>& wire, int comm_size);

  int size() const { return static_cast<int>(offsets_.size()) - 1; }
  /// Bytes of the wire bundle: what each broadcast hop models moving.
  std::uint64_t wire_bytes() const { return wire_bytes_; }

  std::span<const std::byte> item(int rank) const {
    MCIO_CHECK_GE(rank, 0);
    MCIO_CHECK_LT(rank, size());
    const auto r = static_cast<std::size_t>(rank);
    return {data_.data() + offsets_[r], offsets_[r + 1] - offsets_[r]};
  }

  /// Every item as a per-rank byte vector (a copy).
  std::vector<std::vector<std::byte>> blobs() const;

  /// Every item as a T, in rank order; each item must be sizeof(T) bytes.
  /// The typed copy is made once, by the first caller, and shared.
  template <typename T>
  std::span<const T> as() const {
    static_assert(std::is_trivially_copyable_v<T>);
    std::call_once(typed_once_, [&] {
      MCIO_CHECK_EQ(item_bytes_, static_cast<std::int64_t>(sizeof(T)));
      auto items = std::make_shared<std::vector<T>>(
          static_cast<std::size_t>(size()));
      if (!items->empty()) {
        std::memcpy(items->data(), data_.data(), data_.size());
      }
      typed_type_ = &typeid(T);
      typed_ = std::move(items);
    });
    MCIO_CHECK_MSG(*typed_type_ == typeid(T),
                   "one allgather result read as two different types");
    return *std::static_pointer_cast<const std::vector<T>>(typed_);
  }

  /// The value derived from this result, computed once: the first caller
  /// runs `make` (returning std::shared_ptr<const R>), every later caller
  /// — on any engine shard's thread — waits for it and shares the same
  /// object. `make` must not yield the calling fiber (a fiber parked
  /// inside the guard would block its shard's thread), and every caller
  /// must ask for the same R: one collective, one derived value.
  template <typename R, typename Make>
  std::shared_ptr<const R> derive(Make&& make) const {
    std::call_once(derive_once_, [&] {
      std::shared_ptr<const R> value = make();
      MCIO_CHECK(value != nullptr);
      derived_type_ = &typeid(R);
      derived_ = std::move(value);
    });
    MCIO_CHECK_MSG(*derived_type_ == typeid(R),
                   "one allgather result derived as two different types");
    return std::static_pointer_cast<const R>(derived_);
  }

 private:
  std::vector<std::byte> data_;         ///< items in rank order
  std::vector<std::uint64_t> offsets_;  ///< size() + 1 item boundaries
  std::uint64_t wire_bytes_ = 0;
  /// Common item size, or -1 when items differ in size.
  std::int64_t item_bytes_ = -1;
  mutable std::once_flag typed_once_;
  mutable std::shared_ptr<const void> typed_;
  mutable const std::type_info* typed_type_ = nullptr;
  mutable std::once_flag derive_once_;
  mutable std::shared_ptr<const void> derived_;
  mutable const std::type_info* derived_type_ = nullptr;
};

}  // namespace mcio::mpi
