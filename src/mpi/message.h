// Message envelopes, receive slots and per-rank endpoints.
//
// Matching follows MPI semantics: a receive matches the first envelope in
// arrival order with the same communicator whose (source, tag) fit the
// receive's (possibly wildcard) selectors; per-(source,tag) ordering is
// FIFO. The endpoint keeps hash-bucketed queues keyed on
// (comm_id, src, tag) so the common cases — fully specified receives and
// any-source receives with a concrete tag — match in O(1) instead of a
// linear scan over everything queued. Arrival/post sequence numbers
// arbitrate between buckets so the matched message/receive is exactly the
// one the old linear scans would have picked.
//
// Containers here sit on the per-message hot path, so they are chosen to
// avoid per-element heap nodes: buckets live in an open-addressed table,
// queues are vector-backed rings, and the unexpected store is a deque
// indexed directly by arrival sequence.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <vector>

#include "sim/time.h"
#include "util/payload.h"

namespace mcio::mpi {

class Gathered;

inline constexpr int kAnySource = -1;
inline constexpr int kAnyTag = -1;

struct Status {
  int source = kAnySource;  ///< rank within the communicator
  int tag = kAnyTag;
  std::uint64_t bytes = 0;
  sim::SimTime arrival = 0.0;  ///< virtual time data was fully delivered
};

/// A message in flight or queued as unexpected.
struct Envelope {
  std::uint64_t comm_id = 0;
  int src = 0;  ///< source rank within the communicator
  int tag = 0;
  util::OwnedPayload body;
  sim::SimTime arrival = 0.0;
  /// Framed blob (send_blob): the body carries a variable-size payload
  /// whose size header virtually arrived at `header_arrival` — the
  /// receive side replays the old header+body charge pair from these.
  bool framed = false;
  /// Collective schedule traffic (schedule.h): delivery hands it to the
  /// receiver's schedule, never to its Endpoint.
  bool scheduled = false;
  sim::SimTime header_arrival = 0.0;
  /// Shared collective result riding a framed envelope in place of its
  /// bytes (the body is then a size-only payload): see gathered.h.
  std::shared_ptr<const Gathered> shared;
};

/// One framed send between its transport passes (Machine::begin_framed),
/// with the arrival stamp of each pass charged so far.
struct FramedSend {
  int src_node = 0;
  int dst_node = 0;
  int world_dst = 0;
  std::uint64_t size = 0;  ///< body bytes (the size header is 8)
  sim::SimTime header_arrival = 0.0;
  sim::SimTime arrival = 0.0;
};

/// A posted (possibly pending) receive.
struct RecvSlot {
  std::uint64_t comm_id = 0;
  int src = kAnySource;
  int tag = kAnyTag;
  util::Payload buf;
  /// Blob receive: takes ownership of the whole (framed) envelope instead
  /// of copying into `buf`.
  bool take = false;
  Envelope taken;
  bool done = false;
  Status status;

  bool matches(const Envelope& e) const {
    return comm_id == e.comm_id && (src == kAnySource || src == e.src) &&
           (tag == kAnyTag || tag == e.tag);
  }
};

/// Completes a matched receive with `env`: copies bytes (or takes the
/// envelope for blob receives), fills the status and marks it done.
/// Shared by delivery (posted match) and irecv (unexpected match).
inline void fulfill(RecvSlot& slot, Envelope&& env) {
  slot.status = Status{env.src, env.tag, env.body.size(), env.arrival};
  if (slot.take) {
    MCIO_CHECK_MSG(env.framed,
                   "plain message consumed by a blob receive (tag "
                       << env.tag << ")");
    slot.taken = std::move(env);
  } else {
    MCIO_CHECK_MSG(!env.framed,
                   "framed blob delivered into a plain receive (tag "
                       << env.tag << ")");
    MCIO_CHECK_MSG(env.body.size() <= slot.buf.size,
                   "message (" << env.body.size()
                               << " B) overflows receive buffer ("
                               << slot.buf.size << " B)");
    MCIO_CHECK_MSG(!(slot.buf.data != nullptr && env.body.is_virtual()),
                   "virtual message delivered into a real buffer");
    if (env.body.size() > 0) {
      util::copy_payload(slot.buf.slice(0, env.body.size()),
                         env.body.view());
    }
  }
  slot.done = true;
}

/// Pooled storage for envelopes in flight between their send and their
/// delivery event: the engine's timed event carries only the slot index
/// (DESIGN.md §5). Slots live in fixed-size chunks that never move, so
/// growth copies no envelope and keeps no doubling slack; freed slots
/// are reused last-in first-out, which keeps the working set warm.
class EnvelopeSlab {
 public:
  /// Moves `env` into a free slot and returns its index.
  std::uint32_t stash(Envelope&& env) {
    std::uint32_t i = 0;
    if (!free_.empty()) {
      i = free_.back();
      free_.pop_back();
    } else {
      MCIO_CHECK_MSG(size_ < UINT32_MAX, "envelope slab exhausted");
      i = size_++;
      if ((i & kChunkMask) == 0) {
        chunks_.push_back(std::make_unique<Envelope[]>(kChunk));
      }
    }
    at(i) = std::move(env);
    return i;
  }

  /// Moves the envelope out of slot `i` and frees the slot. The
  /// moved-from slot keeps no payload bytes or shared result alive.
  Envelope take(std::uint32_t i) {
    free_.push_back(i);
    return std::move(at(i));
  }

  /// Slots currently holding an envelope.
  std::size_t in_flight() const { return size_ - free_.size(); }

 private:
  static constexpr std::uint32_t kChunkShift = 8;
  static constexpr std::uint32_t kChunk = 1u << kChunkShift;
  static constexpr std::uint32_t kChunkMask = kChunk - 1;

  Envelope& at(std::uint32_t i) {
    return chunks_[i >> kChunkShift][i & kChunkMask];
  }

  std::vector<std::unique_ptr<Envelope[]>> chunks_;
  std::vector<std::uint32_t> free_;
  std::uint32_t size_ = 0;  ///< slots ever handed out (high-water mark)
};

/// Hash key for one matching bucket. Wildcard-tag traffic never lands in a
/// bucket (it scans in sequence order), so `tag` is always concrete; `src`
/// is kAnySource in the any-source index.
struct MatchKey {
  std::uint64_t comm_id = 0;
  int src = 0;
  int tag = 0;

  friend bool operator==(const MatchKey&, const MatchKey&) = default;
};

struct MatchKeyHash {
  std::size_t operator()(const MatchKey& k) const {
    // Mix the three fields; splitmix64-style finalizer.
    std::uint64_t h = k.comm_id;
    h ^= (static_cast<std::uint64_t>(static_cast<std::uint32_t>(k.src))
          << 32) |
         static_cast<std::uint32_t>(k.tag);
    h += 0x9e3779b97f4a7c15ull;
    h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ull;
    h = (h ^ (h >> 27)) * 0x94d049bb133111ebull;
    return static_cast<std::size_t>(h ^ (h >> 31));
  }
};

/// Vector-backed FIFO: push at the tail, pop by advancing a head index.
/// Capacity is retained across drain cycles, so a steady-state queue stops
/// allocating entirely (std::deque pays a chunk allocation per cycle).
template <typename T>
class RingFifo {
 public:
  bool empty() const { return head_ == items_.size(); }
  T& front() { return items_[head_]; }
  const T& front() const { return items_[head_]; }
  void push_back(T v) { items_.push_back(std::move(v)); }
  void pop_front() {
    if (++head_ == items_.size()) {
      items_.clear();
      head_ = 0;
    }
  }

  /// Visits queued entries front to back (audit sweeps).
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (std::size_t i = head_; i < items_.size(); ++i) fn(items_[i]);
  }

 private:
  std::vector<T> items_;
  std::size_t head_ = 0;
};

/// Open-addressed hash map from MatchKey to a queue type. Collective tags
/// are never reused, so buckets are born and die constantly: node-based
/// maps pay an allocation per bucket lifetime, while this table marks dead
/// cells as tombstones (keeping the queue's capacity for the next tenant)
/// and compacts them away on rehash.
template <typename V>
class MatchMap {
 public:
  V* find(const MatchKey& k) {
    if (cells_.empty()) return nullptr;
    std::size_t i = MatchKeyHash{}(k) & mask_;
    while (true) {
      Cell& c = cells_[i];
      if (c.state == kEmpty) return nullptr;
      if (c.state == kLive && c.key == k) return &c.value;
      i = (i + 1) & mask_;
    }
  }

  /// The live value for `k`, inserting an empty one if absent.
  V& get_or_create(const MatchKey& k) {
    if (8 * (used_ + 1) > 5 * cells_.size()) grow();
    std::size_t i = MatchKeyHash{}(k) & mask_;
    std::size_t first_tomb = SIZE_MAX;
    while (true) {
      Cell& c = cells_[i];
      if (c.state == kEmpty) {
        const std::size_t at = first_tomb != SIZE_MAX ? first_tomb : i;
        Cell& dst = cells_[at];
        if (dst.state == kEmpty) ++used_;  // tombstones stay counted
        dst.key = k;
        dst.state = kLive;
        ++live_;
        return dst.value;  // empty: fresh, or drained by the last tenant
      }
      if (c.state == kLive && c.key == k) return c.value;
      if (c.state == kTomb && first_tomb == SIZE_MAX) first_tomb = i;
      i = (i + 1) & mask_;
    }
  }

  /// Marks `k` dead. Only called once its queue has drained, so the cell's
  /// value (and its capacity) can be handed to the next key that probes
  /// here.
  void erase(const MatchKey& k) {
    std::size_t i = MatchKeyHash{}(k) & mask_;
    while (true) {
      Cell& c = cells_[i];
      if (c.state == kLive && c.key == k) {
        c.state = kTomb;
        --live_;
        return;
      }
      if (c.state == kEmpty) return;
      i = (i + 1) & mask_;
    }
  }

  /// Visits every live (key, value) cell, in table order (audit sweeps —
  /// deterministic because the hash mixes only message metadata).
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const Cell& c : cells_) {
      if (c.state == kLive) fn(c.key, c.value);
    }
  }

 private:
  enum : std::uint8_t { kEmpty = 0, kLive = 1, kTomb = 2 };

  struct Cell {
    MatchKey key;
    V value;
    std::uint8_t state = kEmpty;
  };

  void grow() {
    // Double when genuinely full; rehash in place when tombstones are the
    // bulk of the load.
    std::size_t n = cells_.empty() ? 64 : cells_.size();
    if (4 * live_ >= cells_.size()) n *= 2;
    std::vector<Cell> old = std::move(cells_);
    cells_.assign(n, Cell{});
    mask_ = n - 1;
    used_ = live_;
    for (Cell& c : old) {
      if (c.state != kLive) continue;
      std::size_t i = MatchKeyHash{}(c.key) & mask_;
      while (cells_[i].state != kEmpty) i = (i + 1) & mask_;
      cells_[i].key = c.key;
      cells_[i].value = std::move(c.value);
      cells_[i].state = kLive;
    }
  }

  std::vector<Cell> cells_;
  std::size_t mask_ = 0;
  std::size_t live_ = 0;
  std::size_t used_ = 0;  ///< live + tombstone cells
};

/// Per-world-rank message state: the unexpected-message and posted-receive
/// queues, bucketed for O(1) matching.
class Endpoint {
 public:
  /// Number of wait() loops currently parked on this endpoint.
  int waiting = 0;

  /// Queues an envelope that matched no posted receive.
  void push_unexpected(Envelope&& env) {
    const std::uint64_t seq =
        store_base_ + static_cast<std::uint64_t>(unexpected_.size());
    unexpected_exact_.get_or_create(MatchKey{env.comm_id, env.src, env.tag})
        .push_back(seq);
    unexpected_anysrc_
        .get_or_create(MatchKey{env.comm_id, kAnySource, env.tag})
        .push_back(seq);
    unexpected_.push_back(Stored{std::move(env), false});
  }

  /// Removes and returns the first queued envelope (in arrival order)
  /// matching (comm_id, src, tag); wildcards allowed. nullopt if none.
  std::optional<Envelope> take_unexpected(std::uint64_t comm_id, int src,
                                          int tag) {
    if (tag == kAnyTag) {
      // Rare path: scan the store in arrival order.
      for (std::size_t i = 0; i < unexpected_.size(); ++i) {
        Stored& s = unexpected_[i];
        if (s.taken) continue;
        if (s.env.comm_id == comm_id &&
            (src == kAnySource || s.env.src == src)) {
          return take_at(i);
        }
      }
      return std::nullopt;
    }
    auto& index = src == kAnySource ? unexpected_anysrc_ : unexpected_exact_;
    const MatchKey key{comm_id, src, tag};
    auto* q = index.find(key);
    if (q == nullptr) return std::nullopt;
    // Entries consumed through another index (or a wildcard-tag scan)
    // stay behind as stale sequence numbers; skip them lazily.
    while (!q->empty()) {
      const std::uint64_t seq = q->front();
      q->pop_front();
      if (seq < store_base_) continue;
      const auto i = static_cast<std::size_t>(seq - store_base_);
      if (unexpected_[i].taken) continue;
      if (q->empty()) index.erase(key);
      return take_at(i);
    }
    index.erase(key);
    return std::nullopt;
  }

  /// Registers a pending receive.
  void post(std::shared_ptr<RecvSlot> slot) {
    const std::uint64_t seq = post_seq_++;
    if (slot->src == kAnySource || slot->tag == kAnyTag) {
      posted_wild_.push_back(Posted{seq, std::move(slot)});
    } else {
      const MatchKey key{slot->comm_id, slot->src, slot->tag};
      posted_exact_.get_or_create(key).push_back(
          Posted{seq, std::move(slot)});
    }
  }

  /// Removes and returns the first posted receive (in post order) that
  /// matches `env`, or nullptr when none does.
  std::shared_ptr<RecvSlot> match_posted(const Envelope& env) {
    const MatchKey key{env.comm_id, env.src, env.tag};
    auto* eq = posted_exact_.find(key);
    const bool have_exact = eq != nullptr && !eq->empty();
    auto wit = posted_wild_.begin();
    while (wit != posted_wild_.end() && !wit->slot->matches(env)) ++wit;
    const bool have_wild = wit != posted_wild_.end();
    if (have_exact && (!have_wild || eq->front().seq < wit->seq)) {
      std::shared_ptr<RecvSlot> slot = std::move(eq->front().slot);
      eq->pop_front();
      if (eq->empty()) posted_exact_.erase(key);
      return slot;
    }
    if (!have_wild) return nullptr;
    std::shared_ptr<RecvSlot> slot = std::move(wit->slot);
    posted_wild_.erase(wit);
    return slot;
  }

  /// Recycled receive slots: a blocking receive allocates a slot, parks,
  /// and frees it before returning, so one warm slot serves millions of
  /// receives. Slots still referenced by a live Request are skipped.
  std::shared_ptr<RecvSlot> acquire_slot() {
    while (!slot_pool_.empty()) {
      std::shared_ptr<RecvSlot> s = std::move(slot_pool_.back());
      slot_pool_.pop_back();
      if (s.use_count() != 1) continue;  // a Request still holds it
      s->take = false;
      s->done = false;
      s->taken = Envelope{};
      s->status = Status{};
      return s;
    }
    return std::make_shared<RecvSlot>();
  }

  void release_slot(std::shared_ptr<RecvSlot> s) {
    if (slot_pool_.size() < 1024) slot_pool_.push_back(std::move(s));
  }

  /// End-of-run audit sweep: visits every delivered envelope still queued
  /// as unexpected (no receive ever matched it).
  template <typename Fn>
  void for_each_orphan_message(Fn&& fn) const {
    for (const Stored& s : unexpected_) {
      if (!s.taken) fn(s.env);
    }
  }

  /// End-of-run audit sweep: visits every posted receive still pending
  /// (no message ever matched it), as RecvSlots.
  template <typename Fn>
  void for_each_orphan_recv(Fn&& fn) const {
    for (const Posted& p : posted_wild_) fn(*p.slot);
    posted_exact_.for_each([&fn](const MatchKey&, const RingFifo<Posted>& q) {
      q.for_each([&fn](const Posted& p) { fn(*p.slot); });
    });
  }

 private:
  struct Posted {
    std::uint64_t seq = 0;
    std::shared_ptr<RecvSlot> slot;
  };

  struct Stored {
    Envelope env;
    bool taken = false;
  };

  Envelope take_at(std::size_t i) {
    Envelope env = std::move(unexpected_[i].env);
    unexpected_[i].taken = true;
    while (!unexpected_.empty() && unexpected_.front().taken) {
      unexpected_.pop_front();
      ++store_base_;
    }
    return env;
  }

  /// Unexpected messages in arrival order. Arrival sequence numbers are
  /// dense, so entry `seq` lives at index `seq - store_base_`; taken
  /// entries tombstone in place until the front drains.
  std::deque<Stored> unexpected_;
  std::uint64_t store_base_ = 0;  ///< sequence number of unexpected_[0]

  /// Per-key FIFO indexes of arrival sequences into the store.
  MatchMap<RingFifo<std::uint64_t>> unexpected_exact_;
  MatchMap<RingFifo<std::uint64_t>> unexpected_anysrc_;

  /// Fully specified pending receives by key; wildcard receives (few at a
  /// time) in one post-ordered list.
  MatchMap<RingFifo<Posted>> posted_exact_;
  std::deque<Posted> posted_wild_;
  std::uint64_t post_seq_ = 0;

  std::vector<std::shared_ptr<RecvSlot>> slot_pool_;
};

}  // namespace mcio::mpi
