// Byte-range (extent) algebra.
//
// Collective I/O is, at its core, interval bookkeeping: flattened file
// views, file domains, aggregation windows, and the intersections between
// them. Everything here works on half-open ranges [offset, offset+len).
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <ostream>
#include <span>
#include <vector>

#include "util/check.h"

namespace mcio::util {

/// Half-open byte range [offset, offset + len).
struct Extent {
  std::uint64_t offset = 0;
  std::uint64_t len = 0;

  std::uint64_t end() const { return offset + len; }
  bool empty() const { return len == 0; }
  bool contains(std::uint64_t pos) const {
    return pos >= offset && pos < end();
  }
  bool contains(const Extent& other) const {
    return other.empty() ||
           (other.offset >= offset && other.end() <= end());
  }
  bool overlaps(const Extent& other) const {
    return offset < other.end() && other.offset < end();
  }
  /// True when `other` starts exactly where this extent ends.
  bool adjacent_before(const Extent& other) const {
    return end() == other.offset;
  }

  friend bool operator==(const Extent&, const Extent&) = default;
};

std::ostream& operator<<(std::ostream& os, const Extent& e);

/// Intersection of two extents; nullopt when disjoint (or either empty).
std::optional<Extent> intersect(const Extent& a, const Extent& b);

/// Strict weak order of sorted extent walks: by offset, then length.
inline bool extent_less(const Extent& a, const Extent& b) {
  return a.offset != b.offset ? a.offset < b.offset : a.len < b.len;
}

/// Smallest extent covering both `a` and `b`; an empty operand is ignored.
Extent hull(const Extent& a, const Extent& b);

/// K-way merge of sorted extent runs: yields every extent of every run,
/// empty ones included, in extent_less order — the order std::sort would
/// give their concatenation. O(N log R) for N extents in R runs; the only
/// scratch is an R-entry heap. The runs must outlive the merge.
class ExtentMerge {
 public:
  ExtentMerge() = default;

  /// Merges the natural sorted runs of `raw`: O(N) for sorted input, which
  /// stays one run. When the runs average fewer than kMinMeanRun extents,
  /// a merge would need a heap of nearly N entries and lose to a sort, so
  /// `raw` is sorted in place and walked as one run instead.
  explicit ExtentMerge(std::vector<Extent>* raw);

  /// Adds one run, sorted by extent_less, to the merge. Empty runs are
  /// ignored.
  void add_run(std::span<const Extent> run);

  /// Runs not yet drained.
  std::size_t runs() const { return heap_.size(); }

  /// Writes the next extent to `*out`; false once every run is drained.
  bool next(Extent* out) {
    if (heap_.empty()) return false;
    Head& top = heap_.front();
    *out = *top.pos;
    if (++top.pos == top.end) {
      top = heap_.back();
      heap_.pop_back();
    }
    sift_down();
    return true;
  }

  /// Mean natural-run length below which ExtentMerge(raw) sorts instead.
  static constexpr std::size_t kMinMeanRun = 8;

 private:
  struct Head {
    const Extent* pos;
    const Extent* end;
  };
  static bool before(const Head& a, const Head& b) {
    return extent_less(*a.pos, *b.pos);
  }
  /// Restores the heap below the root after its head advanced.
  void sift_down() {
    const std::size_t n = heap_.size();
    if (n < 2) return;
    const Head moved = heap_[0];
    std::size_t i = 0;
    for (std::size_t c = 1; c < n; c = 2 * i + 1) {
      if (c + 1 < n && before(heap_[c + 1], heap_[c])) ++c;
      if (!before(heap_[c], moved)) break;
      heap_[i] = heap_[c];
      i = c;
    }
    heap_[i] = moved;
  }

  std::vector<Head> heap_;  ///< binary min-heap on each run's next extent
};

/// A normalized list of extents: sorted by offset, pairwise disjoint, with
/// adjacent runs merged. The canonical representation of "the set of bytes
/// a process touches".
class ExtentList {
 public:
  ExtentList() = default;

  /// Builds a normalized list from arbitrary input (may overlap, unsorted,
  /// or hold empty extents) through an ExtentMerge of its natural runs.
  /// Sorted input — every wire blob, every validated plan — is coalesced in
  /// place: O(N), no sort and no copy. R runs cost O(N log R).
  static ExtentList normalize(std::vector<Extent> extents);

  /// Takes `runs` as the list after one validating pass: they must already
  /// be normalized (non-empty, sorted, neither overlapping nor touching),
  /// as every list put on the wire is. A violation is an MCIO_CHECK
  /// failure, not a silent repair.
  static ExtentList adopt(std::vector<Extent> runs);

  /// Replaces this list with the union of normalized `lists` in one k-way
  /// merge, O(N log R) for N runs across R lists, reusing this list's
  /// capacity. `this` must not be one of `lists`.
  void assign_union(std::span<const ExtentList* const> lists);

  /// Appends `e`, coalescing it with the last run when they overlap or
  /// touch; O(1). `e` must not start before the last run. Empty extents
  /// are ignored.
  void append(const Extent& e) {
    if (e.empty()) return;
    MCIO_CHECK(runs_.empty() || e.offset >= runs_.back().offset);
    if (!runs_.empty() && e.offset <= runs_.back().end()) {
      Extent& last = runs_.back();
      last.len = std::max(last.end(), e.end()) - last.offset;
    } else {
      runs_.push_back(e);
    }
  }

  /// Inserts one extent anywhere, keeping the list normalized: a binary
  /// search plus an O(n) mid-vector move. For single inserts only — a
  /// loop of add() is quadratic; build bulk unions with normalize() or
  /// assign_union().
  void add(const Extent& e);

  const std::vector<Extent>& runs() const { return runs_; }
  bool empty() const { return runs_.empty(); }
  std::size_t size() const { return runs_.size(); }

  std::uint64_t total_bytes() const;

  /// Smallest extent covering everything; empty extent for empty lists.
  Extent bounds() const;

  /// Bytes of this list falling inside `window`.
  ExtentList clipped(const Extent& window) const;

  /// Set intersection with another normalized list.
  ExtentList intersected(const ExtentList& other) const;

  /// True when every byte of `e` is in this list.
  bool covers(const Extent& e) const;

  /// True when the list is one contiguous run (or empty).
  bool contiguous() const { return runs_.size() <= 1; }

  /// Empties the list, keeping capacity (for scratch reuse).
  void clear() { runs_.clear(); }

  friend bool operator==(const ExtentList&, const ExtentList&) = default;

 private:
  friend class ExtentCursor;
  friend class PlanCursor;
  std::vector<Extent> runs_;
};

/// Monotone clipping cursor over a normalized extent list: produces the
/// same result as ExtentList::clipped(window), but windows must be queried
/// in increasing offset order, making a sweep over W windows and R runs
/// O(W + R) instead of O(W · R). The referenced list must outlive the
/// cursor and stay unmodified.
class ExtentCursor {
 public:
  explicit ExtentCursor(const ExtentList& list) : runs_(&list.runs()) {}

  /// Bytes of the list inside `window`; equivalent to list.clipped(window).
  ExtentList clipped(const Extent& window) {
    ExtentList out;
    clipped_into(window, &out);
    return out;
  }

  /// As clipped(), reusing `out`'s storage.
  void clipped_into(const Extent& window, ExtentList* out);

 private:
  friend class PlanCursor;
  /// Over sorted, disjoint, non-empty runs that may touch (PlanCursor).
  explicit ExtentCursor(const std::vector<Extent>& runs) : runs_(&runs) {}

  const std::vector<Extent>* runs_;
  std::size_t idx_ = 0;
};

/// ExtentCursor over a validated plan's extents: sorted, disjoint and
/// non-empty, but adjacent runs may touch. Each clip coalesces touching
/// runs, so it equals ExtentList::normalize(plan).clipped(window) without
/// building the normalized copy of the whole plan. Windows ascend.
class PlanCursor {
 public:
  explicit PlanCursor(const std::vector<Extent>& plan) : cursor_(plan) {}

  void clipped_into(const Extent& window, ExtentList* out);

 private:
  ExtentCursor cursor_;
};

std::ostream& operator<<(std::ostream& os, const ExtentList& l);

/// A fragment of an I/O request: `len` bytes at `file_offset` that live at
/// `buf_offset` within the owning process's (conceptually packed) buffer.
struct Piece {
  std::uint64_t file_offset = 0;
  std::uint64_t buf_offset = 0;
  std::uint64_t len = 0;

  friend bool operator==(const Piece&, const Piece&) = default;
};

std::ostream& operator<<(std::ostream& os, const Piece& p);

/// Given a process's file extents in monotonically increasing file order
/// (the packed buffer layout follows that order), returns the pieces of the
/// request that fall inside `window`, with both file and buffer offsets.
///
/// `extents` must be sorted by offset and non-overlapping; the ExtentList
/// invariants guarantee this for normalized lists.
std::vector<Piece> pieces_in_window(const std::vector<Extent>& extents,
                                    const Extent& window);

/// Total bytes of `extents` that fall before `pos` — the buffer offset of
/// file position `pos` for a packed request. `extents` sorted, disjoint.
std::uint64_t packed_offset_of(const std::vector<Extent>& extents,
                               std::uint64_t pos);

}  // namespace mcio::util
