#include "util/extent.h"

#include <algorithm>

#include "util/check.h"

namespace mcio::util {

std::ostream& operator<<(std::ostream& os, const Extent& e) {
  return os << "[" << e.offset << "," << e.end() << ")";
}

std::optional<Extent> intersect(const Extent& a, const Extent& b) {
  const std::uint64_t lo = std::max(a.offset, b.offset);
  const std::uint64_t hi = std::min(a.end(), b.end());
  if (lo >= hi) return std::nullopt;
  return Extent{lo, hi - lo};
}

Extent hull(const Extent& a, const Extent& b) {
  if (a.empty()) return b;
  if (b.empty()) return a;
  const std::uint64_t lo = std::min(a.offset, b.offset);
  return Extent{lo, std::max(a.end(), b.end()) - lo};
}

ExtentMerge::ExtentMerge(std::vector<Extent>* raw) {
  const std::size_t n = raw->size();
  const std::size_t max_runs = std::max<std::size_t>(1, n / kMinMeanRun);
  std::size_t begin = 0;
  for (std::size_t i = 1; i <= n; ++i) {
    if (i < n && !extent_less((*raw)[i], (*raw)[i - 1])) continue;
    if (heap_.size() == max_runs) {
      // Too many short runs for a merge to pay: sort, walk one run.
      heap_.clear();
      std::sort(raw->begin(), raw->end(), extent_less);
      add_run(*raw);
      return;
    }
    add_run(std::span<const Extent>(*raw).subspan(begin, i - begin));
    begin = i;
  }
}

void ExtentMerge::add_run(std::span<const Extent> run) {
  if (run.empty()) return;
  heap_.push_back(Head{run.data(), run.data() + run.size()});
  std::size_t i = heap_.size() - 1;
  const Head added = heap_[i];
  while (i > 0) {
    const std::size_t parent = (i - 1) / 2;
    if (!before(added, heap_[parent])) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = added;
}

ExtentList ExtentList::normalize(std::vector<Extent> extents) {
  ExtentList out;
  ExtentMerge merge(&extents);
  if (merge.runs() > 1) {
    for (Extent e; merge.next(&e);) out.append(e);
    return out;
  }
  // One sorted run: coalesce in place and keep the storage.
  std::size_t n = 0;
  for (const Extent e : extents) {
    if (e.empty()) continue;
    if (n > 0 && e.offset <= extents[n - 1].end()) {
      Extent& last = extents[n - 1];
      last.len = std::max(last.end(), e.end()) - last.offset;
    } else {
      extents[n++] = e;
    }
  }
  extents.resize(n);
  out.runs_ = std::move(extents);
  return out;
}

ExtentList ExtentList::adopt(std::vector<Extent> runs) {
  for (std::size_t i = 0; i < runs.size(); ++i) {
    MCIO_CHECK_MSG(!runs[i].empty(), "empty run " << i << " in extent list");
    MCIO_CHECK_MSG(i == 0 || runs[i - 1].end() < runs[i].offset,
                   "extent list unsorted, overlapping or touching at run "
                       << i);
  }
  ExtentList out;
  out.runs_ = std::move(runs);
  return out;
}

void ExtentList::assign_union(std::span<const ExtentList* const> lists) {
  runs_.clear();
  ExtentMerge merge;
  for (const ExtentList* l : lists) {
    MCIO_CHECK(l != this);
    merge.add_run(l->runs_);
  }
  for (Extent e; merge.next(&e);) append(e);
}

void ExtentList::add(const Extent& e) {
  if (e.empty()) return;
  // Find first run ending at or after e.offset (candidates for merging).
  auto it = std::lower_bound(
      runs_.begin(), runs_.end(), e.offset,
      [](const Extent& r, std::uint64_t off) { return r.end() < off; });
  Extent merged = e;
  auto first = it;
  while (it != runs_.end() && it->offset <= merged.end()) {
    const std::uint64_t new_end = std::max(merged.end(), it->end());
    merged.offset = std::min(merged.offset, it->offset);
    merged.len = new_end - merged.offset;
    ++it;
  }
  it = runs_.erase(first, it);
  runs_.insert(it, merged);
}

std::uint64_t ExtentList::total_bytes() const {
  std::uint64_t total = 0;
  for (const Extent& e : runs_) total += e.len;
  return total;
}

Extent ExtentList::bounds() const {
  if (runs_.empty()) return Extent{};
  return Extent{runs_.front().offset,
                runs_.back().end() - runs_.front().offset};
}

ExtentList ExtentList::clipped(const Extent& window) const {
  ExtentList out;
  auto it = std::lower_bound(
      runs_.begin(), runs_.end(), window.offset,
      [](const Extent& r, std::uint64_t off) { return r.end() <= off; });
  for (; it != runs_.end() && it->offset < window.end(); ++it) {
    if (auto x = intersect(*it, window)) out.runs_.push_back(*x);
  }
  return out;
}

void ExtentCursor::clipped_into(const Extent& window, ExtentList* out) {
  std::vector<Extent>& dst = out->runs_;
  dst.clear();
  if (window.empty()) return;
  const std::vector<Extent>& runs = *runs_;
  while (idx_ < runs.size() && runs[idx_].end() <= window.offset) ++idx_;
  std::size_t end = idx_;
  while (end < runs.size() && runs[end].offset < window.end()) ++end;
  if (end == idx_) return;
  // Copy the runs in bulk; only the first and the last can reach outside
  // the window.
  dst.assign(runs.begin() + static_cast<std::ptrdiff_t>(idx_),
             runs.begin() + static_cast<std::ptrdiff_t>(end));
  Extent& first = dst.front();
  const std::uint64_t lo = std::max(first.offset, window.offset);
  first = Extent{lo, first.end() - lo};
  Extent& last = dst.back();
  last.len = std::min(last.end(), window.end()) - last.offset;
}

void PlanCursor::clipped_into(const Extent& window, ExtentList* out) {
  cursor_.clipped_into(window, out);
  std::vector<Extent>& dst = out->runs_;
  std::size_t n = std::min<std::size_t>(dst.size(), 1);
  for (std::size_t j = 1; j < dst.size(); ++j) {
    if (dst[n - 1].end() == dst[j].offset) {
      dst[n - 1].len += dst[j].len;
    } else {
      dst[n++] = dst[j];
    }
  }
  dst.resize(n);
}

ExtentList ExtentList::intersected(const ExtentList& other) const {
  ExtentList out;
  auto a = runs_.begin();
  auto b = other.runs_.begin();
  while (a != runs_.end() && b != other.runs_.end()) {
    if (auto x = intersect(*a, *b)) out.runs_.push_back(*x);
    if (a->end() < b->end()) {
      ++a;
    } else {
      ++b;
    }
  }
  return out;
}

bool ExtentList::covers(const Extent& e) const {
  if (e.empty()) return true;
  auto it = std::lower_bound(
      runs_.begin(), runs_.end(), e.offset,
      [](const Extent& r, std::uint64_t off) { return r.end() <= off; });
  return it != runs_.end() && it->contains(e);
}

std::ostream& operator<<(std::ostream& os, const ExtentList& l) {
  os << "{";
  for (std::size_t i = 0; i < l.runs().size(); ++i) {
    if (i > 0) os << ", ";
    os << l.runs()[i];
  }
  return os << "}";
}

std::ostream& operator<<(std::ostream& os, const Piece& p) {
  return os << "{file=" << p.file_offset << ", buf=" << p.buf_offset
            << ", len=" << p.len << "}";
}

std::vector<Piece> pieces_in_window(const std::vector<Extent>& extents,
                                    const Extent& window) {
  std::vector<Piece> out;
  std::uint64_t buf = 0;
  for (const Extent& e : extents) {
    if (const auto x = intersect(e, window)) {
      out.push_back(Piece{x->offset, buf + (x->offset - e.offset), x->len});
    }
    buf += e.len;
    if (e.offset >= window.end()) break;  // sorted: nothing further matches
  }
  return out;
}

std::uint64_t packed_offset_of(const std::vector<Extent>& extents,
                               std::uint64_t pos) {
  std::uint64_t buf = 0;
  for (const Extent& e : extents) {
    if (pos < e.offset) return buf;
    if (pos < e.end()) return buf + (pos - e.offset);
    buf += e.len;
  }
  return buf;
}

}  // namespace mcio::util
