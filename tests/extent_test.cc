// Extent algebra: unit tests plus randomized properties checked against a
// brute-force byte-set model.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <set>
#include <string>

#include "util/extent.h"
#include "util/rng.h"

namespace mcio::util {
namespace {

TEST(Extent, Basics) {
  const Extent e{10, 5};
  EXPECT_EQ(e.end(), 15u);
  EXPECT_FALSE(e.empty());
  EXPECT_TRUE(e.contains(10));
  EXPECT_TRUE(e.contains(14));
  EXPECT_FALSE(e.contains(15));
  EXPECT_TRUE(e.contains(Extent{11, 3}));
  EXPECT_FALSE(e.contains(Extent{11, 5}));
  EXPECT_TRUE(e.contains(Extent{20, 0}));  // empty is contained anywhere
  EXPECT_TRUE(Extent({0, 0}).empty());
}

TEST(Extent, Overlaps) {
  EXPECT_TRUE((Extent{0, 10}.overlaps(Extent{9, 1})));
  EXPECT_FALSE((Extent{0, 10}.overlaps(Extent{10, 1})));
  EXPECT_TRUE((Extent{5, 5}.overlaps(Extent{0, 6})));
  EXPECT_FALSE((Extent{5, 5}.overlaps(Extent{0, 5})));
}

TEST(Extent, Intersect) {
  EXPECT_EQ(intersect(Extent{0, 10}, Extent{5, 10}), (Extent{5, 5}));
  EXPECT_EQ(intersect(Extent{5, 10}, Extent{0, 10}), (Extent{5, 5}));
  EXPECT_FALSE(intersect(Extent{0, 5}, Extent{5, 5}).has_value());
  EXPECT_FALSE(intersect(Extent{0, 0}, Extent{0, 5}).has_value());
  EXPECT_EQ(intersect(Extent{3, 4}, Extent{0, 100}), (Extent{3, 4}));
}

TEST(ExtentList, NormalizeMergesAdjacentAndOverlapping) {
  const auto list = ExtentList::normalize(
      {{10, 5}, {0, 5}, {5, 5}, {30, 2}, {29, 2}, {50, 0}});
  ASSERT_EQ(list.size(), 2u);
  EXPECT_EQ(list.runs()[0], (Extent{0, 15}));
  EXPECT_EQ(list.runs()[1], (Extent{29, 3}));
  EXPECT_EQ(list.total_bytes(), 18u);
  EXPECT_EQ(list.bounds(), (Extent{0, 32}));
}

TEST(ExtentList, AddKeepsUnionCorrect) {
  // Regression for the order-of-mutation bug: extending a run to the
  // right must keep the extended tail.
  ExtentList l;
  l.add(Extent{0, 10});
  l.add(Extent{10, 10});
  ASSERT_EQ(l.size(), 1u);
  EXPECT_EQ(l.runs()[0], (Extent{0, 20}));
  l.add(Extent{30, 5});
  l.add(Extent{19, 12});  // bridges the gap
  ASSERT_EQ(l.size(), 1u);
  EXPECT_EQ(l.runs()[0], (Extent{0, 35}));
}

TEST(ExtentList, AppendCoalescesInOrder) {
  ExtentList l;
  l.append(Extent{0, 10});
  l.append(Extent{10, 5});  // adjacent: coalesced
  l.append(Extent{12, 1});  // inside: absorbed
  l.append(Extent{20, 0});  // empty: ignored
  l.append(Extent{20, 5});
  ASSERT_EQ(l.size(), 2u);
  EXPECT_EQ(l.runs()[0], (Extent{0, 15}));
  EXPECT_EQ(l.runs()[1], (Extent{20, 5}));
  EXPECT_THROW(l.append(Extent{19, 1}), Error);  // starts before the last
}

TEST(ExtentList, Hull) {
  EXPECT_EQ(hull(Extent{10, 5}, Extent{0, 2}), (Extent{0, 15}));
  EXPECT_EQ(hull(Extent{}, Extent{7, 3}), (Extent{7, 3}));
  EXPECT_EQ(hull(Extent{7, 3}, Extent{100, 0}), (Extent{7, 3}));
}

TEST(ExtentList, NormalizeSortedInputKeepsItsStorage) {
  // Validated plans arrive sorted: they coalesce in place, no copy.
  std::vector<Extent> v = {{0, 4}, {4, 4}, {10, 2}, {10, 3}, {20, 0}};
  const Extent* storage = v.data();
  const auto list = ExtentList::normalize(std::move(v));
  ASSERT_EQ(list.size(), 2u);
  EXPECT_EQ(list.runs()[0], (Extent{0, 8}));
  EXPECT_EQ(list.runs()[1], (Extent{10, 3}));
  EXPECT_EQ(list.runs().data(), storage);
}

TEST(ExtentList, AssignUnionOfNoneOneAndMany) {
  const auto a = ExtentList::normalize({{0, 10}, {40, 10}});
  const auto b = ExtentList::normalize({{10, 5}, {45, 20}});
  const auto c = ExtentList::normalize({{30, 1}});
  ExtentList u = ExtentList::normalize({{1000, 1}});
  u.assign_union({});
  EXPECT_TRUE(u.empty());
  const ExtentList* one[] = {&b};
  u.assign_union(one);
  EXPECT_EQ(u, b);
  const ExtentList* many[] = {&a, &b, &c};
  u.assign_union(many);
  ASSERT_EQ(u.size(), 3u);
  EXPECT_EQ(u.runs()[0], (Extent{0, 15}));
  EXPECT_EQ(u.runs()[1], (Extent{30, 1}));
  EXPECT_EQ(u.runs()[2], (Extent{40, 25}));
  const ExtentList* self[] = {&a, &u};
  EXPECT_THROW(u.assign_union(self), Error);
}

// Wire blobs are adopted after one validating pass, never repaired: any
// list that is not already normalized is a protocol error.
TEST(ExtentList, AdoptTakesOnlyNormalizedRuns) {
  EXPECT_TRUE(ExtentList::adopt({}).empty());
  const std::vector<Extent> good = {{0, 4}, {5, 3}, {100, 1}};
  const ExtentList l = ExtentList::adopt(good);
  EXPECT_EQ(l.runs(), good);
  EXPECT_EQ(l, ExtentList::normalize(good));
  EXPECT_THROW(ExtentList::adopt({{10, 4}, {0, 4}}), Error);   // unsorted
  EXPECT_THROW(ExtentList::adopt({{0, 8}, {4, 8}}), Error);    // overlapping
  EXPECT_THROW(ExtentList::adopt({{0, 4}, {4, 4}}), Error);    // touching
  EXPECT_THROW(ExtentList::adopt({{0, 4}, {6, 0}}), Error);    // empty run
  EXPECT_THROW(ExtentList::adopt({{3, 0}}), Error);            // empty only
  EXPECT_THROW(ExtentList::adopt({{0, 4}, {0, 4}}), Error);    // duplicate
}

TEST(ExtentList, Clipped) {
  const auto list =
      ExtentList::normalize({{0, 10}, {20, 10}, {40, 10}});
  const auto clip = list.clipped(Extent{5, 30});
  ASSERT_EQ(clip.size(), 2u);
  EXPECT_EQ(clip.runs()[0], (Extent{5, 5}));
  EXPECT_EQ(clip.runs()[1], (Extent{20, 10}));
  EXPECT_TRUE(list.clipped(Extent{10, 10}).empty());
  EXPECT_TRUE(list.clipped(Extent{100, 5}).empty());
}

TEST(ExtentList, Covers) {
  const auto list = ExtentList::normalize({{0, 10}, {20, 10}});
  EXPECT_TRUE(list.covers(Extent{0, 10}));
  EXPECT_TRUE(list.covers(Extent{22, 5}));
  EXPECT_FALSE(list.covers(Extent{5, 10}));
  EXPECT_FALSE(list.covers(Extent{9, 2}));
  EXPECT_TRUE(list.covers(Extent{500, 0}));
}

TEST(ExtentList, Intersected) {
  const auto a = ExtentList::normalize({{0, 10}, {20, 10}, {40, 4}});
  const auto b = ExtentList::normalize({{5, 20}, {41, 10}});
  const auto x = a.intersected(b);
  ASSERT_EQ(x.size(), 3u);
  EXPECT_EQ(x.runs()[0], (Extent{5, 5}));
  EXPECT_EQ(x.runs()[1], (Extent{20, 5}));
  EXPECT_EQ(x.runs()[2], (Extent{41, 3}));
}

TEST(Pieces, InWindowWithBufferOffsets) {
  const std::vector<Extent> ext = {{0, 10}, {20, 10}, {40, 10}};
  const auto pieces = pieces_in_window(ext, Extent{5, 40});
  ASSERT_EQ(pieces.size(), 3u);
  EXPECT_EQ(pieces[0], (Piece{5, 5, 5}));
  EXPECT_EQ(pieces[1], (Piece{20, 10, 10}));
  EXPECT_EQ(pieces[2], (Piece{40, 20, 5}));
}

TEST(Pieces, PackedOffset) {
  const std::vector<Extent> ext = {{0, 10}, {20, 10}};
  EXPECT_EQ(packed_offset_of(ext, 0), 0u);
  EXPECT_EQ(packed_offset_of(ext, 5), 5u);
  EXPECT_EQ(packed_offset_of(ext, 15), 10u);  // inside the gap
  EXPECT_EQ(packed_offset_of(ext, 25), 15u);
  EXPECT_EQ(packed_offset_of(ext, 100), 20u);
}

// ---- randomized property tests against a brute-force set-of-bytes model.

class ExtentListProperty : public ::testing::TestWithParam<std::uint64_t> {
};

std::set<std::uint64_t> to_set(const ExtentList& l) {
  std::set<std::uint64_t> s;
  for (const Extent& e : l.runs()) {
    for (std::uint64_t i = e.offset; i < e.end(); ++i) s.insert(i);
  }
  return s;
}

TEST_P(ExtentListProperty, UnionMatchesBruteForce) {
  Rng rng(GetParam());
  ExtentList list;
  std::set<std::uint64_t> model;
  for (int i = 0; i < 60; ++i) {
    const Extent e{rng.uniform_u64(200), rng.uniform_u64(20)};
    list.add(e);
    for (std::uint64_t b = e.offset; b < e.end(); ++b) model.insert(b);
    // Invariants: sorted, disjoint, non-adjacent.
    for (std::size_t k = 1; k < list.runs().size(); ++k) {
      ASSERT_LT(list.runs()[k - 1].end(), list.runs()[k].offset);
    }
    ASSERT_EQ(to_set(list), model);
    ASSERT_EQ(list.total_bytes(), model.size());
  }
}

TEST_P(ExtentListProperty, ClipMatchesBruteForce) {
  Rng rng(GetParam() ^ 0xabcdef);
  std::vector<Extent> raw;
  for (int i = 0; i < 30; ++i) {
    raw.push_back(Extent{rng.uniform_u64(300), rng.uniform_u64(15)});
  }
  const auto list = ExtentList::normalize(raw);
  const auto model = to_set(list);
  for (int i = 0; i < 20; ++i) {
    const Extent w{rng.uniform_u64(300), rng.uniform_u64(80)};
    const auto clip = list.clipped(w);
    std::set<std::uint64_t> expected;
    for (const std::uint64_t b : model) {
      if (w.contains(b)) expected.insert(b);
    }
    ASSERT_EQ(to_set(clip), expected) << "window " << w;
  }
}

TEST_P(ExtentListProperty, IntersectionMatchesBruteForce) {
  Rng rng(GetParam() ^ 0x1234);
  std::vector<Extent> ra, rb;
  for (int i = 0; i < 25; ++i) {
    ra.push_back(Extent{rng.uniform_u64(250), rng.uniform_u64(12)});
    rb.push_back(Extent{rng.uniform_u64(250), rng.uniform_u64(12)});
  }
  const auto a = ExtentList::normalize(ra);
  const auto b = ExtentList::normalize(rb);
  const auto sa = to_set(a);
  const auto sb = to_set(b);
  std::set<std::uint64_t> expected;
  for (const auto v : sa) {
    if (sb.count(v)) expected.insert(v);
  }
  EXPECT_EQ(to_set(a.intersected(b)), expected);
}

TEST_P(ExtentListProperty, PiecesPartitionTheWindow) {
  Rng rng(GetParam() ^ 0x777);
  std::vector<Extent> raw;
  for (int i = 0; i < 20; ++i) {
    raw.push_back(Extent{rng.uniform_u64(400), 1 + rng.uniform_u64(10)});
  }
  const auto list = ExtentList::normalize(raw);
  const auto& ext = list.runs();
  // Monotone windows, as the exchange engine issues them.
  std::uint64_t pos = 0;
  while (pos < 420) {
    const std::uint64_t len = 1 + rng.uniform_u64(60);
    const Extent w{pos, len};
    const auto pieces = pieces_in_window(ext, w);
    std::uint64_t total = 0;
    for (const auto& p : pieces) {
      ASSERT_TRUE(w.contains(Extent{p.file_offset, p.len}));
      ASSERT_EQ(packed_offset_of(ext, p.file_offset), p.buf_offset);
      total += p.len;
    }
    ASSERT_EQ(total, list.clipped(w).total_bytes());
    pos += len;
  }
}

/// Input shapes for the union and normalize properties.
enum class Shape { kMultiSource, kOneRun, kDenseOverlaps, kWithEmpties,
                   kUnsorted };

/// `sources` sorted lists of raw extents (overlapping, adjacent and
/// duplicated within and across lists) of the given shape, and their
/// concatenation in `*flat`.
std::vector<std::vector<Extent>> make_sources(Rng& rng, Shape shape,
                                              std::vector<Extent>* flat) {
  const int sources = shape == Shape::kOneRun ? 1 : 1 + static_cast<int>(
                                                        rng.uniform_u64(9));
  const std::uint64_t span = shape == Shape::kDenseOverlaps ? 60 : 400;
  std::vector<std::vector<Extent>> out(static_cast<std::size_t>(sources));
  for (auto& src : out) {
    const int n = static_cast<int>(rng.uniform_u64(40));
    for (int i = 0; i < n; ++i) {
      const std::uint64_t min_len = shape == Shape::kWithEmpties ? 0 : 1;
      src.push_back(Extent{rng.uniform_u64(span),
                           min_len + rng.uniform_u64(12)});
      if (rng.uniform_u64(6) == 0) src.push_back(src.back());  // duplicate
      if (rng.uniform_u64(6) == 0) {
        src.push_back(Extent{src.back().end(), 1 + rng.uniform_u64(4)});
      }
    }
    if (shape != Shape::kUnsorted) {
      std::sort(src.begin(), src.end(), extent_less);
    }
    flat->insert(flat->end(), src.begin(), src.end());
  }
  if (shape == Shape::kUnsorted) {
    for (std::size_t i = flat->size(); i > 1; --i) {
      std::swap((*flat)[i - 1], (*flat)[rng.uniform_u64(i)]);
    }
  }
  return out;
}

void expect_normalized(const ExtentList& l) {
  for (std::size_t k = 0; k < l.runs().size(); ++k) {
    ASSERT_FALSE(l.runs()[k].empty());
    if (k > 0) {
      ASSERT_LT(l.runs()[k - 1].end(), l.runs()[k].offset);
    }
  }
}

std::set<std::uint64_t> to_set(const std::vector<Extent>& raw) {
  std::set<std::uint64_t> s;
  for (const Extent& e : raw) {
    for (std::uint64_t i = e.offset; i < e.end(); ++i) s.insert(i);
  }
  return s;
}

TEST_P(ExtentListProperty, MergeYieldsTheSortedOrder) {
  for (const Shape shape : {Shape::kMultiSource, Shape::kOneRun,
                            Shape::kDenseOverlaps, Shape::kWithEmpties}) {
    Rng rng(GetParam() * 31 + static_cast<std::uint64_t>(shape));
    std::vector<Extent> flat;
    const auto sources = make_sources(rng, shape, &flat);
    ExtentMerge merge;
    for (const auto& src : sources) merge.add_run(src);
    std::vector<Extent> merged;
    for (Extent e; merge.next(&e);) merged.push_back(e);
    std::vector<Extent> sorted = flat;
    std::sort(sorted.begin(), sorted.end(), extent_less);
    ASSERT_EQ(merged, sorted);
    // The natural-run split of the concatenation walks the same order.
    std::vector<Extent> raw = flat;
    ExtentMerge walk(&raw);
    merged.clear();
    for (Extent e; walk.next(&e);) merged.push_back(e);
    ASSERT_EQ(merged, sorted);
  }
}

TEST_P(ExtentListProperty, NormalizeAndUnionMatchBruteForce) {
  for (const Shape shape :
       {Shape::kMultiSource, Shape::kOneRun, Shape::kDenseOverlaps,
        Shape::kWithEmpties, Shape::kUnsorted}) {
    Rng rng(GetParam() * 17 + static_cast<std::uint64_t>(shape));
    std::vector<Extent> flat;
    const auto sources = make_sources(rng, shape, &flat);
    const std::set<std::uint64_t> model = to_set(flat);
    // Independent oracle: one add() per extent.
    ExtentList by_add;
    for (const Extent& e : flat) by_add.add(e);
    ASSERT_EQ(to_set(by_add), model);

    const ExtentList normalized = ExtentList::normalize(flat);
    expect_normalized(normalized);
    ASSERT_EQ(normalized, by_add);

    std::vector<ExtentList> lists;
    for (const auto& src : sources) {
      lists.push_back(ExtentList::normalize(src));
    }
    std::vector<const ExtentList*> ptrs;
    for (const ExtentList& l : lists) ptrs.push_back(&l);
    ExtentList u;
    u.assign_union(ptrs);
    expect_normalized(u);
    ASSERT_EQ(u, by_add);
  }
}

// The exchange clips a validated plan — sorted, disjoint, non-empty runs
// that may touch — per domain with one monotone cursor instead of
// normalizing the whole plan first. Over ascending windows (gaps, single
// bytes and spans wider than the plan included) the cursor must give
// exactly the normalized plan's clip, as must a cursor over that list.
TEST_P(ExtentListProperty, CursorOverPlanMatchesNormalizedClip) {
  Rng rng(GetParam() * 43 + 7);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<Extent> plan;
    std::uint64_t pos = rng.uniform_u64(16);
    const auto n = rng.uniform_u64(40);
    for (std::uint64_t i = 0; i < n; ++i) {
      const std::uint64_t len = 1 + rng.uniform_u64(12);
      plan.push_back(Extent{pos, len});
      // Half the runs touch their successor, the rest leave a gap.
      pos += len + (rng.uniform_u64(2) == 0 ? 0 : 1 + rng.uniform_u64(8));
    }
    const ExtentList normalized = ExtentList::normalize(plan);
    PlanCursor cursor(plan);
    ExtentCursor list_cursor(normalized);
    ExtentList clip;
    std::uint64_t w = rng.uniform_u64(8);
    while (w < pos + 16) {
      const Extent window{w, 1 + rng.uniform_u64(24)};
      const ExtentList want = normalized.clipped(window);
      cursor.clipped_into(window, &clip);
      ASSERT_EQ(clip, want) << "window " << window << " over plan of "
                            << plan.size() << " runs";
      list_cursor.clipped_into(window, &clip);
      ASSERT_EQ(clip, want) << "window " << window << " over its list";
      w = window.end() + rng.uniform_u64(4);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExtentListProperty,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

// Host cost of the union must grow near-linearly in its input. A window
// cover is the union of 16 interleaved source clips; unioning them one
// run at a time is quadratic (a ratio near 4 per doubling) and successive
// two-way merges read about 3.4, while one k-way merge stays near 2.
// Like tests/plan_scaling_test.cc, the ratio does not depend on the host.
double union_seconds(std::size_t total_runs) {
  constexpr std::size_t kSources = 16;
  std::vector<ExtentList> lists(kSources);
  for (std::size_t s = 0; s < kSources; ++s) {
    std::vector<Extent> runs;
    for (std::size_t i = s; i < total_runs; i += kSources) {
      runs.push_back(Extent{2 * i, 1});  // interleaved, never adjacent
    }
    lists[s] = ExtentList::normalize(std::move(runs));
  }
  std::vector<const ExtentList*> ptrs;
  for (const ExtentList& l : lists) ptrs.push_back(&l);
  double best = 1e30;
  for (int rep = 0; rep < 5; ++rep) {
    ExtentList cover;
    const auto t0 = std::chrono::steady_clock::now();
    cover.assign_union(ptrs);
    const std::chrono::duration<double> dt =
        std::chrono::steady_clock::now() - t0;
    EXPECT_EQ(cover.size(), total_runs);
    best = std::min(best, dt.count());
  }
  return best;
}

TEST(ExtentUnionScaling, SixteenSourcesGrowNearLinearly) {
  const double small = union_seconds(std::size_t{1} << 17);
  const double large = union_seconds(std::size_t{1} << 18);
  ASSERT_GT(small, 0.0);
  RecordProperty("union_s_131072_runs", std::to_string(small));
  RecordProperty("union_s_262144_runs", std::to_string(large));
  EXPECT_LT(large / small, 3.0) << "16-source union " << small << " s at "
                                << "2^17 runs, " << large << " s at 2^18";
}

}  // namespace
}  // namespace mcio::util
