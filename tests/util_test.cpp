// Unit tests for the util module: deterministic RNG, statistics fits,
// table formatting, and the flat-container layer (SmallVec, FlatMap/Set,
// pooled refcounted payloads) the engine hot paths run on.
#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "util/flat_hash.h"
#include "util/ordered.h"
#include "util/pool.h"
#include "util/rng.h"
#include "util/smallvec.h"
#include "util/stats.h"
#include "util/table.h"

namespace bdg {
namespace {

TEST(Rng, DeterministicUnderSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next() == b.next());
  EXPECT_EQ(same, 0);
}

TEST(Rng, BelowRespectsBound) {
  Rng rng(7);
  for (std::uint64_t bound : {1ULL, 2ULL, 7ULL, 1000ULL}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(rng.below(bound), bound);
  }
}

TEST(Rng, BelowOneIsAlwaysZero) {
  Rng rng(9);
  for (int i = 0; i < 20; ++i) EXPECT_EQ(rng.below(1), 0u);
}

TEST(Rng, RangeInclusive) {
  Rng rng(11);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 500; ++i) {
    const std::int64_t v = rng.range(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);  // all values hit over 500 draws
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(13);
  double sum = 0;
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 1000.0, 0.5, 0.05);
}

TEST(Rng, ChanceExtremes) {
  Rng rng(17);
  for (int i = 0; i < 50; ++i) {
    EXPECT_TRUE(rng.chance(5, 5));
    EXPECT_FALSE(rng.chance(0, 5));
  }
}

TEST(Rng, ShufflePermutes) {
  Rng rng(19);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = v;
  rng.shuffle(v);
  auto reshuffled = v;
  std::sort(reshuffled.begin(), reshuffled.end());
  EXPECT_EQ(reshuffled, sorted);
}

TEST(Rng, ForkIsIndependent) {
  Rng parent(21);
  Rng child = parent.fork();
  // Child stream should not simply replay the parent's.
  int same = 0;
  for (int i = 0; i < 32; ++i) same += (parent.next() == child.next());
  EXPECT_LT(same, 2);
}

TEST(Stats, PowerFitRecoversExactLaw) {
  std::vector<double> x, y;
  for (double n : {4.0, 8.0, 16.0, 32.0, 64.0}) {
    x.push_back(n);
    y.push_back(3.0 * n * n * n);  // 3 n^3
  }
  const PowerFit fit = fit_power_law(x, y);
  EXPECT_NEAR(fit.exponent, 3.0, 1e-9);
  EXPECT_NEAR(fit.constant, 3.0, 1e-6);
  EXPECT_NEAR(fit.r2, 1.0, 1e-12);
}

TEST(Stats, PowerFitSkipsNonPositive) {
  const PowerFit fit =
      fit_power_law({0.0, 2.0, 4.0, 8.0}, {-1.0, 4.0, 16.0, 64.0});
  EXPECT_NEAR(fit.exponent, 2.0, 1e-9);
}

TEST(Stats, PowerFitDegenerate) {
  EXPECT_EQ(fit_power_law({}, {}).exponent, 0.0);
  EXPECT_EQ(fit_power_law({1.0}, {1.0}).exponent, 0.0);
}

TEST(Stats, Summary) {
  const Summary s = summarize({1.0, 2.0, 3.0, 4.0});
  EXPECT_EQ(s.count, 4u);
  EXPECT_EQ(s.min, 1.0);
  EXPECT_EQ(s.max, 4.0);
  EXPECT_DOUBLE_EQ(s.mean, 2.5);
  EXPECT_NEAR(s.stddev, 1.118, 1e-3);
  EXPECT_EQ(summarize({}).count, 0u);
}

TEST(Table, AlignsColumnsAndCounts) {
  Table t({"name", "value"});
  t.add_row({"a", "1"});
  t.add_row({"long-name", "22"});
  EXPECT_EQ(t.rows(), 2u);
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("long-name"), std::string::npos);
  EXPECT_NE(out.find("---"), std::string::npos);
}

TEST(Table, NumberFormatting) {
  EXPECT_EQ(Table::num(std::uint64_t{42}), "42");
  EXPECT_EQ(Table::num(std::int64_t{-3}), "-3");
  EXPECT_EQ(Table::num(3.14159, 2), "3.14");
}

// ---- SmallVec -------------------------------------------------------------

/// Instrumented element: every construction and destruction is counted, so
/// lifetime bugs (the double-destruction class small-vector moves are
/// notorious for) show up as ctor/dtor imbalance instead of silent UB.
struct Counted {
  static int ctors;
  static int dtors;
  int v = 0;
  Counted() { ++ctors; }
  explicit Counted(int x) : v(x) { ++ctors; }
  Counted(const Counted& o) : v(o.v) { ++ctors; }
  Counted(Counted&& o) noexcept : v(o.v) { ++ctors; }
  Counted& operator=(const Counted&) = default;
  Counted& operator=(Counted&&) = default;
  ~Counted() { ++dtors; }
};
int Counted::ctors = 0;
int Counted::dtors = 0;

TEST(SmallVec, InlineThenSpill) {
  util::SmallVec<int, 4> v;
  for (int i = 0; i < 4; ++i) v.push_back(i);
  EXPECT_FALSE(v.spilled());
  v.push_back(4);  // fifth element forces the heap
  EXPECT_TRUE(v.spilled());
  ASSERT_EQ(v.size(), 5u);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(v[i], i);
}

TEST(SmallVec, ClearKeepsCapacitySpilledOrNot) {
  util::SmallVec<int, 2> v;
  for (int i = 0; i < 20; ++i) v.push_back(i);
  const std::size_t cap = v.capacity();
  v.clear();
  EXPECT_EQ(v.size(), 0u);
  EXPECT_EQ(v.capacity(), cap);  // hot-loop refill must not reallocate
}

TEST(SmallVec, MoveOfInlineLeavesSourceEmptyNoDoubleDestroy) {
  Counted::ctors = Counted::dtors = 0;
  {
    util::SmallVec<Counted, 4> a;
    a.emplace_back(1);
    a.emplace_back(2);
    util::SmallVec<Counted, 4> b(std::move(a));
    EXPECT_EQ(a.size(), 0u);  // moved-from is a valid EMPTY vector
    ASSERT_EQ(b.size(), 2u);
    EXPECT_EQ(b[0].v, 1);
    EXPECT_EQ(b[1].v, 2);
  }
  // The double-destructor regression pin: a buggy move that leaves the
  // source's size nonzero destroys the inline elements twice.
  EXPECT_EQ(Counted::ctors, Counted::dtors);
}

TEST(SmallVec, MoveOfSpilledTransfersBuffer) {
  Counted::ctors = Counted::dtors = 0;
  {
    util::SmallVec<Counted, 2> a;
    for (int i = 0; i < 8; ++i) a.emplace_back(i);
    const Counted* buf = a.data();
    util::SmallVec<Counted, 2> b;
    b = std::move(a);
    EXPECT_EQ(b.data(), buf);  // pointer steal, no element moves
    EXPECT_EQ(a.size(), 0u);
    EXPECT_FALSE(a.spilled());
    a.emplace_back(99);  // moved-from must be fully usable
    EXPECT_EQ(a[0].v, 99);
  }
  EXPECT_EQ(Counted::ctors, Counted::dtors);
}

TEST(SmallVec, SelfAssignIsANoop) {
  util::SmallVec<std::string, 2> v;
  v.push_back("alpha");
  v.push_back("beta");
  v.push_back("gamma");  // spilled, heap-owning elements
  auto& self = v;
  v = self;
  ASSERT_EQ(v.size(), 3u);
  EXPECT_EQ(v[0], "alpha");
  EXPECT_EQ(v[2], "gamma");
  v = std::move(self);
  ASSERT_EQ(v.size(), 3u);
  EXPECT_EQ(v[1], "beta");
}

TEST(SmallVec, SwapMixedInlineAndSpilled) {
  util::SmallVec<int, 4> inl, spl;
  inl.push_back(1);
  inl.push_back(2);
  for (int i = 0; i < 9; ++i) spl.push_back(10 + i);
  inl.swap(spl);
  ASSERT_EQ(inl.size(), 9u);
  EXPECT_EQ(inl[8], 18);
  ASSERT_EQ(spl.size(), 2u);
  EXPECT_EQ(spl[0], 1);
  EXPECT_EQ(spl[1], 2);
  EXPECT_FALSE(spl.spilled());
}

TEST(SmallVec, EraseAndInsertShiftCorrectly) {
  util::SmallVec<int, 4> v{1, 2, 3, 4, 5};
  v.erase(v.begin() + 1);
  EXPECT_EQ(v, (util::SmallVec<int, 4>{1, 3, 4, 5}));
  v.insert(v.begin() + 2, 9);
  EXPECT_EQ(v, (util::SmallVec<int, 4>{1, 3, 9, 4, 5}));
}

// ---- FlatMap / FlatSet ----------------------------------------------------

TEST(FlatHash, InsertFindEraseRoundTrip) {
  util::FlatMap<std::uint64_t, int> m;
  EXPECT_EQ(m.find(7), nullptr);
  m[7] = 70;
  m[8] = 80;
  ASSERT_NE(m.find(7), nullptr);
  EXPECT_EQ(*m.find(7), 70);
  EXPECT_TRUE(m.erase(7));
  EXPECT_FALSE(m.erase(7));
  EXPECT_EQ(m.find(7), nullptr);
  EXPECT_EQ(*m.find(8), 80);
  EXPECT_EQ(m.size(), 1u);
}

TEST(FlatHash, TombstoneReuseKeepsTableSizeUnderChurn) {
  util::FlatMap<std::uint64_t, int> m;
  for (std::uint64_t k = 0; k < 6; ++k) m[k] = static_cast<int>(k);
  const std::size_t slots = m.slot_count();
  // Erase/insert churn at constant live size: tombstones must be reused,
  // not accumulated until the table doubles.
  for (std::uint64_t round = 0; round < 10'000; ++round) {
    EXPECT_TRUE(m.erase(round));
    m[round + 6] = static_cast<int>(round);
  }
  EXPECT_EQ(m.size(), 6u);
  EXPECT_EQ(m.slot_count(), slots);
}

TEST(FlatHash, RehashUnderLoadPreservesEntries) {
  util::FlatMap<std::uint64_t, std::uint64_t> m;
  for (std::uint64_t k = 0; k < 5'000; ++k) m[k * 2'654'435'761ULL] = k;
  EXPECT_EQ(m.size(), 5'000u);
  for (std::uint64_t k = 0; k < 5'000; ++k) {
    const auto* v = m.find(k * 2'654'435'761ULL);
    ASSERT_NE(v, nullptr);
    EXPECT_EQ(*v, k);
  }
}

TEST(FlatHash, IterationOrderIsDeterministicForEqualHistories) {
  const auto build = [] {
    util::FlatMap<std::uint64_t, int> m;
    for (std::uint64_t k = 0; k < 200; ++k) m[k * 977] = static_cast<int>(k);
    for (std::uint64_t k = 0; k < 200; k += 3) m.erase(k * 977);
    for (std::uint64_t k = 1'000; k < 1'100; ++k) m[k] = 1;
    return m;
  };
  std::vector<std::uint64_t> order_a, order_b;
  build().for_each([&](std::uint64_t k, int) { order_a.push_back(k); });
  build().for_each([&](std::uint64_t k, int) { order_b.push_back(k); });
  ASSERT_FALSE(order_a.empty());
  EXPECT_EQ(order_a, order_b);
}

TEST(FlatHash, VectorKeysHashByContents) {
  // CanonicalCode-style keys (vector<uint32_t>): used by the tournament
  // build-count table.
  util::FlatMap<std::vector<std::uint32_t>, int> m;
  m[std::vector<std::uint32_t>{1, 2, 3}] = 1;
  ++m[std::vector<std::uint32_t>{1, 2, 3}];
  m[std::vector<std::uint32_t>{1, 2, 4}] = 9;
  EXPECT_EQ(m.size(), 2u);
  EXPECT_EQ(*m.find(std::vector<std::uint32_t>{1, 2, 3}), 2);
  EXPECT_TRUE(m.erase(std::vector<std::uint32_t>{1, 2, 4}));
  EXPECT_EQ(m.find(std::vector<std::uint32_t>{1, 2, 4}), nullptr);
}

TEST(FlatHash, SetInsertContainsClear) {
  util::FlatSet<std::uint64_t> s;
  EXPECT_TRUE(s.insert(5));
  EXPECT_FALSE(s.insert(5));
  EXPECT_TRUE(s.contains(5));
  EXPECT_FALSE(s.contains(6));
  s.clear();
  EXPECT_EQ(s.size(), 0u);
  EXPECT_FALSE(s.contains(5));
  EXPECT_TRUE(s.insert(5));
}

// ---- ordered.h snapshots (the sanctioned hash-iteration path) -------------

TEST(Ordered, SortedItemsIsKeySortedRegardlessOfHistory) {
  // Two maps with the same content built through DIFFERENT insert/erase
  // histories have different slot orders; the snapshot must erase that.
  util::FlatMap<std::uint64_t, int> a, b;
  for (std::uint64_t k = 0; k < 50; ++k) a[k * 977] = static_cast<int>(k);
  for (std::uint64_t k = 50; k-- > 0;) b[k * 977] = static_cast<int>(k);
  b[12345] = -1;
  b.erase(12345);
  const auto sa = util::sorted_items(a);
  const auto sb = util::sorted_items(b);
  ASSERT_EQ(sa.size(), 50u);
  EXPECT_EQ(sa, sb);
  for (std::size_t i = 1; i < sa.size(); ++i)
    EXPECT_LT(sa[i - 1].first, sa[i].first);
}

TEST(Ordered, OrderedKeysSortsFlatSet) {
  util::FlatSet<std::uint64_t> s;
  for (const std::uint64_t k : {9ull, 2ull, 7ull, 2ull, 1ull}) s.insert(k);
  const std::vector<std::uint64_t> keys = util::ordered_keys(s);
  EXPECT_EQ(keys, (std::vector<std::uint64_t>{1, 2, 7, 9}));
}

TEST(Ordered, StdVariantsSortUnorderedContainers) {
  std::unordered_map<int, std::string> m;
  m[3] = "c";
  m[1] = "a";
  m[2] = "b";
  const auto items = util::sorted_items_std(m);
  ASSERT_EQ(items.size(), 3u);
  EXPECT_EQ(items[0], (std::pair<int, std::string>{1, "a"}));
  EXPECT_EQ(items[2].second, "c");
  std::unordered_set<int> s{5, 3, 4};
  EXPECT_EQ(util::ordered_keys_std(s), (std::vector<int>{3, 4, 5}));
}

// ---- PayloadPool / PayloadRef ---------------------------------------------

TEST(PayloadPool, RefcountSharingAndContentEquality) {
  util::PayloadPool pool;
  const std::vector<std::int64_t> words{3, 1, 4};
  util::PayloadRef a = pool.make(words);
  EXPECT_TRUE(a.unique());
  util::PayloadRef b = a;  // refcount bump, same block
  EXPECT_FALSE(a.unique());
  EXPECT_EQ(a, b);
  EXPECT_EQ(a, words);
  EXPECT_EQ(b.size(), 3u);
  EXPECT_EQ(b[1], 1);
}

TEST(PayloadPool, RecycleUniqueGoesToFreeListAndIsReused) {
  util::PayloadPool pool;
  util::PayloadRef a = pool.make(std::vector<std::int64_t>{42});
  EXPECT_EQ(pool.free_count(), 0u);
  pool.recycle(std::move(a));
  EXPECT_EQ(pool.free_count(), 1u);
  util::PayloadRef b = pool.make(std::vector<std::int64_t>{7, 8});
  EXPECT_EQ(pool.free_count(), 0u);  // the reclaimed block was handed out
  EXPECT_EQ(b, (std::vector<std::int64_t>{7, 8}));
}

TEST(PayloadPool, RecycleSharedJustDropsTheReference) {
  util::PayloadPool pool;
  util::PayloadRef a = pool.make(std::vector<std::int64_t>{1});
  util::PayloadRef keep = a;
  pool.recycle(std::move(a));  // keep still holds the block
  EXPECT_EQ(pool.free_count(), 0u);
  EXPECT_EQ(keep, (std::vector<std::int64_t>{1}));
  EXPECT_TRUE(keep.unique());
}

TEST(PayloadPool, RefOutlivesPool) {
  // Blocks carry no pool backpointer: a reference copied out of an engine
  // stays valid after the engine (and its pool) is destroyed, and the
  // last release plain-deletes the block (ASan tier would catch a leak or
  // a dangling free).
  util::PayloadRef survivor;
  {
    util::PayloadPool pool;
    survivor = pool.make(std::vector<std::int64_t>{9, 9, 9});
    util::PayloadRef extra = pool.make(std::vector<std::int64_t>{1});
    pool.recycle(std::move(extra));  // leaves a block on the free list too
  }
  EXPECT_EQ(survivor, (std::vector<std::int64_t>{9, 9, 9}));
}

}  // namespace
}  // namespace bdg
