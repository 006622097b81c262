/// \file param_roaring_test.cc
/// \brief Parameterized property sweeps over the Roaring bitmap across
/// density regimes (array / bitmap / run / inverted / all containers) and
/// universe sizes: set-algebra laws must hold in every representation, the
/// adaptive container must pick the canonical encoding at every density
/// threshold, galloping intersection must match the linear walk, and the
/// k-way union must match the pairwise fold.

#include <algorithm>
#include <set>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "roaring/container.h"
#include "roaring/roaring.h"

namespace zv::roaring {
namespace {

struct DensityCase {
  const char* label;
  uint32_t universe;
  uint32_t count;
  bool run_optimize;
};

class RoaringDensityTest : public ::testing::TestWithParam<DensityCase> {
 protected:
  RoaringBitmap Random(uint64_t seed) const {
    const DensityCase& c = GetParam();
    Rng rng(seed);
    std::vector<uint32_t> vals;
    vals.reserve(c.count);
    for (uint32_t i = 0; i < c.count; ++i) {
      vals.push_back(static_cast<uint32_t>(rng.Uniform(c.universe)));
    }
    RoaringBitmap bm = RoaringBitmap::FromValues(vals);
    if (c.run_optimize) bm.RunOptimize();
    return bm;
  }

  static std::set<uint32_t> AsSet(const RoaringBitmap& bm) {
    std::set<uint32_t> out;
    bm.ForEach([&out](uint32_t v) { out.insert(v); });
    return out;
  }
};

TEST_P(RoaringDensityTest, CardinalityMatchesIteration) {
  const RoaringBitmap a = Random(1);
  EXPECT_EQ(a.Cardinality(), AsSet(a).size());
}

TEST_P(RoaringDensityTest, DoubleComplementIsIdentity) {
  const RoaringBitmap a = Random(2);
  const RoaringBitmap all = RoaringBitmap::FromRange(0, GetParam().universe);
  const RoaringBitmap complement = RoaringBitmap::AndNot(all, a);
  const RoaringBitmap back = RoaringBitmap::AndNot(all, complement);
  EXPECT_TRUE(a == back);
}

TEST_P(RoaringDensityTest, DeMorgan) {
  const RoaringBitmap a = Random(3), b = Random(4);
  const RoaringBitmap all = RoaringBitmap::FromRange(0, GetParam().universe);
  // ¬(a ∪ b) == ¬a ∩ ¬b
  const RoaringBitmap lhs =
      RoaringBitmap::AndNot(all, RoaringBitmap::Or(a, b));
  const RoaringBitmap rhs = RoaringBitmap::And(
      RoaringBitmap::AndNot(all, a), RoaringBitmap::AndNot(all, b));
  EXPECT_TRUE(lhs == rhs);
}

TEST_P(RoaringDensityTest, InclusionExclusion) {
  const RoaringBitmap a = Random(5), b = Random(6);
  EXPECT_EQ(RoaringBitmap::Or(a, b).Cardinality(),
            a.Cardinality() + b.Cardinality() -
                RoaringBitmap::AndCardinality(a, b));
}

TEST_P(RoaringDensityTest, XorIsSymmetricDifference) {
  const RoaringBitmap a = Random(7), b = Random(8);
  const RoaringBitmap via_xor = RoaringBitmap::Xor(a, b);
  const RoaringBitmap via_sets = RoaringBitmap::Or(
      RoaringBitmap::AndNot(a, b), RoaringBitmap::AndNot(b, a));
  EXPECT_TRUE(via_xor == via_sets);
}

TEST_P(RoaringDensityTest, AndIsCommutativeAndIdempotent) {
  const RoaringBitmap a = Random(9), b = Random(10);
  EXPECT_TRUE(RoaringBitmap::And(a, b) == RoaringBitmap::And(b, a));
  EXPECT_TRUE(RoaringBitmap::And(a, a) == a);
}

TEST_P(RoaringDensityTest, RankSelectConsistency) {
  const RoaringBitmap a = Random(11);
  // Rank at one-past-the-max equals cardinality; rank at 0 equals 0.
  EXPECT_EQ(a.Rank(0), a.Contains(0) ? 0u : 0u);
  EXPECT_EQ(a.Rank(GetParam().universe), a.Cardinality());
  // Rank is monotone.
  uint64_t prev = 0;
  for (uint32_t probe = 0; probe < GetParam().universe;
       probe += GetParam().universe / 7 + 1) {
    const uint64_t r = a.Rank(probe);
    EXPECT_GE(r, prev);
    prev = r;
  }
}

TEST_P(RoaringDensityTest, RemoveInvertsAdd) {
  RoaringBitmap a = Random(12);
  const uint64_t before = a.Cardinality();
  const uint32_t probe = GetParam().universe / 2;
  const bool had = a.Contains(probe);
  a.Add(probe);
  EXPECT_TRUE(a.Contains(probe));
  a.Remove(probe);
  EXPECT_FALSE(a.Contains(probe));
  EXPECT_EQ(a.Cardinality(), had ? before - 1 : before);
}

TEST_P(RoaringDensityTest, RunOptimizePreservesSet) {
  const RoaringBitmap a = Random(13);
  RoaringBitmap b = a;
  b.RunOptimize();
  EXPECT_TRUE(a == b);
  EXPECT_EQ(a.Cardinality(), b.Cardinality());
}

/// Per-key container representation of a bitmap.
std::vector<std::pair<uint16_t, Container::Type>> Layout(
    const RoaringBitmap& bm) {
  std::vector<std::pair<uint16_t, Container::Type>> out;
  bm.ForEachContainer([&out](uint16_t key, const Container& c) {
    out.emplace_back(key, c.type());
  });
  return out;
}

/// OrMany against the sequential OrWith fold it replaces: same values and
/// the same container type for every key.
void ExpectOrManyMatchesFold(const std::vector<RoaringBitmap>& inputs) {
  RoaringBitmap fold;
  std::vector<const RoaringBitmap*> ptrs;
  for (const RoaringBitmap& bm : inputs) {
    fold.OrWith(bm);
    ptrs.push_back(&bm);
  }
  const RoaringBitmap many = RoaringBitmap::OrMany(ptrs);
  EXPECT_EQ(many.ToVector(), fold.ToVector()) << "k=" << inputs.size();
  EXPECT_EQ(Layout(many), Layout(fold)) << "k=" << inputs.size();
}

TEST_P(RoaringDensityTest, OrManyMatchesSequentialFold) {
  for (size_t k : {0u, 1u, 2u, 5u, 20u}) {
    std::vector<RoaringBitmap> inputs;
    for (size_t i = 0; i < k; ++i) inputs.push_back(Random(100 + k * 31 + i));
    ExpectOrManyMatchesFold(inputs);
  }
}

TEST(RoaringOrManyTest, MixedRepresentationsMatchSequentialFold) {
  // Every container type meets every other: all-set and inverted chunks
  // from ranges, run containers, sparse arrays and dense bitmaps, plus
  // unions that cross each canonical threshold.
  Rng rng(3);
  for (int trial = 0; trial < 40; ++trial) {
    std::vector<RoaringBitmap> inputs;
    const size_t k = 2 + rng.Uniform(12);
    for (size_t i = 0; i < k; ++i) {
      const uint32_t key = static_cast<uint32_t>(rng.Uniform(4)) << 16;
      RoaringBitmap bm;
      switch (rng.Uniform(5)) {
        case 0:  // all-set or near-full range
          bm = RoaringBitmap::FromRange(
              key + static_cast<uint32_t>(rng.Uniform(3000)),
              key + (1u << 16) + static_cast<uint32_t>(rng.Uniform(5000)));
          break;
        case 1: {  // runs
          std::vector<uint32_t> vals;
          const uint32_t start = key + static_cast<uint32_t>(rng.Uniform(60000));
          for (uint32_t v = start; v < start + 2000; ++v) vals.push_back(v);
          bm = RoaringBitmap::FromValues(vals);
          bm.RunOptimize();
          break;
        }
        default: {  // arrays or bitmaps, depending on the draw
          std::vector<uint32_t> vals;
          const size_t n = rng.Uniform(2) == 0 ? 1 + rng.Uniform(1500)
                                               : 3000 + rng.Uniform(20000);
          for (size_t j = 0; j < n; ++j) {
            vals.push_back(key + static_cast<uint32_t>(rng.Uniform(1u << 16)));
          }
          bm = RoaringBitmap::FromValues(vals);
          if (rng.Uniform(3) == 0) bm.RunOptimize();
          break;
        }
      }
      inputs.push_back(std::move(bm));
    }
    ExpectOrManyMatchesFold(inputs);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Densities, RoaringDensityTest,
    ::testing::Values(
        DensityCase{"SparseArrays", 1u << 22, 5'000, false},
        DensityCase{"MidArrays", 1u << 20, 60'000, false},
        DensityCase{"DenseBitmaps", 1u << 18, 200'000, false},
        DensityCase{"VeryDenseRuns", 1u << 16, 60'000, true},
        DensityCase{"SingleChunk", 1u << 16, 3'000, false},
        DensityCase{"HugeUniverse", 1u << 28, 50'000, false}),
    [](const auto& suite_info) { return suite_info.param.label; });

// ---------------------------------------------------------------------------
// Adaptive container thresholds: at every cardinality straddling the
// array<->bitmap boundary (4096), the bitmap<->inverted boundary (61440),
// and the all-set sentinel (65536), incremental construction must land in
// the canonical representation and agree with a std::set oracle.
// ---------------------------------------------------------------------------

Container::Type CanonicalTypeFor(uint32_t card) {
  if (card == kChunkCardinality) return Container::Type::kAll;
  if (card >= kInvertedMinCardinality) return Container::Type::kInverted;
  if (card > kArrayMaxCardinality) return Container::Type::kBitmap;
  return Container::Type::kArray;
}

class ContainerThresholdTest : public ::testing::TestWithParam<uint32_t> {
 protected:
  /// Exactly `card` distinct values in the chunk, pseudo-random but
  /// deterministic per cardinality.
  static std::set<uint16_t> OracleValues(uint32_t card) {
    std::set<uint16_t> oracle;
    Rng rng(card + 1);
    while (oracle.size() < card) {
      oracle.insert(static_cast<uint16_t>(rng.Uniform(kChunkCardinality)));
    }
    return oracle;
  }
};

TEST_P(ContainerThresholdTest, IncrementalBuildIsCanonicalAndOracleEqual) {
  const uint32_t card = GetParam();
  const std::set<uint16_t> oracle = OracleValues(card);
  Container c;
  for (uint16_t v : oracle) ASSERT_TRUE(c.Add(v));
  EXPECT_EQ(c.Cardinality(), card);
  EXPECT_EQ(c.type(), CanonicalTypeFor(card)) << "card=" << card;
  std::vector<uint16_t> got;
  c.ForEach([&got](uint16_t v) { got.push_back(v); });
  EXPECT_TRUE(std::equal(got.begin(), got.end(), oracle.begin(),
                         oracle.end()))
      << "card=" << card;
  // Spot-check membership from both sides of the oracle.
  Rng rng(card + 99);
  for (int probe = 0; probe < 64; ++probe) {
    const uint16_t v = static_cast<uint16_t>(rng.Uniform(kChunkCardinality));
    EXPECT_EQ(c.Contains(v), oracle.count(v) > 0) << "v=" << v;
  }
}

TEST_P(ContainerThresholdTest, RemoveCrossesThresholdDownward) {
  const uint32_t card = GetParam();
  if (card == 0) return;
  const std::set<uint16_t> values = OracleValues(card);
  Container c;
  for (uint16_t v : values) c.Add(v);
  // Remove half the values; the container must re-canonicalize and still
  // match the oracle.
  std::set<uint16_t> oracle = values;
  size_t removed = 0;
  for (uint16_t v : values) {
    if (++removed % 2 == 0) continue;
    ASSERT_TRUE(c.Remove(v));
    oracle.erase(v);
  }
  EXPECT_EQ(c.Cardinality(), oracle.size());
  EXPECT_EQ(c.type(),
            CanonicalTypeFor(static_cast<uint32_t>(oracle.size())));
  std::vector<uint16_t> got;
  c.ForEach([&got](uint16_t v) { got.push_back(v); });
  EXPECT_TRUE(
      std::equal(got.begin(), got.end(), oracle.begin(), oracle.end()));
}

TEST_P(ContainerThresholdTest, BinaryOpsMatchOracleAcrossRepresentations) {
  const uint32_t card = GetParam();
  const std::set<uint16_t> sa = OracleValues(card);
  // Partner set at a *different* density so ops cross representations:
  // sparse partner for dense inputs and vice versa.
  const std::set<uint16_t> sb =
      OracleValues(card >= kInvertedMinCardinality ? 300 : 63000);
  Container a;
  for (uint16_t v : sa) a.Add(v);
  Container b;
  for (uint16_t v : sb) b.Add(v);

  std::set<uint16_t> and_o, or_o, andnot_o, xor_o;
  std::set_intersection(sa.begin(), sa.end(), sb.begin(), sb.end(),
                        std::inserter(and_o, and_o.end()));
  std::set_union(sa.begin(), sa.end(), sb.begin(), sb.end(),
                 std::inserter(or_o, or_o.end()));
  std::set_difference(sa.begin(), sa.end(), sb.begin(), sb.end(),
                      std::inserter(andnot_o, andnot_o.end()));
  std::set_symmetric_difference(sa.begin(), sa.end(), sb.begin(), sb.end(),
                                std::inserter(xor_o, xor_o.end()));

  const auto check = [](const Container& c, const std::set<uint16_t>& o,
                        const char* op) {
    EXPECT_EQ(c.Cardinality(), o.size()) << op;
    EXPECT_EQ(c.type(), CanonicalTypeFor(static_cast<uint32_t>(o.size())))
        << op;
    std::vector<uint16_t> got;
    c.ForEach([&got](uint16_t v) { got.push_back(v); });
    EXPECT_TRUE(std::equal(got.begin(), got.end(), o.begin(), o.end())) << op;
  };
  check(Container::And(a, b), and_o, "and");
  check(Container::Or(a, b), or_o, "or");
  check(Container::AndNot(a, b), andnot_o, "andnot");
  check(Container::Xor(a, b), xor_o, "xor");
  EXPECT_EQ(Container::AndCardinality(a, b), and_o.size());
}

TEST_P(ContainerThresholdTest, WindowIterationMatchesOracle) {
  const uint32_t card = GetParam();
  const std::set<uint16_t> oracle = OracleValues(card);
  Container c;
  for (uint16_t v : oracle) c.Add(v);
  const std::pair<uint16_t, uint16_t> windows[] = {
      {0, 65535}, {0, 0}, {100, 4000}, {60000, 65535}, {32768, 32768}};
  for (const auto& [lo, hi] : windows) {
    std::vector<uint16_t> got;
    c.ForEachInWindow(lo, hi,
                      [&got](uint16_t v) { got.push_back(v); });
    std::vector<uint16_t> want;
    for (auto it = oracle.lower_bound(lo); it != oracle.end() && *it <= hi;
         ++it) {
      want.push_back(*it);
    }
    EXPECT_EQ(got, want) << "window [" << lo << ", " << hi << "]";
  }
}

INSTANTIATE_TEST_SUITE_P(
    DensityThresholds, ContainerThresholdTest,
    ::testing::Values(0u, 1u, 4095u, 4096u, 4097u, 30000u, 61439u, 61440u,
                      61441u, 65535u, 65536u),
    [](const auto& suite_info) {
      return "card" + std::to_string(suite_info.param);
    });

// ---------------------------------------------------------------------------
// Galloping vs linear intersection: identical output on every size skew,
// and the kAuto heuristic must agree with both.
// ---------------------------------------------------------------------------

using SkewCase = std::tuple<size_t, size_t>;

class GallopEquivalenceTest : public ::testing::TestWithParam<SkewCase> {};

TEST_P(GallopEquivalenceTest, AllWalkModesAgree) {
  const auto [na, nb] = GetParam();
  for (uint64_t seed : {1, 2, 3}) {
    Rng rng(seed * 1000 + na + nb);
    std::set<uint16_t> sa, sb;
    while (sa.size() < na) {
      sa.insert(static_cast<uint16_t>(rng.Uniform(kChunkCardinality)));
    }
    while (sb.size() < nb) {
      // Half the partner values overlap a's range bias so the gallop takes
      // both short and long strides.
      sb.insert(static_cast<uint16_t>(rng.Uniform(kChunkCardinality)));
    }
    const std::vector<uint16_t> a(sa.begin(), sa.end());
    const std::vector<uint16_t> b(sb.begin(), sb.end());
    std::vector<uint16_t> want;
    std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                          std::back_inserter(want));
    EXPECT_EQ(IntersectSorted(a, b, IntersectMode::kLinear), want);
    EXPECT_EQ(IntersectSorted(a, b, IntersectMode::kGalloping), want);
    EXPECT_EQ(IntersectSorted(a, b, IntersectMode::kAuto), want);
    // Symmetry: galloping picks the smaller side as the probe list.
    EXPECT_EQ(IntersectSorted(b, a, IntersectMode::kGalloping), want);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Skews, GallopEquivalenceTest,
    ::testing::Values(SkewCase{0, 100}, SkewCase{1, 1}, SkewCase{3, 4000},
                      SkewCase{100, 100}, SkewCase{50, 3000},
                      SkewCase{2000, 2100}, SkewCase{4096, 4096}),
    [](const auto& suite_info) {
      return "a" + std::to_string(std::get<0>(suite_info.param)) + "_b" +
             std::to_string(std::get<1>(suite_info.param));
    });

// ---------------------------------------------------------------------------
// Whole-bitmap densities that exercise the new representations through the
// public RoaringBitmap surface.
// ---------------------------------------------------------------------------

TEST(RoaringInvertedTest, FullChunkRangeUsesZeroBytes) {
  // [0, 65536) is one all-set chunk: the sentinel stores nothing.
  const RoaringBitmap full = RoaringBitmap::FromRange(0, 1u << 16);
  EXPECT_EQ(full.Cardinality(), 1u << 16);
  EXPECT_TRUE(full.Contains(0));
  EXPECT_TRUE(full.Contains(65535));
}

TEST(RoaringInvertedTest, NearFullRangeMatchesOracleUnderOps) {
  // 65536 - 100 values: inverted container (100 absent entries).
  RoaringBitmap dense = RoaringBitmap::FromRange(100, 1u << 16);
  ASSERT_EQ(dense.Cardinality(), (1u << 16) - 100);
  const RoaringBitmap sparse =
      RoaringBitmap::FromValues({1, 50, 99, 100, 101, 40000, 65535});
  const RoaringBitmap both = RoaringBitmap::And(dense, sparse);
  std::set<uint32_t> got;
  both.ForEach([&got](uint32_t v) { got.insert(v); });
  EXPECT_EQ(got, (std::set<uint32_t>{100, 101, 40000, 65535}));
  EXPECT_EQ(RoaringBitmap::AndCardinality(dense, sparse), 4u);
  const RoaringBitmap un = RoaringBitmap::Or(dense, sparse);
  EXPECT_EQ(un.Cardinality(), dense.Cardinality() + 3);
  // Range iteration across the inverted chunk.
  std::vector<uint32_t> window;
  dense.ForEachInRange(98, 104,
                       [&window](uint32_t v) { window.push_back(v); });
  EXPECT_EQ(window, (std::vector<uint32_t>{100, 101, 102, 103}));
}

TEST(RoaringInvertedTest, ConversionCounterAdvances) {
  const uint64_t before = ContainerConversions();
  Container c;
  for (uint32_t v = 0; v < kChunkCardinality; ++v) {
    c.Add(static_cast<uint16_t>(v));
  }
  EXPECT_EQ(c.type(), Container::Type::kAll);
  // array -> bitmap -> inverted -> all: at least three conversions.
  EXPECT_GE(ContainerConversions() - before, 3u);
}

}  // namespace
}  // namespace zv::roaring
