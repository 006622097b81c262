#include <algorithm>
#include <cmath>
#include <limits>

#include <gtest/gtest.h>

#include "common/csv.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/status.h"
#include "common/strings.h"
#include "common/value.h"
#include "tests/test_util.h"

namespace zv {
namespace {

// --- Status / Result --------------------------------------------------------

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::NotFound("missing thing");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(s.ToString(), "NotFound: missing thing");
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::InvalidArgument("bad"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

Result<int> Doubler(Result<int> in) {
  ZV_ASSIGN_OR_RETURN(int v, std::move(in));
  return v * 2;
}

TEST(ResultTest, AssignOrReturnPropagates) {
  EXPECT_EQ(Doubler(21).value(), 42);
  EXPECT_FALSE(Doubler(Status::Internal("boom")).ok());
}

// --- Value -------------------------------------------------------------------

TEST(ValueTest, NumericEqualityAcrossTypes) {
  EXPECT_EQ(Value::Int(3), Value::Double(3.0));
  EXPECT_NE(Value::Int(3), Value::Double(3.5));
  EXPECT_LT(Value::Int(3), Value::Double(3.5));
}

TEST(ValueTest, NullOrdersFirstStringsLast) {
  EXPECT_LT(Value::Null(), Value::Int(0));
  EXPECT_LT(Value::Int(1000000), Value::Str("a"));
  EXPECT_LT(Value::Str("a"), Value::Str("b"));
}

TEST(ValueTest, HashConsistentWithEquality) {
  EXPECT_EQ(Value::Int(7).Hash(), Value::Double(7.0).Hash());
  EXPECT_EQ(Value::Str("x").Hash(), Value::Str("x").Hash());
  EXPECT_EQ(Value::Int(0).Hash(), Value::Double(-0.0).Hash());
  EXPECT_EQ(Value::Int(-(int64_t{1} << 62)).Hash(),
            Value::Double(-4611686018427387904.0).Hash());
  // Doubles outside the int64 range (and non-finite ones) hash without
  // converting to int64; equal values still hash alike.
  const int64_t max = std::numeric_limits<int64_t>::max();
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(Value::Int(max), Value::Double(9223372036854775808.0));
  EXPECT_EQ(Value::Int(max).Hash(),
            Value::Double(9223372036854775808.0).Hash());
  EXPECT_EQ(Value::Double(1e300).Hash(), Value::Double(1e300).Hash());
  EXPECT_EQ(Value::Double(-1e300).Hash(), Value::Double(-1e300).Hash());
  EXPECT_EQ(Value::Double(inf).Hash(), Value::Double(inf).Hash());
  EXPECT_EQ(Value::Double(-inf).Hash(), Value::Double(-inf).Hash());
  (void)Value::Double(std::nan("")).Hash();
  EXPECT_EQ(Value::Double(1e300).ToString(), "1e+300");
  EXPECT_EQ(Value::Double(inf).ToString(), "inf");
}

TEST(ValueTest, TruncateToInt64IsDefinedEverywhere) {
  EXPECT_EQ(TruncateToInt64(-2.9), -2);
  EXPECT_EQ(TruncateToInt64(-9223372036854775808.0), INT64_MIN);
  EXPECT_EQ(TruncateToInt64(9223372036854774784.0), 9223372036854774784);
  EXPECT_FALSE(FitsInt64(9223372036854775808.0));
  EXPECT_EQ(TruncateToInt64(1e300), INT64_MIN);
  EXPECT_EQ(TruncateToInt64(-std::numeric_limits<double>::infinity()),
            INT64_MIN);
  EXPECT_EQ(TruncateToInt64(std::nan("")), INT64_MIN);
}

TEST(ValueSetTest, MembershipMatchesLinearEquality) {
  const int64_t two53 = int64_t{1} << 53;
  const std::vector<Value> universe = {
      Value::Null(),           Value::Int(0),
      Value::Double(-0.0),     Value::Int(3),
      Value::Double(3.0),      Value::Double(3.5),
      Value::Str("3"),         Value::Str("a"),
      Value::Int(two53),       Value::Int(two53 + 1),
      Value::Double(static_cast<double>(two53)),
      Value::Int(-two53 - 1),  Value::Double(std::nan("")),
      Value::Double(1e300),    Value::Int(std::numeric_limits<int64_t>::max())};
  // Every ordered subset of a few members against every probe.
  for (size_t mask = 0; mask < (size_t{1} << universe.size()); mask += 37) {
    ValueSet set;
    std::vector<Value> members;
    for (size_t i = 0; i < universe.size(); ++i) {
      if ((mask >> i) & 1) {
        set.Add(universe[i]);
        members.push_back(universe[i]);
      }
    }
    for (const Value& probe : universe) {
      bool linear = false;
      for (const Value& m : members) linear |= m == probe;
      EXPECT_EQ(set.Contains(probe), linear)
          << "mask " << mask << " probe " << probe.ToString();
    }
  }
}

TEST(ValueSetTest, InsertKeepsFirstOccurrenceLikeStdFind) {
  const int64_t two53 = int64_t{1} << 53;
  const std::vector<Value> in = {
      Value::Int(two53 + 1), Value::Double(static_cast<double>(two53)),
      Value::Int(two53),     Value::Int(2),
      Value::Double(2.0),    Value::Str("x"),
      Value::Double(std::nan("")), Value::Int(5),
      Value::Str("x"),       Value::Null(),
      Value::Null()};
  for (size_t rotate = 0; rotate < in.size(); ++rotate) {
    std::vector<Value> seq(in.begin() + rotate, in.end());
    seq.insert(seq.end(), in.begin(), in.begin() + rotate);
    std::vector<Value> want;
    for (const Value& v : seq) {
      if (std::find(want.begin(), want.end(), v) == want.end()) {
        want.push_back(v);
      }
    }
    ValueSet set;
    std::vector<Value> got;
    for (const Value& v : seq) {
      if (set.Insert(v)) got.push_back(v);
    }
    ASSERT_EQ(got.size(), want.size()) << "rotation " << rotate;
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].ToString(), want[i].ToString()) << "rotation " << rotate;
      EXPECT_EQ(got[i].type(), want[i].type()) << "rotation " << rotate;
    }
  }
}

TEST(ValueTest, ToString) {
  EXPECT_EQ(Value::Int(42).ToString(), "42");
  EXPECT_EQ(Value::Double(42.0).ToString(), "42.0");
  EXPECT_EQ(Value::Str("hi").ToString(), "hi");
  EXPECT_EQ(Value::Null().ToString(), "NULL");
}

// --- strings ------------------------------------------------------------------

TEST(StringsTest, Trim) {
  EXPECT_EQ(Trim("  a b \t\n"), "a b");
  EXPECT_EQ(Trim(""), "");
}

TEST(StringsTest, SplitKeepsEmptyFields) {
  const auto parts = Split("a||b", '|');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[1], "");
}

TEST(StringsTest, SplitTopLevelRespectsNesting) {
  const auto parts = SplitTopLevel("f(a,b), {c,d}, 'e,f', g", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(Trim(parts[0]), "f(a,b)");
  EXPECT_EQ(Trim(parts[1]), "{c,d}");
  EXPECT_EQ(Trim(parts[2]), "'e,f'");
  EXPECT_EQ(Trim(parts[3]), "g");
}

TEST(StringsTest, LikeMatch) {
  EXPECT_TRUE(LikeMatch("02134", "02%"));
  EXPECT_TRUE(LikeMatch("02134", "02___"));
  EXPECT_FALSE(LikeMatch("02134", "02__"));
  EXPECT_TRUE(LikeMatch("abc", "%c"));
  EXPECT_TRUE(LikeMatch("abc", "%"));
  EXPECT_FALSE(LikeMatch("abc", "b%"));
}

TEST(StringsTest, StrFormat) {
  EXPECT_EQ(StrFormat("%d-%s", 3, "x"), "3-x");
}

// --- CSV -----------------------------------------------------------------------

TEST(CsvTest, RoundTrip) {
  CsvTable t;
  t.header = {"a", "b"};
  t.rows = {{"1", "x,y"}, {"2", "quote\"inside"}};
  const std::string text = WriteCsv(t);
  ZV_ASSERT_OK_AND_ASSIGN(CsvTable back, ParseCsv(text));
  EXPECT_EQ(back.header, t.header);
  EXPECT_EQ(back.rows, t.rows);
}

TEST(CsvTest, RejectsRaggedRows) {
  EXPECT_FALSE(ParseCsv("a,b\n1,2,3\n").ok());
}

TEST(CsvTest, RejectsUnterminatedQuote) {
  EXPECT_FALSE(ParseCsv("a\n\"oops").ok());
}

// --- RNG -------------------------------------------------------------------------

TEST(RngTest, Deterministic) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, UniformDoubleInRange) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.UniformDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, NormalMoments) {
  Rng rng(9);
  std::vector<double> xs;
  for (int i = 0; i < 20000; ++i) xs.push_back(rng.Normal(10, 2));
  EXPECT_NEAR(Mean(xs), 10.0, 0.1);
  EXPECT_NEAR(StdDev(xs), 2.0, 0.1);
}

TEST(RngTest, ZipfSkewsTowardHead) {
  Rng rng(1);
  ZipfSampler zipf(100, 1.0);
  size_t head = 0, total = 20000;
  for (size_t i = 0; i < total; ++i) {
    if (zipf.Sample(rng) < 10) ++head;
  }
  // With s=1 the top-10 of 100 ranks hold ~56% of the mass.
  EXPECT_GT(head, total / 2);
}

// --- stats -------------------------------------------------------------------------

TEST(StatsTest, MeanVariance) {
  std::vector<double> xs = {2, 4, 4, 4, 5, 5, 7, 9};
  EXPECT_DOUBLE_EQ(Mean(xs), 5.0);
  EXPECT_NEAR(Variance(xs), 32.0 / 7.0, 1e-12);
}

TEST(StatsTest, FitLineExact) {
  // y = 3x + 1.
  std::vector<double> xs = {0, 1, 2, 3}, ys = {1, 4, 7, 10};
  const LinearFit fit = FitLine(xs, ys);
  EXPECT_NEAR(fit.slope, 3.0, 1e-12);
  EXPECT_NEAR(fit.intercept, 1.0, 1e-12);
  EXPECT_NEAR(fit.r2, 1.0, 1e-12);
}

TEST(StatsTest, FitLineDefaultsToIndexX) {
  std::vector<double> ys = {1, 4, 7, 10};
  EXPECT_NEAR(FitLine({}, ys).slope, 3.0, 1e-12);
}

TEST(StatsTest, IncompleteBetaKnownValues) {
  // I_x(1,1) = x.
  EXPECT_NEAR(IncompleteBeta(1, 1, 0.3), 0.3, 1e-9);
  // I_x(2,2) = 3x^2 - 2x^3.
  EXPECT_NEAR(IncompleteBeta(2, 2, 0.4), 3 * 0.16 - 2 * 0.064, 1e-9);
}

TEST(StatsTest, FDistSfSanity) {
  // Large F => small p.
  EXPECT_LT(FDistSf(50, 2, 30), 1e-6);
  // F = 0 => p = 1.
  EXPECT_DOUBLE_EQ(FDistSf(0, 2, 30), 1.0);
  // Known quantile: F(0.05; 2, 12) approx 3.885.
  EXPECT_NEAR(FDistSf(3.885, 2, 12), 0.05, 0.002);
}

TEST(StatsTest, AnovaDetectsSeparatedGroups) {
  std::vector<std::vector<double>> groups = {
      {1, 2, 1.5, 1.8}, {5, 5.5, 4.5, 5.2}, {9, 9.5, 8.5, 9.1}};
  const AnovaResult r = OneWayAnova(groups);
  EXPECT_GT(r.f_statistic, 50);
  EXPECT_LT(r.p_value, 1e-6);
}

TEST(StatsTest, AnovaIdenticalGroupsNotSignificant) {
  std::vector<std::vector<double>> groups = {
      {1, 2, 3, 4}, {1, 2, 3, 4}, {1, 2, 3, 4}};
  const AnovaResult r = OneWayAnova(groups);
  EXPECT_NEAR(r.f_statistic, 0.0, 1e-12);
  EXPECT_NEAR(r.p_value, 1.0, 1e-9);
}

TEST(StatsTest, StudentizedRangeKnownQuantile) {
  // Critical value q(0.05; k=3, df=30) ~ 3.49.
  const double sf = StudentizedRangeSf(3.49, 3, 30);
  EXPECT_NEAR(sf, 0.05, 0.01);
}

TEST(StatsTest, TukeySeparatesDistantGroups) {
  std::vector<std::vector<double>> groups = {
      {70, 75, 72, 74, 71, 73}, {115, 120, 110, 118, 113, 116},
      {170, 180, 175, 172, 178, 174}};
  const auto cmps = TukeyHsd(groups);
  ASSERT_EQ(cmps.size(), 3u);
  for (const auto& c : cmps) {
    EXPECT_TRUE(c.significant_01) << c.group_a << " vs " << c.group_b;
  }
}

TEST(StatsTest, TukeyCloseGroupsInsignificant) {
  std::vector<std::vector<double>> groups = {
      {10, 12, 11, 13, 9, 12}, {11, 13, 10, 12, 11, 14},
      {30, 31, 29, 32, 30, 31}};
  const auto cmps = TukeyHsd(groups);
  ASSERT_EQ(cmps.size(), 3u);
  // group 0 vs 1 close, both vs 2 far.
  for (const auto& c : cmps) {
    if (c.group_a == 0 && c.group_b == 1) {
      EXPECT_FALSE(c.significant_05);
    } else {
      EXPECT_TRUE(c.significant_01);
    }
  }
}

}  // namespace
}  // namespace zv
