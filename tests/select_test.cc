// Tests for the selection and aggregation kernels under the chunk scan:
// categorical accept-vectors (hashed IN lists), batch selection
// (CompiledPredicate::SelectRange), the blocked runner's merge
// association (RunBlocked), batch accumulation (ConsumeBatch) and row
// lists split into parts (FinishChunkScan).

#include <bit>
#include <cmath>
#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/parallel.h"
#include "common/rng.h"
#include "engine/predicate.h"
#include "engine/roaring_db.h"
#include "engine/scan_db.h"
#include "engine/select_runner.h"
#include "tests/test_util.h"

namespace zv {
namespace {

using sql::CompareOp;
using sql::Expr;

constexpr int64_t kTwo53 = int64_t{1} << 53;

/// A dictionary mixing ints, int-valued doubles, fractional doubles and
/// strings, plus the values on which operator== is not an equivalence
/// (NaN, ints beyond 2^53 and the doubles they round to, signed zeros).
std::vector<Value> MixedDictionary() {
  std::vector<Value> dict;
  for (int64_t i = 0; i < 40; ++i) dict.push_back(Value::Int(i * 3 - 20));
  for (int i = 0; i < 20; ++i) dict.push_back(Value::Double(100.0 + i));
  for (int i = 0; i < 20; ++i) dict.push_back(Value::Double(0.25 + i * 1.5));
  for (int i = 0; i < 30; ++i) {
    dict.push_back(Value::Str("s" + std::to_string(i)));
  }
  dict.push_back(Value::Int(kTwo53));
  dict.push_back(Value::Int(kTwo53 + 1));
  dict.push_back(Value::Double(static_cast<double>(kTwo53)));
  dict.push_back(Value::Int(-kTwo53 - 1));
  dict.push_back(Value::Int(std::numeric_limits<int64_t>::max()));
  dict.push_back(Value::Double(1e300));
  dict.push_back(Value::Double(-std::numeric_limits<double>::infinity()));
  dict.push_back(Value::Double(-0.0));
  dict.push_back(Value::Double(std::nan("")));
  dict.push_back(Value::Null());
  return dict;
}

/// IN lists of `size` values: dictionary members, near misses and absent
/// values of every type, drawn deterministically from `seed`.
std::vector<Value> InList(const std::vector<Value>& dict, size_t size,
                          uint64_t seed) {
  Rng rng(seed);
  std::vector<Value> values;
  while (values.size() < size) {
    switch (rng.Uniform(6)) {
      case 0:
      case 1:
      case 2:
        values.push_back(dict[rng.Uniform(dict.size())]);
        break;
      case 3:
        values.push_back(Value::Int(rng.UniformInt(-30, 130)));
        break;
      case 4:
        values.push_back(Value::Double(rng.UniformInt(-30, 130) + 0.25));
        break;
      default:
        values.push_back(Value::Str("s" + std::to_string(rng.Uniform(40))));
        break;
    }
  }
  return values;
}

void ExpectAcceptsMatch(const Expr& leaf, const std::vector<Value>& dict) {
  const std::vector<uint8_t> accept = CategoricalAccepts(leaf, dict);
  ASSERT_EQ(accept.size(), dict.size());
  for (size_t code = 0; code < dict.size(); ++code) {
    EXPECT_EQ(accept[code] != 0, LeafPredicateAccepts(leaf, dict[code]))
        << leaf.ToSql() << " at code " << code << " ("
        << dict[code].ToString() << ")";
  }
}

TEST(AcceptVectorTest, InListsMatchLinearCheckAtEverySize) {
  const std::vector<Value> dict = MixedDictionary();
  for (size_t size : {1u, 3u, 8u, 9u, 16u, 64u, 300u}) {
    for (uint64_t seed = 1; seed <= 4; ++seed) {
      ExpectAcceptsMatch(*Expr::In("c", InList(dict, size, seed * 7 + size)),
                         dict);
    }
  }
}

TEST(AcceptVectorTest, NanAndWideIntInValuesKeepLinearSemantics) {
  const std::vector<Value> dict = MixedDictionary();
  for (size_t size : {4u, 32u}) {
    std::vector<Value> with_nan = InList(dict, size, 99);
    with_nan.push_back(Value::Double(std::nan("")));
    ExpectAcceptsMatch(*Expr::In("c", with_nan), dict);

    std::vector<Value> wide = InList(dict, size, 77);
    wide.push_back(Value::Int(kTwo53 + 1));
    wide.push_back(Value::Double(static_cast<double>(kTwo53)));
    wide.push_back(Value::Int(std::numeric_limits<int64_t>::min()));
    ExpectAcceptsMatch(*Expr::In("c", wide), dict);
  }
  // Only non-numeric members: a NaN probe matches nothing.
  std::vector<Value> strings;
  for (int i = 0; i < 20; ++i) strings.push_back(Value::Str(std::to_string(i)));
  ExpectAcceptsMatch(*Expr::In("c", strings), dict);
}

TEST(AcceptVectorTest, OtherLeafKindsMatchLinearCheck) {
  const std::vector<Value> dict = MixedDictionary();
  for (CompareOp op : {CompareOp::kEq, CompareOp::kNe, CompareOp::kLt,
                       CompareOp::kLe, CompareOp::kGt, CompareOp::kGe}) {
    ExpectAcceptsMatch(*Expr::Compare("c", op, Value::Int(7)), dict);
    ExpectAcceptsMatch(*Expr::Compare("c", op, Value::Str("s1")), dict);
  }
  ExpectAcceptsMatch(*Expr::Between("c", Value::Int(-5), Value::Double(101.5)),
                     dict);
  ExpectAcceptsMatch(*Expr::Like("c", "s1%"), dict);
}

/// A table whose categorical column `c` holds the mixed values a table
/// dictionary can (TableBuilder merges values that compare equal).
std::shared_ptr<Table> MixedTable(size_t rows) {
  Schema schema({{"c", ColumnType::kCategorical},
                 {"g", ColumnType::kCategorical},
                 {"v", ColumnType::kDouble}});
  TableBuilder b("mixed", schema);
  std::vector<Value> dict = MixedDictionary();
  dict.pop_back();  // NULL
  dict.pop_back();  // NaN
  Rng rng(5);
  for (size_t r = 0; r < rows; ++r) {
    b.AppendCategorical(0, dict[rng.Uniform(dict.size())]);
    b.AppendCategorical(1, Value::Int(static_cast<int64_t>(r % 7)));
    b.AppendDouble(2, rng.UniformDouble(-10, 10));
    b.CommitRow();
  }
  return b.Finish();
}

TEST(AcceptVectorTest, ScanAndRoaringAgreeOnHashedInLists) {
  auto table = MixedTable(40000);
  ScanDatabase scan;
  RoaringDatabase roaring;
  ASSERT_TRUE(scan.RegisterTable(table).ok());
  ASSERT_TRUE(roaring.RegisterTable(table).ok());
  const std::vector<Value> dict = MixedDictionary();
  for (size_t size : {3u, 9u, 40u, 200u}) {
    for (bool negate : {false, true}) {
      std::vector<Value> in = InList(dict, size, 1000 + size);
      if (size == 40u) in.push_back(Value::Double(std::nan("")));
      sql::SelectStatement stmt;
      stmt.table = "mixed";
      stmt.items = {{"g", sql::AggFunc::kNone},
                    {"v", sql::AggFunc::kSum},
                    {"*", sql::AggFunc::kCount}};
      stmt.group_by = {"g"};
      auto leaf = Expr::In("c", in);
      stmt.where = negate ? Expr::Not(std::move(leaf)) : std::move(leaf);

      // Reference per-group counts straight from the linear leaf check.
      const auto plain = Expr::In("c", in);
      std::vector<int64_t> expected(7, 0);
      for (size_t r = 0; r < table->num_rows(); ++r) {
        const bool accepted = LeafPredicateAccepts(
            *plain, table->DictValue(0, table->Code(r, 0)));
        if (accepted != negate) ++expected[r % 7];
      }

      ZV_ASSERT_OK_AND_ASSIGN(ResultSet want, scan.Execute(stmt));
      ZV_ASSERT_OK_AND_ASSIGN(ResultSet got, roaring.Execute(stmt));
      EXPECT_EQ(got.rows, want.rows) << stmt.ToSql();
      std::vector<int64_t> counted(7, 0);
      for (const auto& row : want.rows) {
        counted[static_cast<size_t>(row[0].AsInt())] = row[2].AsInt();
      }
      EXPECT_EQ(counted, expected) << stmt.ToSql();

      // The chunk route through each backend's scanner.
      for (Database* db : std::vector<Database*>{&scan, &roaring}) {
        ZV_ASSERT_OK_AND_ASSIGN(auto scanner, db->PrepareChunkScan(stmt));
        std::vector<uint32_t> rows;
        ASSERT_TRUE(scanner
                        ->ScanRange(0, static_cast<uint32_t>(table->num_rows()),
                                    &rows)
                        .ok());
        ZV_ASSERT_OK_AND_ASSIGN(ResultSet chunked,
                                db->FinishChunkScan(stmt, rows));
        EXPECT_EQ(chunked.rows, want.rows) << db->name() << " " << stmt.ToSql();
      }
    }
  }
}

// --- SelectRange ------------------------------------------------------------

std::shared_ptr<Table> PredicateTable(size_t rows) {
  Schema schema({{"a", ColumnType::kCategorical},
                 {"b", ColumnType::kCategorical},
                 {"i", ColumnType::kInt},
                 {"d", ColumnType::kDouble}});
  TableBuilder b("t", schema);
  Rng rng(11);
  for (size_t r = 0; r < rows; ++r) {
    b.AppendCategorical(0, Value::Str("a" + std::to_string(rng.Uniform(12))));
    b.AppendCategorical(1, Value::Int(rng.UniformInt(0, 30)));
    b.AppendInt(2, rng.UniformInt(-50, 50));
    b.AppendDouble(3, rng.UniformDouble(-1, 1));
    b.CommitRow();
  }
  return b.Finish();
}

std::unique_ptr<Expr> RandomLeaf(Rng& rng) {
  const CompareOp op = static_cast<CompareOp>(rng.Uniform(6));
  switch (rng.Uniform(7)) {
    case 0:
      return Expr::Compare("a", op,
                           Value::Str("a" + std::to_string(rng.Uniform(12))));
    case 1: {
      std::vector<Value> in;
      const size_t n = 1 + rng.Uniform(20);
      for (size_t k = 0; k < n; ++k) {
        in.push_back(Value::Int(rng.UniformInt(0, 35)));
      }
      return Expr::In("b", std::move(in));
    }
    case 2:
      return Expr::Between("b", Value::Int(rng.UniformInt(0, 15)),
                           Value::Int(rng.UniformInt(10, 30)));
    case 3:
      return Expr::Compare("i", op, Value::Int(rng.UniformInt(-50, 50)));
    case 4:
      return Expr::Compare("d", op, Value::Double(rng.UniformDouble(-1, 1)));
    case 5:
      return Expr::Between("d", Value::Double(rng.UniformDouble(-1, 0)),
                           Value::Double(rng.UniformDouble(0, 1)));
    default:
      return Expr::In("i", {Value::Int(rng.UniformInt(-50, 50)),
                            Value::Int(rng.UniformInt(-50, 50)),
                            Value::Double(3.0)});
  }
}

std::unique_ptr<Expr> RandomTree(Rng& rng, int depth) {
  if (depth == 0 || rng.Uniform(4) == 0) return RandomLeaf(rng);
  switch (rng.Uniform(3)) {
    case 0:
      return Expr::Not(RandomTree(rng, depth - 1));
    default: {
      std::vector<std::unique_ptr<Expr>> children;
      const size_t n = 2 + rng.Uniform(3);
      for (size_t k = 0; k < n; ++k) {
        children.push_back(RandomTree(rng, depth - 1));
      }
      return rng.Uniform(2) == 0 ? Expr::And(std::move(children))
                                 : Expr::Or(std::move(children));
    }
  }
}

TEST(SelectRangeTest, MatchesPerRowTestOnRandomTrees) {
  const uint32_t n = 40001;
  auto table = PredicateTable(n);
  Rng rng(2024);
  const std::vector<std::pair<uint32_t, uint32_t>> ranges = {
      {0, 0}, {500, 500}, {13, 9999}, {4097, 4098}, {32767, n}, {0, n}};
  for (int trial = 0; trial < 80; ++trial) {
    auto expr = RandomTree(rng, 3);
    ZV_ASSERT_OK_AND_ASSIGN(CompiledPredicate pred,
                            CompiledPredicate::Compile(*table, *expr));
    for (const auto& [lo, hi] : ranges) {
      std::vector<uint32_t> want = {7u, 3u};  // prefix must survive
      for (uint32_t row = lo; row < hi; ++row) {
        if (pred.Test(row)) want.push_back(row);
      }
      std::vector<uint32_t> got = {7u, 3u};
      pred.SelectRange(lo, hi, &got);
      ASSERT_EQ(got, want) << expr->ToSql() << " over [" << lo << ", " << hi
                           << ")";
    }
  }
}

// --- RunBlocked merge association --------------------------------------------

/// Rows per block and the block cap of RunBlocked, and the dense group
/// count above which it scans serially rather than replicate state.
constexpr size_t kBlockRows = 16384;
constexpr size_t kMaxBlocks = 32;
constexpr size_t kMaxReplicatedGroups = size_t{1} << 15;

struct Partial {
  double sum = 0;
  int64_t count = 0;
  double min = std::numeric_limits<double>::infinity();
  double max = -std::numeric_limits<double>::infinity();
};

bool Selected(size_t row) { return row % 7 != 3; }

/// The association contract, written independently of SelectRunner: each
/// key sums over each block B_b = [n*b/B, n*(b+1)/B) in row order, then the
/// block partials fold left to right (a block that never saw the key does
/// not take part).
std::vector<Partial> ReferenceAggregate(const Table& table, size_t groups) {
  const size_t n = table.num_rows();
  size_t blocks = std::min(kMaxBlocks, std::max<size_t>(1, n / kBlockRows));
  if (groups > kMaxReplicatedGroups) blocks = 1;
  const std::vector<double>& v = table.DoubleColumn(1);
  std::vector<Partial> total(groups);
  for (size_t b = 0; b < blocks; ++b) {
    std::vector<Partial> part(groups);
    std::vector<uint8_t> seen(groups, 0);
    for (size_t row = n * b / blocks; row < n * (b + 1) / blocks; ++row) {
      if (!Selected(row)) continue;
      const size_t key = static_cast<size_t>(table.Code(row, 0));
      Partial& p = part[key];
      p.sum += v[row];
      ++p.count;
      p.min = std::min(p.min, v[row]);
      p.max = std::max(p.max, v[row]);
      seen[key] = 1;
    }
    for (size_t key = 0; key < groups; ++key) {
      if (!seen[key]) continue;
      Partial& t = total[key];
      t.sum += part[key].sum;
      t.count += part[key].count;
      if (part[key].min < t.min) t.min = part[key].min;
      if (part[key].max > t.max) t.max = part[key].max;
    }
  }
  return total;
}

/// `groups` keys (code == row % groups) over values whose magnitudes span
/// many orders, so any change of summation order shows in the low bits.
std::shared_ptr<Table> AssociationTable(size_t rows, size_t groups) {
  Schema schema({{"k", ColumnType::kCategorical}, {"v", ColumnType::kDouble}});
  TableBuilder b("assoc", schema);
  Rng rng(groups);
  for (size_t r = 0; r < rows; ++r) {
    b.AppendCategorical(0, Value::Int(static_cast<int64_t>(r % groups)));
    const double magnitude = std::pow(10.0, rng.UniformInt(-4, 8));
    b.AppendDouble(1, rng.UniformDouble(-1, 1) * magnitude);
    b.CommitRow();
  }
  return b.Finish();
}

uint64_t Bits(const Value& v) { return std::bit_cast<uint64_t>(v.AsDouble()); }

TEST(RunBlockedTest, MergeAssociatesLikeBlockOrderFold) {
  const size_t n = kMaxBlocks * kBlockRows + 1000;
  for (size_t groups : {size_t{1}, size_t{32768}, size_t{32769}}) {
    auto table = AssociationTable(n, groups);
    ASSERT_EQ(table->DictSize(0), groups);
    const std::vector<Partial> want = ReferenceAggregate(*table, groups);
    sql::SelectStatement stmt;
    stmt.table = "assoc";
    stmt.items = {{"k", sql::AggFunc::kNone},   {"v", sql::AggFunc::kSum},
                  {"v", sql::AggFunc::kAvg},    {"v", sql::AggFunc::kMin},
                  {"v", sql::AggFunc::kMax},    {"*", sql::AggFunc::kCount}};
    stmt.group_by = {"k"};
    for (size_t threads : {1u, 4u}) {
      SetParallelThreads(threads);
      ZV_ASSERT_OK_AND_ASSIGN(
          ResultSet rs,
          RunBlocked(*table, stmt,
                     [](size_t begin, size_t end, SelectRunner& runner) {
                       for (size_t row = begin; row < end; ++row) {
                         if (Selected(row)) runner.Consume(row);
                       }
                     }));
      ASSERT_EQ(rs.rows.size(), groups);
      for (size_t key = 0; key < groups; ++key) {
        const auto& row = rs.rows[key];
        const Partial& p = want[key];
        ASSERT_EQ(row[0], Value::Int(static_cast<int64_t>(key)));
        ASSERT_EQ(Bits(row[1]), std::bit_cast<uint64_t>(p.sum))
            << "SUM, groups=" << groups << " threads=" << threads
            << " key=" << key;
        ASSERT_EQ(Bits(row[2]), std::bit_cast<uint64_t>(
                                    p.sum / static_cast<double>(p.count)))
            << "AVG, groups=" << groups << " key=" << key;
        ASSERT_EQ(Bits(row[3]), std::bit_cast<uint64_t>(p.min));
        ASSERT_EQ(Bits(row[4]), std::bit_cast<uint64_t>(p.max));
        ASSERT_EQ(row[5], Value::Int(p.count));
      }
    }
    SetParallelThreads(0);
  }
}

TEST(RunBlockedTest, BinnedKeysOutsideInt64RangeAreDefined) {
  Schema schema({{"x", ColumnType::kDouble}, {"y", ColumnType::kDouble}});
  TableBuilder b("bins", schema);
  const double inf = std::numeric_limits<double>::infinity();
  for (double x : {1.5, 2.5, 1.25, 1e300, -1e300, inf, -inf}) {
    b.AppendDouble(0, x);
    b.AppendDouble(1, 1.0);
    b.CommitRow();
  }
  ScanDatabase db;
  ASSERT_TRUE(db.RegisterTable(b.Finish()).ok());
  sql::SelectStatement stmt;
  stmt.table = "bins";
  stmt.items = {{"x", sql::AggFunc::kNone}, {"*", sql::AggFunc::kCount}};
  stmt.group_by = {"x"};
  stmt.group_bins = {1.0};
  ZV_ASSERT_OK_AND_ASSIGN(ResultSet rs, db.Execute(stmt));
  // Keys past the int64 range share the INT64_MIN bin, as the client
  // binner (viz/binning.h) keys them.
  ASSERT_EQ(rs.rows.size(), 3u);
  EXPECT_EQ(rs.rows[0][0].AsDouble(), static_cast<double>(INT64_MIN));
  EXPECT_EQ(rs.rows[0][1], Value::Int(4));
  EXPECT_EQ(rs.rows[1][0].AsDouble(), 1.0);
  EXPECT_EQ(rs.rows[1][1], Value::Int(2));
  EXPECT_EQ(rs.rows[2][0].AsDouble(), 2.0);
}

// --- ConsumeBatch and split row lists -----------------------------------------

/// Bit-exact cell spelling: doubles by their bits (signed zeros
/// included), everything else by value. Every NaN spells the same: which
/// NaN `a + b` returns when both are NaN follows the operand order the
/// compiler emits, and compilers treat addition as commutative, so NaN
/// sign and payload are not reproducible across compilations.
std::string CellBits(const Value& v) {
  if (v.is_double() && std::isnan(v.AsDouble())) return "nan";
  if (v.is_double()) return "d" + std::to_string(Bits(v));
  return v.ToString();
}

std::vector<std::vector<std::string>> ResultBits(const ResultSet& rs) {
  std::vector<std::vector<std::string>> out;
  for (const auto& row : rs.rows) {
    std::vector<std::string> cells;
    for (const Value& v : row) cells.push_back(CellBits(v));
    out.push_back(std::move(cells));
  }
  return out;
}

/// Three categorical group columns, a double measure whose magnitudes span
/// many orders (plus NaN and ±inf), a wide int measure, and a categorical
/// measure mixing numeric and string dictionary values.
std::shared_ptr<Table> BatchTable(size_t rows) {
  Schema schema({{"g0", ColumnType::kCategorical},
                 {"g1", ColumnType::kCategorical},
                 {"g2", ColumnType::kCategorical},
                 {"d", ColumnType::kDouble},
                 {"i", ColumnType::kInt},
                 {"c", ColumnType::kCategorical}});
  TableBuilder b("batch", schema);
  Rng rng(29);
  const double inf = std::numeric_limits<double>::infinity();
  for (size_t r = 0; r < rows; ++r) {
    b.AppendCategorical(0, Value::Str("a" + std::to_string(rng.Uniform(5))));
    b.AppendCategorical(1, Value::Int(static_cast<int64_t>(rng.Uniform(3))));
    b.AppendCategorical(2, Value::Str("z" + std::to_string(rng.Uniform(4))));
    double d = rng.UniformDouble(-1, 1) * std::pow(10.0, rng.UniformInt(-6, 16));
    const uint64_t special = rng.Uniform(200);
    if (special == 0) d = std::nan("");
    if (special == 1) d = inf;
    if (special == 2) d = -inf;
    b.AppendDouble(3, d);
    b.AppendInt(4, rng.UniformInt(-(int64_t{1} << 60), int64_t{1} << 60));
    const uint64_t pick = rng.Uniform(4);
    b.AppendCategorical(5, pick == 0   ? Value::Str("text")
                           : pick == 1 ? Value::Double(rng.UniformDouble(-1e9, 1e9))
                                       : Value::Int(rng.UniformInt(-50, 50)));
    b.CommitRow();
  }
  return b.Finish();
}

sql::SelectStatement BatchStatement(size_t group_cols) {
  sql::SelectStatement stmt;
  stmt.table = "batch";
  const std::vector<std::string> groups = {"g0", "g1", "g2"};
  for (size_t g = 0; g < group_cols; ++g) {
    stmt.items.push_back({groups[g], sql::AggFunc::kNone});
    stmt.group_by.push_back(groups[g]);
  }
  stmt.items.push_back({"*", sql::AggFunc::kCount});
  for (const char* col : {"d", "i", "c"}) {
    for (sql::AggFunc f : {sql::AggFunc::kSum, sql::AggFunc::kAvg,
                           sql::AggFunc::kMin, sql::AggFunc::kMax,
                           sql::AggFunc::kCount}) {
      stmt.items.push_back({col, f});
    }
  }
  return stmt;
}

/// An ascending random subset of [0, rows) with exactly `n` members.
std::vector<uint32_t> SortedSample(size_t rows, size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<uint32_t> picked;
  for (size_t r = 0; r < rows && picked.size() < n; ++r) {
    // Take row r with probability (still needed) / (still available).
    if (rng.Uniform(rows - r) < n - picked.size()) {
      picked.push_back(static_cast<uint32_t>(r));
    }
  }
  return picked;
}

TEST(ConsumeBatchTest, MatchesPerRowConsumeBitForBit) {
  auto table = BatchTable(6000);
  constexpr size_t kB = SelectRunner::kConsumeBatchRows;
  for (size_t group_cols = 0; group_cols <= 3; ++group_cols) {
    const sql::SelectStatement stmt = BatchStatement(group_cols);
    for (size_t n : {size_t{0}, size_t{1}, kB - 1, kB, kB + 1, size_t{4097}}) {
      const std::vector<uint32_t> rows = SortedSample(6000, n, n + group_cols);
      ASSERT_EQ(rows.size(), n);
      ZV_ASSERT_OK_AND_ASSIGN(SelectRunner per_row,
                              SelectRunner::Plan(*table, stmt));
      for (uint32_t row : rows) per_row.Consume(row);
      ZV_ASSERT_OK_AND_ASSIGN(ResultSet want, per_row.Finish());

      ZV_ASSERT_OK_AND_ASSIGN(SelectRunner batched,
                              SelectRunner::Plan(*table, stmt));
      batched.ConsumeBatch(rows.data(), rows.size());
      ZV_ASSERT_OK_AND_ASSIGN(ResultSet got, batched.Finish());
      EXPECT_EQ(ResultBits(got), ResultBits(want))
          << "groups=" << group_cols << " n=" << n;

      // Batches fed in pieces continue the same per-group folds.
      ZV_ASSERT_OK_AND_ASSIGN(SelectRunner pieces,
                              SelectRunner::Plan(*table, stmt));
      const size_t cut = n / 3;
      pieces.ConsumeBatch(rows.data(), cut);
      pieces.ConsumeBatch(rows.data() + cut, n - cut);
      ZV_ASSERT_OK_AND_ASSIGN(ResultSet split, pieces.Finish());
      EXPECT_EQ(ResultBits(split), ResultBits(want))
          << "groups=" << group_cols << " n=" << n << " (pieces)";
    }
  }
}

TEST(ConsumeBatchTest, SplitRowListsMatchTheFlatList) {
  // Several aggregation blocks, so cuts straddle block boundaries.
  const size_t n = 5 * kBlockRows + 123;
  auto table = BatchTable(n);
  ScanDatabase db;
  ZV_ASSERT_OK(db.RegisterTable(table));
  const std::vector<uint32_t> flat = SortedSample(n, n / 3, 7);
  Rng rng(41);
  for (size_t group_cols = 0; group_cols <= 3; ++group_cols) {
    const sql::SelectStatement stmt = BatchStatement(group_cols);
    ZV_ASSERT_OK_AND_ASSIGN(ResultSet want, db.FinishChunkScan(stmt, flat));
    for (int trial = 0; trial < 8; ++trial) {
      // Random cut points, repeats allowed: repeats make empty parts, and
      // 0 / flat.size() make empty leading and trailing parts.
      std::vector<size_t> cuts = {0, flat.size()};
      const size_t extra = 1 + rng.Uniform(12);
      for (size_t k = 0; k < extra; ++k) cuts.push_back(rng.Uniform(flat.size() + 1));
      cuts.push_back(0);
      cuts.push_back(flat.size());
      std::sort(cuts.begin(), cuts.end());
      std::vector<std::span<const uint32_t>> parts;
      for (size_t k = 0; k + 1 < cuts.size(); ++k) {
        parts.emplace_back(flat.data() + cuts[k], cuts[k + 1] - cuts[k]);
      }
      for (size_t threads : {1u, 4u}) {
        SetParallelThreads(threads);
        ZV_ASSERT_OK_AND_ASSIGN(ResultSet got, db.FinishChunkScan(stmt, parts));
        EXPECT_EQ(ResultBits(got), ResultBits(want))
            << "groups=" << group_cols << " trial=" << trial
            << " threads=" << threads;
      }
      SetParallelThreads(0);
    }
    // Per-chunk lists, as a scan pass hands them over.
    ZV_ASSERT_OK(db.RebuildChunkMap("batch", 4096));
    ZV_ASSERT_OK_AND_ASSIGN(ChunkMap map, db.GetChunkMap("batch"));
    std::vector<std::vector<uint32_t>> lists(map.num_chunks());
    for (uint32_t row : flat) {
      for (size_t c = 0; c < map.num_chunks(); ++c) {
        const auto [b, e] = map.chunk_range(c);
        if (row >= b && row < e) lists[c].push_back(row);
      }
    }
    const std::vector<std::span<const uint32_t>> chunk_parts(lists.begin(),
                                                             lists.end());
    ZV_ASSERT_OK_AND_ASSIGN(ResultSet chunked,
                            db.FinishChunkScan(stmt, chunk_parts));
    EXPECT_EQ(ResultBits(chunked), ResultBits(want)) << "per-chunk lists";
  }
}

}  // namespace
}  // namespace zv
