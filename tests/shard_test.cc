/// \file shard_test.cc
/// \brief The sharded-execution contract: results are byte-identical to the
/// unsharded oracle across chunk sizes (including table < 1 chunk, chunk =
/// 1 row, and an empty table), both backends, both schedules, and
/// ZV_THREADS in {1, 4} — with the same sql_queries/sql_requests deltas.
/// Sharded runs take the private BatchScanQueue pass (zql/scheduler.h).
/// Plus: mid-scan cancellation resolves promptly, the chunk-scan
/// primitives match a serial scan row for row, EXPLAIN renders the
/// fan-out, and a ReplaceDataset swap rebuilds the chunk catalog. Runs
/// under the tsan/asan ctest gates (tools/run_tsan.sh, tools/run_asan.sh):
/// the private queue's workers and the fetch thread race-check together.

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "common/cancel.h"
#include "common/parallel.h"
#include "engine/chunk_map.h"
#include "engine/roaring_db.h"
#include "engine/scan_db.h"
#include "server/query_service.h"
#include "sql/parser.h"
#include "tests/test_util.h"
#include "workload/datasets.h"
#include "zql/executor.h"
#include "zql/parser.h"
#include "zql/plan.h"

namespace zv::zql {
namespace {

class ScopedThreads {
 public:
  explicit ScopedThreads(size_t n) { SetParallelThreads(n); }
  ~ScopedThreads() { SetParallelThreads(0); }
};

bool SameVisualization(const Visualization& a, const Visualization& b) {
  return a.x_attr == b.x_attr && a.y_attr == b.y_attr &&
         a.slices == b.slices && a.constraints == b.constraints &&
         a.spec == b.spec && a.xs == b.xs && a.series == b.series;
}

::testing::AssertionResult SameResult(const ZqlResult& a, const ZqlResult& b) {
  if (a.outputs.size() != b.outputs.size()) {
    return ::testing::AssertionFailure() << "output count mismatch";
  }
  for (size_t o = 0; o < a.outputs.size(); ++o) {
    if (a.outputs[o].name != b.outputs[o].name ||
        a.outputs[o].visuals.size() != b.outputs[o].visuals.size()) {
      return ::testing::AssertionFailure()
             << "output " << o << " shape mismatch";
    }
    for (size_t v = 0; v < a.outputs[o].visuals.size(); ++v) {
      if (!SameVisualization(a.outputs[o].visuals[v],
                             b.outputs[o].visuals[v])) {
        return ::testing::AssertionFailure()
               << "output " << a.outputs[o].name << " visual " << v << ": "
               << a.outputs[o].visuals[v].DebugString() << " vs "
               << b.outputs[o].visuals[v].DebugString();
      }
    }
  }
  return ::testing::AssertionSuccess();
}

/// Query shapes covering the fetch paths sharding touches: a predicate
/// fetch over a named set, a task pipeline with reuse, and a no-WHERE
/// full-table aggregation (the bitmap fast path on the Roaring backend).
const char* const kSetQuery =
    "f1 | 'year' | 'sales' | v1 <- P | location='US' | bar.(y=agg('sum')) "
    "| v2 <- argany_v1[t > 0] T(f1)\n"
    "f2 | 'year' | 'sales' | v1 | location='UK' | bar.(y=agg('sum')) | v3 "
    "<- argany_v1[t < 0] T(f2)\n"
    "*f3 | 'year' | 'profit' | v4 <- (v2.range | v3.range) | | "
    "bar.(y=agg('sum')) |";
const char* const kNoWhereQuery =
    "*f1 | 'year' | 'sales' | v1 <- 'location'.* | | bar.(y=agg('sum')) |";

NamedSets MakeP(size_t n) {
  NamedSets sets;
  std::vector<Value> products;
  for (size_t i = 0; i < n; ++i) {
    products.push_back(Value::Str("product" + std::to_string(i)));
  }
  sets.value_sets["P"] = {"product", products};
  return sets;
}

std::shared_ptr<Table> MediumSales() {
  static std::shared_ptr<Table> table = [] {
    SalesDataOptions opts;
    opts.num_rows = 3000;
    opts.num_products = 10;
    return MakeSalesTable(opts);
  }();
  return table;
}

Result<ZqlResult> RunZql(Database* db, const char* zql, size_t shards,
                      bool pipelined) {
  ZqlOptions opts;
  opts.named_sets = MakeP(8);
  opts.pipelined_execution = pipelined;
  opts.shards = shards;
  ZqlExecutor exec(db, "sales", opts);
  return exec.ExecuteText(zql);
}

template <typename DbType>
void RunIdentityMatrix() {
  DbType db;
  ZV_ASSERT_OK(db.RegisterTable(MediumSales()));
  for (const char* zql : {kSetQuery, kNoWhereQuery}) {
    // Oracle: serial, unsharded, staged (chunk size irrelevant at 1 shard).
    ZqlResult baseline;
    {
      ScopedThreads threads(1);
      ZV_ASSERT_OK_AND_ASSIGN(
          baseline, RunZql(&db, zql, /*shards=*/1, /*pipelined=*/false));
    }
    // Chunk sizes: 1 row per chunk (maximal fan-out), a mid split, an
    // exact divisor of the 3000-row table (1500: the last chunk boundary
    // lands exactly on the last row — no ragged tail chunk), and the
    // default 2^18 rows — which the table fits inside, so the "table < 1
    // chunk" case degenerates to the unsharded path. Shard counts include
    // 8, which exceeds the chunk count at chunk_rows=1500 (2 chunks):
    // the pass caps its width at the chunk count without disturbing the
    // bytes.
    for (size_t chunk_rows :
         {size_t{1}, size_t{256}, size_t{1500}, size_t{0}}) {
      ZV_ASSERT_OK(db.RebuildChunkMap("sales", chunk_rows));
      for (size_t shards : {size_t{2}, size_t{4}, size_t{8}}) {
        for (size_t nthreads : {size_t{1}, size_t{4}}) {
          for (bool pipelined : {false, true}) {
            ScopedThreads threads(nthreads);
            ZV_ASSERT_OK_AND_ASSIGN(ZqlResult got,
                                    RunZql(&db, zql, shards, pipelined));
            EXPECT_TRUE(SameResult(baseline, got))
                << db.name() << " chunk_rows=" << chunk_rows
                << " shards=" << shards << " threads=" << nthreads
                << " pipelined=" << pipelined;
            EXPECT_EQ(baseline.stats.sql_queries, got.stats.sql_queries);
            EXPECT_EQ(baseline.stats.sql_requests, got.stats.sql_requests);
          }
        }
      }
    }
    ZV_ASSERT_OK(db.RebuildChunkMap("sales", 0));
  }
}

TEST(ShardTest, ScanBackendByteIdentityMatrix) {
  RunIdentityMatrix<ScanDatabase>();
}

TEST(ShardTest, RoaringBackendByteIdentityMatrix) {
  RunIdentityMatrix<RoaringDatabase>();
}

/// chunks_scanned accounts every chunk of every fetched statement when
/// sharding engages, and stays 0 when it cannot (one chunk / one shard).
TEST(ShardTest, ChunkStatsPopulated) {
  ScanDatabase db;
  ZV_ASSERT_OK(db.RegisterTable(MediumSales()));
  ZV_ASSERT_OK(db.RebuildChunkMap("sales", 500));  // 6 chunks
  ScopedThreads threads(1);
  ZV_ASSERT_OK_AND_ASSIGN(ZqlResult sharded, RunZql(&db, kSetQuery, 4, true));
  ZV_ASSERT_OK_AND_ASSIGN(ZqlResult unsharded, RunZql(&db, kSetQuery, 1, true));
  EXPECT_EQ(sharded.stats.chunks_scanned, 6 * sharded.stats.sql_queries);
  EXPECT_EQ(unsharded.stats.chunks_scanned, 0u);
}

/// Chunk-boundary edge geometry. An exact divisor leaves no ragged tail:
/// the last chunk's end is exactly the row count, and the ranges tile
/// [0, num_rows) without overlap. A non-divisor leaves one short tail
/// chunk, never an extra empty one.
TEST(ShardTest, ChunkBoundaryExactlyOnLastRow) {
  const ChunkMap exact = ChunkMap::Build(3000, 1500);
  ASSERT_EQ(exact.num_chunks(), 2u);
  EXPECT_EQ(exact.chunk_range(0), (std::pair<uint32_t, uint32_t>{0, 1500}));
  EXPECT_EQ(exact.chunk_range(1),
            (std::pair<uint32_t, uint32_t>{1500, 3000}));
  const ChunkMap ragged = ChunkMap::Build(3000, 1700);
  ASSERT_EQ(ragged.num_chunks(), 2u);
  EXPECT_EQ(ragged.chunk_range(1).second, 3000u);
  // Tiling invariant across both shapes: contiguous, complete, in order.
  for (const ChunkMap& map : {exact, ragged}) {
    uint32_t next = 0;
    for (size_t c = 0; c < map.num_chunks(); ++c) {
      const auto [begin, end] = map.chunk_range(c);
      EXPECT_EQ(begin, next);
      EXPECT_LT(begin, end);
      next = end;
    }
    EXPECT_EQ(next, 3000u);
  }
}

/// More shards than chunks: with 2 chunks and 8 shards the pass runs 2
/// wide; results and the chunks_scanned accounting match the
/// exactly-subscribed run.
TEST(ShardTest, MoreShardsThanChunks) {
  ScanDatabase db;
  ZV_ASSERT_OK(db.RegisterTable(MediumSales()));
  ZV_ASSERT_OK(db.RebuildChunkMap("sales", 1500));  // exactly 2 chunks
  ScopedThreads threads(4);
  ZqlResult baseline;
  {
    ScopedThreads serial(1);
    ZV_ASSERT_OK_AND_ASSIGN(baseline, RunZql(&db, kSetQuery, 1, false));
  }
  ZV_ASSERT_OK_AND_ASSIGN(ZqlResult matched, RunZql(&db, kSetQuery, 2, true));
  ZV_ASSERT_OK_AND_ASSIGN(ZqlResult surplus, RunZql(&db, kSetQuery, 8, true));
  EXPECT_TRUE(SameResult(baseline, matched));
  EXPECT_TRUE(SameResult(baseline, surplus));
  EXPECT_EQ(surplus.stats.chunks_scanned, matched.stats.chunks_scanned);
}

/// An empty table has zero chunks; sharded options must degrade to the
/// unsharded path and produce the oracle's (empty-series) outputs.
TEST(ShardTest, EmptyTableDegradesToUnsharded) {
  Schema schema({{"year", ColumnType::kCategorical},
                 {"product", ColumnType::kCategorical},
                 {"location", ColumnType::kCategorical},
                 {"sales", ColumnType::kDouble},
                 {"profit", ColumnType::kDouble}});
  auto make_empty = [&] {
    TableBuilder b("sales", schema);
    return b.Finish();
  };
  ScanDatabase scan_db;
  RoaringDatabase roaring_db;
  ZV_ASSERT_OK(scan_db.RegisterTable(make_empty()));
  ZV_ASSERT_OK(roaring_db.RegisterTable(make_empty()));
  for (Database* db : {static_cast<Database*>(&scan_db),
                       static_cast<Database*>(&roaring_db)}) {
    ZV_ASSERT_OK_AND_ASSIGN(ChunkMap map, db->GetChunkMap("sales"));
    EXPECT_EQ(map.num_chunks(), 0u);
    // A fixed visualization (value iteration over an empty table would be
    // an empty Z set, rejected upstream of fetch on both paths alike).
    const char* fixed = "*f1 | 'year' | 'sales' | | | bar.(y=agg('sum')) |";
    ZV_ASSERT_OK_AND_ASSIGN(ZqlResult baseline, RunZql(db, fixed, 1, false));
    ZV_ASSERT_OK_AND_ASSIGN(ZqlResult sharded, RunZql(db, fixed, 4, true));
    EXPECT_TRUE(SameResult(baseline, sharded)) << db->name();
    EXPECT_EQ(sharded.stats.chunks_scanned, 0u);
  }
}

/// The chunk-scan primitives themselves: PrepareChunkScan + per-chunk
/// ScanRange + positional concat select exactly the rows a serial
/// ExecuteInternal would, on both backends, for predicate and no-WHERE
/// statements — including a residual (measure) conjunct on the Roaring
/// backend, which splits bitmap + row-wise.
TEST(ShardTest, ChunkScannerMatchesSerialSelection) {
  auto table = MediumSales();
  ScanDatabase scan_db;
  RoaringDatabase roaring_db;
  ZV_ASSERT_OK(scan_db.RegisterTable(table));
  ZV_ASSERT_OK(roaring_db.RegisterTable(table));
  const char* const sqls[] = {
      "SELECT year, SUM(sales) FROM sales GROUP BY year",
      "SELECT year, SUM(sales) FROM sales WHERE location = 'US' GROUP BY "
      "year",
      "SELECT year, SUM(profit) FROM sales WHERE location = 'US' AND sales "
      "> 100 GROUP BY year",
  };
  for (Database* db : {static_cast<Database*>(&scan_db),
                       static_cast<Database*>(&roaring_db)}) {
    for (const char* text : sqls) {
      ZV_ASSERT_OK_AND_ASSIGN(sql::SelectStatement stmt,
                              sql::ParseSelect(text));
      ZV_ASSERT_OK_AND_ASSIGN(std::unique_ptr<ChunkScanner> scanner,
                              db->PrepareChunkScan(stmt));
      const ChunkMap map = ChunkMap::Build(table->num_rows(), 170);
      std::vector<uint32_t> rows;
      for (size_t c = 0; c < map.num_chunks(); ++c) {
        const auto [begin, end] = map.chunk_range(c);
        ZV_ASSERT_OK(scanner->ScanRange(begin, end, &rows));
      }
      // Whole-table range in one call must equal the chunked concat.
      std::vector<uint32_t> whole;
      ZV_ASSERT_OK(scanner->ScanRange(
          0, static_cast<uint32_t>(table->num_rows()), &whole));
      EXPECT_EQ(rows, whole) << db->name() << ": " << text;
      // And the finished result must equal the serial execution's bytes.
      ZV_ASSERT_OK_AND_ASSIGN(ResultSet finished,
                              db->FinishChunkScan(stmt, rows));
      ZV_ASSERT_OK_AND_ASSIGN(ResultSet serial, db->Execute(stmt));
      EXPECT_EQ(finished.columns, serial.columns) << db->name() << ": "
                                                  << text;
      EXPECT_EQ(finished.rows, serial.rows) << db->name() << ": " << text;
    }
  }
}

/// Cancellation mid-scan: the fetch thread polls the mirrored token while
/// it waits on its pass, and an abandoned pass stops scanning, so
/// cancelling during a wide fan-out (20000 rows in 64-row chunks, ~313
/// chunk jobs per pass) resolves promptly with kCancelled — never a
/// partial OK result.
TEST(ShardTest, CancelMidShardedScanReturnsPromptly) {
  SalesDataOptions data_opts;
  data_opts.num_rows = 20000;
  data_opts.num_products = 30;
  ScanDatabase db;
  ZV_ASSERT_OK(db.RegisterTable(MakeSalesTable(data_opts)));
  ZV_ASSERT_OK(db.RebuildChunkMap("sales", 64));
  db.set_request_latency_micros(20000);  // 20 ms per round trip

  ZqlOptions opts;
  opts.optimization = OptLevel::kNoOpt;  // one request per visualization
  opts.pipelined_execution = true;
  opts.shards = 4;
  ZqlExecutor exec(&db, "sales", opts);
  const char* query = "*f1 | 'year' | 'sales' | v1 <- 'product'.* | | |";

  CancelToken token;
  Status status = Status::OK();
  const auto t0 = std::chrono::steady_clock::now();
  std::thread runner([&] {
    CancelScope scope(token);
    Result<ZqlResult> r = exec.ExecuteText(query);
    status = r.ok() ? Status::OK() : r.status();
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(40));
  token.Cancel();
  runner.join();
  const double elapsed_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - t0)
          .count();
  EXPECT_EQ(status.code(), StatusCode::kCancelled) << status.ToString();
  EXPECT_LT(elapsed_ms, 400.0) << "cancellation latency far too high";
}

/// EXPLAIN's FetchOp fan-out annotation: rendered when the caller supplies
/// a chunk count and the plan wants >1 worker; plain otherwise. shards
/// reports min(workers, chunks) — the pass width the scheduler runs.
TEST(ShardTest, ExplainRendersFanOut) {
  ZV_ASSERT_OK_AND_ASSIGN(ZqlQuery q, ParseQuery(kNoWhereQuery));
  ZqlOptions opts;
  opts.shards = 4;
  ZV_ASSERT_OK_AND_ASSIGN(PhysicalPlan plan, BuildPhysicalPlan(q, opts));
  EXPECT_NE(plan.Render(q, 38).find("[batched scan, chunks=38, shards=4]"),
            std::string::npos);
  EXPECT_NE(plan.Render(q, 3).find("chunks=3, shards=3"), std::string::npos);
  EXPECT_EQ(plan.Render(q).find("chunks="), std::string::npos);
  opts.shards = 1;
  ZV_ASSERT_OK_AND_ASSIGN(PhysicalPlan unsharded, BuildPhysicalPlan(q, opts));
  EXPECT_EQ(unsharded.Render(q, 38).find("chunks="), std::string::npos);
}

/// ReplaceDataset swaps table and backend atomically; the fresh backend's
/// RegisterTable rebuilds the chunk catalog, so post-swap sharded queries
/// partition the *new* row space and reproduce the unsharded oracle.
TEST(ShardTest, ReplaceDatasetRebuildsChunkMap) {
  server::ServiceOptions service_opts;
  service_opts.zql.shards = 4;
  server::QueryService service(service_opts);

  SalesDataOptions small;
  small.num_rows = 1000;
  small.num_products = 10;
  ZV_ASSERT_OK(service.RegisterDataset(MakeSalesTable(small)));
  ZV_ASSERT_OK_AND_ASSIGN(std::shared_ptr<Database> db0,
                          service.DatasetDatabase("sales"));
  ZV_ASSERT_OK(db0->RebuildChunkMap("sales", 100));
  ZV_ASSERT_OK_AND_ASSIGN(ChunkMap before, db0->GetChunkMap("sales"));
  EXPECT_EQ(before.num_chunks(), 10u);

  SalesDataOptions bigger = small;
  bigger.num_rows = 2500;
  ZV_ASSERT_OK(service.ReplaceDataset(MakeSalesTable(bigger)));
  ZV_ASSERT_OK_AND_ASSIGN(std::shared_ptr<Database> db1,
                          service.DatasetDatabase("sales"));
  EXPECT_NE(db0.get(), db1.get());
  ZV_ASSERT_OK_AND_ASSIGN(ChunkMap after, db1->GetChunkMap("sales"));
  EXPECT_EQ(after.num_rows(), 2500u);

  // Sharded execution against the swapped dataset matches the oracle.
  ZV_ASSERT_OK(db1->RebuildChunkMap("sales", 250));
  ZV_ASSERT_OK_AND_ASSIGN(ZqlResult baseline,
                          RunZql(db1.get(), kNoWhereQuery, 1, false));
  ZV_ASSERT_OK_AND_ASSIGN(ZqlResult sharded,
                          RunZql(db1.get(), kNoWhereQuery, 4, true));
  EXPECT_TRUE(SameResult(baseline, sharded));
  EXPECT_GT(sharded.stats.chunks_scanned, 0u);
}

}  // namespace
}  // namespace zv::zql
