/// \file bench_fig7_5.cc
/// \brief Figure 7.5: RoaringDB vs PostgreSQL(-sim) execution time for the
/// representative aggregation query
///
///   SELECT X, SUM(Y), Z FROM t [WHERE P1=p1 AND P2=p2]
///   GROUP BY Z, X ORDER BY Z, X
///
/// on (a) 100% selectivity and (b) 10% selectivity over a synthetic table,
/// sweeping the number of groups {20, 100, 10000, 50000, 100000}, and (c)
/// on the census-like dataset at both selectivities.
///
/// The `scaling_fig7_5` record (report-only) gives Roaring's 10%-
/// selectivity time at 100000 groups over its time at 10000 groups.
///
/// Paper shape: at 10% selectivity the bitmap indexes win across all group
/// counts (paper: 30-80% better); at 100% selectivity Roaring wins only at
/// small group counts and loses as per-group overhead grows (paper: 30-50%
/// worse at high group counts).

#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/rng.h"
#include "engine/roaring_db.h"
#include "engine/scan_db.h"
#include "sql/parser.h"
#include "workload/datasets.h"

namespace {

using zv::bench::JsonRecorder;
using zv::bench::PrintHeader;
using zv::bench::PrintSubHeader;

/// Synthetic table purpose-built for the Fig 7.5 sweep: two group columns
/// with configurable cardinalities, two 10-value predicate columns, one
/// measure.
std::shared_ptr<zv::Table> MakeGroupTable(size_t rows, size_t x_card,
                                          size_t z_card) {
  zv::Schema schema({
      {"x", zv::ColumnType::kCategorical},
      {"z", zv::ColumnType::kCategorical},
      {"p1", zv::ColumnType::kCategorical},
      {"p2", zv::ColumnType::kCategorical},
      {"y", zv::ColumnType::kDouble},
  });
  zv::TableBuilder b("t", schema);
  zv::Rng rng(17);
  for (size_t r = 0; r < rows; ++r) {
    b.AppendCategorical(0, zv::Value::Int(static_cast<int64_t>(
                               rng.Uniform(x_card))));
    b.AppendCategorical(1, zv::Value::Int(static_cast<int64_t>(
                               rng.Uniform(z_card))));
    b.AppendCategorical(2, zv::Value::Int(static_cast<int64_t>(
                               rng.Uniform(10))));
    b.AppendCategorical(3, zv::Value::Int(static_cast<int64_t>(
                               rng.Uniform(10))));
    b.AppendDouble(4, rng.UniformDouble(0, 100));
    b.CommitRow();
  }
  return b.Finish();
}

double TimeQuery(zv::Database* db, const std::string& sql, int reps) {
  // Warm once, then report the best-of-reps (steady-state) time.
  (void)db->ExecuteSql(sql);
  double best = 1e300;
  for (int i = 0; i < reps; ++i) {
    zv::bench::WallTimer t;
    auto rs = db->ExecuteSql(sql);
    if (!rs.ok()) {
      std::fprintf(stderr, "query failed: %s\n",
                   rs.status().ToString().c_str());
      return -1;
    }
    best = std::min(best, t.ElapsedMs());
  }
  return best;
}

void SweepGroups(size_t rows, JsonRecorder* recorder) {
  const std::vector<std::pair<size_t, size_t>> cards = {
      {4, 5}, {10, 10}, {100, 100}, {250, 200}, {500, 200}};
  // Roaring at 10% selectivity, by group count, for scaling_fig7_5.
  std::map<size_t, double> roaring_sel10;
  for (bool full_selectivity : {true, false}) {
    PrintSubHeader(full_selectivity
                       ? "Fig 7.5(a): selectivity = 100% (synthetic)"
                       : "Fig 7.5(b): selectivity = 10% (synthetic)");
    std::printf("%-8s %14s %12s %10s\n", "groups", "postgresql(ms)",
                "roaring(ms)", "ratio");
    for (const auto& [xc, zc] : cards) {
      auto table = MakeGroupTable(rows, xc, zc);
      zv::ScanDatabase scan;
      zv::RoaringDatabase roaring;
      if (!scan.RegisterTable(table).ok() ||
          !roaring.RegisterTable(table).ok()) {
        return;
      }
      std::string sql = "SELECT x, SUM(y), z FROM t";
      if (!full_selectivity) sql += " WHERE p1 = 3";  // 1 of 10 values
      sql += " GROUP BY z, x ORDER BY z, x";
      const double pg = TimeQuery(&scan, sql, 3);
      const double rb = TimeQuery(&roaring, sql, 3);
      std::printf("%-8zu %14.1f %12.1f %9.2fx\n", xc * zc, pg, rb,
                  pg > 0 && rb > 0 ? pg / rb : 0.0);
      const std::string sel = full_selectivity ? "sel100" : "sel10";
      const std::string grp = std::to_string(xc * zc);
      recorder->Record(sel + "/groups_" + grp + "/scan", pg,
                       {{"kind", "backend_compare"}});
      recorder->Record(sel + "/groups_" + grp + "/roaring", rb,
                       {{"kind", "backend_compare"}});
      if (!full_selectivity) roaring_sel10[xc * zc] = rb;
    }
  }
  // Report-only: the same rows selected, 10x the groups. The paper's
  // Roaring curve stays nearly flat here; the ratio is the baseline for
  // aggregation above the per-block replication cap (2^15 groups).
  const double from = roaring_sel10[10000], to = roaring_sel10[100000];
  char ratio[32];
  std::snprintf(ratio, sizeof ratio, "%.2f", from > 0 ? to / from : 0.0);
  recorder->Record("scaling_fig7_5", to,
                   {{"kind", "scaling"},
                    {"ms_groups_10000", std::to_string(from)},
                    {"ratio", ratio}});
  std::printf("scaling_fig7_5: roaring sel10 10000 -> 100000 groups %sx "
              "(report only)\n",
              ratio);
}

void CensusComparison(JsonRecorder* recorder) {
  PrintSubHeader("Fig 7.5(c): census-like data");
  zv::CensusDataOptions opts;
  opts.num_rows = zv::bench::ScaledRows(200000);
  auto census = zv::MakeCensusTable(opts);
  zv::ScanDatabase scan;
  zv::RoaringDatabase roaring;
  if (!scan.RegisterTable(census).ok() ||
      !roaring.RegisterTable(census).ok()) {
    return;
  }
  std::printf("%-16s %14s %12s %10s\n", "selectivity", "postgresql(ms)",
              "roaring(ms)", "ratio");
  const struct {
    const char* label;
    const char* where;
  } cases[] = {
      {"100%", ""},
      {"~10%", " WHERE attr2 = 'v1' OR attr2 = 'v2'"},
  };
  for (const auto& c : cases) {
    const std::string sql = std::string("SELECT attr1, SUM(income), attr3 "
                                        "FROM census") +
                            c.where + " GROUP BY attr3, attr1 ORDER BY "
                            "attr3, attr1";
    const double pg = TimeQuery(&scan, sql, 3);
    const double rb = TimeQuery(&roaring, sql, 3);
    std::printf("%-16s %14.1f %12.1f %9.2fx\n", c.label, pg, rb,
                pg > 0 && rb > 0 ? pg / rb : 0.0);
    recorder->Record(std::string("census/") + c.label + "/scan", pg,
                     {{"kind", "backend_compare"}});
    recorder->Record(std::string("census/") + c.label + "/roaring", rb,
                     {{"kind", "backend_compare"}});
  }
}

}  // namespace

int main() {
  JsonRecorder recorder("fig7_5");
  PrintHeader("Figure 7.5: RoaringDB vs PostgreSQL(-sim)");
  const size_t rows = zv::bench::ScaledRows(2000000);
  std::printf("synthetic table: %zu rows; query: SELECT x, SUM(y), z FROM t "
              "[WHERE p1=c] GROUP BY z, x\n",
              rows);
  SweepGroups(rows, &recorder);
  CensusComparison(&recorder);
  return 0;
}
