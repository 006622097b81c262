/// \file bench_fig7_4.cc
/// \brief Figure 7.4: task-processor performance as a function of the
/// number of groups (= distinct X values x distinct Z values), for the
/// three canonical task queries:
///   (i)  similarity search (Table 3.13 shape, argmin D vs a reference),
///   (ii) representative search (R = k-means, k = 10),
///   (iii) outlier search (representatives + argmax min-distance).
///
/// Paper setup: synthetic dataset fixed at 10M rows; groups swept
/// {1000, 10000, 50000, 100000} by varying the Z attribute's cardinality;
/// reported: (a) total time, (b) computation time, (c) query execution
/// time. Paper shape: query execution stays nearly flat (same data
/// fetched, more GROUP BY groups), computation grows with group count and
/// ordering outlier > representative > similarity.
///
/// Each point is the median of three runs. The `scaling_fig7_4` record
/// gates the shape: for every task, total time at 10000 products (100000
/// groups) over total time at 1000 products (10000 groups) — 10x the
/// groups — must stay within n log n growth, 10 * log2(1e5) / log2(1e4) =
/// 12.5. tools/run_bench.sh fails on "pass":"no" under ZV_BENCH_STRICT=1.
/// The report-only `threads_fig7_4` record holds each task's exec_ms at
/// 100000 groups with ZV_THREADS=1 and 4.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/parallel.h"
#include "engine/scan_db.h"
#include "workload/datasets.h"
#include "zql/executor.h"

namespace {

using zv::bench::JsonRecorder;
using zv::bench::PrintHeader;

struct TaskTimes {
  double total = 0, compute = 0, exec = 0;
};

TaskTimes RunOnce(zv::Database* db, const std::string& query) {
  zv::zql::ZqlExecutor exec(db, "sales");
  auto result = exec.ExecuteText(query);
  if (!result.ok()) {
    std::fprintf(stderr, "task failed: %s\n",
                 result.status().ToString().c_str());
    return {};
  }
  return {result->stats.total_ms, result->stats.compute_ms,
          result->stats.exec_ms};
}

/// The run with the median total time out of three.
TaskTimes RunTask(zv::Database* db, const std::string& query) {
  std::vector<TaskTimes> runs;
  for (int i = 0; i < 3; ++i) runs.push_back(RunOnce(db, query));
  std::sort(runs.begin(), runs.end(),
            [](const TaskTimes& a, const TaskTimes& b) {
              return a.total < b.total;
            });
  return runs[1];
}

/// The scaling gate's two points (products) and bound: n log n growth for
/// 10x the groups.
constexpr size_t kScalingFrom = 1000;
constexpr size_t kScalingTo = 10000;

}  // namespace

int main() {
  JsonRecorder recorder("fig7_4");
  PrintHeader("Figure 7.4: task processors vs number of groups");
  // X = year (10 distinct values); Z = product with swept cardinality, so
  // #groups = 10 * |product|.
  const size_t rows = zv::bench::ScaledRows(1000000);
  const std::vector<size_t> product_counts = {100, 1000, 5000, 10000};
  std::printf("dataset: %zu rows (fixed); groups = 10 years x |product|\n",
              rows);
  std::printf("\n%-8s %-16s %10s %14s %14s\n", "groups", "task", "total(ms)",
              "compute(ms)", "exec(ms)");

  // task -> products -> median total ms, for the scaling gate.
  std::map<std::string, std::map<size_t, double>> totals;
  for (size_t products : product_counts) {
    zv::SalesDataOptions opts;
    opts.num_rows = rows;
    opts.num_products = products;
    auto sales = zv::MakeSalesTable(opts);
    zv::ScanDatabase db;
    if (auto s = db.RegisterTable(sales); !s.ok()) {
      std::fprintf(stderr, "register failed: %s\n", s.ToString().c_str());
      return 1;
    }
    const size_t groups = 10 * products;

    const std::string similarity =
        "f1 | 'year' | 'sales' | 'product'.'product0' | | "
        "bar.(y=agg('sum')) |\n"
        "f2 | 'year' | 'sales' | v1 <- 'product'.(* - 'product0') | | "
        "bar.(y=agg('sum')) | v2 <- argmin_v1[k=10] D(f1, f2)\n"
        "*f3 | 'year' | 'sales' | v2 | | bar.(y=agg('sum')) |";
    const std::string representative =
        "f1 | 'year' | 'sales' | v1 <- 'product'.* | | bar.(y=agg('sum')) | "
        "v2 <- R(10, v1, f1)\n"
        "*f2 | 'year' | 'sales' | v2 | | bar.(y=agg('sum')) |";
    const std::string outlier =
        "f1 | 'year' | 'sales' | v1 <- 'product'.* | | bar.(y=agg('sum')) | "
        "v2 <- R(10, v1, f1)\n"
        "f2 | 'year' | 'sales' | v2 | | bar.(y=agg('sum')) |\n"
        "f3 | 'year' | 'sales' | v1 | | bar.(y=agg('sum')) | v3 <- "
        "argmax_v1[k=10] min_v2 D(f3, f2)\n"
        "*f4 | 'year' | 'sales' | v3 | | bar.(y=agg('sum')) |";

    const std::pair<const char*, const std::string*> tasks[] = {
        {"Similarity", &similarity},
        {"Representative", &representative},
        {"Outlier", &outlier},
    };
    for (const auto& [name, query] : tasks) {
      const TaskTimes t = RunTask(&db, *query);
      totals[name][products] = t.total;
      std::printf("%-8zu %-16s %10.1f %14.1f %14.1f\n", groups, name, t.total,
                  t.compute, t.exec);
      recorder.Record("groups_" + std::to_string(groups) + "/" + name,
                      t.total,
                      {{"kind", "task_vs_groups"},
                       {"compute_ms", std::to_string(t.compute)},
                       {"exec_ms", std::to_string(t.exec)}});
    }
    if (products == kScalingTo) {
      // Report-only: query execution at one vs four threads, the baseline
      // for parallel aggregation above the per-block replication cap.
      std::map<std::string, std::string> threads_extra = {
          {"kind", "threads"}};
      double worst_t4 = 0;
      for (const auto& [name, query] : tasks) {
        double exec_ms[2] = {0, 0};
        for (int i = 0; i < 2; ++i) {
          zv::SetParallelThreads(i == 0 ? 1 : 4);
          exec_ms[i] = RunTask(&db, *query).exec;
        }
        zv::SetParallelThreads(0);
        threads_extra[std::string("exec_ms_t1_") + name] =
            std::to_string(exec_ms[0]);
        threads_extra[std::string("exec_ms_t4_") + name] =
            std::to_string(exec_ms[1]);
        worst_t4 = std::max(worst_t4, exec_ms[1]);
        std::printf("%-8zu %-16s exec T1 %8.1f ms  T4 %8.1f ms\n", groups,
                    name, exec_ms[0], exec_ms[1]);
      }
      recorder.Record("threads_fig7_4", worst_t4, threads_extra);
    }
  }

  const double groups_from = 10.0 * kScalingFrom, groups_to = 10.0 * kScalingTo;
  const double bound = (groups_to / groups_from) * std::log2(groups_to) /
                       std::log2(groups_from);
  std::map<std::string, std::string> extra = {
      {"kind", "scaling"}, {"bound", std::to_string(bound)}};
  bool pass = true;
  double worst_ms = 0;
  std::printf("\nscaling %zu -> %zu products (bound %.1fx):\n", kScalingFrom,
              kScalingTo, bound);
  for (const auto& [name, by_products] : totals) {
    const double from = by_products.at(kScalingFrom);
    const double to = by_products.at(kScalingTo);
    const double ratio = from > 0 ? to / from : 0;
    pass = pass && from > 0 && ratio <= bound;
    worst_ms = std::max(worst_ms, to);
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.2f", ratio);
    extra["ratio_" + name] = buf;
    std::printf("  %-16s %6.2fx\n", name.c_str(), ratio);
  }
  extra["pass"] = pass ? "yes" : "no";
  recorder.Record("scaling_fig7_4", worst_ms, extra);
  std::printf("  scaling_fig7_4: %s\n",
              pass ? "pass" : "FAIL: grows faster than n log n");
  return 0;
}
