/// \file workloads.h
/// \brief Seeded inputs of the three benchmark workloads: the tables each
/// one serves and the closed-loop query streams its clients send.
///
/// Everything here is a pure function of the seed: the same seed gives the
/// same table bytes and the same query stream, a different seed changes
/// both (see DatasetDigest / StreamDigest). The program under test sees
/// only the generated tables and query text.

#ifndef ZVBENCH_WORKLOADS_H_
#define ZVBENCH_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/rng.h"
#include "storage/table.h"

namespace zvbench {

/// Input sizes of one run. Fixed per workload; recorded in every output.
struct Sizes {
  size_t rows = 0;          ///< rows per generated table
  size_t products = 0;      ///< cardinality of the `product` dimension
  size_t sessions = 1;      ///< client threads, one session each
  size_t replace_every = 0;  ///< dashboard: session 0's requests per replace
};

Sizes SizesFor(const std::string& workload);

/// One query a client sends.
struct QuerySpec {
  std::string text;  ///< ZQL
  /// ZQL whose only output is the candidate set the query scores (empty
  /// when the query has no Process column) — the traced run replays the
  /// task and viz layers on it.
  std::string candidates;
  int klass = 0;          ///< index into ClassNames(workload)
  size_t kmeans_k = 0;    ///< k of an R(k) in the query; 0 = none
};

/// Query classes of a workload, in the order of QuerySpec::klass. The
/// last entry is the workload's heaviest class.
std::vector<std::string> ClassNames(const std::string& workload);

/// The sales table for `seed` (table name "sales").
std::shared_ptr<zv::Table> MakeTable(const Sizes& sizes, uint64_t seed);

/// Content hash of a table: schema, dictionaries and every cell.
std::string DatasetDigest(const zv::Table& table);

/// Closed-loop query stream of the single-session workloads (`explore`,
/// `filter_scan`). Never repeats a query text. `warmup` streams draw from
/// a disjoint constraint family, so warm-up can never pre-fill the result
/// cache for the measured stream.
class QueryStream {
 public:
  QueryStream(std::string workload, const Sizes& sizes, uint64_t seed,
              bool warmup = false);
  QuerySpec Next();

 private:
  QuerySpec Draw();
  QuerySpec DrawExplore();
  QuerySpec DrawFilterScan();

  std::string workload_;
  Sizes sizes_;
  bool warmup_;
  zv::Rng rng_;
  size_t index_ = 0;
  size_t low_index_ = 0;
  size_t product_index_ = 0;
  std::set<std::string> seen_;
};

/// The v1 wire request document that runs `zql` on dataset "sales".
zv::Json QueryDoc(const std::string& zql);

/// One wire request of a `dashboard` session.
struct WireRequest {
  enum Kind { kRepeat, kRerank, kNew, kVega, kMalformed, kInvalidZql };
  Kind kind = kNew;
  std::string doc;   ///< the JSON request document
  QuerySpec spec;    ///< query metadata (kRepeat copies the original's)
  /// Wire error name the response must carry; empty = must succeed.
  std::string expect_error;
};

/// Closed-loop request stream of one `dashboard` session: linked-chart
/// gestures in fixed shares (see kDashboardCycle in workloads.cc).
class DashboardStream {
 public:
  DashboardStream(const Sizes& sizes, uint64_t seed, bool warmup = false);
  WireRequest Next();

 private:
  struct Chart {
    int shape = 0;  ///< 0 similarity, 1 trend, 2 breakdown
    std::string y, z, ref;
    std::string constraint;  ///< set by new charts and constraint changes
    size_t k = 0;
  };
  WireRequest Draw();
  Chart NewChart();
  std::string Constraint();
  QuerySpec Render(const Chart& chart) const;
  WireRequest Fresh(WireRequest::Kind kind);

  Sizes sizes_;
  bool warmup_;
  zv::Rng rng_;
  size_t index_ = 0;
  size_t charts_ = 0;
  Chart chart_;
  bool have_chart_ = false;
  std::vector<WireRequest> history_;  ///< last few successful requests
  std::set<std::string> seen_;
};

/// Content hash of the first `n` queries of a stream — identical for equal
/// seeds, different for different ones.
std::string StreamDigest(const std::string& workload, const Sizes& sizes,
                         uint64_t seed, size_t n = 200);

}  // namespace zvbench

#endif  // ZVBENCH_WORKLOADS_H_
