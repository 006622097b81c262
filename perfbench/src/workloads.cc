#include "workloads.h"

#include <algorithm>
#include <cstdio>
#include <thread>

#include "common.h"
#include "common/hash.h"
#include "common/json.h"
#include "workload/datasets.h"

namespace zvbench {

namespace {

constexpr size_t kCountries = 8;
constexpr size_t kCategories = 8;
constexpr size_t kCities = 40;

const char* const kMeasures[] = {"sales", "profit", "revenue"};

std::string CountryName(size_t i) {
  return i == 0 ? "US" : i == 1 ? "UK" : "country" + std::to_string(i);
}

/// The i-th value of a categorical dimension of the sales table.
std::string DimValue(const std::string& dim, size_t i) {
  if (dim == "country") return CountryName(i);
  return dim + std::to_string(i);
}

size_t DimCardinality(const std::string& dim, const Sizes& sizes) {
  if (dim == "country") return kCountries;
  if (dim == "category") return kCategories;
  if (dim == "city") return kCities;
  return sizes.products;
}

std::string Fixed2(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2f", v);
  return buf;
}

/// A numeric threshold in [lo, hi] with two decimals, drawn from `rng`.
std::string Threshold(zv::Rng& rng, int lo, int hi) {
  const uint64_t steps = static_cast<uint64_t>(hi - lo) * 100 + 1;
  return Fixed2(lo + static_cast<double>(rng.Uniform(steps)) / 100.0);
}

size_t Between(zv::Rng& rng, size_t lo, size_t hi) {
  return lo + static_cast<size_t>(rng.Uniform(hi - lo + 1));
}

std::string Row(const std::string& name, const std::string& x,
                const std::string& y, const std::string& z,
                const std::string& constraint, const std::string& viz,
                const std::string& process) {
  return name + " | '" + x + "' | '" + y + "' | " + z + " | " + constraint +
         " | " + viz + " | " + process;
}

std::string SumViz(const std::string& agg = "sum") {
  return "bar.(y=agg('" + agg + "'))";
}

/// Similarity ranking against reference `ref`: the k `z` values whose
/// series are nearest to (argmin D) or, with `farthest`, furthest from
/// (argmax D) the reference's. `candidates` is the set it scores.
QuerySpec RankQuery(const std::string& x, const std::string& y,
                    const std::string& z, const std::string& ref,
                    const std::string& c, size_t k, bool farthest) {
  QuerySpec q;
  const std::string viz = SumViz();
  const std::string others = "v1 <- '" + z + "'.(* - '" + ref + "')";
  q.text = Row("f1", x, y, "'" + z + "'.'" + ref + "'", c, viz, "") + "\n" +
           Row("f2", x, y, others, c, viz,
               std::string("v2 <- ") + (farthest ? "argmax" : "argmin") + "_v1[k=" +
                   std::to_string(k) + "] D(f1, f2)") +
           "\n" + Row("*f3", x, y, "v2", c, viz, "");
  q.candidates = Row("*f1", x, y, others, c, viz, "");
  return q;
}

/// The three task shapes of the paper's Fig 7.4 evaluation over Z
/// attribute `z`, with `ref` the similarity reference value.
QuerySpec TaskQuery(int shape, const std::string& x, const std::string& y,
                    const std::string& z, const std::string& ref,
                    const std::string& c, size_t k, size_t k2) {
  if (shape == 0) return RankQuery(x, y, z, ref, c, k, /*farthest=*/false);
  QuerySpec q;
  const std::string viz = SumViz();
  const std::string all = "v1 <- '" + z + "'.*";
  if (shape == 1) {  // representative: R(k)
    q.text = Row("f1", x, y, all, c, viz,
                 "v2 <- R(" + std::to_string(k) + ", v1, f1)") +
             "\n" + Row("*f2", x, y, "v2", c, viz, "");
    q.candidates = Row("*f1", x, y, all, c, viz, "");
    q.kmeans_k = k;
  } else {  // outlier: argmax of the distance to the nearest representative
    q.text = Row("f1", x, y, all, c, viz,
                 "v2 <- R(" + std::to_string(k) + ", v1, f1)") +
             "\n" + Row("f2", x, y, "v2", c, viz, "") + "\n" +
             Row("f3", x, y, "v1", c, viz,
                 "v3 <- argmax_v1[k=" + std::to_string(k2) +
                     "] min_v2 D(f3, f2)") +
             "\n" + Row("*f4", x, y, "v3", c, viz, "");
    q.candidates = Row("*f1", x, y, all, c, viz, "");
    q.kmeans_k = k;
  }
  return q;
}

/// Trend query: the k series with the steepest growth (or decline).
QuerySpec TrendQuery(const std::string& x, const std::string& y,
                     const std::string& agg, const std::string& c, size_t k,
                     bool growth = true) {
  QuerySpec q;
  const std::string viz = SumViz(agg);
  q.text = Row("f1", x, y, "v1 <- 'product'.*", c, viz,
               std::string("v2 <- ") + (growth ? "argmax" : "argmin") + "_v1[k=" +
                   std::to_string(k) + "] T(f1)") +
           "\n" + Row("*f2", x, y, "v2", c, viz, "");
  q.candidates = Row("*f1", x, y, "v1 <- 'product'.*", c, viz, "");
  return q;
}

/// Breakdown query: one series per value of `z`, no Process column.
QuerySpec SumQuery(const std::string& x, const std::string& y,
                   const std::string& agg, const std::string& z,
                   const std::string& c) {
  QuerySpec q;
  q.text = Row("*f1", x, y, "v1 <- '" + z + "'.*", c, SumViz(agg), "");
  return q;
}

/// explore: a fixed cycle of 10 queries, four of them over the
/// high-cardinality `product` dimension. Low-cardinality queries rotate
/// through the three task shapes; product queries run similarity,
/// representative and twice outlier. Sorted by cost that gives
/// low-cardinality queries (60%, p50 inside them), product
/// similarity/representative (20%) and product outliers (20%, p90 inside).
constexpr char kExploreCycle[] = "LLPLPLLPLP";
constexpr int kProductShapes[] = {0, 1, 2, 2};

/// filter_scan: the selectivity ladder, one rung per slot of a fixed
/// 10-query cycle. Rung indices follow ClassNames("filter_scan").
constexpr int kFilterCycle[] = {0, 2, 1, 4, 2, 0, 3, 1, 2, 4};

/// dashboard: the gesture mix of one session, one kind per slot of a fixed
/// 20-request cycle: 6 repeats (R), 6 re-rankings of the current chart (C),
/// 4 new charts (N), 3 constraint changes with Vega-Lite pages (V) and 1
/// request that must fail with a structured error (E).
constexpr char kDashboardCycle[] = "NCRRCVNCRCRENCVRRCNV";

/// dashboard: session 0 replaces the dataset after every this many of its
/// own requests. About one repeat in ten then follows a replace of the
/// table version its first issue ran on, so re-issues stay the cache-hit
/// class while the replace and invalidation paths run many times a window
/// (the measured share is the traced run's server.repeat_after_replace_share).
constexpr size_t kRequestsPerReplace = 60;

}  // namespace

Sizes SizesFor(const std::string& workload) {
  Sizes s;
  if (workload == "explore") {
    s.rows = 1000000;
    s.products = 1000;
  } else if (workload == "filter_scan") {
    s.rows = 4000000;
    s.products = 40;
  } else if (workload == "dashboard") {
    s.rows = 300000;
    s.products = 100;
    s.sessions = std::max(1u, std::min(4u, std::thread::hardware_concurrency()));
    s.replace_every = kRequestsPerReplace;
  }
  return s;
}

std::vector<std::string> ClassNames(const std::string& workload) {
  if (workload == "explore") return {"low_card", "product"};
  if (workload == "filter_scan") {
    return {"city", "conjunction", "country", "range", "all"};
  }
  return {"error", "repeat", "vega", "new", "rerank"};
}

std::shared_ptr<zv::Table> MakeTable(const Sizes& sizes, uint64_t seed) {
  zv::SalesDataOptions opts;
  opts.num_rows = sizes.rows;
  opts.num_products = sizes.products;
  opts.num_countries = kCountries;
  opts.num_categories = kCategories;
  opts.num_cities = kCities;
  opts.seed = seed;
  return zv::MakeSalesTable(opts);
}

std::string DatasetDigest(const zv::Table& table) {
  zv::Fingerprint128 h;
  h.Str(table.name());
  for (size_t c = 0; c < table.schema().num_columns(); ++c) {
    h.Str(table.schema().column(c).name);
    switch (table.column_type(c)) {
      case zv::ColumnType::kCategorical:
        for (const zv::Value& v : table.Dictionary(c)) h.Str(v.ToString());
        for (int32_t code : table.CategoricalColumn(c)) h.U64(static_cast<uint32_t>(code));
        break;
      case zv::ColumnType::kDouble:
        for (double d : table.DoubleColumn(c)) h.F64(d);
        break;
      default:
        for (int64_t v : table.IntColumn(c)) h.U64(static_cast<uint64_t>(v));
        break;
    }
  }
  return h.Hex();
}

// ---------------------------------------------------------------------------
// explore / filter_scan
// ---------------------------------------------------------------------------

QueryStream::QueryStream(std::string workload, const Sizes& sizes,
                         uint64_t seed, bool warmup)
    : workload_(std::move(workload)),
      sizes_(sizes),
      warmup_(warmup),
      rng_(seed * 0x9e3779b97f4a7c15ULL + (warmup ? 0x77 : 0x13)) {}

QuerySpec QueryStream::Next() {
  // Redraw until the text is new: a repeat would be a result-cache hit.
  // Every class draws from hundreds of texts or more, far above what a
  // run issues; the cap only keeps an exhausted space from spinning.
  for (int attempt = 0;; ++attempt) {
    QuerySpec q = Draw();
    if (seen_.insert(q.text).second || attempt == 1000) {
      ++index_;
      if (workload_ == "explore") {
        (q.klass == 1 ? product_index_ : low_index_)++;
      }
      return q;
    }
  }
}

QuerySpec QueryStream::Draw() {
  return workload_ == "explore" ? DrawExplore() : DrawFilterScan();
}

QuerySpec QueryStream::DrawExplore() {
  const bool product = kExploreCycle[index_ % (sizeof(kExploreCycle) - 1)] == 'P';
  const int shape = product ? kProductShapes[product_index_ % 4]
                            : static_cast<int>(low_index_ % 3);
  // Every (shape, dimension) pair in turn: the class mix is the same for
  // every seed.
  static const char* const kLowDims[] = {"country", "category", "city"};
  const std::string z = product ? "product" : kLowDims[(low_index_ / 3) % 3];
  const std::string y = kMeasures[rng_.Uniform(3)];
  const std::string ref = DimValue(z, rng_.Uniform(DimCardinality(z, sizes_)));
  const std::string c =
      std::string("weight ") + (warmup_ ? "< " : "> ") + Threshold(rng_, 5, 40);
  const size_t k = product ? Between(rng_, 5, 10) : Between(rng_, 2, 4);
  const size_t k2 = product ? Between(rng_, 5, 10) : Between(rng_, 1, 3);
  QuerySpec q = TaskQuery(shape, "year", y, z, ref, c, k, k2);
  q.klass = product ? 1 : 0;
  return q;
}

QuerySpec QueryStream::DrawFilterScan() {
  const int rung = kFilterCycle[index_ % (sizeof(kFilterCycle) / sizeof(int))];
  const std::string x = rng_.Uniform(2) == 0 ? "month" : "year";
  const std::string y = kMeasures[rng_.Uniform(3)];
  // Warm-up aggregates with 'min', which the measured stream never uses.
  const std::string agg = warmup_ ? "min" : rng_.Uniform(2) == 0 ? "sum" : "avg";
  const std::string country = "country = '" + CountryName(rng_.Uniform(kCountries)) + "'";
  const std::string city = "city = 'city" + std::to_string(rng_.Uniform(kCities)) + "'";
  std::string c;
  switch (rung) {
    case 0: c = city; break;
    case 1: c = country + " AND " + city; break;
    case 2: c = country; break;
    case 3: c = "weight > " + Threshold(rng_, 80, 90); break;
    default: break;  // 4: no filter — every row qualifies
  }
  // The unfiltered and country rungs run trend queries only: their
  // breakdown texts are too few to never repeat. On the other rungs trend
  // and breakdown alternate from one cycle to the next, so the mix is the
  // same whatever the seed.
  const size_t cycle = sizeof(kFilterCycle) / sizeof(int);
  const bool trend = rung == 2 || rung == 4 || (index_ / cycle + index_ % cycle) % 2 == 0;
  QuerySpec q = trend ? TrendQuery(x, y, agg, c, Between(rng_, 1, 40), rng_.Uniform(2) == 0)
                      : SumQuery(x, y, agg, "product", c);
  q.klass = rung;
  return q;
}

// ---------------------------------------------------------------------------
// dashboard
// ---------------------------------------------------------------------------

zv::Json QueryDoc(const std::string& zql) {
  zv::Json doc = zv::Json::MakeObject();
  doc.Set("v", zv::Json::Int(1));
  doc.Set("dataset", zv::Json::Str("sales"));
  doc.Set("zql", zv::Json::Str(zql));
  return doc;
}

DashboardStream::DashboardStream(const Sizes& sizes, uint64_t seed, bool warmup)
    : sizes_(sizes),
      warmup_(warmup),
      rng_(seed * 0xbf58476d1ce4e5b9ULL + (warmup ? 0x5a : 0x3c)) {}

DashboardStream::Chart DashboardStream::NewChart() {
  // Chart shapes and breakdown dimensions in turn, whatever the seed.
  Chart c;
  c.shape = static_cast<int>(charts_ % 3);
  c.y = kMeasures[rng_.Uniform(3)];
  static const char* const kDims[] = {"country", "category", "city"};
  c.z = c.shape == 2 ? kDims[(charts_ / 3) % 3] : "product";
  ++charts_;
  c.ref = DimValue("product", rng_.Uniform(sizes_.products));
  c.k = Between(rng_, 3, 8);
  return c;
}

std::string DashboardStream::Constraint() {
  if (warmup_) return "weight < " + Threshold(rng_, 5, 60);
  switch (rng_.Uniform(4)) {
    case 0: return "country = '" + CountryName(rng_.Uniform(kCountries)) + "'";
    case 1: return "category = 'category" + std::to_string(rng_.Uniform(kCategories)) + "'";
    case 2: return "year > " + std::to_string(2010 + rng_.Uniform(6));
    default: return "weight > " + Threshold(rng_, 5, 60);
  }
}

QuerySpec DashboardStream::Render(const Chart& chart) const {
  if (chart.shape == 0) {
    return TaskQuery(0, "month", chart.y, "product", chart.ref, chart.constraint, chart.k, 0);
  }
  if (chart.shape == 1) return TrendQuery("month", chart.y, "sum", chart.constraint, chart.k);
  return SumQuery("month", chart.y, "sum", chart.z, chart.constraint);
}

WireRequest DashboardStream::Fresh(WireRequest::Kind kind) {
  if (kind == WireRequest::kNew || !have_chart_) {
    chart_ = NewChart();
    chart_.constraint = Constraint();
    have_chart_ = true;
  }
  for (int attempt = 0;; ++attempt) {
    WireRequest r;
    r.kind = kind;
    if (kind == WireRequest::kRerank) {
      // The chart's products ranked against its reference under the
      // current constraint, with a new k or direction: the candidate set
      // is the one the chart's last similarity ranking scored, so the
      // query misses the result cache but finds its ScoringContext.
      r.spec = RankQuery("month", chart_.y, "product", chart_.ref, chart_.constraint,
                         Between(rng_, 1, 20), rng_.Uniform(2) == 0);
    } else {
      if (kind == WireRequest::kVega || attempt > 0) chart_.constraint = Constraint();
      r.spec = Render(chart_);
    }
    zv::Json doc = QueryDoc(r.spec.text);
    if (kind == WireRequest::kVega) {
      zv::Json page = zv::Json::MakeObject();
      page.Set("offset", zv::Json::Int(0));
      page.Set("limit", zv::Json::Int(3));
      doc.Set("page", std::move(page));
      doc.Set("include_vega", zv::Json::Bool(true));
    }
    r.doc = doc.Dump();
    if (seen_.insert(r.doc).second || attempt == 1000) return r;
  }
}

WireRequest DashboardStream::Next() {
  WireRequest r = Draw();
  // Classes in ClassNames("dashboard") order; re-rankings, which return
  // up to 20 series and half of them cannot prune, are the heaviest.
  static const int kClassOfKind[] = {1, 4, 3, 2, 0, 0};  // indexed by Kind
  r.spec.klass = kClassOfKind[r.kind];
  return r;
}

WireRequest DashboardStream::Draw() {
  const char slot = kDashboardCycle[index_ % (sizeof(kDashboardCycle) - 1)];
  const size_t errors_so_far = index_ / (sizeof(kDashboardCycle) - 1);
  ++index_;
  WireRequest r;
  switch (slot) {
    case 'R':
      if (!history_.empty()) {
        r = history_[rng_.Uniform(history_.size())];
        r.kind = WireRequest::kRepeat;
        return r;
      }
      r = Fresh(WireRequest::kNew);
      break;
    case 'C': r = Fresh(WireRequest::kRerank); break;
    case 'V': r = Fresh(WireRequest::kVega); break;
    case 'E': {
      WireRequest base = Fresh(WireRequest::kRerank);
      if (errors_so_far % 2 == 0) {
        r.kind = WireRequest::kMalformed;
        r.doc = base.doc.substr(0, base.doc.size() / 2);
        r.expect_error = "parse_error";
      } else {
        r.kind = WireRequest::kInvalidZql;
        r.spec = SumQuery("month", "sales", "sum", "nosuchattr", Constraint());
        r.doc = QueryDoc(r.spec.text).Dump();
        r.expect_error = "not_found";
      }
      r.spec.candidates.clear();
      return r;
    }
    default: r = Fresh(WireRequest::kNew); break;
  }
  history_.push_back(r);
  if (history_.size() > 8) history_.erase(history_.begin());
  return r;
}

std::string StreamDigest(const std::string& workload, const Sizes& sizes,
                         uint64_t seed, size_t n) {
  zv::Fingerprint128 h;
  h.Str(workload);
  if (workload == "dashboard") {
    DashboardStream s(sizes, seed);
    for (size_t i = 0; i < n; ++i) h.Str(s.Next().doc);
  } else {
    QueryStream s(workload, sizes, seed);
    for (size_t i = 0; i < n; ++i) h.Str(s.Next().text);
  }
  return h.Hex();
}

}  // namespace zvbench
