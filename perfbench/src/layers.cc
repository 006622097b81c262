#include "layers.h"

#include <cctype>
#include <cstdio>
#include <fstream>
#include <map>
#include <set>

#include "api/protocol.h"
#include "common/metrics.h"
#include "engine/chunk_map.h"
#include "sql/parser.h"
#include "tasks/kmeans.h"
#include "tasks/series_cache.h"
#include "viz/vega_emitter.h"
#include "viz/visualization.h"
#include "zql/canonical.h"
#include "zql/parser.h"
#include "zql/plan.h"

namespace zvbench {

namespace {

/// Replayed queries per query class: enough for a per-class median while
/// keeping the replay (which re-executes each query twice) to seconds.
constexpr size_t kReplayPerClass = 6;

/// Length of the union of [begin, end) intervals.
double CoveredMs(std::vector<std::pair<double, double>> intervals) {
  std::sort(intervals.begin(), intervals.end());
  double covered = 0, end = -1e300;
  for (const auto& [b, e] : intervals) {
    const double lo = std::max(b, end);
    if (e > lo) covered += e - lo;
    end = std::max(end, e);
  }
  return covered;
}

/// In-memory span store of the traced replay.
class SpanRecorder {
 public:
  struct Span {
    uint64_t query = 0;
    int parent = -1;
    std::string name;
    double start_ms = 0;
    double dur_ms = 0;
  };

  int Open(uint64_t query, int parent, std::string name) {
    spans_.push_back({query, parent, std::move(name), MsSince(epoch_), 0});
    return static_cast<int>(spans_.size() - 1);
  }
  void Close(int id) {
    Span& s = spans_[static_cast<size_t>(id)];
    s.dur_ms = MsSince(epoch_) - s.start_ms;
  }

  /// Duration minus the union of the child spans' intervals.
  double SelfMs(int id) const {
    const Span& s = spans_[static_cast<size_t>(id)];
    std::vector<std::pair<double, double>> kids;
    for (size_t i = static_cast<size_t>(id) + 1; i < spans_.size(); ++i) {
      if (spans_[i].parent == id) {
        kids.emplace_back(spans_[i].start_ms, spans_[i].start_ms + spans_[i].dur_ms);
      }
    }
    return s.dur_ms - CoveredMs(std::move(kids));
  }

  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::chrono::steady_clock::time_point epoch_ = SteadyNow();
  std::vector<Span> spans_;
};

class SpanScope {
 public:
  SpanScope(SpanRecorder* rec, uint64_t query, int parent, std::string name)
      : rec_(rec), id_(rec->Open(query, parent, std::move(name))) {}
  ~SpanScope() { rec_->Close(id_); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;
  int id() const { return id_; }

 private:
  SpanRecorder* rec_;
  int id_;
};

/// Samples of one metric across queries.
using Samples = std::map<std::string, std::vector<double>>;

const char* const kOperators[] = {"FetchOp", "MaterializeOp", "ScoreOp",
                                  "ReduceOp", "OutputOp"};

double JsonNum(const zv::Json& obj, const std::string& key) {
  const zv::Json* v = obj.Find(key);
  return v != nullptr && v->is_number() ? v->as_double() : 0;
}

/// Adds each plan operator's self time (its span minus its children) under
/// `span` to `self`, and the ScoreOp "scores" attributes to `scored`.
void OperatorSelfTimes(const zv::Json& span, std::map<std::string, double>* self,
                       double* scored) {
  const zv::Json* name = span.Find("name");
  const zv::Json* children = span.Find("children");
  const std::string n = name != nullptr && name->is_string() ? name->as_string() : "";
  for (const char* op : kOperators) {
    if (n != op) continue;
    std::vector<std::pair<double, double>> kids;
    if (children != nullptr && children->is_array()) {
      for (const zv::Json& c : children->array()) {
        const double b = JsonNum(c, "start_ms");
        kids.emplace_back(b, b + JsonNum(c, "dur_ms"));
      }
    }
    (*self)[n] += JsonNum(span, "dur_ms") - CoveredMs(std::move(kids));
    if (n == "ScoreOp") {
      if (const zv::Json* attrs = span.Find("attrs"); attrs != nullptr) {
        *scored += JsonNum(*attrs, "scores");
      }
    }
  }
  if (children != nullptr && children->is_array()) {
    for (const zv::Json& c : children->array()) OperatorSelfTimes(c, self, scored);
  }
}

bool HasSpan(const zv::Json& span, const std::string& wanted) {
  const zv::Json* name = span.Find("name");
  if (name != nullptr && name->is_string() && name->as_string() == wanted) return true;
  const zv::Json* children = span.Find("children");
  if (children == nullptr || !children->is_array()) return false;
  for (const zv::Json& c : children->array()) {
    if (HasSpan(c, wanted)) return true;
  }
  return false;
}

/// The record's wire document; the single-session workloads submit text,
/// so theirs is the document a wire client would have sent.
std::string RequestDoc(const Record& r) {
  return r.doc.empty() ? QueryDoc(r.spec.text).Dump() : r.doc;
}

/// Replays one query through every layer's public entry points, recording
/// a span around each call under a root span "query".
void ReplayQuery(const Record& r, uint64_t qid, zv::server::QueryService* service,
                 SpanRecorder* rec, Samples* samples, std::string* error) {
  auto db_or = service->DatasetDatabase("sales");
  if (!db_or.ok()) {
    *error = db_or.status().ToString();
    return;
  }
  std::shared_ptr<zv::Database> db = *db_or;
  const size_t first_span = rec->spans().size();
  SpanScope root(rec, qid, -1, "query");
  const int top = root.id();
  double codec_ms = 0;

  // api: decode the request document.
  const std::string doc = RequestDoc(r);
  zv::api::QueryRequest request;
  {
    SpanScope s(rec, qid, top, "api.decode");
    auto json = zv::Json::Parse(doc);
    auto decoded = json.ok() ? zv::api::DecodeRequest(*json)
                             : zv::Result<zv::api::QueryRequest>(json.status());
    if (!decoded.ok()) {
      *error = "decode: " + decoded.status().ToString();
      return;
    }
    request = std::move(decoded).value();
  }
  // zql: parse, canonicalize, plan.
  zv::zql::ZqlQuery query;
  {
    SpanScope s(rec, qid, top, "zql.parse");
    auto parsed = zv::zql::ParseQuery(r.spec.text);
    if (!parsed.ok()) {
      *error = "parse: " + parsed.status().ToString();
      return;
    }
    query = std::move(parsed).value();
  }
  {
    SpanScope s(rec, qid, top, "zql.canonical");
    const std::string canonical = zv::zql::CanonicalText(query);
    if (canonical.empty()) *error = "empty canonical text";
  }
  {
    SpanScope s(rec, qid, top, "zql.plan");
    auto plan = zv::zql::BuildPhysicalPlan(query, service->zql_options());
    if (!plan.ok()) {
      *error = "plan: " + plan.status().ToString();
      return;
    }
  }
  // Capture the statements the query issues (the service ignores
  // sql_trace, so a direct executor on the dataset's backend runs it).
  std::vector<std::string> statements;
  zv::zql::ZqlStats capture_stats;
  {
    SpanScope s(rec, qid, top, "zql.capture");
    zv::zql::ZqlOptions opts = service->zql_options();
    opts.sql_trace = &statements;
    zv::zql::ZqlExecutor exec(db.get(), "sales", opts);
    auto result = exec.Execute(query);
    if (!result.ok()) {
      *error = "capture: " + result.status().ToString();
      return;
    }
    capture_stats = result->stats;
  }
  // sql: parse every statement.
  std::vector<zv::sql::SelectStatement> stmts;
  {
    SpanScope s(rec, qid, top, "sql.parse");
    for (const std::string& text : statements) {
      auto stmt = zv::sql::ParseSelect(text);
      if (!stmt.ok()) {
        *error = "sql: " + stmt.status().ToString();
        return;
      }
      stmts.push_back(std::move(stmt).value());
    }
  }
  // engine: the chunk protocol over the captured statements.
  const uint64_t conversions0 = db->container_conversions();
  double rows_selected = 0, result_rows = 0;
  auto chunk_map = db->GetChunkMap("sales");
  if (!chunk_map.ok()) {
    *error = "chunk map: " + chunk_map.status().ToString();
    return;
  }
  if (!stmts.empty()) {
    std::vector<const zv::sql::SelectStatement*> ptrs;
    for (const auto& st : stmts) ptrs.push_back(&st);
    std::unique_ptr<zv::MultiChunkScanner> scanner;
    {
      SpanScope s(rec, qid, top, "engine.prepare");
      auto prepared = db->PrepareMultiChunkScan(ptrs);
      if (!prepared.ok()) {
        *error = "prepare: " + prepared.status().ToString();
        return;
      }
      scanner = std::move(prepared).value();
    }
    std::vector<std::vector<uint32_t>> rows(stmts.size());
    {
      SpanScope s(rec, qid, top, "engine.select");
      std::vector<std::vector<uint32_t>> outs;
      for (size_t c = 0; c < chunk_map->num_chunks(); ++c) {
        const auto [b, e] = chunk_map->chunk_range(c);
        outs.assign(stmts.size(), {});
        const zv::Status st = scanner->ScanRange(b, e, &outs);
        if (!st.ok()) {
          *error = "select: " + st.ToString();
          return;
        }
        for (size_t i = 0; i < stmts.size(); ++i) {
          rows[i].insert(rows[i].end(), outs[i].begin(), outs[i].end());
        }
      }
    }
    {
      SpanScope s(rec, qid, top, "engine.aggregate");
      for (size_t i = 0; i < stmts.size(); ++i) {
        auto rs = db->FinishChunkScan(stmts[i], rows[i]);
        if (!rs.ok()) {
          *error = "aggregate: " + rs.status().ToString();
          return;
        }
        result_rows += static_cast<double>(rs->num_rows());
        rows_selected += static_cast<double>(rows[i].size());
      }
    }
  }
  (*samples)["roaring.container_conversions"].push_back(
      static_cast<double>(db->container_conversions() - conversions0));
  (*samples)["engine.statements"].push_back(static_cast<double>(capture_stats.sql_queries));
  (*samples)["engine.requests"].push_back(static_cast<double>(capture_stats.sql_requests));
  (*samples)["engine.chunks_scanned"].push_back(
      static_cast<double>(capture_stats.chunks_scanned));
  (*samples)["engine.rows_selected"].push_back(rows_selected);
  if (result_rows > 0) {
    (*samples)["engine.rows_per_result_row"].push_back(rows_selected / result_rows);
  }

  // tasks + viz on the query's candidate set.
  if (!r.spec.candidates.empty()) {
    std::vector<zv::Visualization> set;
    {
      SpanScope s(rec, qid, top, "zql.candidates");
      zv::zql::ZqlExecutor exec(db.get(), "sales", service->zql_options());
      auto result = exec.ExecuteText(r.spec.candidates);
      if (!result.ok() || result->outputs.empty()) {
        *error = "candidates: " +
                 (result.ok() ? std::string("no output") : result.status().ToString());
        return;
      }
      set = std::move(result->outputs[0].visuals);
    }
    std::vector<const zv::Visualization*> ptrs;
    for (const auto& v : set) ptrs.push_back(&v);
    std::vector<std::vector<double>> points;
    {
      SpanScope s(rec, qid, top, "tasks.context_build");
      zv::ScoringContext ctx(ptrs, zv::Normalization::kZScore, zv::Alignment::kZeroFill);
      const zv::AlignedMatrix& m = ctx.normalized();
      points.assign(m.rows, std::vector<double>(m.cols));
      for (size_t i = 0; i < m.rows; ++i) {
        std::copy(m.data.begin() + static_cast<std::ptrdiff_t>(i * m.cols),
                  m.data.begin() + static_cast<std::ptrdiff_t>((i + 1) * m.cols),
                  points[i].begin());
      }
    }
    {
      SpanScope s(rec, qid, top, "viz.align");
      const auto matrix = zv::AlignToMatrix(ptrs);
      if (matrix.size() != ptrs.size()) *error = "align: row count";
    }
    {
      SpanScope s(rec, qid, top, "tasks.kmeans");
      const size_t k = r.spec.kmeans_k > 0 ? r.spec.kmeans_k : 3;
      const auto km = zv::KMeans(points, k);
      if (km.medoids.empty() && !points.empty()) *error = "kmeans: no medoids";
    }
  }

  // viz + api: package the served answer.
  std::vector<const zv::Visualization*> served;
  zv::api::QueryResponse response;
  if (r.result != nullptr) {
    response = zv::api::BuildResponse(*r.result, request, "");
  } else {
    auto json = zv::Json::Parse(r.response);
    auto decoded = json.ok() ? zv::api::DecodeResponse(*json)
                             : zv::Result<zv::api::QueryResponse>(json.status());
    if (!decoded.ok()) {
      *error = "response: " + decoded.status().ToString();
      return;
    }
    response = std::move(decoded).value();
  }
  for (const auto& out : response.outputs) {
    for (const auto& v : out.visuals) served.push_back(&v);
  }
  {
    SpanScope s(rec, qid, top, "viz.vega");
    size_t bytes = 0;
    for (const zv::Visualization* v : served) bytes += zv::ToVegaLiteJson(*v, 0).size();
    if (!served.empty() && bytes == 0) *error = "vega: empty spec";
  }
  {
    SpanScope s(rec, qid, top, "api.encode");
    const std::string wire = zv::api::EncodeResponse(response).Dump();
    if (wire.empty()) *error = "encode: empty";
  }

  // Per-query self times of every span under this query's root.
  const auto& spans = rec->spans();
  for (size_t i = first_span + 1; i < spans.size(); ++i) {
    const std::string& n = spans[i].name;
    if (n == "zql.capture" || n == "zql.candidates") continue;
    const double self = rec->SelfMs(static_cast<int>(i));
    (*samples)[n + "_ms"].push_back(self);
    if (n == "api.decode" || n == "api.encode") codec_ms += self;
  }
  (*samples)["api.codec_ms"].push_back(codec_ms);
  (*samples)["api.e2e_ms"].push_back(r.ms);
}

/// The end-to-end metric and workload each per-layer metric should move.
std::string Feeds(const std::string& metric) {
  static const std::map<std::string, std::string> kByPrefix = {
      {"workload.", "setup_s, all"},
      {"engine.register_ms", "setup_s, all; queries_per_s, dashboard"},
      {"engine.prepare_ms", "query_p90_ms, explore"},
      {"engine.select_ms", "query_p50_ms, filter_scan"},
      {"engine.aggregate_ms", "query_p50_ms, filter_scan"},
      {"engine.", "query_p50_ms, filter_scan"},
      {"sql.", "query_p50_ms, explore and filter_scan"},
      {"roaring.", "query_p50_ms, filter_scan"},
      {"zql.parse_ms", "query_p50_ms, dashboard"},
      {"zql.canonical_ms", "query_p50_ms, dashboard"},
      {"zql.plan_ms", "query_p50_ms, dashboard"},
      {"zql.", "query_p90_ms, explore"},
      {"tasks.", "query_p90_ms, explore"},
      {"viz.align_ms", "query_p90_ms, explore"},
      {"viz.vega_ms", "query_p50_ms, dashboard"},
      {"server.", "queries_per_s, query_p50_ms, peak_rss_mb, dashboard"},
      {"api.", "query_p50_ms, dashboard"},
      {"common.", "query_p50_ms, all"},
  };
  // The longest matching prefix wins.
  std::string best, feeds;
  for (const auto& [prefix, target] : kByPrefix) {
    if (metric.rfind(prefix, 0) == 0 && prefix.size() > best.size()) {
      best = prefix;
      feeds = target;
    }
  }
  return feeds;
}

}  // namespace

double RepeatAfterReplaceShare(const std::vector<Record>& records, size_t* repeats) {
  // Records of one session are in issue order.
  std::map<std::pair<size_t, std::string>, uint64_t> last_epoch;
  size_t n = 0, stale = 0;
  for (const Record& r : records) {
    if (r.doc.empty() || !r.expect_error.empty()) continue;
    const auto key = std::make_pair(r.session, r.doc);
    auto it = last_epoch.find(key);
    if (it != last_epoch.end()) {
      ++n;
      if (it->second < r.epoch_lo) ++stale;
    }
    last_epoch[key] = r.epoch_hi;
  }
  *repeats = n;
  return n > 0 ? static_cast<double>(stale) / static_cast<double>(n) : 0;
}

std::vector<Metric> MeasureLayers(const LayerInputs& in) {
  const std::vector<Record>& records = *in.records;
  Samples samples;
  SpanRecorder rec;

  // Sample: the first kReplayPerClass distinct successful queries of
  // every class, in issue order.
  std::map<int, size_t> taken;
  std::set<std::string> seen;
  std::vector<size_t> sample;
  for (size_t i = 0; i < records.size(); ++i) {
    const Record& r = records[i];
    if (!r.ok || !r.expect_error.empty()) continue;
    if (taken[r.spec.klass] >= kReplayPerClass) continue;
    if (!seen.insert(RequestDoc(r)).second) continue;
    ++taken[r.spec.klass];
    sample.push_back(i);
  }
  std::string error;
  for (size_t i : sample) {
    ReplayQuery(records[i], i, in.service, &rec, &samples, &error);
    if (!error.empty()) {
      std::fprintf(stderr, "layer replay of query %zu failed: %s\n", i, error.c_str());
      error.clear();
    }
  }

  // zql + tasks: the service's own span trees and stats, traced queries
  // that executed (cache hits run no operators).
  const int heavy = static_cast<int>(ClassNames(in.workload).size()) - 1;
  double scored = 0, pruned = 0;
  for (const Record& r : records) {
    if (!r.traced || !r.ok || r.trace.is_null() || !HasSpan(r.trace, "execute")) continue;
    std::map<std::string, double> self;
    OperatorSelfTimes(r.trace, &self, &scored);
    pruned += static_cast<double>(r.stats.scores_pruned);
    double attributed = 0;
    for (const auto& [op, ms] : self) {
      attributed += ms;
      std::string key = op.substr(0, op.size() - 2);  // strip "Op"
      for (char& ch : key) ch = static_cast<char>(std::tolower(ch));
      samples["zql." + key + "_self_ms"].push_back(ms);
    }
    if (r.stats.total_ms > 0) {
      const double share = 1.0 - attributed / r.stats.total_ms;
      samples["zql.unattributed_share"].push_back(share);
      if (r.spec.klass == heavy) samples["zql.unattributed_share_heavy"].push_back(share);
    }
    if (self.count("ScoreOp") != 0) samples["tasks.score_ms"].push_back(r.stats.score_ms);
  }

  std::vector<Metric> out;
  const auto add = [&out](const std::string& name, double value, const std::string& unit,
                          size_t n) { out.push_back({name, value, unit, n, Feeds(name)}); };
  const auto med = [&samples, &add](const std::string& name, const std::string& unit) {
    const auto& v = samples[name];
    add(name, Median(v), unit, v.size());
  };
  add("workload.generate_ms", Median(in.generate_ms), "ms", in.generate_ms.size());
  add("engine.register_ms", Median(in.register_ms), "ms", in.register_ms.size());
  med("engine.prepare_ms", "ms");
  med("engine.select_ms", "ms");
  med("engine.aggregate_ms", "ms");
  med("engine.statements", "count");
  med("engine.requests", "count");
  med("engine.chunks_scanned", "count");
  med("engine.rows_selected", "count");
  med("engine.rows_per_result_row", "ratio");
  med("sql.parse_ms", "ms");
  {
    const auto& v = samples["roaring.container_conversions"];
    add("roaring.container_conversions", v.empty() ? 0 : Sum(v) / v.size(), "count", v.size());
  }
  med("zql.parse_ms", "ms");
  med("zql.canonical_ms", "ms");
  med("zql.plan_ms", "ms");
  for (const char* op : {"fetch", "materialize", "score", "reduce", "output"}) {
    med(std::string("zql.") + op + "_self_ms", "ms");
  }
  med("zql.unattributed_share", "ratio");
  med("zql.unattributed_share_heavy", "ratio");
  med("tasks.context_build_ms", "ms");
  med("tasks.kmeans_ms", "ms");
  med("tasks.score_ms", "ms");
  add("tasks.pruned_share", scored > 0 ? pruned / scored : 0, "ratio", 0);
  med("viz.align_ms", "ms");
  med("viz.vega_ms", "ms");

  const zv::server::ServiceStats st = in.service->stats();
  const auto wait = in.service->metrics()->GetHistogram("zv_queue_wait_ms")->snapshot();
  add("server.queue_wait_ms", wait.mean_ms(), "ms", wait.count);
  const double lookups = static_cast<double>(st.cache_hits + st.cache_misses);
  add("server.result_hit_rate", lookups > 0 ? st.cache_hits / lookups : 0, "ratio", 0);
  add("server.context_reuse_rate",
      st.cache_misses > 0 ? static_cast<double>(st.contexts_reused) / st.cache_misses : 0,
      "ratio", 0);
  add("server.batch_shared_share",
      st.batch_passes > 0 ? static_cast<double>(st.batch_passes_shared) / st.batch_passes : 0,
      "ratio", 0);
  add("server.replace_ms", Median(in.replace_ms), "ms", in.replace_ms.size());
  {
    size_t repeats = 0;
    const double share = RepeatAfterReplaceShare(records, &repeats);
    add("server.repeat_after_replace_share", share, "ratio", repeats);
  }
  add("server.rejected", static_cast<double>(st.rejected), "count", 0);
  add("server.cache_mb",
      static_cast<double>(st.result_cache_bytes + st.context_cache_bytes) / (1024.0 * 1024.0),
      "MB", 0);
  med("api.decode_ms", "ms");
  med("api.encode_ms", "ms");
  {
    const double e2e = Sum(samples["api.e2e_ms"]);
    add("api.wire_share", e2e > 0 ? Sum(samples["api.codec_ms"]) / e2e : 0, "ratio",
        samples["api.e2e_ms"].size());
  }
  add("common.trace_overhead",
      in.untraced_p50_ms > 0 ? in.traced_p50_ms / in.untraced_p50_ms - 1 : 0, "ratio", 0);

  // The span file: provenance, then one line per replay span, then the
  // service's span tree of every traced query.
  if (!in.spans_path.empty()) {
    std::ofstream f(in.spans_path);
    f << in.provenance << "\n";
    const auto& spans = rec.spans();
    for (size_t i = 0; i < spans.size(); ++i) {
      zv::Json line = zv::Json::MakeObject();
      line.Set("query", zv::Json::Int(static_cast<int64_t>(spans[i].query)));
      line.Set("span", zv::Json::Int(static_cast<int64_t>(i)));
      line.Set("parent", zv::Json::Int(spans[i].parent));
      line.Set("name", zv::Json::Str(spans[i].name));
      line.Set("start_ms", zv::Json::Double(spans[i].start_ms));
      line.Set("dur_ms", zv::Json::Double(spans[i].dur_ms));
      line.Set("self_ms", zv::Json::Double(rec.SelfMs(static_cast<int>(i))));
      f << line.Dump() << "\n";
    }
    for (size_t i = 0; i < records.size(); ++i) {
      if (records[i].trace.is_null()) continue;
      zv::Json line = zv::Json::MakeObject();
      line.Set("query", zv::Json::Int(static_cast<int64_t>(i)));
      line.Set("service_trace", records[i].trace);
      f << line.Dump() << "\n";
    }
  }
  return out;
}

}  // namespace zvbench
