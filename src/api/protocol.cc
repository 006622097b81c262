#include "api/protocol.h"

#include <algorithm>
#include <cstdio>
#include <limits>

#include "common/strings.h"
#include "viz/vega_emitter.h"
#include "zql/canonical.h"

namespace zv::api {

// ---------------------------------------------------------------------------
// Version negotiation
// ---------------------------------------------------------------------------

Result<int> NegotiateVersion(int client_version) {
  if (client_version < kMinProtocolVersion) {
    return Status::Unsupported(StrFormat(
        "protocol version %d is below the supported floor %d",
        client_version, kMinProtocolVersion));
  }
  return client_version < kProtocolVersion ? client_version
                                           : kProtocolVersion;
}

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

const char* WireErrorName(StatusCode code) {
  switch (code) {
    case StatusCode::kOk: return "ok";
    case StatusCode::kInvalidArgument: return "invalid_argument";
    case StatusCode::kParseError: return "parse_error";
    case StatusCode::kNotFound: return "not_found";
    case StatusCode::kAlreadyExists: return "already_exists";
    case StatusCode::kOutOfRange: return "out_of_range";
    case StatusCode::kTypeMismatch: return "type_mismatch";
    case StatusCode::kUnsupported: return "unsupported";
    case StatusCode::kInternal: return "internal";
    case StatusCode::kCancelled: return "cancelled";
    case StatusCode::kUnavailable: return "unavailable";
  }
  return "internal";
}

StatusCode WireErrorCode(const std::string& name) {
  for (StatusCode code :
       {StatusCode::kOk, StatusCode::kInvalidArgument, StatusCode::kParseError,
        StatusCode::kNotFound, StatusCode::kAlreadyExists,
        StatusCode::kOutOfRange, StatusCode::kTypeMismatch,
        StatusCode::kUnsupported, StatusCode::kInternal,
        StatusCode::kCancelled, StatusCode::kUnavailable}) {
    if (name == WireErrorName(code)) return code;
  }
  return StatusCode::kParseError;  // unknown names still decode as errors
}

namespace {

/// Best-effort extraction of "line L, column C" (and "near '<tok>'") from a
/// formatted parse message — both the ZQL parser and the JSON parser emit
/// this shape. Returns false when the message carries no position.
bool ExtractPosition(const std::string& message, int* line, int* column,
                     std::string* token) {
  const size_t lp = message.find("line ");
  if (lp == std::string::npos) return false;
  int l = 0, c = 0;
  if (std::sscanf(message.c_str() + lp, "line %d, column %d", &l, &c) != 2) {
    // Row-level ZQL errors carry only "line N: ..." — keep the line.
    if (std::sscanf(message.c_str() + lp, "line %d:", &l) != 1) return false;
    c = 0;
  }
  *line = l;
  *column = c;
  const size_t np = message.find("near '", lp);
  if (np != std::string::npos) {
    const size_t start = np + 6;
    const size_t end = message.find('\'', start);
    if (end != std::string::npos) *token = message.substr(start, end - start);
  }
  return true;
}

}  // namespace

ErrorInfo ErrorFromStatus(const Status& status,
                          const zql::ParseDiagnostic* diag) {
  ErrorInfo info;
  info.code = status.code();
  info.message = status.message();
  info.retryable = status.code() == StatusCode::kUnavailable;
  if (diag != nullptr && diag->line > 0) {
    info.line = diag->line;
    info.column = diag->column;
    info.token = diag->token;
  } else {
    ExtractPosition(status.message(), &info.line, &info.column, &info.token);
  }
  return info;
}

// ---------------------------------------------------------------------------
// OptLevel wire names
// ---------------------------------------------------------------------------

const char* OptLevelWireName(zql::OptLevel level) {
  switch (level) {
    case zql::OptLevel::kNoOpt: return "noopt";
    case zql::OptLevel::kIntraLine: return "intraline";
    case zql::OptLevel::kIntraTask: return "intratask";
    case zql::OptLevel::kInterTask: return "intertask";
  }
  return "intertask";
}

Result<zql::OptLevel> OptLevelFromWireName(const std::string& name) {
  const std::string lower = ToLower(name);
  if (lower == "noopt") return zql::OptLevel::kNoOpt;
  if (lower == "intraline") return zql::OptLevel::kIntraLine;
  if (lower == "intratask") return zql::OptLevel::kIntraTask;
  if (lower == "intertask") return zql::OptLevel::kInterTask;
  return Status::ParseError("unknown optimization level: " + name);
}

// ---------------------------------------------------------------------------
// Values and visualizations
// ---------------------------------------------------------------------------

Json EncodeValue(const Value& value) {
  if (value.is_null()) return Json::Null();
  if (value.is_int()) return Json::Int(value.AsInt());
  if (value.is_double()) return Json::Double(value.AsDouble());
  return Json::Str(value.AsString());
}

Result<Value> DecodeValue(const Json& json) {
  switch (json.type()) {
    case Json::Type::kNull: return Value::Null();
    case Json::Type::kInt: return Value::Int(json.as_int());
    case Json::Type::kDouble: return Value::Double(json.as_double());
    case Json::Type::kString: return Value::Str(json.as_string());
    default:
      return Status::ParseError("value must be null, number, or string");
  }
}

Json EncodeVisualization(const Visualization& viz) {
  Json out = Json::MakeObject();
  out.Set("x", Json::Str(viz.x_attr));
  out.Set("y", Json::Str(viz.y_attr));
  if (!viz.slices.empty()) {
    Json slices = Json::MakeArray();
    for (const Slice& s : viz.slices) {
      Json slice = Json::MakeObject();
      slice.Set("attr", Json::Str(s.attribute));
      slice.Set("value", EncodeValue(s.value));
      slices.Append(std::move(slice));
    }
    out.Set("slices", std::move(slices));
  }
  if (!viz.constraints.empty()) {
    out.Set("constraints", Json::Str(viz.constraints));
  }
  out.Set("spec", Json::Str(viz.spec.ToString()));
  Json xs = Json::MakeArray();
  for (const Value& x : viz.xs) xs.Append(EncodeValue(x));
  out.Set("xs", std::move(xs));
  Json series = Json::MakeArray();
  for (const Series& s : viz.series) {
    Json one = Json::MakeObject();
    one.Set("name", Json::Str(s.name));
    Json ys = Json::MakeArray();
    for (double y : s.ys) ys.Append(Json::Double(y));
    one.Set("ys", std::move(ys));
    series.Append(std::move(one));
  }
  out.Set("series", std::move(series));
  return out;
}

namespace {

Result<std::string> GetString(const Json& obj, const char* key,
                              const char* what) {
  const Json* v = obj.Find(key);
  if (v == nullptr || !v->is_string()) {
    return Status::ParseError(StrFormat("%s: missing string '%s'", what, key));
  }
  return v->as_string();
}

std::string GetStringOr(const Json& obj, const char* key,
                        std::string fallback) {
  const Json* v = obj.Find(key);
  return v != nullptr && v->is_string() ? v->as_string()
                                        : std::move(fallback);
}

Result<uint64_t> GetU64Or(const Json& obj, const char* key, uint64_t fallback,
                          const char* what) {
  const Json* v = obj.Find(key);
  if (v == nullptr) return fallback;
  // Integers only: a double here is either fractional (silent truncation)
  // or out of int64 range (undefined behavior in the cast) — both are
  // protocol violations on untrusted input, not values to coerce.
  if (!v->is_int() || v->as_int() < 0) {
    return Status::ParseError(
        StrFormat("%s: '%s' must be a non-negative integer", what, key));
  }
  return static_cast<uint64_t>(v->as_int());
}

Result<bool> GetBoolOr(const Json& obj, const char* key, bool fallback,
                       const char* what) {
  const Json* v = obj.Find(key);
  if (v == nullptr) return fallback;
  if (!v->is_bool()) {
    return Status::ParseError(
        StrFormat("%s: '%s' must be a boolean", what, key));
  }
  return v->as_bool();
}

double GetDoubleOr(const Json& obj, const char* key, double fallback) {
  const Json* v = obj.Find(key);
  return v != nullptr && v->is_number() ? v->as_double() : fallback;
}

/// Lenient small-int read (diagnostic positions): non-integers and values
/// outside int range read as 0 rather than risking a truncating cast.
int GetSmallIntOr(const Json& obj, const char* key) {
  const Json* v = obj.Find(key);
  if (v == nullptr || !v->is_int()) return 0;
  const int64_t raw = v->as_int();
  if (raw < 0 || raw > std::numeric_limits<int>::max()) return 0;
  return static_cast<int>(raw);
}

}  // namespace

Result<Visualization> DecodeVisualization(const Json& json) {
  if (!json.is_object()) {
    return Status::ParseError("visualization must be an object");
  }
  Visualization viz;
  ZV_ASSIGN_OR_RETURN(viz.x_attr, GetString(json, "x", "visualization"));
  ZV_ASSIGN_OR_RETURN(viz.y_attr, GetString(json, "y", "visualization"));
  if (const Json* slices = json.Find("slices")) {
    if (!slices->is_array()) {
      return Status::ParseError("visualization: 'slices' must be an array");
    }
    for (const Json& s : slices->array()) {
      if (!s.is_object()) {
        return Status::ParseError("visualization: slice must be an object");
      }
      Slice slice;
      ZV_ASSIGN_OR_RETURN(slice.attribute, GetString(s, "attr", "slice"));
      const Json* value = s.Find("value");
      if (value == nullptr) {
        return Status::ParseError("slice: missing 'value'");
      }
      ZV_ASSIGN_OR_RETURN(slice.value, DecodeValue(*value));
      viz.slices.push_back(std::move(slice));
    }
  }
  viz.constraints = GetStringOr(json, "constraints", "");
  ZV_ASSIGN_OR_RETURN(viz.spec,
                      ParseVizSpec(GetStringOr(json, "spec", "auto")));
  if (const Json* xs = json.Find("xs")) {
    if (!xs->is_array()) {
      return Status::ParseError("visualization: 'xs' must be an array");
    }
    for (const Json& x : xs->array()) {
      ZV_ASSIGN_OR_RETURN(Value v, DecodeValue(x));
      viz.xs.push_back(std::move(v));
    }
  }
  if (const Json* series = json.Find("series")) {
    if (!series->is_array()) {
      return Status::ParseError("visualization: 'series' must be an array");
    }
    for (const Json& s : series->array()) {
      if (!s.is_object()) {
        return Status::ParseError("visualization: series must be objects");
      }
      Series one;
      one.name = GetStringOr(s, "name", "");
      if (const Json* ys = s.Find("ys")) {
        if (!ys->is_array()) {
          return Status::ParseError("series: 'ys' must be an array");
        }
        for (const Json& y : ys->array()) {
          if (y.is_number()) {
            one.ys.push_back(y.as_double());
          } else if (y.is_null()) {
            // The emitter maps non-finite doubles (NaN/Inf) to null —
            // strict JSON has no literal for them. Decode must be total
            // over what encode emits, so null comes back as NaN.
            one.ys.push_back(std::numeric_limits<double>::quiet_NaN());
          } else {
            return Status::ParseError("series: 'ys' must hold numbers");
          }
        }
      }
      viz.series.push_back(std::move(one));
    }
  }
  return viz;
}

// ---------------------------------------------------------------------------
// Requests
// ---------------------------------------------------------------------------

Result<QueryRequest> QueryRequest::FromText(std::string dataset,
                                            const std::string& zql_text) {
  QueryRequest request;
  request.dataset = std::move(dataset);
  ZV_ASSIGN_OR_RETURN(request.query, zql::ParseQuery(zql_text));
  return request;
}

Json EncodeRequest(const QueryRequest& request) {
  Json out = Json::MakeObject();
  out.Set("v", Json::Int(request.version));
  // Metrics requests are process-scoped: dataset/zql travel only when the
  // caller actually set them, keeping Encode∘Decode byte-stable.
  if (!request.metrics || !request.dataset.empty()) {
    out.Set("dataset", Json::Str(request.dataset));
  }
  if (!request.metrics || !request.query.rows.empty()) {
    out.Set("zql", Json::Str(zql::CanonicalText(request.query)));
  }
  if (request.optimization.has_value()) {
    out.Set("opt", Json::Str(OptLevelWireName(*request.optimization)));
  }
  if (request.page.offset != 0 || request.page.limit != 0) {
    Json page = Json::MakeObject();
    page.Set("offset", Json::Int(static_cast<int64_t>(request.page.offset)));
    page.Set("limit", Json::Int(static_cast<int64_t>(request.page.limit)));
    out.Set("page", std::move(page));
  }
  if (request.include_vega) out.Set("include_vega", Json::Bool(true));
  if (!request.include_data) out.Set("include_data", Json::Bool(false));
  if (request.explain) out.Set("explain", Json::Bool(true));
  if (request.trace) out.Set("trace", Json::Bool(true));
  if (request.metrics) out.Set("metrics", Json::Bool(true));
  if (!request.client_tag.empty()) {
    out.Set("client", Json::Str(request.client_tag));
  }
  return out;
}

Result<QueryRequest> DecodeRequest(const Json& json,
                                   zql::ParseDiagnostic* diag) {
  if (!json.is_object()) {
    return Status::ParseError("request must be a JSON object");
  }
  QueryRequest request;
  const Json* v = json.Find("v");
  if (v != nullptr) {
    if (!v->is_int() || v->as_int() < 0 ||
        v->as_int() > std::numeric_limits<int>::max()) {
      return Status::ParseError(
          "request: 'v' must be a non-negative integer");
    }
    request.version = static_cast<int>(v->as_int());
  }
  ZV_ASSIGN_OR_RETURN(request.metrics,
                      GetBoolOr(json, "metrics", false, "request"));
  if (request.metrics) {
    // Process-scoped request kind: dataset/zql are optional passengers.
    request.dataset = GetStringOr(json, "dataset", "");
    if (const Json* zql = json.Find("zql");
        zql != nullptr && zql->is_string() && !zql->as_string().empty()) {
      ZV_ASSIGN_OR_RETURN(request.query,
                          zql::ParseQuery(zql->as_string(), diag));
    }
  } else {
    ZV_ASSIGN_OR_RETURN(request.dataset,
                        GetString(json, "dataset", "request"));
    ZV_ASSIGN_OR_RETURN(std::string zql, GetString(json, "zql", "request"));
    ZV_ASSIGN_OR_RETURN(request.query, zql::ParseQuery(zql, diag));
  }
  if (const Json* opt = json.Find("opt")) {
    if (!opt->is_string()) {
      return Status::ParseError("request: 'opt' must be a string");
    }
    ZV_ASSIGN_OR_RETURN(zql::OptLevel level,
                        OptLevelFromWireName(opt->as_string()));
    request.optimization = level;
  }
  if (const Json* page = json.Find("page")) {
    if (!page->is_object()) {
      return Status::ParseError("request: 'page' must be an object");
    }
    ZV_ASSIGN_OR_RETURN(request.page.offset,
                        GetU64Or(*page, "offset", 0, "page"));
    ZV_ASSIGN_OR_RETURN(request.page.limit,
                        GetU64Or(*page, "limit", 0, "page"));
  }
  ZV_ASSIGN_OR_RETURN(request.include_vega,
                      GetBoolOr(json, "include_vega", false, "request"));
  ZV_ASSIGN_OR_RETURN(request.include_data,
                      GetBoolOr(json, "include_data", true, "request"));
  ZV_ASSIGN_OR_RETURN(request.explain,
                      GetBoolOr(json, "explain", false, "request"));
  ZV_ASSIGN_OR_RETURN(request.trace,
                      GetBoolOr(json, "trace", false, "request"));
  request.client_tag = GetStringOr(json, "client", "");
  return request;
}

// ---------------------------------------------------------------------------
// Responses
// ---------------------------------------------------------------------------

QueryResponse BuildResponse(const zql::ZqlResult& result,
                            const QueryRequest& request,
                            std::string fingerprint) {
  QueryResponse response;
  response.version = kProtocolVersion;
  response.stats = result.stats;
  response.fingerprint = std::move(fingerprint);
  response.client_tag = request.client_tag;
  for (const zql::ZqlOutput& output : result.outputs) {
    OutputSlice slice;
    slice.name = output.name;
    slice.total = output.visuals.size();
    const uint64_t offset =
        std::min<uint64_t>(request.page.offset, slice.total);
    uint64_t count = slice.total - offset;
    if (request.page.limit > 0) {
      count = std::min<uint64_t>(count, request.page.limit);
    }
    slice.offset = offset;
    for (uint64_t i = 0; i < count; ++i) {
      const Visualization& viz = output.visuals[offset + i];
      slice.labels.push_back(viz.Label());
      if (request.include_data) slice.visuals.push_back(viz);
      if (request.include_vega) slice.vega.push_back(ToVegaLiteJson(viz));
    }
    response.outputs.push_back(std::move(slice));
  }
  return response;
}

QueryResponse BuildErrorResponse(const Status& status,
                                 const QueryRequest& request,
                                 const zql::ParseDiagnostic* diag) {
  QueryResponse response;
  response.version = kProtocolVersion;
  response.error = ErrorFromStatus(status, diag);
  response.client_tag = request.client_tag;
  return response;
}

namespace {

Json EncodeStats(const zql::ZqlStats& stats) {
  Json out = Json::MakeObject();
  out.Set("sql_queries", Json::Int(static_cast<int64_t>(stats.sql_queries)));
  out.Set("sql_requests",
          Json::Int(static_cast<int64_t>(stats.sql_requests)));
  out.Set("scores_pruned",
          Json::Int(static_cast<int64_t>(stats.scores_pruned)));
  out.Set("cache_hits", Json::Int(static_cast<int64_t>(stats.cache_hits)));
  out.Set("cache_misses",
          Json::Int(static_cast<int64_t>(stats.cache_misses)));
  out.Set("contexts_reused",
          Json::Int(static_cast<int64_t>(stats.contexts_reused)));
  out.Set("chunks_scanned",
          Json::Int(static_cast<int64_t>(stats.chunks_scanned)));
  out.Set("batched_scans",
          Json::Int(static_cast<int64_t>(stats.batched_scans)));
  out.Set("scans_shared",
          Json::Int(static_cast<int64_t>(stats.scans_shared)));
  out.Set("simd_width", Json::Int(static_cast<int64_t>(stats.simd_width)));
  out.Set("container_conversions",
          Json::Int(static_cast<int64_t>(stats.container_conversions)));
  out.Set("total_ms", Json::Double(stats.total_ms));
  out.Set("exec_ms", Json::Double(stats.exec_ms));
  out.Set("compute_ms", Json::Double(stats.compute_ms));
  out.Set("fetch_ms", Json::Double(stats.fetch_ms));
  out.Set("score_ms", Json::Double(stats.score_ms));
  return out;
}

zql::ZqlStats DecodeStats(const Json& json) {
  zql::ZqlStats stats;
  if (!json.is_object()) return stats;
  auto u64 = [&](const char* key) -> uint64_t {
    const Json* v = json.Find(key);
    return v != nullptr && v->is_int() && v->as_int() >= 0
               ? static_cast<uint64_t>(v->as_int())
               : 0;
  };
  stats.sql_queries = u64("sql_queries");
  stats.sql_requests = u64("sql_requests");
  stats.scores_pruned = u64("scores_pruned");
  stats.cache_hits = u64("cache_hits");
  stats.cache_misses = u64("cache_misses");
  stats.contexts_reused = u64("contexts_reused");
  stats.chunks_scanned = u64("chunks_scanned");
  stats.batched_scans = u64("batched_scans");
  stats.scans_shared = u64("scans_shared");
  stats.simd_width = u64("simd_width");
  stats.container_conversions = u64("container_conversions");
  stats.total_ms = GetDoubleOr(json, "total_ms", 0);
  stats.exec_ms = GetDoubleOr(json, "exec_ms", 0);
  stats.compute_ms = GetDoubleOr(json, "compute_ms", 0);
  stats.fetch_ms = GetDoubleOr(json, "fetch_ms", 0);
  stats.score_ms = GetDoubleOr(json, "score_ms", 0);
  return stats;
}

Json EncodeError(const ErrorInfo& error) {
  Json out = Json::MakeObject();
  out.Set("code", Json::Str(WireErrorName(error.code)));
  out.Set("message", Json::Str(error.message));
  if (error.retryable) out.Set("retryable", Json::Bool(true));
  if (error.line > 0) {
    out.Set("line", Json::Int(error.line));
    out.Set("column", Json::Int(error.column));
  }
  if (!error.token.empty()) out.Set("token", Json::Str(error.token));
  return out;
}

Result<ErrorInfo> DecodeError(const Json& json) {
  if (!json.is_object()) {
    return Status::ParseError("response: 'error' must be an object");
  }
  ErrorInfo error;
  ZV_ASSIGN_OR_RETURN(std::string code, GetString(json, "code", "error"));
  error.code = WireErrorCode(code);
  error.message = GetStringOr(json, "message", "");
  ZV_ASSIGN_OR_RETURN(error.retryable,
                      GetBoolOr(json, "retryable", false, "error"));
  error.line = GetSmallIntOr(json, "line");
  error.column = GetSmallIntOr(json, "column");
  error.token = GetStringOr(json, "token", "");
  return error;
}

}  // namespace

Json EncodeResponse(const QueryResponse& response) {
  Json out = Json::MakeObject();
  out.Set("v", Json::Int(response.version));
  if (!response.error.ok()) {
    out.Set("error", EncodeError(response.error));
  }
  Json outputs = Json::MakeArray();
  for (const OutputSlice& slice : response.outputs) {
    Json one = Json::MakeObject();
    one.Set("name", Json::Str(slice.name));
    one.Set("total", Json::Int(static_cast<int64_t>(slice.total)));
    one.Set("offset", Json::Int(static_cast<int64_t>(slice.offset)));
    Json labels = Json::MakeArray();
    for (const std::string& label : slice.labels) {
      labels.Append(Json::Str(label));
    }
    one.Set("labels", std::move(labels));
    if (!slice.visuals.empty()) {
      Json visuals = Json::MakeArray();
      for (const Visualization& viz : slice.visuals) {
        visuals.Append(EncodeVisualization(viz));
      }
      one.Set("visuals", std::move(visuals));
    }
    if (!slice.vega.empty()) {
      Json vega = Json::MakeArray();
      for (const std::string& spec : slice.vega) vega.Append(Json::Str(spec));
      one.Set("vega", std::move(vega));
    }
    outputs.Append(std::move(one));
  }
  out.Set("outputs", std::move(outputs));
  out.Set("stats", EncodeStats(response.stats));
  if (!response.fingerprint.empty()) {
    out.Set("fingerprint", Json::Str(response.fingerprint));
  }
  if (!response.plan.empty()) {
    out.Set("plan", Json::Str(response.plan));
  }
  if (!response.trace.is_null()) {
    out.Set("trace", response.trace);
  }
  if (!response.metrics.is_null()) {
    out.Set("metrics", response.metrics);
  }
  if (!response.client_tag.empty()) {
    out.Set("client", Json::Str(response.client_tag));
  }
  return out;
}

Result<QueryResponse> DecodeResponse(const Json& json) {
  if (!json.is_object()) {
    return Status::ParseError("response must be a JSON object");
  }
  QueryResponse response;
  response.version = GetSmallIntOr(json, "v");
  if (response.version == 0) response.version = kProtocolVersion;
  if (const Json* error = json.Find("error")) {
    ZV_ASSIGN_OR_RETURN(response.error, DecodeError(*error));
  }
  if (const Json* outputs = json.Find("outputs")) {
    if (!outputs->is_array()) {
      return Status::ParseError("response: 'outputs' must be an array");
    }
    for (const Json& o : outputs->array()) {
      if (!o.is_object()) {
        return Status::ParseError("response: outputs must be objects");
      }
      OutputSlice slice;
      ZV_ASSIGN_OR_RETURN(slice.name, GetString(o, "name", "output"));
      ZV_ASSIGN_OR_RETURN(slice.total, GetU64Or(o, "total", 0, "output"));
      ZV_ASSIGN_OR_RETURN(slice.offset, GetU64Or(o, "offset", 0, "output"));
      if (const Json* labels = o.Find("labels")) {
        if (!labels->is_array()) {
          return Status::ParseError("output: 'labels' must be an array");
        }
        for (const Json& label : labels->array()) {
          if (!label.is_string()) {
            return Status::ParseError("output: labels must be strings");
          }
          slice.labels.push_back(label.as_string());
        }
      }
      if (const Json* visuals = o.Find("visuals")) {
        if (!visuals->is_array()) {
          return Status::ParseError("output: 'visuals' must be an array");
        }
        for (const Json& viz : visuals->array()) {
          ZV_ASSIGN_OR_RETURN(Visualization decoded,
                              DecodeVisualization(viz));
          slice.visuals.push_back(std::move(decoded));
        }
      }
      if (const Json* vega = o.Find("vega")) {
        if (!vega->is_array()) {
          return Status::ParseError("output: 'vega' must be an array");
        }
        for (const Json& spec : vega->array()) {
          if (!spec.is_string()) {
            return Status::ParseError("output: vega specs must be strings");
          }
          slice.vega.push_back(spec.as_string());
        }
      }
      response.outputs.push_back(std::move(slice));
    }
  }
  if (const Json* stats = json.Find("stats")) {
    response.stats = DecodeStats(*stats);
  }
  response.fingerprint = GetStringOr(json, "fingerprint", "");
  response.plan = GetStringOr(json, "plan", "");
  // Observability payloads round-trip as structured JSON verbatim — the
  // span tree and snapshot schemas live in common/trace.h / metrics.h.
  if (const Json* trace = json.Find("trace")) response.trace = *trace;
  if (const Json* metrics = json.Find("metrics")) response.metrics = *metrics;
  response.client_tag = GetStringOr(json, "client", "");
  return response;
}

}  // namespace zv::api
