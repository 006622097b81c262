#include "oracle.h"

#include <cmath>

#include "api/protocol.h"
#include "common/json.h"
#include "zql/parser.h"

namespace zvbench {

std::string OutputsDigest(const zv::zql::ZqlResult& result) {
  std::string out;
  for (const auto& output : result.outputs) {
    out += output.name;
    out += '\n';
    for (const auto& viz : output.visuals) {
      out += zv::api::EncodeVisualization(viz).Dump();
      out += '\n';
    }
  }
  return out;
}

bool WireOutputs(const zv::Json& response, std::string* outputs, std::string* error) {
  if (!response.is_object()) return false;
  error->clear();
  if (const zv::Json* err = response.Find("error"); err != nullptr && !err->is_null()) {
    const zv::Json* code = err->is_object() ? err->Find("code") : nullptr;
    if (code == nullptr || !code->is_string()) return false;
    *error = code->as_string();
  }
  const zv::Json* outs = response.Find("outputs");
  *outputs = outs == nullptr ? "" : outs->Dump();
  return true;
}

Oracle::Oracle(std::shared_ptr<zv::Table> table) : table_(std::move(table)) {
  // A failed registration makes every oracle run fail, and a failed oracle
  // run counts as a failed check, so there is nothing more to report here.
  (void)db_.RegisterTable(table_);
}

zv::Result<zv::zql::ZqlResult> Oracle::Run(const zv::zql::ZqlQuery& query) {
  zv::zql::ZqlOptions options;
  options.pipelined_execution = false;  // the staged schedule
  options.shards = 1;
  zv::zql::ZqlExecutor exec(&db_, table_->name(), std::move(options));
  return exec.Execute(query);
}

zv::Result<std::string> Oracle::Digest(const std::string& zql) {
  ZV_ASSIGN_OR_RETURN(zv::zql::ZqlQuery query, zv::zql::ParseQuery(zql));
  ZV_ASSIGN_OR_RETURN(zv::zql::ZqlResult result, Run(query));
  return OutputsDigest(result);
}

zv::Result<std::string> Oracle::WireDigest(const std::string& doc) {
  ZV_ASSIGN_OR_RETURN(zv::Json json, zv::Json::Parse(doc));
  ZV_ASSIGN_OR_RETURN(zv::api::QueryRequest request,
                      zv::api::DecodeRequest(json));
  ZV_ASSIGN_OR_RETURN(zv::zql::ZqlResult result, Run(request.query));
  zv::api::QueryResponse response =
      zv::api::BuildResponse(result, request, /*fingerprint=*/"");
  const zv::Json encoded = zv::api::EncodeResponse(response);
  const zv::Json* outs = encoded.Find("outputs");
  return outs == nullptr ? std::string() : outs->Dump();
}

bool Corrupt(zv::zql::ZqlResult* result) {
  for (auto& output : result->outputs) {
    for (auto& viz : output.visuals) {
      for (auto& series : viz.series) {
        if (!series.ys.empty()) {
          series.ys[0] = std::nextafter(series.ys[0], HUGE_VAL);
          return true;
        }
      }
    }
  }
  return false;
}

}  // namespace zvbench
