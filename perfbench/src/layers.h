/// \file layers.h
/// \brief The traced run's per-layer metrics.
///
/// No tracing lives inside the program: the benchmark replays each sampled
/// query's work through every module's public functions, recording one
/// span around each call (spans of one query share its id), and reads the
/// operator spans the service's own `Submit(..., trace=true)` returns.
/// A layer's self time is its span's duration minus the time its child
/// spans cover. Spans stay in memory until the run ends, then go to a
/// JSON-lines file.

#ifndef ZVBENCH_LAYERS_H_
#define ZVBENCH_LAYERS_H_

#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "common/json.h"
#include "server/query_service.h"
#include "workloads.h"
#include "zql/executor.h"

namespace zvbench {

/// One query of the timed window, as the client saw it.
struct Record {
  QuerySpec spec;
  size_t session = 0;    ///< index of the client session that sent it
  std::string doc;       ///< wire request document (dashboard only)
  std::string expect_error;
  double ms = 0;         ///< submit → verified result / wire round trip
  bool traced = false;
  bool ok = false;       ///< the program answered (a result, or the
                         ///< structured error the request expects)
  std::shared_ptr<const zv::zql::ZqlResult> result;  ///< QueryService path
  std::string response;  ///< raw wire response (dashboard)
  zv::zql::ZqlStats stats;
  zv::Json trace;        ///< the service's span tree, when traced
  uint64_t epoch_lo = 0, epoch_hi = 0;  ///< dataset epochs around the call
};

struct LayerInputs {
  std::string workload;
  const std::vector<Record>* records = nullptr;
  zv::server::QueryService* service = nullptr;
  std::vector<double> generate_ms;  ///< per setup
  std::vector<double> register_ms;  ///< per setup
  std::vector<double> replace_ms;   ///< fresh backend + ReplaceDataset
  double untraced_p50_ms = 0;
  double traced_p50_ms = 0;
  std::string spans_path;
  std::string provenance;  ///< JSON object, first line of the span file
};

/// dashboard: the share of repeated requests whose previous issue in the
/// same session ran on an earlier table version (a replace came between
/// them, so the repeat misses the result cache); `*repeats` gets their
/// number. 0 on the single-session workloads, which never repeat.
double RepeatAfterReplaceShare(const std::vector<Record>& records, size_t* repeats);

/// Replays a sample of the records layer by layer and returns every
/// per-layer metric (see README.md for the list and what each feeds).
std::vector<Metric> MeasureLayers(const LayerInputs& in);

}  // namespace zvbench

#endif  // ZVBENCH_LAYERS_H_
