/// \file oracle.h
/// \brief The benchmark's correctness check: every distinct query's outputs
/// are compared byte for byte with the serial oracle — a fresh ZqlExecutor
/// on a ScanDatabase over the same table, staged schedule, one shard. The
/// determinism contract says the served outputs must be identical.

#ifndef ZVBENCH_ORACLE_H_
#define ZVBENCH_ORACLE_H_

#include <memory>
#include <string>

#include "common/json.h"
#include "common/status.h"
#include "engine/scan_db.h"
#include "storage/table.h"
#include "zql/executor.h"

namespace zvbench {

/// Byte string of a result's outputs: names and every visualization's
/// identity and data, as the wire codec encodes them. Stats are excluded.
std::string OutputsDigest(const zv::zql::ZqlResult& result);

/// The `outputs` member of a parsed wire response, re-encoded; sets
/// `*error` to the response's wire error name ("" on success). Returns
/// false when the document is not a well-formed response.
bool WireOutputs(const zv::Json& response, std::string* outputs, std::string* error);

class Oracle {
 public:
  /// Registers `table` in a private ScanDatabase.
  explicit Oracle(std::shared_ptr<zv::Table> table);
  Oracle(const Oracle&) = delete;
  Oracle& operator=(const Oracle&) = delete;

  /// OutputsDigest of the serial execution of `zql`.
  zv::Result<std::string> Digest(const std::string& zql);

  /// The `outputs` member the wire response to request `doc` must carry:
  /// the serial result packaged by the same pagination and payload rules.
  zv::Result<std::string> WireDigest(const std::string& doc);

 private:
  zv::Result<zv::zql::ZqlResult> Run(const zv::zql::ZqlQuery& query);

  std::shared_ptr<zv::Table> table_;
  zv::ScanDatabase db_;
};

/// Flips one value of `result` (the first data point it has) — the
/// corrupted input of the checker's self-test. Returns false when the
/// result holds no data point to corrupt.
bool Corrupt(zv::zql::ZqlResult* result);

}  // namespace zvbench

#endif  // ZVBENCH_ORACLE_H_
