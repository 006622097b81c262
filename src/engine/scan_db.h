/// \file scan_db.h
/// \brief Full-scan backend — the PostgreSQL stand-in.
///
/// WHERE clauses compile to predicates (dictionary accept-vectors for
/// categorical leaves) evaluated per row in a single sequential pass,
/// feeding the shared SelectRunner; chunk scans select in batches
/// (CompiledPredicate::SelectRange). No indexes are maintained. See
/// DESIGN.md §4 for why this substitution preserves the behaviour the paper
/// measures.

#ifndef ZV_ENGINE_SCAN_DB_H_
#define ZV_ENGINE_SCAN_DB_H_

#include "engine/database.h"

namespace zv {

class ScanDatabase : public Database {
 public:
  std::string name() const override { return "scan"; }

  /// Fused multi-statement chunk scan: every statement's compiled
  /// predicate selects its rows from the same cancel slice in turn, so a
  /// shared pass over N batched queries brings the column data into cache
  /// once per slice instead of N times. The per-statement row lists are
  /// exactly what N solo scans would select.
  Result<std::unique_ptr<MultiChunkScanner>> PrepareMultiChunkScan(
      const std::vector<const sql::SelectStatement*>& stmts) override;

 protected:
  Result<ResultSet> ExecuteInternal(const sql::SelectStatement& stmt) override;
};

}  // namespace zv

#endif  // ZV_ENGINE_SCAN_DB_H_
