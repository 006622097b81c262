/// \file select_runner.h
/// \brief Backend-independent SELECT evaluation: projection, hash/dense
/// group-by aggregation, ORDER BY and LIMIT.
///
/// A backend plans a SelectRunner for a statement, feeds it the row ids that
/// survive its own WHERE evaluation (scan loop or bitmap iteration), and
/// calls Finish(). Both backends share this code so measured differences
/// between them isolate row *selection*, which is what Figure 7.5 studies.

#ifndef ZV_ENGINE_SELECT_RUNNER_H_
#define ZV_ENGINE_SELECT_RUNNER_H_

#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "engine/result_set.h"
#include "sql/ast.h"
#include "storage/table.h"

namespace zv {

/// \brief Streaming evaluator for one SELECT against one table.
class SelectRunner {
 public:
  /// Max group count for the dense (array-addressed) aggregation path.
  static constexpr uint64_t kDenseGroupLimit = 1u << 20;

  /// Validates the statement against the table and builds the plan.
  static Result<SelectRunner> Plan(const Table& table,
                                   const sql::SelectStatement& stmt);

  /// Feeds one selected row id. Must be called in ascending row order for
  /// deterministic projection output.
  void Consume(size_t row);

  /// Feeds `n` selected row ids (ascending, and after every row fed
  /// before) — exactly equivalent to calling Consume on each in turn. The
  /// dense categorical path works in stack batches of kConsumeBatchRows:
  /// it builds every row's dense key one group column at a time, sets the
  /// seen flags in one pass, then runs one tight loop per aggregate item.
  /// Each group's state still folds its rows in ascending order, so
  /// Finish() is bit-identical to the per-row path. Other paths loop over
  /// Consume.
  void ConsumeBatch(const uint32_t* rows, size_t n);

  /// Rows per ConsumeBatch inner batch (the key buffer lives on the
  /// stack).
  static constexpr size_t kConsumeBatchRows = 1024;

  /// True when a per-block copy of this runner's aggregation state is
  /// cheap (the dense path preallocates total_groups slots per block, so
  /// very wide dense group spaces are better scanned serially).
  bool cheap_to_replicate() const {
    return !dense_ || total_groups_ <= (1u << 15);
  }

  /// Builds the final result (applies ORDER BY and LIMIT).
  Result<ResultSet> Finish();

 private:
  struct AggState {
    double sum = 0;
    int64_t count = 0;
    double min = std::numeric_limits<double>::infinity();
    double max = -std::numeric_limits<double>::infinity();
  };

  struct ItemPlan {
    bool is_agg = false;
    sql::AggFunc agg = sql::AggFunc::kNone;
    int col = -1;        ///< table column (-1 for COUNT(*))
    int group_pos = -1;  ///< for bare items: position in group_by
    int agg_slot = -1;   ///< for agg items: index among aggregates
    // Fast numeric access for aggregation.
    const double* dptr = nullptr;
    const int64_t* iptr = nullptr;
  };

  friend Result<ResultSet> RunBlocked(
      const Table& table, const sql::SelectStatement& stmt,
      const std::function<void(size_t, size_t, SelectRunner&)>& scan_block);

  SelectRunner() = default;

  /// Plan() without allocating aggregation state, so copies are cheap;
  /// InitState() completes it.
  static Result<SelectRunner> PlanWithoutState(
      const Table& table, const sql::SelectStatement& stmt);
  /// Allocates the empty dense aggregation state the plan calls for.
  void InitState();
  /// Folds blocks 1..B-1 into blocks[0] in block order and drops them,
  /// leaving only blocks[0]; the only way runners merge. Every block is
  /// planned from the same statement over the same table, and block b
  /// consumed a row range strictly after block b-1's (projection rows are
  /// appended in block order). Aggregate states merge associatively
  /// (sum/count add; min/max fold), so a partitioned scan followed by the
  /// merge produces exactly the serial Finish() output. Dense states merge
  /// in parallel over disjoint key ranges, each key folded in block order.
  static void MergeBlocks(std::vector<SelectRunner>* blocks);
  /// Merges `other`'s projection rows, or its hash / generic group states,
  /// into this runner. Dense runners merge only through MergeBlocks.
  void MergeFrom(SelectRunner&& other);
  static void MergeStates(size_t naggs, const AggState* from, AggState* into);
  /// Folds `other`'s dense groups in [key_lo, key_hi) into this runner's.
  void MergeDenseRange(const SelectRunner& other, uint64_t key_lo,
                       uint64_t key_hi);

  uint64_t DenseKey(size_t row) const;
  void AccumulateInto(AggState* states, size_t row);
  /// One aggregate item over a batch: `slots[i]` is row `rows[i]`'s
  /// dense state index (key × naggs); `value(row)` reads the item's input.
  template <typename ValueFn>
  static void AccumulateItem(sql::AggFunc f, AggState* states,
                             const uint32_t* slots, const uint32_t* rows,
                             size_t n, ValueFn value);
  Value GroupColValue(int group_pos, uint64_t key) const;
  Value FinalizeAgg(const AggState& s, sql::AggFunc f) const;
  Status ApplyOrderAndLimit(ResultSet* rs) const;

  const Table* table_ = nullptr;
  std::vector<std::string> column_names_;
  std::vector<sql::OrderKey> order_by_;
  int64_t limit_ = -1;

  bool aggregation_ = false;

  // Aggregation state.
  std::vector<int> group_cols_;
  /// Parallel to group_cols_: bin width per key (0 = raw grouping). Any
  /// positive width forces the generic path (computed Value keys).
  std::vector<double> group_bin_widths_;
  std::vector<uint64_t> group_dict_sizes_;
  /// Mixed-radix divisor per group position (suffix products of
  /// group_dict_sizes_), precomputed once at Plan() time so GroupColValue
  /// does not rebuild the divisor loop for every emitted group x item.
  std::vector<uint64_t> group_strides_;
  bool groups_categorical_ = true;
  uint64_t total_groups_ = 1;
  bool dense_ = false;
  std::vector<ItemPlan> items_;
  int num_aggs_ = 0;

  std::vector<AggState> dense_states_;
  std::vector<uint8_t> dense_seen_;

  std::unordered_map<uint64_t, uint32_t> hash_slots_;
  std::vector<AggState> hash_states_;
  std::vector<uint64_t> hash_keys_;

  // Generic (non-categorical group key) path.
  std::map<std::vector<Value>, uint32_t> generic_slots_;
  std::vector<AggState> generic_states_;
  std::vector<std::vector<Value>> generic_keys_;

  // Projection state.
  std::vector<std::vector<Value>> projected_rows_;
};

/// Drives a blocked — and, when ZV_THREADS allows, parallel — SELECT
/// evaluation shared by both backends. The table's row space is split into
/// contiguous blocks whose *count depends only on the row count* (never on
/// the worker count); `scan_block(begin, end, runner)` feeds each block's
/// surviving rows (in ascending order) to its own SelectRunner, and the
/// block partials merge in block order. Aggregation therefore associates
/// floats identically at every thread count, and both backends produce the
/// same bytes for the same surviving rows. The statement is planned once;
/// each block's replica is allocated by the worker that scans it, and dense
/// partials merge in parallel over disjoint key ranges. Falls back to one
/// serial runner when the table is small or the dense group state is too
/// wide to replicate per block.
Result<ResultSet> RunBlocked(
    const Table& table, const sql::SelectStatement& stmt,
    const std::function<void(size_t begin, size_t end, SelectRunner& runner)>&
        scan_block);

/// One ascending row-id list held as consecutive parts — a chunk pass's
/// per-chunk lists in chunk order, or a single whole list.
using RowParts = std::span<const std::span<const uint32_t>>;

/// Feeds an ascending row-id list to RunBlocked: each block walks the
/// parts that overlap its [begin, end) range, cuts the boundary parts by
/// binary search, and hands each piece to ConsumeBatch. Row ids stay in
/// ascending order inside every block, so the result is byte-identical to
/// a scan that selected the same rows in place, however the list is
/// split — this is how the Roaring backend finishes a bitmap selection and
/// how the queued chunk-pass route (engine/database.h FinishChunkScan)
/// aggregates its per-chunk lists without concatenating them.
Result<ResultSet> RunBlockedOverRows(const Table& table,
                                     const sql::SelectStatement& stmt,
                                     RowParts parts);

/// The one-part case: `rows` is the whole ascending list.
Result<ResultSet> RunBlockedOverRows(const Table& table,
                                     const sql::SelectStatement& stmt,
                                     const std::vector<uint32_t>& rows);

}  // namespace zv

#endif  // ZV_ENGINE_SELECT_RUNNER_H_
