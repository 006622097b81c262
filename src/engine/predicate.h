/// \file predicate.h
/// \brief Predicate compilation: a sql::Expr is bound against a Table into a
/// form evaluable per row in a tight loop.
///
/// Every leaf predicate over a *categorical* column — equality, inequality,
/// IN, BETWEEN, LIKE — is pre-evaluated against the column's dictionary into
/// an accept-vector indexed by code, so per-row evaluation is a single array
/// lookup. Building it costs O(|dictionary| + |IN list|): IN lists are
/// probed through a hash set. Leaves over measure columns compare doubles
/// directly.
///
/// Chunk scanners select rows in batches (SelectRange): the first conjunct
/// of a top-level AND runs as a tight loop over one column into a selection
/// vector, and each further conjunct filters that vector in place. OR and
/// NOT subtrees are tested per surviving row. Test() remains the per-row
/// evaluator, which the serial reference scan uses.

#ifndef ZV_ENGINE_PREDICATE_H_
#define ZV_ENGINE_PREDICATE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/status.h"
#include "sql/ast.h"
#include "storage/table.h"

namespace zv {

/// Evaluates a leaf predicate (kCompare / kIn / kBetween / kLike) against a
/// single value. Shared by the scan predicate compiler (dictionary
/// accept-vectors) and the Roaring index planner (accepted-code sets).
bool LeafPredicateAccepts(const sql::Expr& leaf, const Value& v);

/// The accept-vector of a categorical leaf: element `code` is 1 iff
/// LeafPredicateAccepts(leaf, dictionary[code]). Built in
/// O(|dictionary| + |IN list|); shared by the predicate compiler and the
/// Roaring index planner.
std::vector<uint8_t> CategoricalAccepts(const sql::Expr& leaf,
                                        const std::vector<Value>& dictionary);

/// \brief A sql::Expr compiled against one table.
class CompiledPredicate {
 public:
  /// Node in the flattened predicate tree.
  struct Node {
    enum class Kind { kAnd, kOr, kNot, kCatAccept, kNumCompare, kNumBetween };
    Kind kind;
    std::vector<int> children;      // kAnd / kOr / kNot
    int col = -1;                   // leaf column index
    std::vector<uint8_t> accept;    // kCatAccept: accept[code]
    sql::CompareOp op = sql::CompareOp::kEq;  // kNumCompare
    double lhs_lo = 0, lhs_hi = 0;  // kNumCompare rhs in lhs_lo; kNumBetween
  };

  /// Binds `expr` to `table`, resolving columns and pre-computing
  /// dictionary accept-vectors. Fails on unknown columns or type errors.
  static Result<CompiledPredicate> Compile(const Table& table,
                                           const sql::Expr& expr);

  /// Evaluates the predicate against one row.
  bool Test(size_t row) const { return TestNode(root_, row); }

  /// Appends to `out` the rows of [lo, hi) for which Test() holds, in
  /// ascending order, evaluating one conjunct at a time over batches of
  /// the range.
  void SelectRange(uint32_t lo, uint32_t hi, std::vector<uint32_t>* out) const;

  /// True if every leaf touches only categorical columns — i.e. the whole
  /// predicate can be answered from bitmap indexes.
  bool categorical_only() const { return categorical_only_; }

  const std::vector<Node>& nodes() const { return nodes_; }
  int root() const { return root_; }
  const Table& table() const { return *table_; }

 private:
  bool TestNode(int idx, size_t row) const;

  /// Calls `fn` with a row -> bool callable equivalent to TestNode(idx, .),
  /// specialised on the node's column type and operator for leaves.
  template <typename Fn>
  void WithRowTest(int idx, Fn&& fn) const;

  const Table* table_ = nullptr;
  std::vector<Node> nodes_;
  int root_ = -1;
  bool categorical_only_ = true;
};

}  // namespace zv

#endif  // ZV_ENGINE_PREDICATE_H_
