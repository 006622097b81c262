#include "engine/predicate.h"

#include "common/strings.h"

namespace zv {

namespace {

using sql::CompareOp;
using sql::Expr;

bool CompareValues(const Value& lhs, CompareOp op, const Value& rhs) {
  const int c = lhs.Compare(rhs);
  switch (op) {
    case CompareOp::kEq:
      return c == 0;
    case CompareOp::kNe:
      return c != 0;
    case CompareOp::kLt:
      return c < 0;
    case CompareOp::kLe:
      return c <= 0;
    case CompareOp::kGt:
      return c > 0;
    case CompareOp::kGe:
      return c >= 0;
  }
  return false;
}

bool CompareDoubles(double lhs, CompareOp op, double rhs) {
  switch (op) {
    case CompareOp::kEq:
      return lhs == rhs;
    case CompareOp::kNe:
      return lhs != rhs;
    case CompareOp::kLt:
      return lhs < rhs;
    case CompareOp::kLe:
      return lhs <= rhs;
    case CompareOp::kGt:
      return lhs > rhs;
    case CompareOp::kGe:
      return lhs >= rhs;
  }
  return false;
}

/// Rows per SelectRange selection-vector batch (16 KB on the stack).
constexpr uint32_t kSelectBatchRows = 4096;

/// Calls `fn` with a row -> bool test of a measure leaf over column data
/// `values`, one specialisation per operator. Values widen to double
/// exactly as Table::NumericAt does.
template <typename T, typename Fn>
void WithMeasureTest(const CompiledPredicate::Node& node, const T* values,
                     Fn&& fn) {
  const double a = node.lhs_lo, b = node.lhs_hi;
  const auto at = [values](uint32_t row) {
    return static_cast<double>(values[row]);
  };
  if (node.kind == CompiledPredicate::Node::Kind::kNumBetween) {
    fn([=](uint32_t row) {
      const double v = at(row);
      return v >= a && v <= b;
    });
    return;
  }
  switch (node.op) {
    case CompareOp::kEq:
      fn([=](uint32_t row) { return at(row) == a; });
      return;
    case CompareOp::kNe:
      fn([=](uint32_t row) { return at(row) != a; });
      return;
    case CompareOp::kLt:
      fn([=](uint32_t row) { return at(row) < a; });
      return;
    case CompareOp::kLe:
      fn([=](uint32_t row) { return at(row) <= a; });
      return;
    case CompareOp::kGt:
      fn([=](uint32_t row) { return at(row) > a; });
      return;
    case CompareOp::kGe:
      fn([=](uint32_t row) { return at(row) >= a; });
      return;
  }
}

}  // namespace

bool LeafPredicateAccepts(const sql::Expr& expr, const Value& v) {
  switch (expr.kind) {
    case Expr::Kind::kCompare:
      return CompareValues(v, expr.op, expr.value);
    case Expr::Kind::kIn:
      for (const Value& candidate : expr.values) {
        if (v == candidate) return true;
      }
      return false;
    case Expr::Kind::kBetween:
      return v >= expr.values[0] && v <= expr.values[1];
    case Expr::Kind::kLike:
      return v.is_string() && LikeMatch(v.AsString(), expr.value.AsString());
    default:
      return false;
  }
}

std::vector<uint8_t> CategoricalAccepts(const sql::Expr& leaf,
                                        const std::vector<Value>& dictionary) {
  std::vector<uint8_t> accept(dictionary.size());
  if (leaf.kind == Expr::Kind::kIn) {
    ValueSet in;
    for (const Value& v : leaf.values) in.Add(v);
    for (size_t code = 0; code < dictionary.size(); ++code) {
      accept[code] = in.Contains(dictionary[code]);
    }
    return accept;
  }
  for (size_t code = 0; code < dictionary.size(); ++code) {
    accept[code] = LeafPredicateAccepts(leaf, dictionary[code]);
  }
  return accept;
}

Result<CompiledPredicate> CompiledPredicate::Compile(const Table& table,
                                                     const sql::Expr& expr) {
  CompiledPredicate cp;
  cp.table_ = &table;

  // Recursive lowering returning node index or a Status error.
  struct Lowerer {
    CompiledPredicate* cp;
    const Table& table;
    Status error;

    int Lower(const Expr& e) {  // returns -1 on error
      if (!error.ok()) return -1;
      switch (e.kind) {
        case Expr::Kind::kAnd:
        case Expr::Kind::kOr:
        case Expr::Kind::kNot: {
          Node node;
          node.kind = e.kind == Expr::Kind::kAnd  ? Node::Kind::kAnd
                      : e.kind == Expr::Kind::kOr ? Node::Kind::kOr
                                                  : Node::Kind::kNot;
          for (const auto& child : e.children) {
            const int idx = Lower(*child);
            if (idx < 0) return -1;
            node.children.push_back(idx);
          }
          cp->nodes_.push_back(std::move(node));
          return static_cast<int>(cp->nodes_.size() - 1);
        }
        default:
          return LowerLeaf(e);
      }
    }

    int LowerLeaf(const Expr& e) {
      const int col = table.schema().Find(e.column);
      if (col < 0) {
        error = Status::NotFound(StrFormat("unknown column '%s' in predicate",
                                           e.column.c_str()));
        return -1;
      }
      const ColumnType type = table.column_type(static_cast<size_t>(col));
      Node node;
      node.col = col;
      if (type == ColumnType::kCategorical) {
        node.kind = Node::Kind::kCatAccept;
        node.accept =
            CategoricalAccepts(e, table.Dictionary(static_cast<size_t>(col)));
        cp->nodes_.push_back(std::move(node));
        return static_cast<int>(cp->nodes_.size() - 1);
      }
      // Measure column.
      cp->categorical_only_ = false;
      switch (e.kind) {
        case Expr::Kind::kCompare:
          if (!e.value.is_numeric()) {
            error = Status::TypeMismatch(
                StrFormat("column '%s' is numeric but compared to '%s'",
                          e.column.c_str(), e.value.ToString().c_str()));
            return -1;
          }
          node.kind = Node::Kind::kNumCompare;
          node.op = e.op;
          node.lhs_lo = e.value.AsDouble();
          break;
        case Expr::Kind::kBetween:
          if (!e.values[0].is_numeric() || !e.values[1].is_numeric()) {
            error = Status::TypeMismatch("BETWEEN bounds must be numeric");
            return -1;
          }
          node.kind = Node::Kind::kNumBetween;
          node.lhs_lo = e.values[0].AsDouble();
          node.lhs_hi = e.values[1].AsDouble();
          break;
        case Expr::Kind::kIn: {
          // Lower IN over a measure column to an OR of equalities.
          Node or_node;
          or_node.kind = Node::Kind::kOr;
          for (const Value& v : e.values) {
            if (!v.is_numeric()) {
              error = Status::TypeMismatch("IN list over numeric column");
              return -1;
            }
            Node eq;
            eq.kind = Node::Kind::kNumCompare;
            eq.col = col;
            eq.op = CompareOp::kEq;
            eq.lhs_lo = v.AsDouble();
            cp->nodes_.push_back(std::move(eq));
            or_node.children.push_back(static_cast<int>(cp->nodes_.size() - 1));
          }
          cp->nodes_.push_back(std::move(or_node));
          return static_cast<int>(cp->nodes_.size() - 1);
        }
        case Expr::Kind::kLike:
          error = Status::TypeMismatch(
              StrFormat("LIKE requires a categorical column, '%s' is numeric",
                        e.column.c_str()));
          return -1;
        default:
          error = Status::Internal("unexpected leaf kind");
          return -1;
      }
      cp->nodes_.push_back(std::move(node));
      return static_cast<int>(cp->nodes_.size() - 1);
    }
  };

  Lowerer lowerer{&cp, table, Status::OK()};
  cp.root_ = lowerer.Lower(expr);
  if (!lowerer.error.ok()) return lowerer.error;
  return cp;
}

template <typename Fn>
void CompiledPredicate::WithRowTest(int idx, Fn&& fn) const {
  const Node& node = nodes_[static_cast<size_t>(idx)];
  const size_t col = static_cast<size_t>(node.col);
  switch (node.kind) {
    case Node::Kind::kCatAccept: {
      const int32_t* codes = table_->CategoricalColumn(col).data();
      const uint8_t* accept = node.accept.data();
      fn([codes, accept](uint32_t row) { return accept[codes[row]] != 0; });
      return;
    }
    case Node::Kind::kNumCompare:
    case Node::Kind::kNumBetween:
      if (table_->column_type(col) == ColumnType::kDouble) {
        WithMeasureTest(node, table_->DoubleColumn(col).data(), fn);
      } else {
        WithMeasureTest(node, table_->IntColumn(col).data(), fn);
      }
      return;
    default:
      fn([this, idx](uint32_t row) { return TestNode(idx, row); });
      return;
  }
}

void CompiledPredicate::SelectRange(uint32_t lo, uint32_t hi,
                                    std::vector<uint32_t>* out) const {
  const Node& root = nodes_[static_cast<size_t>(root_)];
  const int* conjuncts = &root_;
  size_t num_conjuncts = 1;
  if (root.kind == Node::Kind::kAnd) {
    conjuncts = root.children.data();
    num_conjuncts = root.children.size();
  }
  // Batches of rows go through a stack selection vector: the first
  // conjunct writes every row id and advances past the accepted ones
  // (branch-free), the rest compact the survivors in place, and only the
  // final survivors reach `out`.
  uint32_t sel[kSelectBatchRows];
  for (uint32_t base = lo; base < hi;) {
    const uint32_t end =
        hi - base > kSelectBatchRows ? base + kSelectBatchRows : hi;
    size_t kept = 0;
    if (num_conjuncts == 0) {
      for (uint32_t row = base; row < end; ++row) sel[kept++] = row;
    } else {
      WithRowTest(conjuncts[0], [&](auto&& test) {
        for (uint32_t row = base; row < end; ++row) {
          sel[kept] = row;
          kept += test(row) ? 1 : 0;
        }
      });
    }
    for (size_t c = 1; c < num_conjuncts && kept > 0; ++c) {
      WithRowTest(conjuncts[c], [&](auto&& test) {
        const size_t n = kept;
        kept = 0;
        for (size_t i = 0; i < n; ++i) {
          const uint32_t row = sel[i];
          sel[kept] = row;
          kept += test(row) ? 1 : 0;
        }
      });
    }
    out->insert(out->end(), sel, sel + kept);
    base = end;
  }
}

bool CompiledPredicate::TestNode(int idx, size_t row) const {
  const Node& node = nodes_[static_cast<size_t>(idx)];
  switch (node.kind) {
    case Node::Kind::kAnd:
      for (int child : node.children) {
        if (!TestNode(child, row)) return false;
      }
      return true;
    case Node::Kind::kOr:
      for (int child : node.children) {
        if (TestNode(child, row)) return true;
      }
      return false;
    case Node::Kind::kNot:
      return !TestNode(node.children[0], row);
    case Node::Kind::kCatAccept: {
      const int32_t code = table_->Code(row, static_cast<size_t>(node.col));
      return node.accept[static_cast<size_t>(code)] != 0;
    }
    case Node::Kind::kNumCompare:
      return CompareDoubles(
          table_->NumericAt(row, static_cast<size_t>(node.col)), node.op,
          node.lhs_lo);
    case Node::Kind::kNumBetween: {
      const double v = table_->NumericAt(row, static_cast<size_t>(node.col));
      return v >= node.lhs_lo && v <= node.lhs_hi;
    }
  }
  return false;
}

}  // namespace zv
