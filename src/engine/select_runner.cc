#include "engine/select_runner.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/cancel.h"
#include "common/parallel.h"
#include "common/strings.h"

namespace zv {

using sql::AggFunc;
using sql::SelectStatement;

Result<SelectRunner> SelectRunner::Plan(const Table& table,
                                        const SelectStatement& stmt) {
  ZV_ASSIGN_OR_RETURN(SelectRunner r, PlanWithoutState(table, stmt));
  r.InitState();
  return r;
}

Result<SelectRunner> SelectRunner::PlanWithoutState(
    const Table& table, const SelectStatement& stmt) {
  SelectRunner r;
  r.table_ = &table;
  for (const auto& item : stmt.items) {
    r.column_names_.push_back(item.DisplayName());
  }
  r.order_by_ = stmt.order_by;
  r.limit_ = stmt.limit;

  bool any_agg = false;
  for (const auto& item : stmt.items) any_agg |= item.is_aggregate();
  r.aggregation_ = any_agg || !stmt.group_by.empty();

  // Resolve group-by columns.
  if (!stmt.group_bins.empty() &&
      stmt.group_bins.size() != stmt.group_by.size()) {
    return Status::InvalidArgument(
        "group_bins must parallel group_by when present");
  }
  for (size_t gi = 0; gi < stmt.group_by.size(); ++gi) {
    const std::string& g = stmt.group_by[gi];
    const int col = table.schema().Find(g);
    if (col < 0) {
      return Status::NotFound(
          StrFormat("unknown GROUP BY column '%s'", g.c_str()));
    }
    const double bin = gi < stmt.group_bins.size() ? stmt.group_bins[gi] : 0;
    if (bin < 0 || bin != bin) {
      return Status::InvalidArgument(
          StrFormat("invalid bin width for GROUP BY column '%s'", g.c_str()));
    }
    r.group_cols_.push_back(col);
    r.group_bin_widths_.push_back(bin);
    if (bin > 0) {
      // Binned keys carry computed Value tuples, so they always take the
      // generic path regardless of the column's physical type.
      if (table.column_type(static_cast<size_t>(col)) ==
          ColumnType::kCategorical) {
        return Status::InvalidArgument(StrFormat(
            "binned GROUP BY column '%s' must be numeric", g.c_str()));
      }
      r.groups_categorical_ = false;
      r.group_dict_sizes_.push_back(0);
    } else if (table.column_type(static_cast<size_t>(col)) ==
               ColumnType::kCategorical) {
      r.group_dict_sizes_.push_back(table.DictSize(static_cast<size_t>(col)));
    } else {
      r.groups_categorical_ = false;
      r.group_dict_sizes_.push_back(0);
    }
  }
  if (r.groups_categorical_) {
    r.total_groups_ = 1;
    for (uint64_t d : r.group_dict_sizes_) {
      if (d == 0) d = 1;
      if (r.total_groups_ > kDenseGroupLimit) break;
      r.total_groups_ *= d;
    }
    r.dense_ = r.total_groups_ <= kDenseGroupLimit;
    // Suffix products: stride of position i is the product of the dict
    // sizes after it, mirroring DenseKey's mixed-radix packing.
    r.group_strides_.assign(r.group_cols_.size(), 1);
    for (size_t i = r.group_cols_.size(); i-- > 1;) {
      r.group_strides_[i - 1] =
          r.group_strides_[i] * r.group_dict_sizes_[i];
    }
  }

  // Resolve select items.
  for (const auto& item : stmt.items) {
    ItemPlan plan;
    plan.is_agg = item.is_aggregate();
    plan.agg = item.agg;
    if (plan.is_agg) {
      plan.agg_slot = r.num_aggs_++;
      if (item.column == "*") {
        if (item.agg != AggFunc::kCount) {
          return Status::InvalidArgument("only COUNT accepts *");
        }
        plan.col = -1;
      } else {
        plan.col = table.schema().Find(item.column);
        if (plan.col < 0) {
          return Status::NotFound(
              StrFormat("unknown column '%s'", item.column.c_str()));
        }
        const size_t c = static_cast<size_t>(plan.col);
        switch (table.column_type(c)) {
          case ColumnType::kDouble:
            plan.dptr = table.DoubleColumn(c).data();
            break;
          case ColumnType::kInt:
            plan.iptr = table.IntColumn(c).data();
            break;
          case ColumnType::kCategorical:
            break;  // slow path via NumericAt
        }
      }
    } else {
      plan.col = table.schema().Find(item.column);
      if (plan.col < 0) {
        return Status::NotFound(
            StrFormat("unknown column '%s'", item.column.c_str()));
      }
      if (r.aggregation_) {
        // Bare columns under aggregation must be group keys.
        for (size_t i = 0; i < r.group_cols_.size(); ++i) {
          if (r.group_cols_[i] == plan.col) {
            plan.group_pos = static_cast<int>(i);
            break;
          }
        }
        if (plan.group_pos < 0) {
          return Status::InvalidArgument(
              StrFormat("column '%s' must appear in GROUP BY",
                        item.column.c_str()));
        }
      }
    }
    r.items_.push_back(plan);
  }

  return r;
}

void SelectRunner::InitState() {
  if (aggregation_ && dense_) {
    const size_t n = static_cast<size_t>(total_groups_) *
                     static_cast<size_t>(std::max(1, num_aggs_));
    dense_states_.resize(n);
    dense_seen_.assign(static_cast<size_t>(total_groups_), 0);
  }
}

uint64_t SelectRunner::DenseKey(size_t row) const {
  uint64_t key = 0;
  for (size_t i = 0; i < group_cols_.size(); ++i) {
    key = key * group_dict_sizes_[i] +
          static_cast<uint64_t>(
              table_->Code(row, static_cast<size_t>(group_cols_[i])));
  }
  return key;
}

void SelectRunner::AccumulateInto(AggState* states, size_t row) {
  for (const ItemPlan& item : items_) {
    if (!item.is_agg) continue;
    AggState& s = states[item.agg_slot];
    if (item.col < 0) {
      ++s.count;
      continue;
    }
    double v;
    if (item.dptr != nullptr) {
      v = item.dptr[row];
    } else if (item.iptr != nullptr) {
      v = static_cast<double>(item.iptr[row]);
    } else {
      v = table_->NumericAt(row, static_cast<size_t>(item.col));
    }
    s.sum += v;
    ++s.count;
    if (v < s.min) s.min = v;
    if (v > s.max) s.max = v;
  }
}

void SelectRunner::Consume(size_t row) {
  if (!aggregation_) {
    std::vector<Value> out;
    out.reserve(items_.size());
    for (const ItemPlan& item : items_) {
      out.push_back(table_->ValueAt(row, static_cast<size_t>(item.col)));
    }
    projected_rows_.push_back(std::move(out));
    return;
  }
  if (groups_categorical_) {
    const uint64_t key = group_cols_.empty() ? 0 : DenseKey(row);
    if (dense_) {
      dense_seen_[key] = 1;
      AccumulateInto(
          &dense_states_[key * static_cast<uint64_t>(std::max(1, num_aggs_))],
          row);
    } else {
      auto [it, inserted] =
          hash_slots_.try_emplace(key, static_cast<uint32_t>(hash_keys_.size()));
      if (inserted) {
        hash_keys_.push_back(key);
        hash_states_.resize(hash_states_.size() +
                            static_cast<size_t>(std::max(1, num_aggs_)));
      }
      AccumulateInto(
          &hash_states_[static_cast<size_t>(it->second) *
                        static_cast<size_t>(std::max(1, num_aggs_))],
          row);
    }
    return;
  }
  // Generic path: group key is a Value tuple. Binned keys reduce the raw
  // value to its bin's lower edge with exactly the client binner's
  // arithmetic (viz/binning.cc BinVisualization) so a pushed-down binned
  // fetch emits the same edge values the client transform would.
  std::vector<Value> key;
  key.reserve(group_cols_.size());
  for (size_t i = 0; i < group_cols_.size(); ++i) {
    const size_t col = static_cast<size_t>(group_cols_[i]);
    const double w = group_bin_widths_[i];
    if (w > 0) {
      const int64_t bin =
          TruncateToInt64(std::floor(table_->NumericAt(row, col) / w));
      key.push_back(Value::Double(static_cast<double>(bin) * w));
    } else {
      key.push_back(table_->ValueAt(row, col));
    }
  }
  auto [it, inserted] =
      generic_slots_.try_emplace(key, static_cast<uint32_t>(generic_keys_.size()));
  if (inserted) {
    generic_keys_.push_back(key);
    generic_states_.resize(generic_states_.size() +
                           static_cast<size_t>(std::max(1, num_aggs_)));
  }
  AccumulateInto(&generic_states_[static_cast<size_t>(it->second) *
                                  static_cast<size_t>(std::max(1, num_aggs_))],
                 row);
}

template <typename ValueFn>
void SelectRunner::AccumulateItem(AggFunc f, AggState* states,
                                  const uint32_t* slots, const uint32_t* rows,
                                  size_t n, ValueFn value) {
  // Each loop touches only the fields FinalizeAgg reads for `f`, in the
  // per-row path's operation order, so every finished value is the same.
  switch (f) {
    case AggFunc::kSum:
      for (size_t i = 0; i < n; ++i) states[slots[i]].sum += value(rows[i]);
      return;
    case AggFunc::kAvg:
      for (size_t i = 0; i < n; ++i) {
        AggState& s = states[slots[i]];
        s.sum += value(rows[i]);
        ++s.count;
      }
      return;
    case AggFunc::kCount:
      for (size_t i = 0; i < n; ++i) ++states[slots[i]].count;
      return;
    case AggFunc::kMin:
      for (size_t i = 0; i < n; ++i) {
        AggState& s = states[slots[i]];
        const double v = value(rows[i]);
        ++s.count;
        if (v < s.min) s.min = v;
      }
      return;
    case AggFunc::kMax:
      for (size_t i = 0; i < n; ++i) {
        AggState& s = states[slots[i]];
        const double v = value(rows[i]);
        ++s.count;
        if (v > s.max) s.max = v;
      }
      return;
    case AggFunc::kNone:
      return;
  }
}

void SelectRunner::ConsumeBatch(const uint32_t* rows, size_t n) {
  if (!(aggregation_ && groups_categorical_ && dense_)) {
    for (size_t i = 0; i < n; ++i) Consume(rows[i]);
    return;
  }
  // Dense keys are < total_groups_ <= kDenseGroupLimit, and so are their
  // mixed-radix prefixes, so slot indexes fit 32 bits.
  const uint32_t naggs = static_cast<uint32_t>(std::max(1, num_aggs_));
  uint32_t slots[kConsumeBatchRows];
  for (size_t off = 0; off < n; off += kConsumeBatchRows) {
    const size_t m = std::min(kConsumeBatchRows, n - off);
    const uint32_t* batch = rows + off;
    // The mixed-radix key of DenseKey, one group column at a time.
    if (group_cols_.empty()) std::fill_n(slots, m, 0u);
    for (size_t g = 0; g < group_cols_.size(); ++g) {
      const int32_t* codes =
          table_->CategoricalColumn(static_cast<size_t>(group_cols_[g]))
              .data();
      if (g == 0) {
        for (size_t i = 0; i < m; ++i) {
          slots[i] = static_cast<uint32_t>(codes[batch[i]]);
        }
      } else {
        const uint32_t radix = static_cast<uint32_t>(group_dict_sizes_[g]);
        for (size_t i = 0; i < m; ++i) {
          slots[i] = slots[i] * radix + static_cast<uint32_t>(codes[batch[i]]);
        }
      }
    }
    for (size_t i = 0; i < m; ++i) dense_seen_[slots[i]] = 1;
    if (naggs != 1) {
      for (size_t i = 0; i < m; ++i) slots[i] *= naggs;
    }
    for (const ItemPlan& item : items_) {
      if (!item.is_agg) continue;
      AggState* states = dense_states_.data() + item.agg_slot;
      if (item.col < 0) {
        AccumulateItem(AggFunc::kCount, states, slots, batch, m,
                       [](uint32_t) { return 0.0; });
      } else if (item.dptr != nullptr) {
        const double* p = item.dptr;
        AccumulateItem(item.agg, states, slots, batch, m,
                       [p](uint32_t row) { return p[row]; });
      } else if (item.iptr != nullptr) {
        const int64_t* p = item.iptr;
        AccumulateItem(item.agg, states, slots, batch, m, [p](uint32_t row) {
          return static_cast<double>(p[row]);
        });
      } else {
        const Table* table = table_;
        const size_t col = static_cast<size_t>(item.col);
        AccumulateItem(item.agg, states, slots, batch, m,
                       [table, col](uint32_t row) {
                         return table->NumericAt(row, col);
                       });
      }
    }
  }
}

void SelectRunner::MergeStates(size_t naggs, const AggState* from,
                               AggState* into) {
  for (size_t a = 0; a < naggs; ++a) {
    into[a].sum += from[a].sum;
    into[a].count += from[a].count;
    if (from[a].min < into[a].min) into[a].min = from[a].min;
    if (from[a].max > into[a].max) into[a].max = from[a].max;
  }
}

namespace {

/// Dense keys per parallel merge task.
constexpr uint64_t kMergeKeysPerTask = 4096;

}  // namespace

void SelectRunner::MergeDenseRange(const SelectRunner& other, uint64_t key_lo,
                                   uint64_t key_hi) {
  const size_t naggs = static_cast<size_t>(std::max(1, num_aggs_));
  for (uint64_t key = key_lo; key < key_hi; ++key) {
    if (!other.dense_seen_[key]) continue;
    dense_seen_[key] = 1;
    MergeStates(naggs, &other.dense_states_[key * naggs],
                &dense_states_[key * naggs]);
  }
}

void SelectRunner::MergeBlocks(std::vector<SelectRunner>* blocks) {
  SelectRunner& into = (*blocks)[0];
  if (!(into.aggregation_ && into.groups_categorical_ && into.dense_)) {
    for (size_t b = 1; b < blocks->size(); ++b) {
      into.MergeFrom(std::move((*blocks)[b]));
      (*blocks)[b] = SelectRunner();
    }
  } else {
    // Each task owns a key range and folds blocks into it in block order,
    // so every group associates exactly as a sequential fold of the blocks
    // does.
    const uint64_t groups = into.total_groups_;
    const uint64_t tasks = (groups + kMergeKeysPerTask - 1) / kMergeKeysPerTask;
    ParallelFor(static_cast<size_t>(tasks), [&](size_t t) {
      const uint64_t key_lo = t * kMergeKeysPerTask;
      const uint64_t key_hi = std::min(groups, key_lo + kMergeKeysPerTask);
      for (size_t b = 1; b < blocks->size(); ++b) {
        into.MergeDenseRange((*blocks)[b], key_lo, key_hi);
      }
    });
  }
  blocks->erase(blocks->begin() + 1, blocks->end());
}

void SelectRunner::MergeFrom(SelectRunner&& other) {
  const size_t naggs = static_cast<size_t>(std::max(1, num_aggs_));

  if (!aggregation_) {
    projected_rows_.insert(
        projected_rows_.end(),
        std::make_move_iterator(other.projected_rows_.begin()),
        std::make_move_iterator(other.projected_rows_.end()));
    return;
  }
  if (groups_categorical_) {
    for (size_t idx = 0; idx < other.hash_keys_.size(); ++idx) {
      const uint64_t key = other.hash_keys_[idx];
      auto [it, inserted] = hash_slots_.try_emplace(
          key, static_cast<uint32_t>(hash_keys_.size()));
      if (inserted) {
        hash_keys_.push_back(key);
        hash_states_.resize(hash_states_.size() + naggs);
      }
      MergeStates(naggs, &other.hash_states_[idx * naggs],
                  &hash_states_[static_cast<size_t>(it->second) * naggs]);
    }
    return;
  }
  for (const auto& [key, slot] : other.generic_slots_) {
    auto [it, inserted] = generic_slots_.try_emplace(
        key, static_cast<uint32_t>(generic_keys_.size()));
    if (inserted) {
      generic_keys_.push_back(key);
      generic_states_.resize(generic_states_.size() + naggs);
    }
    MergeStates(naggs,
                &other.generic_states_[static_cast<size_t>(slot) * naggs],
                &generic_states_[static_cast<size_t>(it->second) * naggs]);
  }
}

Value SelectRunner::GroupColValue(int group_pos, uint64_t key) const {
  // Decode the mixed-radix key back to the per-column code using the
  // strides precomputed at Plan() time.
  const uint64_t divisor = group_strides_[static_cast<size_t>(group_pos)];
  const uint64_t code =
      (key / divisor) % group_dict_sizes_[static_cast<size_t>(group_pos)];
  return table_->DictValue(
      static_cast<size_t>(group_cols_[static_cast<size_t>(group_pos)]),
      static_cast<int32_t>(code));
}

Value SelectRunner::FinalizeAgg(const AggState& s, AggFunc f) const {
  switch (f) {
    case AggFunc::kSum:
      return Value::Double(s.sum);
    case AggFunc::kAvg:
      return Value::Double(s.count ? s.sum / static_cast<double>(s.count) : 0);
    case AggFunc::kCount:
      return Value::Int(s.count);
    case AggFunc::kMin:
      return Value::Double(s.count ? s.min : 0);
    case AggFunc::kMax:
      return Value::Double(s.count ? s.max : 0);
    case AggFunc::kNone:
      break;
  }
  return Value::Null();
}

Status SelectRunner::ApplyOrderAndLimit(ResultSet* rs) const {
  if (!order_by_.empty()) {
    std::vector<std::pair<int, bool>> keys;  // output column idx, desc
    for (const auto& k : order_by_) {
      const int idx = rs->Find(k.column);
      if (idx < 0) {
        return Status::Unsupported(
            StrFormat("ORDER BY column '%s' must appear in the SELECT list",
                      k.column.c_str()));
      }
      keys.emplace_back(idx, k.descending);
    }
    auto key_compare = [&keys](const std::vector<Value>& a,
                               const std::vector<Value>& b) {
      for (const auto& [idx, desc] : keys) {
        const int c =
            a[static_cast<size_t>(idx)].Compare(b[static_cast<size_t>(idx)]);
        if (c != 0) return desc ? c > 0 : c < 0;
      }
      return false;
    };
    const size_t limit = static_cast<size_t>(limit_);
    if (limit_ >= 0 && rs->rows.size() > limit &&
        limit <= rs->rows.size() / 2) {
      // ORDER BY + LIMIT is a top-k problem: partially sort row *indices*
      // with the original position as the tie-break, which reproduces the
      // stable full sort's first `limit` rows exactly without ordering the
      // (possibly much larger) tail. Limits past half the row count fall
      // through to the stable sort — heap-selecting nearly everything at
      // double compare cost (the tie-break comparator) would be slower
      // than sorting once.
      std::vector<size_t> order(rs->rows.size());
      std::iota(order.begin(), order.end(), 0);
      std::partial_sort(order.begin(), order.begin() + limit, order.end(),
                        [&](size_t ia, size_t ib) {
                          if (key_compare(rs->rows[ia], rs->rows[ib])) {
                            return true;
                          }
                          if (key_compare(rs->rows[ib], rs->rows[ia])) {
                            return false;
                          }
                          return ia < ib;
                        });
      std::vector<std::vector<Value>> kept;
      kept.reserve(limit);
      for (size_t i = 0; i < limit; ++i) {
        kept.push_back(std::move(rs->rows[order[i]]));
      }
      rs->rows = std::move(kept);
      return Status::OK();
    }
    std::stable_sort(rs->rows.begin(), rs->rows.end(), key_compare);
  }
  if (limit_ >= 0 && rs->rows.size() > static_cast<size_t>(limit_)) {
    rs->rows.resize(static_cast<size_t>(limit_));
  }
  return Status::OK();
}

Result<ResultSet> SelectRunner::Finish() {
  ResultSet rs;
  rs.columns = column_names_;

  if (!aggregation_) {
    rs.rows = std::move(projected_rows_);
    ZV_RETURN_NOT_OK(ApplyOrderAndLimit(&rs));
    return rs;
  }

  const size_t naggs = static_cast<size_t>(std::max(1, num_aggs_));
  auto emit_group = [&](uint64_t key, const AggState* states) {
    std::vector<Value> row;
    row.reserve(items_.size());
    for (const ItemPlan& item : items_) {
      if (item.is_agg) {
        row.push_back(FinalizeAgg(states[item.agg_slot], item.agg));
      } else {
        row.push_back(GroupColValue(item.group_pos, key));
      }
    }
    rs.rows.push_back(std::move(row));
  };

  if (groups_categorical_) {
    if (dense_) {
      // Groups emit in key order: a walk of the seen flags.
      bool any = false;
      for (uint64_t key = 0; key < total_groups_; ++key) {
        if (!dense_seen_[key]) continue;
        any = true;
        emit_group(key, &dense_states_[key * naggs]);
      }
      if (group_cols_.empty() && !any && num_aggs_ > 0) {
        // Aggregates over an empty selection: one row of empty aggregates,
        // mirroring SQL semantics for aggregate queries with no GROUP BY.
        emit_group(0, &dense_states_[0]);
      }
    } else {
      std::vector<uint64_t> keys = hash_keys_;
      std::sort(keys.begin(), keys.end());
      for (uint64_t key : keys) {
        const uint32_t slot = hash_slots_.at(key);
        emit_group(key, &hash_states_[static_cast<size_t>(slot) * naggs]);
      }
    }
  } else {
    // generic_slots_ is a std::map — already in key order.
    for (const auto& [key, slot] : generic_slots_) {
      std::vector<Value> row;
      row.reserve(items_.size());
      const AggState* states =
          &generic_states_[static_cast<size_t>(slot) * naggs];
      for (const ItemPlan& item : items_) {
        if (item.is_agg) {
          row.push_back(FinalizeAgg(states[item.agg_slot], item.agg));
        } else {
          row.push_back(key[static_cast<size_t>(item.group_pos)]);
        }
      }
      rs.rows.push_back(std::move(row));
    }
  }
  ZV_RETURN_NOT_OK(ApplyOrderAndLimit(&rs));
  return rs;
}

namespace {

/// Target rows per block and the cap on per-block runner state. The block
/// count derived from these is a pure function of the table size.
constexpr size_t kScanBlockRows = 16384;
constexpr size_t kMaxScanBlocks = 32;

}  // namespace

Result<ResultSet> RunBlocked(
    const Table& table, const sql::SelectStatement& stmt,
    const std::function<void(size_t begin, size_t end, SelectRunner& runner)>&
        scan_block) {
  ZV_RETURN_NOT_OK(CheckCancelled());
  ZV_ASSIGN_OR_RETURN(SelectRunner plan,
                      SelectRunner::PlanWithoutState(table, stmt));
  const size_t n = table.num_rows();
  const size_t blocks =
      std::min(kMaxScanBlocks, std::max<size_t>(1, n / kScanBlockRows));
  if (blocks <= 1 || !plan.cheap_to_replicate()) {
    plan.InitState();
    scan_block(0, n, plan);
    return plan.Finish();
  }
  // Copies of a stateless plan are cheap; each block's worker allocates
  // its own state.
  std::vector<SelectRunner> runners(blocks, plan);
  ParallelFor(blocks, [&](size_t b) {
    runners[b].InitState();
    scan_block(n * b / blocks, n * (b + 1) / blocks, runners[b]);
  });
  // A cancelled void ParallelFor stops claiming chunks without reporting;
  // some blocks may be unscanned, so the merge below must not run.
  ZV_RETURN_NOT_OK(CheckCancelled());
  SelectRunner::MergeBlocks(&runners);
  ZV_RETURN_NOT_OK(CheckCancelled());
  return runners[0].Finish();
}

Result<ResultSet> RunBlockedOverRows(const Table& table,
                                     const sql::SelectStatement& stmt,
                                     RowParts parts) {
  return RunBlocked(
      table, stmt,
      [parts](size_t begin, size_t end, SelectRunner& runner) {
        // The parts concatenate to one ascending list, so a block's rows
        // are a run of whole parts with (at most) its two boundary parts
        // cut by binary search.
        for (std::span<const uint32_t> part : parts) {
          if (part.empty() || part.back() < begin) continue;
          if (part.front() >= end) break;
          const uint32_t* lo =
              part.front() >= begin
                  ? part.data()
                  : std::lower_bound(part.data(), part.data() + part.size(),
                                     static_cast<uint32_t>(begin));
          const uint32_t* hi =
              part.back() < end
                  ? part.data() + part.size()
                  : std::lower_bound(lo, part.data() + part.size(),
                                     static_cast<uint32_t>(end));
          runner.ConsumeBatch(lo, static_cast<size_t>(hi - lo));
        }
      });
}

Result<ResultSet> RunBlockedOverRows(const Table& table,
                                     const sql::SelectStatement& stmt,
                                     const std::vector<uint32_t>& rows) {
  const std::span<const uint32_t> whole(rows);
  return RunBlockedOverRows(table, stmt, RowParts(&whole, 1));
}

}  // namespace zv
