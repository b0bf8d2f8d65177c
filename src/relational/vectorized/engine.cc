#include "relational/vectorized/engine.h"

#include <algorithm>
#include <chrono>
#include <numeric>
#include <optional>
#include <string_view>
#include <unordered_set>

#include "relational/vectorized/kernels.h"

namespace setrec::vectorized {

namespace {

using Clock = std::chrono::steady_clock;
using Kind = PhysicalNode::Kind;

std::vector<std::uint32_t> AllColumns(std::size_t arity) {
  std::vector<std::uint32_t> cols(arity);
  std::iota(cols.begin(), cols.end(), 0);
  return cols;
}

/// Charges a batch of `n` output rows of `bytes` each with one ChargeRows
/// and one ChargeMemory. `admitted` is how many of them count as made: all
/// `n` on success; on a stop, as many as the interpreter's row-by-row
/// charges would have let through before it — the room the row and memory
/// budgets had left. A stop at the batch's checkpoint (fault, cancellation,
/// step budget, deadline) admits none.
Status ChargeBatch(ExecContext& ctx, std::uint64_t n, std::uint64_t bytes,
                   const char* probe_point, std::uint64_t& admitted) {
  const std::uint64_t rows_before = ctx.rows();
  const std::uint64_t memory_before = ctx.memory_in_use();
  Status charged = ctx.ChargeRows(n, probe_point);
  if (charged.ok()) charged = ctx.ChargeMemory(n * bytes, probe_point);
  admitted = n;
  if (charged.ok()) return charged;
  const ExecContext::Limits& limits = ctx.limits();
  auto room = [](std::uint64_t cap, std::uint64_t used) {
    return used < cap ? cap - used : 0;
  };
  if (limits.max_rows != 0) {
    admitted = std::min(admitted, room(limits.max_rows, rows_before));
  }
  if (limits.max_memory_bytes != 0 && bytes != 0) {
    admitted = std::min(
        admitted, room(limits.max_memory_bytes, memory_before) / bytes);
  }
  if (admitted == n) admitted = 0;
  return charged;
}

}  // namespace

std::size_t EstimatedInputRows(const PhysicalNode& root,
                               const Database& database) {
  std::unordered_set<const PhysicalNode*> seen;
  std::unordered_set<std::string_view> loaded;
  std::vector<const PhysicalNode*> stack = {&root};
  std::size_t total = 0;
  while (!stack.empty()) {
    const PhysicalNode* n = stack.back();
    stack.pop_back();
    if (!seen.insert(n).second) continue;
    if (n->kind == Kind::kScan) {
      const std::string& name = n->expr->relation_name();
      Result<std::size_t> size = database.FindSize(name);
      if (size.ok() && loaded.insert(name).second) total += *size;
      continue;
    }
    if (n->left != nullptr) stack.push_back(n->left);
    if (n->right != nullptr && n->index == nullptr) stack.push_back(n->right);
  }
  return total;
}

Result<std::shared_ptr<const Relation>> Engine::Execute(
    const PhysicalNode& root,
    std::unordered_map<const Expr*, EvalNodeStats>* stats) {
  stats_ = stats;
  SETREC_ASSIGN_OR_RETURN(std::shared_ptr<const ColumnTable> table,
                          EvalNode(root));
  std::shared_ptr<const Relation>& rel = memo_[root.expr].rel;
  if (rel == nullptr) {
    rel = std::make_shared<const Relation>(ToRelation(*table));
  }
  return rel;
}

Result<std::shared_ptr<const ColumnTable>> Engine::EvalNode(
    const PhysicalNode& node) {
  const Expr* key = node.expr;
  auto it = memo_.find(key);
  if (it != memo_.end()) {
    if (stats_ != nullptr) ++(*stats_)[key].cache_hits;
    return it->second.table;
  }
  if (stats_ == nullptr) {
    SETREC_ASSIGN_OR_RETURN(MemoEntry entry, EvalUncached(node));
    return memo_.emplace(key, std::move(entry)).first->second.table;
  }
  const Clock::time_point start = Clock::now();
  Result<MemoEntry> entry = EvalUncached(node);
  // Inclusive of the operands' time, as in the interpreter.
  EvalNodeStats& s = (*stats_)[key];
  s.wall_ns += static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           start)
          .count());
  if (!entry.ok()) return entry.status();
  s.rows = entry->table->rows;
  s.backend = "vectorized";
  return memo_.emplace(key, std::move(*entry)).first->second.table;
}

Result<Engine::MemoEntry> Engine::EvalUncached(const PhysicalNode& node) {
  if (node.kind == Kind::kScan) {
    const std::string& name = node.expr->relation_name();
    SETREC_ASSIGN_OR_RETURN(std::shared_ptr<const Relation> rel,
                            database_->FindShared(name));
    std::shared_ptr<const ColumnTable>& table = loads_[name];
    if (table == nullptr) {
      table = std::make_shared<const ColumnTable>(FromRelation(*rel));
    }
    return MemoEntry{table, std::move(rel)};
  }
  // A product with a π_∅ guard factor is the paper's if-then-else: when
  // the guard evaluates empty only the product's scheme is needed, and the
  // other factor is never evaluated.
  if (node.guard != PhysicalNode::Guard::kNone) {
    SETREC_ASSIGN_OR_RETURN(
        std::shared_ptr<const ColumnTable> guard,
        EvalNode(node.guard == PhysicalNode::Guard::kLeft ? *node.left
                                                          : *node.right));
    if (guard->rows == 0) {
      return MemoEntry{std::make_shared<const ColumnTable>(
                           MakeTable(*node.scheme)),
                       nullptr};
    }
  }
  SETREC_ASSIGN_OR_RETURN(std::shared_ptr<const ColumnTable> left,
                          EvalNode(*node.left));
  // An index build never evaluates its right operand.
  std::shared_ptr<const ColumnTable> right;
  if (node.right != nullptr && node.index == nullptr) {
    SETREC_ASSIGN_OR_RETURN(right, EvalNode(*node.right));
  }
  SETREC_ASSIGN_OR_RETURN(ColumnTable out, RunOp(node, *left, right.get()));
  return MemoEntry{std::make_shared<const ColumnTable>(std::move(out)),
                   nullptr};
}

Result<ColumnTable> Engine::RunOp(const PhysicalNode& node,
                                  const ColumnTable& left,
                                  const ColumnTable* right) {
  switch (node.kind) {
    case Kind::kRename: {
      const ColumnTable& c = left;
      ColumnTable out;
      out.scheme = *node.scheme;
      out.columns = c.columns;
      out.rows = c.rows;
      return out;
    }
    case Kind::kSelect: {
      const ColumnTable& c = left;
      std::vector<std::uint8_t> mask(c.rows, 1);
      AndEqualityMask(c, node.ia, node.ib, node.equal, mask);
      const std::vector<std::uint32_t> sel = MaskToSelection(mask);
      return Gather(c, AllColumns(c.arity()), sel, *node.scheme);
    }
    case Kind::kProject: {
      const ColumnTable& c = left;
      ColumnTable out = MakeTable(*node.scheme);
      const std::vector<std::uint32_t> out_cols = AllColumns(out.arity());
      RowHashTable dedup(&out, out_cols);
      dedup.Reserve(c.rows);
      std::vector<std::uint64_t> h;
      HashRows(c, node.cols, h);
      for (std::size_t i = 0; i < c.rows; ++i) {
        if (dedup.Find(c, node.cols, static_cast<std::uint32_t>(i), h[i]) !=
            RowHashTable::kNone) {
          continue;
        }
        for (std::size_t k = 0; k < out_cols.size(); ++k) {
          out.columns[k].push_back(c.columns[node.cols[k]][i]);
        }
        ++out.rows;
        dedup.Insert(static_cast<std::uint32_t>(out.rows - 1), h[i]);
      }
      return out;
    }
    case Kind::kUnion: {
      const ColumnTable& l = left;
      const ColumnTable& r = *right;
      ColumnTable out;
      out.scheme = *node.scheme;
      out.columns = l.columns;
      out.rows = l.rows;
      const std::vector<std::uint32_t> all = AllColumns(out.arity());
      RowHashTable dedup(&out, all);
      dedup.Reserve(l.rows + r.rows);
      std::vector<std::uint64_t> h;
      HashRows(out, all, h);
      for (std::size_t i = 0; i < l.rows; ++i) {
        dedup.Insert(static_cast<std::uint32_t>(i), h[i]);
      }
      HashRows(r, all, h);
      for (std::size_t i = 0; i < r.rows; ++i) {
        if (dedup.Find(r, all, static_cast<std::uint32_t>(i), h[i]) !=
            RowHashTable::kNone) {
          continue;
        }
        for (std::size_t c = 0; c < out.columns.size(); ++c) {
          out.columns[c].push_back(r.columns[c][i]);
        }
        ++out.rows;
        dedup.Insert(static_cast<std::uint32_t>(out.rows - 1), h[i]);
      }
      return out;
    }
    case Kind::kDifference: {
      const ColumnTable& l = left;
      const ColumnTable& r = *right;
      const std::vector<std::uint32_t> all = AllColumns(l.arity());
      RowHashTable index(&r, all);
      index.Reserve(r.rows);
      std::vector<std::uint64_t> h;
      HashRows(r, all, h);
      for (std::size_t i = 0; i < r.rows; ++i) {
        index.Insert(static_cast<std::uint32_t>(i), h[i]);
      }
      HashRows(l, all, h);
      std::vector<std::uint32_t> sel;
      for (std::size_t i = 0; i < l.rows; ++i) {
        if (index.Find(l, all, static_cast<std::uint32_t>(i), h[i]) ==
            RowHashTable::kNone) {
          sel.push_back(static_cast<std::uint32_t>(i));
        }
      }
      return Gather(l, all, sel, *node.scheme);
    }
    case Kind::kProduct: {
      const ColumnTable& l = left;
      const ColumnTable& r = *right;
      const std::uint64_t tuple_bytes =
          static_cast<std::uint64_t>(node.scheme->arity()) * sizeof(ObjectId);
      TraceSpan span = StartSpan(*ctx_, "evaluator/product");
      MetricsRegistry* metrics = ctx_->metrics();
      ColumnTable out = MakeTable(*node.scheme);
      const std::size_t la = l.arity(), ra = r.arity();
      for (std::size_t i = 0; i < l.rows; ++i) {
        std::size_t j = 0;
        while (j < r.rows) {
          const std::size_t n = std::min(kBatchWidth, r.rows - j);
          std::uint64_t admitted = 0;
          const Status charged = ChargeBatch(*ctx_, n, tuple_bytes,
                                             "evaluator/product-row", admitted);
          if (metrics != nullptr) metrics->engine.eval_rows.Add(admitted);
          SETREC_RETURN_IF_ERROR(charged);
          for (std::size_t c = 0; c < la; ++c) {
            out.columns[c].insert(out.columns[c].end(), n, l.columns[c][i]);
          }
          for (std::size_t c = 0; c < ra; ++c) {
            const PackedValue* src = r.columns[c].data();
            out.columns[la + c].insert(out.columns[la + c].end(), src + j,
                                       src + j + n);
          }
          out.rows += n;
          j += n;
        }
      }
      return out;
    }
    case Kind::kJoin:
      return RunHashJoin(node, left, right);
    case Kind::kScan:
      break;  // EvalUncached transposes the stored relation
  }
  return Status::Internal("unexpected vectorized operator");
}

Result<ColumnTable> Engine::RunHashJoin(const PhysicalNode& node,
                                        const ColumnTable& left,
                                        const ColumnTable* right) {
  TraceSpan join_span = StartSpan(*ctx_, "evaluator/join");
  MetricsRegistry* metrics = ctx_->metrics();
  const std::size_t la = left.arity(), ra = node.right->scheme->arity();
  const std::uint64_t tuple_bytes =
      static_cast<std::uint64_t>(node.scheme->arity()) * sizeof(ObjectId);
  // Folds the conditions of one role into a row mask.
  auto mask_of = [&node](const ColumnTable& side, JoinCond::Role role) {
    std::vector<std::uint8_t> mask(side.rows, 1);
    for (const JoinCond& c : node.conds) {
      if (c.role == role) AndEqualityMask(side, c.ia, c.ib, c.equal, mask);
    }
    return mask;
  };

  const std::vector<std::uint8_t> lmask =
      mask_of(left, JoinCond::Role::kProbeFilter);

  // Build: filter the right side with its local conditions, gather the
  // survivors into a dense build table, index it by the join keys. The
  // insertion count is the interpreter's build_rows. An index build's right
  // side is the bound relation's rows for the distinct keys of the probe
  // rows that pass the probe filters.
  ColumnTable build;
  std::optional<RowHashTable> index;
  {
    TraceSpan build_span = StartSpan(*ctx_, "evaluator/join-build");
    ColumnTable fetched;
    if (node.index != nullptr) {
      const std::vector<PackedValue>& column =
          left.columns[node.left_key[node.index_key]];
      std::vector<PackedValue> keys;
      keys.reserve(left.rows);
      for (std::size_t li = 0; li < left.rows; ++li) {
        if (lmask[li]) keys.push_back(column[li]);
      }
      std::sort(keys.begin(), keys.end());
      keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
      fetched = MakeTable(*node.right->scheme);
      for (const PackedValue key : keys) {
        for (const auto& [first, second] :
             node.index->RowsWithFirst(Unpack(key))) {
          fetched.columns[0].push_back(Pack(first));
          fetched.columns[1].push_back(Pack(second));
          ++fetched.rows;
        }
      }
    }
    const ColumnTable& side = node.index != nullptr ? fetched : *right;
    const std::vector<std::uint32_t> sel =
        MaskToSelection(mask_of(side, JoinCond::Role::kBuildFilter));
    build = Gather(side, AllColumns(ra), sel, side.scheme);
    index.emplace(&build, node.right_key);
    index->Reserve(build.rows);
    std::vector<std::uint64_t> bh;
    HashRows(build, node.right_key, bh);
    for (std::size_t i = 0; i < build.rows; ++i) {
      index->Insert(static_cast<std::uint32_t>(i), bh[i]);
    }
    if (metrics != nullptr) {
      metrics->engine.eval_join_build_rows.Add(build.rows);
    }
    if (stats_ != nullptr) {
      (*stats_)[node.expr].build_rows += build.rows;
    }
  }

  // Probe: every left row counts as a probe (worker- and backend-invariant);
  // key-matched pairs are charged in batches before residual cross
  // conditions run, exactly the interpreter's per-pair charging order.
  ColumnTable out = MakeTable(*node.scheme);
  TraceSpan probe_span = StartSpan(*ctx_, "evaluator/join-probe");
  if (metrics != nullptr) metrics->engine.eval_join_probes.Add(left.rows);
  if (stats_ != nullptr) {
    (*stats_)[node.expr].probe_rows += left.rows;
  }
  std::vector<std::uint64_t> lh;
  HashRows(left, node.left_key, lh);
  std::vector<std::pair<std::uint32_t, std::uint32_t>> pairs;
  pairs.reserve(kBatchWidth);
  auto flush = [&]() -> Status {
    if (pairs.empty()) return Status::OK();
    std::uint64_t admitted = 0;
    const Status charged = ChargeBatch(*ctx_, pairs.size(), tuple_bytes,
                                       "evaluator/join-row", admitted);
    std::uint64_t kept = 0;
    for (std::size_t p = 0; p < admitted; ++p) {
      const auto [li, ri] = pairs[p];
      bool ok = true;
      for (const JoinCond& c : node.conds) {
        if (c.role != JoinCond::Role::kResidual) continue;
        const PackedValue va =
            c.a_left ? left.columns[c.ia][li] : build.columns[c.ia][ri];
        const PackedValue vb =
            c.b_left ? left.columns[c.ib][li] : build.columns[c.ib][ri];
        if ((va == vb) != c.equal) {
          ok = false;
          break;
        }
      }
      if (!ok) continue;
      ++kept;
      for (std::size_t c = 0; c < la; ++c) {
        out.columns[c].push_back(left.columns[c][li]);
      }
      for (std::size_t c = 0; c < ra; ++c) {
        out.columns[la + c].push_back(build.columns[c][ri]);
      }
      ++out.rows;
    }
    if (metrics != nullptr && kept > 0) metrics->engine.eval_rows.Add(kept);
    pairs.clear();
    return charged;
  };
  for (std::size_t li = 0; li < left.rows; ++li) {
    if (!lmask[li]) continue;
    std::uint32_t row = index->Find(left, node.left_key,
                                    static_cast<std::uint32_t>(li), lh[li]);
    while (row != RowHashTable::kNone) {
      pairs.emplace_back(static_cast<std::uint32_t>(li), row);
      if (pairs.size() == kBatchWidth) SETREC_RETURN_IF_ERROR(flush());
      row = index->NextInChain(row);
    }
  }
  SETREC_RETURN_IF_ERROR(flush());
  return out;
}

}  // namespace setrec::vectorized
