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

using Op = Insn::Op;
using Clock = std::chrono::steady_clock;
using Kind = PhysicalNode::Kind;

std::vector<std::uint32_t> AllColumns(std::size_t arity) {
  std::vector<std::uint32_t> cols(arity);
  std::iota(cols.begin(), cols.end(), 0);
  return cols;
}

/// The instruction that materializes a plan node of `kind`.
Op MaterializerOf(Kind kind) {
  switch (kind) {
    case Kind::kScan:
      return Op::kLoad;
    case Kind::kUnion:
      return Op::kUnion;
    case Kind::kDifference:
      return Op::kDifference;
    case Kind::kProduct:
      return Op::kProduct;
    case Kind::kSelect:
      return Op::kSelect;
    case Kind::kProject:
      return Op::kProject;
    case Kind::kRename:
      return Op::kRename;
    case Kind::kJoin:
      return Op::kHashJoin;
  }
  return Op::kLoad;
}

/// Flattens one lowered plan into a program. The compiler walks the plan in
/// the interpreter's exact evaluation order. Every repeated reference to a
/// node becomes a kMemoLoad, never a raw register reuse: a register defined
/// inside a block that an enclosing memo hit skipped would be stale, while
/// the memo is guaranteed populated for every non-conditional node emitted
/// earlier.
class Compiler {
 public:
  Program Compile(const PhysicalNode& root) {
    Emit(root);
    Program program;
    program.root = root.expr;
    program.code = std::move(code_);
    program.num_regs = num_regs_;
    return program;
  }

 private:
  std::uint32_t NewReg() { return num_regs_++; }

  std::size_t Push(Insn in) {
    code_.push_back(in);
    return code_.size() - 1;
  }

  /// Emits the block computing `n` and returns its result register.
  std::uint32_t Emit(const PhysicalNode& n) {
    if (available_.contains(&n)) {
      // Already computed unconditionally earlier in this program: at
      // runtime the memo provably holds it (a skipped ancestor implies the
      // ancestor's own memo hit, which implies this entry was stored on the
      // run that populated the ancestor). Mirrors an interpreter cache hit.
      const std::uint32_t reg = NewReg();
      Push(Insn{.op = Op::kMemoLoad, .node = &n, .dst = reg});
      return reg;
    }
    const std::uint32_t reg = NewReg();
    const std::size_t check_idx =
        Push(Insn{.op = Op::kMemoCheck, .node = &n, .dst = reg});
    if (n.kind == Kind::kProduct) {
      EmitProduct(n, reg);
    } else {
      // Operands in the interpreter's left-then-right order. An index
      // build never evaluates its right operand, so it gets no block.
      Insn in{.op = MaterializerOf(n.kind), .node = &n, .dst = reg};
      if (n.left != nullptr) in.a = Emit(*n.left);
      if (n.right != nullptr && n.index == nullptr) in.b = Emit(*n.right);
      Push(in);
    }
    code_[check_idx].target = static_cast<std::uint32_t>(code_.size());
    available_.insert(&n);
    if (!regions_.empty()) regions_.back().push_back(&n);
    return reg;
  }

  /// Bare product: lowers the interpreter's π_∅ guard short-circuit as a
  /// conditional branch. The guard side evaluates unconditionally; the other
  /// side's block sits on the guard-non-empty path only, so every node first
  /// lowered there is conditionally computed and loses availability once the
  /// branch closes (a later reference re-emits a full, memo-checked block —
  /// which at runtime replays exactly the interpreter's first-eval or
  /// cache-hit behavior for that node).
  void EmitProduct(const PhysicalNode& n, std::uint32_t reg) {
    const bool guarded = n.guard != PhysicalNode::Guard::kNone;
    std::size_t jie_idx = 0;
    if (guarded) {
      const std::uint32_t greg =
          Emit(n.guard == PhysicalNode::Guard::kLeft ? *n.left : *n.right);
      jie_idx = Push(Insn{.op = Op::kJumpIfEmpty, .a = greg});
      regions_.emplace_back();
    }
    // Full-evaluation path, in the interpreter's left-then-right order; the
    // guard side resolves to a kMemoLoad (its block ran just above), which
    // is precisely the interpreter's extra EvalNode cache hit.
    const std::uint32_t l = Emit(*n.left);
    const std::uint32_t r = Emit(*n.right);
    Push(Insn{.op = Op::kProduct, .node = &n, .dst = reg, .a = l, .b = r});
    if (guarded) {
      const std::size_t jmp_idx = Push(Insn{.op = Op::kJump});
      for (const PhysicalNode* x : regions_.back()) available_.erase(x);
      regions_.pop_back();
      code_[jie_idx].target = static_cast<std::uint32_t>(code_.size());
      // Guard empty: a type-only result. The guard contributes no
      // attributes, so the product scheme *is* the other side's scheme.
      Push(Insn{.op = Op::kMakeEmpty, .node = &n, .dst = reg});
      code_[jmp_idx].target = static_cast<std::uint32_t>(code_.size());
    }
  }

  std::vector<Insn> code_;
  std::uint32_t num_regs_ = 0;
  std::unordered_set<const PhysicalNode*> available_;
  std::vector<std::vector<const PhysicalNode*>> regions_;
};

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
    const ExprPtr& root,
    std::unordered_map<const Expr*, EvalNodeStats>* stats) {
  auto pit = programs_.find(root.get());
  if (pit == programs_.end()) {
    // Type errors surface here, before any budget is charged.
    SETREC_ASSIGN_OR_RETURN(const PhysicalNode* plan, plan_.LowerRoot(root));
    pit = programs_.emplace(root.get(), Compiler().Compile(*plan)).first;
  }
  const Program& program = pit->second;
  join_stats_ = stats;

  std::vector<std::shared_ptr<const ColumnTable>> regs(program.num_regs);
  // Open per-node timers, parent below child (pushed on memo miss, popped by
  // the node's materializer), giving the interpreter's inclusive wall_ns.
  std::vector<std::pair<const Expr*, Clock::time_point>> open;
  auto fail = [&](Status status) {
    if (stats != nullptr) {
      const Clock::time_point now = Clock::now();
      for (const auto& [origin, start] : open) {
        (*stats)[origin].wall_ns += static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(now - start)
                .count());
      }
    }
    return status;
  };
  auto finish = [&](const Insn& in, std::shared_ptr<const ColumnTable> table,
                    std::shared_ptr<const Relation> rel) {
    const Expr* origin = in.node->expr;
    regs[in.dst] = table;
    if (stats != nullptr) {
      EvalNodeStats& s = (*stats)[origin];
      s.rows = table->rows;
      s.backend = in.op == Op::kHashJoin ? "bytecode" : "vectorized";
      if (!open.empty() && open.back().first == origin) {
        s.wall_ns += static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                Clock::now() - open.back().second)
                .count());
        open.pop_back();
      }
    }
    memo_[origin] = MemoEntry{std::move(table), std::move(rel)};
  };

  std::size_t pc = 0;
  while (pc < program.code.size()) {
    const Insn& in = program.code[pc];
    switch (in.op) {
      case Op::kMemoCheck: {
        auto m = memo_.find(in.node->expr);
        if (m != memo_.end()) {
          regs[in.dst] = m->second.table;
          if (stats != nullptr) ++(*stats)[in.node->expr].cache_hits;
          pc = in.target;
          continue;
        }
        if (stats != nullptr) open.emplace_back(in.node->expr, Clock::now());
        break;
      }
      case Op::kMemoLoad: {
        auto m = memo_.find(in.node->expr);
        if (m == memo_.end()) {
          return fail(Status::Internal("vectorized memo missing an operand"));
        }
        regs[in.dst] = m->second.table;
        if (stats != nullptr) ++(*stats)[in.node->expr].cache_hits;
        break;
      }
      case Op::kJump:
        pc = in.target;
        continue;
      case Op::kJumpIfEmpty:
        if (regs[in.a]->rows == 0) {
          pc = in.target;
          continue;
        }
        break;
      case Op::kLoad: {
        const std::string& name = in.node->expr->relation_name();
        Result<std::shared_ptr<const Relation>> rel =
            database_->FindShared(name);
        if (!rel.ok()) return fail(rel.status());
        std::shared_ptr<const ColumnTable> table;
        auto lit = loads_.find(name);
        if (lit != loads_.end()) {
          table = lit->second;
        } else {
          table = std::make_shared<const ColumnTable>(FromRelation(**rel));
          loads_.emplace(name, table);
        }
        finish(in, std::move(table), std::move(*rel));
        break;
      }
      default: {
        Result<ColumnTable> out = RunOp(in, regs);
        if (!out.ok()) return fail(out.status());
        finish(in, std::make_shared<const ColumnTable>(std::move(*out)),
               nullptr);
        break;
      }
    }
    ++pc;
  }

  MemoEntry& entry = memo_[program.root];
  if (entry.table == nullptr) {
    return Status::Internal("vectorized program produced no result");
  }
  if (entry.rel == nullptr) {
    entry.rel = std::make_shared<const Relation>(ToRelation(*entry.table));
  }
  return entry.rel;
}

Result<ColumnTable> Engine::RunOp(
    const Insn& in,
    const std::vector<std::shared_ptr<const ColumnTable>>& regs) {
  const PhysicalNode& node = *in.node;
  switch (in.op) {
    case Op::kMakeEmpty:
      return MakeTable(*node.scheme);
    case Op::kRename: {
      const ColumnTable& c = *regs[in.a];
      ColumnTable out;
      out.scheme = *node.scheme;
      out.columns = c.columns;
      out.rows = c.rows;
      return out;
    }
    case Op::kSelect: {
      const ColumnTable& c = *regs[in.a];
      std::vector<std::uint8_t> mask(c.rows, 1);
      AndEqualityMask(c, node.ia, node.ib, node.equal, mask);
      const std::vector<std::uint32_t> sel = MaskToSelection(mask);
      return Gather(c, AllColumns(c.arity()), sel, *node.scheme);
    }
    case Op::kProject: {
      const ColumnTable& c = *regs[in.a];
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
    case Op::kUnion: {
      const ColumnTable& l = *regs[in.a];
      const ColumnTable& r = *regs[in.b];
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
    case Op::kDifference: {
      const ColumnTable& l = *regs[in.a];
      const ColumnTable& r = *regs[in.b];
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
    case Op::kProduct: {
      const ColumnTable& l = *regs[in.a];
      const ColumnTable& r = *regs[in.b];
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
    case Op::kHashJoin:
      return RunHashJoin(in, regs);
    case Op::kMemoCheck:
    case Op::kMemoLoad:
    case Op::kJump:
    case Op::kJumpIfEmpty:
    case Op::kLoad:
      break;
  }
  return Status::Internal("unexpected vectorized instruction");
}

Result<ColumnTable> Engine::RunHashJoin(
    const Insn& in,
    const std::vector<std::shared_ptr<const ColumnTable>>& regs) {
  const PhysicalNode& node = *in.node;
  const ColumnTable& left = *regs[in.a];
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
    const ColumnTable& right =
        node.index != nullptr ? fetched : *regs[in.b];
    const std::vector<std::uint32_t> sel =
        MaskToSelection(mask_of(right, JoinCond::Role::kBuildFilter));
    build = Gather(right, AllColumns(ra), sel, right.scheme);
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
    if (join_stats_ != nullptr) {
      (*join_stats_)[node.expr].build_rows += build.rows;
    }
  }

  // Probe: every left row counts as a probe (worker- and backend-invariant);
  // key-matched pairs are charged in batches before residual cross
  // conditions run, exactly the interpreter's per-pair charging order.
  ColumnTable out = MakeTable(*node.scheme);
  TraceSpan probe_span = StartSpan(*ctx_, "evaluator/join-probe");
  if (metrics != nullptr) metrics->engine.eval_join_probes.Add(left.rows);
  if (join_stats_ != nullptr) {
    (*join_stats_)[node.expr].probe_rows += left.rows;
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
