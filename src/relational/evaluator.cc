#include "relational/evaluator.h"

#include <algorithm>
#include <chrono>
#include <unordered_map>
#include <vector>

#include "relational/vectorized/engine.h"

namespace setrec {

Evaluator::Evaluator(const Database* database, ExecContext& ctx)
    : database_(database), plan_(*database), ctx_(&ctx) {}

Evaluator::~Evaluator() = default;

Result<Relation> Evaluator::Eval(const ExprPtr& expr) {
  // Compatibility wrapper: one copy out of the shared memo, for callers
  // that want an owned Relation. Read-only callers use EvalShared.
  SETREC_ASSIGN_OR_RETURN(std::shared_ptr<const Relation> result,
                          EvalShared(expr));
  return *result;
}

bool Evaluator::UseVectorized(const PhysicalNode& root) {
  switch (backend_) {
    case ExecBackend::kInterpreter:
      return false;
    case ExecBackend::kVectorized:
      return true;
    case ExecBackend::kAuto:
      break;
  }
  if (!auto_vectorize_.has_value()) {
    // Latched once per evaluator: mixing backends within one evaluator
    // would split the result memo into two domains and skew the cache-hit
    // counters that EXPLAIN ANALYZE reports. The estimate reads the plan,
    // so a relation read only through index builds does not count.
    auto_vectorize_ = vectorized::EstimatedInputRows(root, *database_) >=
                      kAutoVectorizeInputRows;
  }
  return *auto_vectorize_;
}

Result<std::shared_ptr<const Relation>> Evaluator::EvalShared(
    const ExprPtr& expr) {
  // Type errors surface here, before any budget is charged.
  SETREC_ASSIGN_OR_RETURN(const PhysicalNode* root, plan_.LowerRoot(expr));
  if (UseVectorized(*root)) {
    if (engine_ == nullptr) {
      engine_ = std::make_unique<vectorized::Engine>(database_, ctx_);
    }
    return engine_->Execute(*root, node_stats_);
  }
  return EvalNode(*root);
}

Result<std::shared_ptr<const Relation>> Evaluator::EvalNode(
    const PhysicalNode& node) {
  const Expr* key = node.expr;
  auto it = cache_.find(key);
  if (it != cache_.end()) {
    if (node_stats_ != nullptr) ++(*node_stats_)[key].cache_hits;
    return it->second;
  }
  if (node_stats_ == nullptr) {
    SETREC_ASSIGN_OR_RETURN(std::shared_ptr<const Relation> result,
                            EvalSharedUncached(node));
    cache_.emplace(key, result);
    return result;
  }
  const auto start = std::chrono::steady_clock::now();
  Result<std::shared_ptr<const Relation>> result = EvalSharedUncached(node);
  // Children evaluated inside EvalUncached already charged their own spans;
  // wall_ns is inclusive by design (EXPLAIN ANALYZE renders a tree, so the
  // reader sees child times indented under it).
  (*node_stats_)[key].wall_ns += static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
  if (!result.ok()) return result;
  (*node_stats_)[key].rows = (*result)->size();
  cache_.emplace(key, *result);
  return result;
}

Result<std::shared_ptr<const Relation>> Evaluator::EvalSharedUncached(
    const PhysicalNode& node) {
  if (node.kind == PhysicalNode::Kind::kScan) {
    // Leaf: alias the Database's shared storage — no copy at all.
    return database_->FindShared(node.expr->relation_name());
  }
  SETREC_ASSIGN_OR_RETURN(Relation out, EvalUncached(node));
  return std::make_shared<const Relation>(std::move(out));
}

Result<Relation> Evaluator::EvalUncached(const PhysicalNode& node) {
  using Kind = PhysicalNode::Kind;
  switch (node.kind) {
    case Kind::kScan:
      break;  // EvalSharedUncached aliases the stored relation
    case Kind::kUnion:
    case Kind::kDifference: {
      SETREC_ASSIGN_OR_RETURN(std::shared_ptr<const Relation> lp,
                              EvalNode(*node.left));
      SETREC_ASSIGN_OR_RETURN(std::shared_ptr<const Relation> rp,
                              EvalNode(*node.right));
      const Relation& l = *lp;
      const Relation& r = *rp;
      Relation out(*node.scheme);
      if (node.kind == Kind::kUnion) {
        out.Reserve(l.size() + r.size());
        for (const Tuple& t : l) out.InsertValidated(t);
        for (const Tuple& t : r) out.InsertValidated(t);
      } else {
        out.Reserve(l.size());
        for (const Tuple& t : l) {
          if (!r.Contains(t)) out.InsertValidated(t);
        }
      }
      return out;
    }
    case Kind::kProduct: {
      // Guard short-circuit: products with a nullary factor implement the
      // paper's if-then-else encoding (E × π_∅(...)). When the guard side
      // evaluates empty, the data of the other side is irrelevant — only
      // its scheme is needed, and the plan has resolved it already.
      if (node.guard != PhysicalNode::Guard::kNone) {
        SETREC_ASSIGN_OR_RETURN(
            std::shared_ptr<const Relation> guard,
            EvalNode(node.guard == PhysicalNode::Guard::kLeft ? *node.left
                                                              : *node.right));
        if (guard->empty()) return Relation(*node.scheme);
      }
      SETREC_ASSIGN_OR_RETURN(std::shared_ptr<const Relation> lp,
                              EvalNode(*node.left));
      SETREC_ASSIGN_OR_RETURN(std::shared_ptr<const Relation> rp,
                              EvalNode(*node.right));
      const Relation& l = *lp;
      const Relation& r = *rp;
      const std::uint64_t tuple_bytes =
          static_cast<std::uint64_t>(node.scheme->arity()) * sizeof(ObjectId);
      TraceSpan span = StartSpan(*ctx_, "evaluator/product");
      MetricsRegistry* metrics = ctx_->metrics();
      Relation out(*node.scheme);
      for (const Tuple& lt : l) {
        for (const Tuple& rt : r) {
          SETREC_RETURN_IF_ERROR(ctx_->ChargeRows(1, "evaluator/product-row"));
          SETREC_RETURN_IF_ERROR(
              ctx_->ChargeMemory(tuple_bytes, "evaluator/product-row"));
          if (metrics != nullptr) metrics->engine.eval_rows.Add(1);
          out.InsertValidated(lt.Concat(rt));
        }
      }
      return out;
    }
    case Kind::kJoin:
      return EvalSelectionChain(node);
    case Kind::kSelect: {
      SETREC_ASSIGN_OR_RETURN(std::shared_ptr<const Relation> cp,
                              EvalNode(*node.left));
      Relation out(*node.scheme);
      for (const Tuple& t : *cp) {
        if ((t.at(node.ia) == t.at(node.ib)) == node.equal) {
          out.InsertValidated(t);
        }
      }
      return out;
    }
    case Kind::kProject: {
      SETREC_ASSIGN_OR_RETURN(std::shared_ptr<const Relation> cp,
                              EvalNode(*node.left));
      Relation out(*node.scheme);
      out.Reserve(cp->size());
      for (const Tuple& t : *cp) {
        out.InsertValidated(t.Project(node.cols));
      }
      return out;
    }
    case Kind::kRename: {
      SETREC_ASSIGN_OR_RETURN(std::shared_ptr<const Relation> cp,
                              EvalNode(*node.left));
      Relation out(*node.scheme);
      out.Reserve(cp->size());
      for (const Tuple& t : *cp) out.InsertValidated(t);
      return out;
    }
  }
  return Status::Internal("unknown plan operator");
}

Result<Relation> Evaluator::EvalSelectionChain(const PhysicalNode& node) {
  TraceSpan join_span = StartSpan(*ctx_, "evaluator/join");
  SETREC_ASSIGN_OR_RETURN(std::shared_ptr<const Relation> left_ptr,
                          EvalNode(*node.left));
  // An index build reads its rows from the bound relation below and never
  // evaluates the right operand.
  std::shared_ptr<const Relation> right_ptr;
  if (node.index == nullptr) {
    SETREC_ASSIGN_OR_RETURN(right_ptr, EvalNode(*node.right));
  }
  const Relation& left = *left_ptr;
  MetricsRegistry* metrics = ctx_->metrics();

  // Per-side filters, in the roles the plan classified.
  auto passes = [&node](const Tuple& t, JoinCond::Role side) {
    for (const JoinCond& c : node.conds) {
      if (c.role == side && (t.at(c.ia) == t.at(c.ib)) != c.equal) {
        return false;
      }
    }
    return true;
  };

  // Build the hash table on the right side, keyed by the join attributes.
  // An index build fetches only the rows the probe side can match: those
  // of the bound relation whose first value is some probe key.
  std::vector<Tuple> fetched;
  std::unordered_map<Tuple, std::vector<const Tuple*>, TupleHash> index;
  {
    TraceSpan build_span = StartSpan(*ctx_, "evaluator/join-build");
    std::uint64_t built = 0;
    auto insert = [&](const Tuple& t) {
      if (!passes(t, JoinCond::Role::kBuildFilter)) return;
      index[t.Project(node.right_key)].push_back(&t);
      ++built;
    };
    if (node.index == nullptr) {
      index.reserve(right_ptr->size());
      for (const Tuple& t : *right_ptr) insert(t);
      // Each key's rows in tuple order, the order an index build fetches
      // them in: the probe then meets its candidates in one order whatever
      // built the table, so the rows a budget stop leaves counted do not
      // depend on the build side's hash layout.
      for (auto& [key, rows] : index) {
        if (rows.size() < 2) continue;
        std::sort(rows.begin(), rows.end(),
                  [](const Tuple* a, const Tuple* b) { return *a < *b; });
      }
    } else {
      std::vector<ObjectId> keys;
      keys.reserve(left.size());
      for (const Tuple& lt : left) {
        if (passes(lt, JoinCond::Role::kProbeFilter)) {
          keys.push_back(lt.at(node.left_key[node.index_key]));
        }
      }
      std::sort(keys.begin(), keys.end());
      keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
      for (const ObjectId key : keys) {
        for (const auto& [first, second] : node.index->RowsWithFirst(key)) {
          fetched.push_back(Tuple{first, second});
        }
      }
      // The table points into `fetched`, which is complete by now.
      index.reserve(fetched.size());
      for (const Tuple& t : fetched) insert(t);
    }
    if (metrics != nullptr) metrics->engine.eval_join_build_rows.Add(built);
    if (node_stats_ != nullptr) {
      (*node_stats_)[node.expr].build_rows += built;
    }
  }

  const std::uint64_t tuple_bytes =
      static_cast<std::uint64_t>(node.scheme->arity()) * sizeof(ObjectId);

  Relation out(*node.scheme);
  TraceSpan probe_span = StartSpan(*ctx_, "evaluator/join-probe");
  // Probes are counted as probe-side tuples, matched or not.
  if (metrics != nullptr) metrics->engine.eval_join_probes.Add(left.size());
  if (node_stats_ != nullptr) {
    (*node_stats_)[node.expr].probe_rows += left.size();
  }
  for (const Tuple& lt : left) {
    if (!passes(lt, JoinCond::Role::kProbeFilter)) continue;
    auto it = index.find(lt.Project(node.left_key));
    if (it == index.end()) continue;
    for (const Tuple* rt : it->second) {
      SETREC_RETURN_IF_ERROR(ctx_->ChargeRows(1, "evaluator/join-row"));
      SETREC_RETURN_IF_ERROR(
          ctx_->ChargeMemory(tuple_bytes, "evaluator/join-row"));
      bool ok = true;
      for (const JoinCond& c : node.conds) {
        if (c.role != JoinCond::Role::kResidual) continue;
        const ObjectId va = c.a_left ? lt.at(c.ia) : rt->at(c.ia);
        const ObjectId vb = c.b_left ? lt.at(c.ib) : rt->at(c.ib);
        if ((va == vb) != c.equal) {
          ok = false;
          break;
        }
      }
      if (!ok) continue;
      if (metrics != nullptr) metrics->engine.eval_rows.Add(1);
      out.InsertValidated(lt.Concat(*rt));
    }
  }
  return out;
}

Result<Relation> Evaluate(const ExprPtr& expr, const Database& database,
                          const ExecOptions& options) {
  ExecScope scope(options);
  Evaluator evaluator(&database, scope.ctx());
  evaluator.set_backend(options.backend);
  return evaluator.Eval(expr);
}

}  // namespace setrec
