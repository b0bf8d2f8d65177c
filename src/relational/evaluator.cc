#include "relational/evaluator.h"

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

bool Evaluator::UseVectorized(const Expr& expr) {
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
    // counters that EXPLAIN ANALYZE reports.
    auto_vectorize_ = vectorized::EstimatedInputRows(expr, *database_) >=
                      kAutoVectorizeInputRows;
  }
  return *auto_vectorize_;
}

Result<std::shared_ptr<const Relation>> Evaluator::EvalShared(
    const ExprPtr& expr) {
  if (UseVectorized(*expr)) {
    if (engine_ == nullptr) {
      engine_ = std::make_unique<vectorized::Engine>(database_, ctx_);
    }
    return engine_->Execute(expr, node_stats_);
  }
  // Type errors surface here, before any budget is charged.
  SETREC_ASSIGN_OR_RETURN(const PhysicalNode* node, plan_.LowerRoot(expr));
  return EvalNode(*node);
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
  SETREC_ASSIGN_OR_RETURN(std::shared_ptr<const Relation> right_ptr,
                          EvalNode(*node.right));
  const Relation& left = *left_ptr;
  const Relation& right = *right_ptr;
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
  std::unordered_map<Tuple, std::vector<const Tuple*>, TupleHash> index;
  {
    TraceSpan build_span = StartSpan(*ctx_, "evaluator/join-build");
    index.reserve(right.size());
    std::uint64_t built = 0;
    for (const Tuple& t : right) {
      if (!passes(t, JoinCond::Role::kBuildFilter)) continue;
      index[t.Project(node.right_key)].push_back(&t);
      ++built;
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
