#include "algebraic/parallel.h"

#include <chrono>
#include <map>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/sequential.h"
#include "relational/builder.h"
#include "relational/evaluator.h"

namespace setrec {

Result<RelationScheme> RecScheme(const MethodSignature& signature) {
  std::vector<Attribute> attrs;
  attrs.push_back(Attribute{kSelfRelation, signature.receiving_class()});
  for (std::size_t i = 0; i < signature.num_args(); ++i) {
    attrs.push_back(Attribute{ArgRelationName(i), signature.arg_class(i)});
  }
  return RelationScheme::Make(std::move(attrs));
}

Result<Catalog> ParCatalog(const MethodContext& context) {
  // Rebuild from the object schema (dropping self/arg singletons), then add
  // rec.
  SETREC_ASSIGN_OR_RETURN(Catalog catalog, EncodeCatalog(*context.schema));
  SETREC_ASSIGN_OR_RETURN(RelationScheme rec, RecScheme(context.signature));
  SETREC_RETURN_IF_ERROR(catalog.AddRelation(kRecRelation, std::move(rec)));
  return catalog;
}

namespace {

/// `self` followed by the other attributes of `l` and then of `r`: the
/// scheme par(E1 × E2) has when `l` and `r` carry the attributes of E1 and
/// E2 (every par(E) scheme starts with self).
Result<std::vector<std::string>> SelfThen(const ExprPtr& l, const ExprPtr& r,
                                          const Catalog& catalog) {
  std::vector<std::string> names = {kSelfRelation};
  for (const ExprPtr& e : {l, r}) {
    SETREC_ASSIGN_OR_RETURN(RelationScheme scheme, InferScheme(*e, catalog));
    for (const Attribute& a : scheme.attributes()) {
      if (a.name != kSelfRelation) names.push_back(a.name);
    }
  }
  return names;
}

/// Natural join of two par-transformed expressions on the shared `self`
/// attribute: σ_{self=self§}(l × ρ_{self→self§}(r)) projected back onto
/// attrs(l) ++ (attrs(r) − self). The throwaway attribute name cannot clash
/// because it is projected away immediately.
constexpr const char kJoinTemp[] = "self§";

Result<ExprPtr> NatJoinOnSelf(const ExprPtr& l, const ExprPtr& r,
                              const Catalog& catalog) {
  SETREC_ASSIGN_OR_RETURN(std::vector<std::string> keep,
                          SelfThen(l, r, catalog));
  ExprPtr joined = ra::SelectEq(
      ra::Product(l, ra::Rename(r, kSelfRelation, kJoinTemp)), kSelfRelation,
      kJoinTemp);
  return ra::Project(std::move(joined), std::move(keep));
}

/// One ParTransform call. Both memos are keyed by node identity, because
/// method expressions are DAGs: a shared subexpression is classified and
/// rewritten once, and its rewrite stays shared.
class ParRewriter {
 public:
  ParRewriter(const MethodSignature& signature, const Catalog& par_catalog)
      : signature_(signature),
        catalog_(par_catalog),
        self_column_(ra::Project(ra::Rel(kRecRelation), {kSelfRelation})) {}

  Result<ExprPtr> Transform(const ExprPtr& expr) {
    auto it = rewritten_.find(expr.get());
    if (it != rewritten_.end()) return it->second;
    SETREC_ASSIGN_OR_RETURN(ExprPtr out, TransformUncached(expr));
    rewritten_.emplace(expr.get(), out);
    return out;
  }

 private:
  bool IsReceiverRelation(const std::string& name) const {
    if (name == kSelfRelation) return true;
    for (std::size_t i = 0; i < signature_.num_args(); ++i) {
      if (name == ArgRelationName(i)) return true;
    }
    return false;
  }

  /// Whether `expr` references neither self nor any arg_i. Visits every
  /// node below `expr`, so a rename of self is rejected even inside a
  /// subexpression that is hoisted unchanged.
  Result<bool> ReceiverFree(const Expr& expr) {
    auto it = free_.find(&expr);
    if (it != free_.end()) return it->second;
    bool free = true;
    switch (expr.op()) {
      case Expr::Op::kRelation:
        free = !IsReceiverRelation(expr.relation_name());
        break;
      case Expr::Op::kUnion:
      case Expr::Op::kDifference:
      case Expr::Op::kProduct: {
        SETREC_ASSIGN_OR_RETURN(bool l, ReceiverFree(*expr.left()));
        SETREC_ASSIGN_OR_RETURN(bool r, ReceiverFree(*expr.right()));
        free = l && r;
        break;
      }
      case Expr::Op::kRename:
        if (expr.rename_from() == kSelfRelation ||
            expr.rename_to() == kSelfRelation) {
          return Status::InvalidArgument(
              "par(E) cannot rename the reserved attribute self");
        }
        [[fallthrough]];
      case Expr::Op::kSelectEq:
      case Expr::Op::kSelectNeq:
      case Expr::Op::kProject: {
        SETREC_ASSIGN_OR_RETURN(free, ReceiverFree(*expr.child()));
        break;
      }
    }
    free_.emplace(&expr, free);
    return free;
  }

  Result<ExprPtr> TransformUncached(const ExprPtr& expr) {
    SETREC_ASSIGN_OR_RETURN(bool free, ReceiverFree(*expr));
    if (free) return ra::Product(self_column_, expr);
    switch (expr->op()) {
      case Expr::Op::kRelation: {
        // Receiver-dependent leaves are self and the arg_i.
        const std::string& name = expr->relation_name();
        if (name == kSelfRelation) return self_column_;
        return ra::Project(ra::Rel(kRecRelation), {kSelfRelation, name});
      }
      case Expr::Op::kUnion:
      case Expr::Op::kDifference: {
        SETREC_ASSIGN_OR_RETURN(ExprPtr l, Transform(expr->left()));
        SETREC_ASSIGN_OR_RETURN(ExprPtr r, Transform(expr->right()));
        return expr->op() == Expr::Op::kUnion
                   ? ra::Union(std::move(l), std::move(r))
                   : ra::Diff(std::move(l), std::move(r));
      }
      case Expr::Op::kProduct: {
        SETREC_ASSIGN_OR_RETURN(bool left_free, ReceiverFree(*expr->left()));
        SETREC_ASSIGN_OR_RETURN(bool right_free,
                                ReceiverFree(*expr->right()));
        if (right_free) {
          SETREC_ASSIGN_OR_RETURN(ExprPtr l, Transform(expr->left()));
          return ra::Product(std::move(l), expr->right());
        }
        SETREC_ASSIGN_OR_RETURN(ExprPtr r, Transform(expr->right()));
        if (left_free) {
          SETREC_ASSIGN_OR_RETURN(std::vector<std::string> keep,
                                  SelfThen(expr->left(), r, catalog_));
          return ra::Project(ra::Product(std::move(r), expr->left()),
                             std::move(keep));
        }
        SETREC_ASSIGN_OR_RETURN(ExprPtr l, Transform(expr->left()));
        return NatJoinOnSelf(l, r, catalog_);
      }
      case Expr::Op::kSelectEq:
      case Expr::Op::kSelectNeq: {
        SETREC_ASSIGN_OR_RETURN(ExprPtr c, Transform(expr->child()));
        return expr->op() == Expr::Op::kSelectEq
                   ? ra::SelectEq(std::move(c), expr->attr_a(),
                                  expr->attr_b())
                   : ra::SelectNeq(std::move(c), expr->attr_a(),
                                   expr->attr_b());
      }
      case Expr::Op::kProject: {
        SETREC_ASSIGN_OR_RETURN(ExprPtr c, Transform(expr->child()));
        std::vector<std::string> attrs;
        attrs.push_back(kSelfRelation);
        for (const std::string& a : expr->projection()) attrs.push_back(a);
        return ra::Project(std::move(c), std::move(attrs));
      }
      case Expr::Op::kRename: {
        SETREC_ASSIGN_OR_RETURN(ExprPtr c, Transform(expr->child()));
        return ra::Rename(std::move(c), expr->rename_from(),
                          expr->rename_to());
      }
    }
    return Status::Internal("unknown expression operator");
  }

  const MethodSignature& signature_;
  const Catalog& catalog_;
  const ExprPtr self_column_;  // π_self(rec), shared by every use
  std::unordered_map<const Expr*, bool> free_;
  std::unordered_map<const Expr*, ExprPtr> rewritten_;
};

}  // namespace

Result<ExprPtr> ParTransform(const ExprPtr& expr,
                             const MethodContext& context) {
  SETREC_ASSIGN_OR_RETURN(Catalog par_catalog, ParCatalog(context));
  return ParRewriter(context.signature, par_catalog).Transform(expr);
}

Result<ParallelPlan> PrepareParallelApply(const AlgebraicUpdateMethod& method,
                                          const Instance& instance,
                                          std::span<const Receiver> receivers,
                                          ExecContext& ctx) {
  const MethodContext& mctx = method.context();
  ParallelPlan plan;
  plan.receivers = CanonicalReceiverSet(receivers);
  for (const Receiver& t : plan.receivers) {
    if (!t.IsValidOver(mctx.signature, instance)) {
      return Status::FailedPrecondition(
          "receiver not valid over the instance");
    }
  }

  SETREC_ASSIGN_OR_RETURN(plan.database,
                          EncodeInstance(instance, method.ReadRelations()));
  SETREC_ASSIGN_OR_RETURN(RelationScheme rec_scheme,
                          RecScheme(mctx.signature));
  Relation rec(std::move(rec_scheme));
  rec.Reserve(plan.receivers.size());
  for (const Receiver& t : plan.receivers) {
    std::vector<ObjectId> values;
    values.reserve(t.size());
    for (std::size_t i = 0; i < t.size(); ++i) {
      values.push_back(t.object_at(i));
    }
    SETREC_RETURN_IF_ERROR(rec.Insert(Tuple(std::move(values))));
  }
  plan.database.Put(kRecRelation, std::move(rec));

  TraceSpan rewrite_span = StartSpan(ctx, "parallel/rewrite");
  plan.statements.reserve(method.statements().size());
  for (const UpdateStatement& s : method.statements()) {
    SETREC_RETURN_IF_ERROR(ctx.CheckPoint("parallel/statement"));
    SETREC_ASSIGN_OR_RETURN(ExprPtr par_expr,
                            ParTransform(s.expression, mctx));
    plan.statements.push_back(std::move(par_expr));
  }
  return plan;
}

Result<Instance> RunParallelApply(
    const AlgebraicUpdateMethod& method, const Instance& instance,
    const ParallelPlan& plan, ExecBackend backend, ExecContext& ctx,
    std::unordered_map<const Expr*, EvalNodeStats>* node_stats,
    DeltaSink* sink) {
  // Every statement reads the pre-update instance, so all are evaluated
  // before any edge is replaced. With no receivers nothing is replaced, so
  // nothing is evaluated.
  std::vector<std::map<ObjectId, std::vector<ObjectId>>> targets(
      plan.statements.size());
  if (!plan.receivers.empty()) {
    Evaluator evaluator(&plan.database, ctx);
    evaluator.set_backend(backend);
    evaluator.set_node_stats(node_stats);
    for (std::size_t i = 0; i < plan.statements.size(); ++i) {
      SETREC_ASSIGN_OR_RETURN(std::shared_ptr<const Relation> r,
                              evaluator.EvalShared(plan.statements[i]));
      if (r->scheme().arity() != 2) {
        return Status::Internal("par(E) must produce a binary relation");
      }
      SETREC_ASSIGN_OR_RETURN(std::size_t self_idx,
                              r->scheme().IndexOf(kSelfRelation));
      const std::size_t value_idx = 1 - self_idx;
      for (const Tuple& t : *r) {
        targets[i][t.at(self_idx)].push_back(t.at(value_idx));
      }
    }
  }

  TraceSpan merge_span = StartSpan(ctx, "parallel/merge");
  MetricsRegistry* metrics = ctx.metrics();
  Instance out = instance;
  if (sink != nullptr) out.BeginJournal();
  const std::span<const UpdateStatement> statements = method.statements();
  for (std::size_t i = 0; i < statements.size(); ++i) {
    const auto merge_start = std::chrono::steady_clock::now();
    const PropertyId property = statements[i].property;
    for (const Receiver& t : plan.receivers) {
      SETREC_RETURN_IF_ERROR(
          out.ClearEdgesFrom(t.receiving_object(), property));
    }
    for (const Receiver& t : plan.receivers) {
      const ObjectId o0 = t.receiving_object();
      auto it = targets[i].find(o0);
      if (it == targets[i].end()) continue;
      for (ObjectId target : it->second) {
        SETREC_RETURN_IF_ERROR(ctx.CheckPoint("parallel/edge"));
        if (metrics != nullptr) metrics->engine.apply_edges.Add(1);
        SETREC_RETURN_IF_ERROR(out.AddEdge(o0, property, target));
      }
    }
    if (metrics != nullptr) {
      metrics->engine.shard_merge_ns.Observe(static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - merge_start)
              .count()));
    }
  }
  if (sink != nullptr) {
    // Advisory publication: the cache fails closed on its own when it
    // cannot absorb a delta, so errors here do not fail the apply.
    (void)sink->ApplyDelta(out.JournalDelta());
    out.EndJournal();
  }
  return out;
}

Result<Instance> ParallelApply(const AlgebraicUpdateMethod& method,
                               const Instance& instance,
                               std::span<const Receiver> receivers,
                               const ExecOptions& options) {
  ExecScope scope(options);
  ExecContext& ctx = scope.ctx();
  TraceSpan apply_span = StartSpan(ctx, "parallel/apply");
  SETREC_ASSIGN_OR_RETURN(
      ParallelPlan plan,
      PrepareParallelApply(method, instance, receivers, ctx));
  return RunParallelApply(method, instance, plan, options.backend, ctx,
                          /*node_stats=*/nullptr, options.view_cache);
}

}  // namespace setrec
