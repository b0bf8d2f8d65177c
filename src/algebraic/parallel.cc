#include "algebraic/parallel.h"

#include <algorithm>
#include <chrono>
#include <map>
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

/// Natural join of two par-transformed expressions on the shared `self`
/// attribute: σ_{self=self§}(l × ρ_{self→self§}(r)) projected back onto
/// attrs(l) ++ (attrs(r) − self). The throwaway attribute name cannot clash
/// because it is projected away immediately.
constexpr const char kJoinTemp[] = "self§";

Result<ExprPtr> NatJoinOnSelf(const ExprPtr& l, const ExprPtr& r,
                              const Catalog& catalog) {
  SETREC_ASSIGN_OR_RETURN(RelationScheme ls, InferScheme(*l, catalog));
  SETREC_ASSIGN_OR_RETURN(RelationScheme rs, InferScheme(*r, catalog));
  ExprPtr joined = ra::SelectEq(
      ra::Product(l, ra::Rename(r, kSelfRelation, kJoinTemp)), kSelfRelation,
      kJoinTemp);
  std::vector<std::string> keep;
  for (const Attribute& a : ls.attributes()) keep.push_back(a.name);
  for (const Attribute& a : rs.attributes()) {
    if (a.name != kSelfRelation) keep.push_back(a.name);
  }
  return ra::Project(std::move(joined), std::move(keep));
}

Result<ExprPtr> Transform(const ExprPtr& expr, const MethodContext& context,
                          const Catalog& par_catalog) {
  const MethodSignature& sig = context.signature;
  switch (expr->op()) {
    case Expr::Op::kRelation: {
      const std::string& name = expr->relation_name();
      if (name == kSelfRelation) {
        return ra::Project(ra::Rel(kRecRelation), {kSelfRelation});
      }
      for (std::size_t i = 0; i < sig.num_args(); ++i) {
        if (name == ArgRelationName(i)) {
          return ra::Project(ra::Rel(kRecRelation),
                             {kSelfRelation, ArgRelationName(i)});
        }
      }
      return ra::Product(ra::Project(ra::Rel(kRecRelation), {kSelfRelation}),
                         ra::Rel(name));
    }
    case Expr::Op::kUnion:
    case Expr::Op::kDifference: {
      SETREC_ASSIGN_OR_RETURN(ExprPtr l,
                              Transform(expr->left(), context, par_catalog));
      SETREC_ASSIGN_OR_RETURN(ExprPtr r,
                              Transform(expr->right(), context, par_catalog));
      return expr->op() == Expr::Op::kUnion
                 ? ra::Union(std::move(l), std::move(r))
                 : ra::Diff(std::move(l), std::move(r));
    }
    case Expr::Op::kProduct: {
      SETREC_ASSIGN_OR_RETURN(ExprPtr l,
                              Transform(expr->left(), context, par_catalog));
      SETREC_ASSIGN_OR_RETURN(ExprPtr r,
                              Transform(expr->right(), context, par_catalog));
      return NatJoinOnSelf(l, r, par_catalog);
    }
    case Expr::Op::kSelectEq:
    case Expr::Op::kSelectNeq: {
      SETREC_ASSIGN_OR_RETURN(ExprPtr c,
                              Transform(expr->child(), context, par_catalog));
      return expr->op() == Expr::Op::kSelectEq
                 ? ra::SelectEq(std::move(c), expr->attr_a(), expr->attr_b())
                 : ra::SelectNeq(std::move(c), expr->attr_a(), expr->attr_b());
    }
    case Expr::Op::kProject: {
      SETREC_ASSIGN_OR_RETURN(ExprPtr c,
                              Transform(expr->child(), context, par_catalog));
      std::vector<std::string> attrs;
      attrs.push_back(kSelfRelation);
      for (const std::string& a : expr->projection()) attrs.push_back(a);
      return ra::Project(std::move(c), std::move(attrs));
    }
    case Expr::Op::kRename: {
      if (expr->rename_from() == kSelfRelation ||
          expr->rename_to() == kSelfRelation) {
        return Status::InvalidArgument(
            "par(E) cannot rename the reserved attribute self");
      }
      SETREC_ASSIGN_OR_RETURN(ExprPtr c,
                              Transform(expr->child(), context, par_catalog));
      return ra::Rename(std::move(c), expr->rename_from(), expr->rename_to());
    }
  }
  return Status::Internal("unknown expression operator");
}

}  // namespace

Result<ExprPtr> ParTransform(const ExprPtr& expr,
                             const MethodContext& context) {
  SETREC_ASSIGN_OR_RETURN(Catalog par_catalog, ParCatalog(context));
  return Transform(expr, context, par_catalog);
}

namespace {

/// Output of evaluating the par(E) pipelines over one receiver shard: for
/// each statement, the receiving-object → result-objects map restricted to
/// the shard's receivers.
struct ShardResult {
  Status status = Status::OK();
  std::vector<std::map<ObjectId, std::vector<ObjectId>>> per_statement;
};

/// Evaluates every par(E) expression against `base` plus rec = `shard`.
/// `base` is shared read-only across concurrent shards; the per-shard
/// Database copy is shallow (relations behind shared storage), so the cost
/// per shard is O(#relations), not O(instance).
ShardResult EvalShard(const Database& base, const RelationScheme& rec_scheme,
                      std::span<const Receiver> shard,
                      std::span<const ExprPtr> par_exprs, ExecContext& ctx,
                      ExecBackend backend) {
  ShardResult out;
  out.status = ctx.CheckPoint("parallel/shard");
  if (!out.status.ok()) return out;
  TraceSpan span = StartSpan(ctx, "parallel/shard");
  if (ctx.metrics() != nullptr) ctx.metrics()->engine.parallel_shards.Add(1);

  Relation rec(rec_scheme);
  rec.Reserve(shard.size());
  for (const Receiver& t : shard) {
    std::vector<ObjectId> values;
    values.reserve(t.size());
    for (std::size_t i = 0; i < t.size(); ++i) {
      values.push_back(t.object_at(i));
    }
    out.status = rec.Insert(Tuple(std::move(values)));
    if (!out.status.ok()) return out;
  }
  Database db = base;
  db.Put(kRecRelation, std::move(rec));

  Evaluator evaluator(&db, ctx);
  evaluator.set_backend(backend);
  out.per_statement.reserve(par_exprs.size());
  for (const ExprPtr& par_expr : par_exprs) {
    Result<Relation> r = evaluator.Eval(par_expr);
    if (!r.ok()) {
      out.status = r.status();
      return out;
    }
    Result<std::size_t> self_idx = r->scheme().IndexOf(kSelfRelation);
    if (!self_idx.ok()) {
      out.status = self_idx.status();
      return out;
    }
    if (r->scheme().arity() != 2) {
      out.status = Status::Internal("par(E) must produce a binary relation");
      return out;
    }
    const std::size_t value_idx = 1 - *self_idx;
    std::map<ObjectId, std::vector<ObjectId>> targets;
    for (const Tuple& t : *r) {
      targets[t.at(*self_idx)].push_back(t.at(value_idx));
    }
    out.per_statement.push_back(std::move(targets));
  }
  return out;
}

/// Cuts the canonical receiver enumeration into at most `num_shards`
/// contiguous [begin, end) ranges of roughly equal size, never separating
/// receivers that share a receiving object: par(E) decomposes exactly along
/// `self` slices, and a slice is the full set of rec tuples with that self
/// value (receivers differing only in arguments interact through the
/// π_{self,arg_i}(rec) leaves). Canonical order sorts by the full object
/// vector, so same-self receivers are already adjacent.
std::vector<std::pair<std::size_t, std::size_t>> ShardBoundaries(
    std::span<const Receiver> set, std::size_t num_shards) {
  std::vector<std::pair<std::size_t, std::size_t>> bounds;
  const std::size_t n = set.size();
  if (n == 0) return bounds;
  const std::size_t target =
      std::max<std::size_t>(1, (n + num_shards - 1) / num_shards);
  std::size_t begin = 0;
  while (begin < n) {
    std::size_t end = std::min(begin + target, n);
    while (end < n &&
           set[end].receiving_object() == set[end - 1].receiving_object()) {
      ++end;
    }
    bounds.emplace_back(begin, end);
    begin = end;
  }
  return bounds;
}

/// Shared body of the ParallelApply overloads. When `sink` is set, the
/// merge runs under a journal whose delta is published to it.
Result<Instance> ParallelApplyImpl(const AlgebraicUpdateMethod& method,
                                   const Instance& instance,
                                   std::span<const Receiver> receivers,
                                   const ParallelOptions& options,
                                   ExecContext& ctx, DeltaSink* sink) {
  const MethodContext& mctx = method.context();
  TraceSpan apply_span = StartSpan(ctx, "parallel/apply");
  MetricsRegistry* metrics = ctx.metrics();
  std::vector<Receiver> set = CanonicalReceiverSet(receivers);
  for (const Receiver& t : set) {
    if (!t.IsValidOver(mctx.signature, instance)) {
      return Status::FailedPrecondition(
          "receiver not valid over the instance");
    }
  }

  SETREC_ASSIGN_OR_RETURN(
      Database db, EncodeInstance(instance, method.ReadRelations()));
  SETREC_ASSIGN_OR_RETURN(RelationScheme rec_scheme,
                          RecScheme(mctx.signature));

  // Rewrite one par(E) per statement up front; the expression DAGs are
  // immutable and shared read-only by all shards.
  std::vector<ExprPtr> par_exprs;
  par_exprs.reserve(method.statements().size());
  {
    TraceSpan rewrite_span = StartSpan(ctx, "parallel/rewrite");
    for (const UpdateStatement& s : method.statements()) {
      SETREC_RETURN_IF_ERROR(ctx.CheckPoint("parallel/statement"));
      SETREC_ASSIGN_OR_RETURN(ExprPtr par_expr,
                              ParTransform(s.expression, mctx));
      par_exprs.push_back(std::move(par_expr));
    }
  }

  const std::size_t requested = std::max<std::size_t>(1, options.num_workers);
  const std::vector<std::pair<std::size_t, std::size_t>> bounds =
      ShardBoundaries(set, requested);
  std::vector<ShardResult> results(bounds.size());
  if (bounds.size() <= 1) {
    // Single shard: evaluate on the calling thread under `ctx` directly —
    // this is exactly the classic sequential-runtime path.
    if (!bounds.empty()) {
      results[0] = EvalShard(
          db, rec_scheme,
          std::span<const Receiver>(set).subspan(
              bounds[0].first, bounds[0].second - bounds[0].first),
          par_exprs, ctx, options.backend);
    }
  } else {
    std::vector<ExecContext> children;
    children.reserve(bounds.size());
    for (std::size_t s = 0; s < bounds.size(); ++s) {
      children.push_back(ctx.Fork());
    }
    auto run_shard = [&](std::size_t s) {
      results[s] = EvalShard(
          db, rec_scheme,
          std::span<const Receiver>(set).subspan(
              bounds[s].first, bounds[s].second - bounds[s].first),
          par_exprs, children[s], options.backend);
    };
    if (options.pool != nullptr) {
      options.pool->ParallelFor(bounds.size(), run_shard);
    } else {
      ThreadPool transient(std::min(requested, bounds.size()));
      transient.ParallelFor(bounds.size(), run_shard);
    }
  }
  // Deterministic error reporting: the first failing shard in shard order
  // wins (a shared tripped budget makes several shards fail; which ones is
  // scheduling-dependent, but shard 0's view of it is not).
  for (const ShardResult& r : results) {
    SETREC_RETURN_IF_ERROR(r.status);
  }

  // Merge: shards partition the canonical enumeration contiguously, so
  // iterating shards in order and receivers within each shard reproduces
  // the canonical receiver order of the single-threaded path exactly.
  TraceSpan merge_span = StartSpan(ctx, "parallel/merge");
  Instance out = instance;
  if (sink != nullptr) out.BeginJournal();
  const std::span<const UpdateStatement> statements = method.statements();
  for (std::size_t i = 0; i < statements.size(); ++i) {
    const PropertyId property = statements[i].property;
    for (const Receiver& t : set) {
      SETREC_RETURN_IF_ERROR(
          out.ClearEdgesFrom(t.receiving_object(), property));
    }
    for (std::size_t s = 0; s < bounds.size(); ++s) {
      const auto merge_start = std::chrono::steady_clock::now();
      const auto& targets = results[s].per_statement[i];
      for (std::size_t k = bounds[s].first; k < bounds[s].second; ++k) {
        const ObjectId o0 = set[k].receiving_object();
        auto it = targets.find(o0);
        if (it == targets.end()) continue;
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
  }
  if (sink != nullptr) {
    // Advisory publication: the cache fails closed on its own when it
    // cannot absorb a delta, so errors here do not fail the apply.
    (void)sink->ApplyDelta(out.JournalDelta());
    out.EndJournal();
  }
  return out;
}

}  // namespace

Result<Instance> ParallelApply(const AlgebraicUpdateMethod& method,
                               const Instance& instance,
                               std::span<const Receiver> receivers,
                               const ParallelOptions& options,
                               ExecContext& ctx) {
  return ParallelApplyImpl(method, instance, receivers, options, ctx,
                           nullptr);
}

Result<Instance> ParallelApply(const AlgebraicUpdateMethod& method,
                               const Instance& instance,
                               std::span<const Receiver> receivers,
                               const ExecOptions& options) {
  ExecScope scope(options);
  ParallelOptions par;
  par.num_workers = options.num_workers;
  par.pool = options.pool;
  par.backend = options.backend;
  return ParallelApplyImpl(method, instance, receivers, par, scope.ctx(),
                           options.view_cache);
}

Result<Instance> ParallelApply(const AlgebraicUpdateMethod& method,
                               const Instance& instance,
                               std::span<const Receiver> receivers,
                               ExecContext& ctx) {
  return ParallelApply(method, instance, receivers, ParallelOptions{}, ctx);
}

}  // namespace setrec
