#include "algebraic/order_independence.h"

#include <algorithm>
#include <map>
#include <utility>

#include "conjunctive/containment.h"
#include "conjunctive/translate.h"
#include "algebraic/method_library.h"
#include "core/sequential.h"
#include "obs/json_escape.h"
#include "relational/builder.h"

namespace setrec {

namespace {

/// Renames the single output attribute of a unary expression to `name` when
/// necessary.
Result<ExprPtr> NormalizeUnaryAttr(const ExprPtr& expr, const Catalog& catalog,
                                   const std::string& name) {
  SETREC_ASSIGN_OR_RETURN(RelationScheme scheme, InferScheme(*expr, catalog));
  if (scheme.arity() != 1) {
    return Status::InvalidArgument("expected a unary expression");
  }
  if (scheme.attribute(0).name == name) return expr;
  return ra::Rename(expr, scheme.attribute(0).name, name);
}

/// Replaces the receiver relations self/argi in `expr` by their primed (or
/// unprimed) counterparts while preserving attribute names: self is replaced
/// by ρ_{self'→self}(self') so that selections over "self" keep working.
ExprPtr RetargetReceivers(const ExprPtr& expr, const MethodSignature& sig,
                          bool to_primed) {
  ExprPtr out = expr;
  for (std::size_t i = 0; i < sig.size(); ++i) {
    const std::string base =
        i == 0 ? std::string(kSelfRelation) : ArgRelationName(i - 1);
    const std::string primed = PrimedName(base);
    const std::string from = to_primed ? base : primed;
    const std::string to = to_primed ? primed : base;
    out = SubstituteRelation(out, from,
                             ra::Rename(ra::Rel(to), to, from));
  }
  return out;
}

/// π_{C,a}(σ_{C≠s}(E_prev × s)) ∪ ρ_{s→C}(s) × E_rhs — the contents of Ca
/// after one more application whose receiving object sits in the singleton
/// relation `s` and whose right-hand side is E_rhs (already normalized to
/// attribute a). `E_prev` holds Ca's previous contents, scheme {C, a}.
ExprPtr ApplyStep(const ExprPtr& e_prev, const std::string& self_rel,
                  const std::string& class_attr, const std::string& prop_attr,
                  const ExprPtr& e_rhs) {
  ExprPtr keep = ra::Project(
      ra::JoinNeq(e_prev, ra::Rel(self_rel), class_attr, self_rel),
      {class_attr, prop_attr});
  ExprPtr fresh =
      ra::Product(ra::Rename(ra::Rel(self_rel), self_rel, class_attr), e_rhs);
  return ra::Union(std::move(keep), std::move(fresh));
}

/// p1 ≡_Σ p2 under the reduction's dependencies, for queries the caller
/// has already run through SimplifyPositiveQuery: both containment
/// directions, neither simplifying again.
Result<bool> EquivalentSimplified(const PositiveQuery& p1,
                                  const PositiveQuery& p2,
                                  const MethodContext& mctx,
                                  ExecContext& ctx) {
  for (const auto& [from, to] : {std::pair(&p1, &p2), std::pair(&p2, &p1)}) {
    SETREC_ASSIGN_OR_RETURN(
        ContainmentResult result,
        CheckContainment(*from, *to, mctx.reduction_deps,
                         mctx.reduction_catalog, /*simplify=*/false, ctx));
    if (!result.contained) return false;
  }
  return true;
}

}  // namespace

Result<std::vector<ReductionExpressions>> BuildOrderIndependenceReduction(
    const AlgebraicUpdateMethod& method, OrderIndependenceKind kind) {
  const MethodContext& ctx = method.context();
  const Schema& schema = *ctx.schema;
  const MethodSignature& sig = ctx.signature;
  const std::string class_attr =
      schema.class_name(sig.receiving_class());
  const std::string self_p = PrimedName(kSelfRelation);

  // Per updated property a: its relation name Ca, attribute name, and the
  // normalized right-hand side E_a.
  struct PropertyInfo {
    PropertyId property;
    std::string relation;  // "Ca"
    std::string attr;      // "a"
    ExprPtr rhs;           // E_a, output attribute normalized to "a"
  };
  std::vector<PropertyInfo> props;
  for (const UpdateStatement& s : method.statements()) {
    PropertyInfo info;
    info.property = s.property;
    info.relation = PropertyRelationName(schema, s.property);
    info.attr = schema.property(s.property).name;
    SETREC_ASSIGN_OR_RETURN(
        info.rhs, NormalizeUnaryAttr(s.expression, ctx.catalog, info.attr));
    props.push_back(std::move(info));
  }

  // E_a[t]: Ca after applying the method at the unprimed receiver t, and
  // E_a[t']: after applying at the primed receiver t'.
  std::map<PropertyId, ExprPtr> after_t;
  std::map<PropertyId, ExprPtr> after_tp;
  for (const PropertyInfo& p : props) {
    after_t[p.property] =
        ApplyStep(ra::Rel(p.relation), kSelfRelation, class_attr, p.attr,
                  p.rhs);
    ExprPtr rhs_primed = RetargetReceivers(p.rhs, sig, /*to_primed=*/true);
    after_tp[p.property] =
        ApplyStep(ra::Rel(p.relation), self_p, class_attr, p.attr,
                  std::move(rhs_primed));
  }

  // The validity guard (proof of Theorem 5.6): all receiver relations
  // non-empty, and the two receivers distinct. For key-order independence
  // only the receiving objects must differ (the argument-difference terms
  // are omitted, see the proof of Theorem 5.12).
  std::vector<ExprPtr> singleton_rels;
  for (std::size_t i = 0; i < sig.size(); ++i) {
    const std::string base =
        i == 0 ? std::string(kSelfRelation) : ArgRelationName(i - 1);
    singleton_rels.push_back(ra::Rel(base));
    singleton_rels.push_back(ra::Rel(PrimedName(base)));
  }
  ExprPtr nonempty = ra::Guard(ra::ProductAll(std::move(singleton_rels)));

  std::vector<ExprPtr> differ_terms;
  differ_terms.push_back(ra::Guard(ra::JoinNeq(
      ra::Rel(kSelfRelation), ra::Rel(self_p), kSelfRelation, self_p)));
  if (kind == OrderIndependenceKind::kAbsolute) {
    for (std::size_t i = 0; i < sig.num_args(); ++i) {
      const std::string base = ArgRelationName(i);
      const std::string primed = PrimedName(base);
      differ_terms.push_back(
          ra::Guard(ra::JoinNeq(ra::Rel(base), ra::Rel(primed), base, primed)));
    }
  }
  ExprPtr guard =
      ra::Product(std::move(nonempty), ra::UnionAll(std::move(differ_terms)));

  // Compose the second application on top of the first, in both orders.
  std::vector<ReductionExpressions> out;
  for (const PropertyInfo& p : props) {
    // Order t then t': the second application reads the updated relations
    // Cb = E_b[t] and uses the primed receiver.
    ExprPtr rhs2 = RetargetReceivers(p.rhs, sig, /*to_primed=*/true);
    for (const PropertyInfo& q : props) {
      rhs2 = SubstituteRelation(rhs2, q.relation, after_t.at(q.property));
    }
    SETREC_ASSIGN_OR_RETURN(
        rhs2, NormalizeUnaryAttr(rhs2, ctx.reduction_catalog, p.attr));
    ExprPtr e_tt = ApplyStep(after_t.at(p.property), self_p, class_attr,
                             p.attr, std::move(rhs2));

    // Order t' then t: symmetric.
    ExprPtr rhs3 = p.rhs;  // unprimed receiver
    for (const PropertyInfo& q : props) {
      rhs3 = SubstituteRelation(rhs3, q.relation, after_tp.at(q.property));
    }
    SETREC_ASSIGN_OR_RETURN(
        rhs3, NormalizeUnaryAttr(rhs3, ctx.reduction_catalog, p.attr));
    ExprPtr e_ts = ApplyStep(after_tp.at(p.property), kSelfRelation,
                             class_attr, p.attr, std::move(rhs3));

    out.push_back(ReductionExpressions{
        p.property, ra::Product(std::move(e_tt), guard),
        ra::Product(std::move(e_ts), guard)});
  }
  return out;
}

namespace {

/// The Theorem 5.12 reduction loop behind DecideOrderIndependence and
/// DecideOrderIndependenceDetailed: per updated property, translate both
/// sides of the reduction into positive queries, prune them, and test
/// equivalence under the method's dependencies. With `stop_at_difference`
/// the loop returns at the first inequivalent property (the boolean
/// verdict needs no more); otherwise every property is reported.
Result<DecisionReport> RunDecision(const AlgebraicUpdateMethod& method,
                                   OrderIndependenceKind kind,
                                   bool stop_at_difference,
                                   const ExecOptions& options) {
  if (!method.IsPositiveMethod()) {
    return Status::InvalidArgument(
        "order independence is only decidable for positive methods "
        "(Theorem 5.12 / Corollary 5.7); use SearchOrderDependenceWitness");
  }
  ExecScope scope(options);
  ExecContext& ctx = scope.ctx();
  TraceSpan span = StartSpan(ctx, "decide/order-independence");
  SETREC_ASSIGN_OR_RETURN(std::vector<ReductionExpressions> reductions,
                          BuildOrderIndependenceReduction(method, kind));
  const MethodContext& mctx = method.context();
  DecisionReport report;
  report.order_independent = true;
  for (const ReductionExpressions& r : reductions) {
    SETREC_RETURN_IF_ERROR(ctx.CheckPoint("decision/property"));
    SETREC_ASSIGN_OR_RETURN(
        PositiveQuery q1,
        TranslateToPositiveQuery(r.e_tt, mctx.reduction_catalog));
    SETREC_ASSIGN_OR_RETURN(
        PositiveQuery q2,
        TranslateToPositiveQuery(r.e_ts, mctx.reduction_catalog));
    DecisionReport::PropertyDetail detail;
    detail.property = r.property;
    detail.raw_disjuncts_tt = q1.disjuncts.size();
    detail.raw_disjuncts_ts = q2.disjuncts.size();
    const PositiveQuery p1 = SimplifyPositiveQuery(std::move(q1), ctx);
    const PositiveQuery p2 = SimplifyPositiveQuery(std::move(q2), ctx);
    detail.pruned_disjuncts_tt = p1.disjuncts.size();
    detail.pruned_disjuncts_ts = p2.disjuncts.size();
    SETREC_ASSIGN_OR_RETURN(detail.equivalent,
                            EquivalentSimplified(p1, p2, mctx, ctx));
    report.properties.push_back(detail);
    if (!detail.equivalent) {
      report.order_independent = false;
      if (stop_at_difference) break;
    }
  }
  return report;
}

}  // namespace

Result<bool> DecideOrderIndependence(const AlgebraicUpdateMethod& method,
                                     OrderIndependenceKind kind,
                                     const ExecOptions& options) {
  SETREC_ASSIGN_OR_RETURN(
      DecisionReport report,
      RunDecision(method, kind, /*stop_at_difference=*/true, options));
  return report.order_independent;
}

Result<OrderIndependenceVerdict> DecideOrderIndependenceBounded(
    const AlgebraicUpdateMethod& method, OrderIndependenceKind kind,
    const ExecOptions& options) {
  Result<bool> decided = DecideOrderIndependence(method, kind, options);
  if (decided.ok()) {
    return *decided ? OrderIndependenceVerdict::kIndependent
                    : OrderIndependenceVerdict::kDependent;
  }
  if (decided.status().IsRetryable()) {
    return OrderIndependenceVerdict::kUnknown;
  }
  return decided.status();
}

Result<DecisionReport> DecideOrderIndependenceDetailed(
    const AlgebraicUpdateMethod& method, OrderIndependenceKind kind,
    const ExecOptions& options) {
  return RunDecision(method, kind, /*stop_at_difference=*/false, options);
}

namespace {

std::string RenderObject(ObjectId o) {
  return "c" + std::to_string(o.class_id()) + "#" + std::to_string(o.index());
}

std::string RenderTuple(const Tuple& t) {
  std::string out = "(";
  for (std::size_t i = 0; i < t.arity(); ++i) {
    if (i > 0) out += ", ";
    out += RenderObject(t.at(i));
  }
  return out + ")";
}

/// Deterministic rendering of a refuting chase result: the witness tuple
/// the left query produces, and the canonical database it produces it on
/// (relations and tuples in sorted order).
std::string RenderCounterexample(const ContainmentResult& result) {
  std::string out;
  if (result.counterexample_tuple.has_value()) {
    out += "witness " + RenderTuple(*result.counterexample_tuple) +
           " produced by the left query only; canonical database:\n";
  }
  if (result.counterexample.has_value()) {
    for (const std::string& name : result.counterexample->Names()) {
      Result<const Relation*> rel = result.counterexample->Find(name);
      if (!rel.ok() || (*rel)->empty()) continue;
      out += "  " + name + " = {";
      bool first = true;
      for (const Tuple* t : (*rel)->SortedTuples()) {
        if (!first) out += ", ";
        first = false;
        out += RenderTuple(*t);
      }
      out += "}\n";
    }
  }
  return out;
}

}  // namespace

Result<DecisionCertificate> DecideOrderIndependenceCertified(
    const AlgebraicUpdateMethod& method, OrderIndependenceKind kind,
    const ExecOptions& options) {
  if (!method.IsPositiveMethod()) {
    return Status::InvalidArgument(
        "order independence is only decidable for positive methods "
        "(Theorem 5.12 / Corollary 5.7)");
  }
  // Per-test counter deltas need a registry; fall back to a private one so
  // certificates are populated even for unobserved callers.
  MetricsRegistry local_metrics;
  ExecOptions opts = options;
  if (opts.metrics == nullptr) opts.metrics = &local_metrics;
  ExecScope scope(opts);
  ExecContext& ctx = scope.ctx();
  MetricsRegistry& metrics = *ctx.metrics();

  TraceSpan span = StartSpan(ctx, "decide/order-independence");
  SETREC_ASSIGN_OR_RETURN(std::vector<ReductionExpressions> reductions,
                          BuildOrderIndependenceReduction(method, kind));
  const MethodContext& mctx = method.context();

  DecisionCertificate certificate;
  certificate.kind = kind;
  certificate.method_name = method.name();
  certificate.order_independent = true;
  certificate.report.order_independent = true;
  for (const ReductionExpressions& r : reductions) {
    SETREC_RETURN_IF_ERROR(ctx.CheckPoint("decision/property"));
    SETREC_ASSIGN_OR_RETURN(
        PositiveQuery q1,
        TranslateToPositiveQuery(r.e_tt, mctx.reduction_catalog));
    SETREC_ASSIGN_OR_RETURN(
        PositiveQuery q2,
        TranslateToPositiveQuery(r.e_ts, mctx.reduction_catalog));
    DecisionReport::PropertyDetail detail;
    detail.property = r.property;
    detail.raw_disjuncts_tt = q1.disjuncts.size();
    detail.raw_disjuncts_ts = q2.disjuncts.size();
    PositiveQuery p1 = SimplifyPositiveQuery(std::move(q1), ctx);
    PositiveQuery p2 = SimplifyPositiveQuery(std::move(q2), ctx);
    detail.pruned_disjuncts_tt = p1.disjuncts.size();
    detail.pruned_disjuncts_ts = p2.disjuncts.size();
    detail.equivalent = true;

    struct Direction {
      const char* label;
      const PositiveQuery* from;
      const PositiveQuery* to;
    };
    for (const Direction& d :
         {Direction{"tt⊆ts", &p1, &p2}, Direction{"ts⊆tt", &p2, &p1}}) {
      ContainmentCertificate test;
      test.property = r.property;
      test.property_name = mctx.schema->property(r.property).name;
      test.direction = d.label;
      const std::uint64_t steps0 = ctx.steps();
      const std::uint64_t tests0 = metrics.engine.containment_tests.value();
      const std::uint64_t rounds0 = metrics.engine.chase_rounds.value();
      const std::uint64_t cands0 = metrics.engine.hom_candidates.value();
      SETREC_ASSIGN_OR_RETURN(
          ContainmentResult result,
          CheckContainment(*d.from, *d.to, mctx.reduction_deps,
                           mctx.reduction_catalog, /*simplify=*/false, ctx));
      test.steps = ctx.steps() - steps0;
      test.containment_tests =
          metrics.engine.containment_tests.value() - tests0;
      test.chase_rounds = metrics.engine.chase_rounds.value() - rounds0;
      test.hom_candidates = metrics.engine.hom_candidates.value() - cands0;
      test.contained = result.contained;
      if (!result.contained) {
        test.counterexample = RenderCounterexample(result);
        detail.equivalent = false;
      }
      certificate.tests.push_back(std::move(test));
    }
    if (!detail.equivalent) {
      certificate.order_independent = false;
      certificate.report.order_independent = false;
    }
    certificate.report.properties.push_back(detail);
  }
  return certificate;
}

void WriteCertificateJsonl(const DecisionCertificate& certificate,
                           std::ostream& out) {
  out << "{\"type\":\"decision-certificate\",\"method\":"
      << JsonQuoted(certificate.method_name) << ",\"kind\":"
      << JsonQuoted(certificate.kind == OrderIndependenceKind::kAbsolute
                        ? "absolute"
                        : "key-order")
      << ",\"order_independent\":"
      << (certificate.order_independent ? "true" : "false")
      << ",\"properties\":" << certificate.report.properties.size()
      << ",\"tests\":" << certificate.tests.size() << "}\n";
  for (const ContainmentCertificate& t : certificate.tests) {
    out << "{\"type\":\"containment-test\",\"property\":" << t.property
        << ",\"property_name\":" << JsonQuoted(t.property_name)
        << ",\"direction\":" << JsonQuoted(t.direction) << ",\"contained\":"
        << (t.contained ? "true" : "false") << ",\"steps\":" << t.steps
        << ",\"containment_tests\":" << t.containment_tests
        << ",\"chase_rounds\":" << t.chase_rounds << ",\"hom_candidates\":"
        << t.hom_candidates << ",\"counterexample\":"
        << JsonQuoted(t.counterexample) << "}\n";
  }
}

std::string CertificateToText(const DecisionCertificate& certificate) {
  std::string out = "decision certificate: " +
                    (certificate.method_name.empty()
                         ? std::string("(unnamed method)")
                         : certificate.method_name) +
                    ", " +
                    (certificate.kind == OrderIndependenceKind::kAbsolute
                         ? "absolute"
                         : "key-order") +
                    " order independence\n";
  out += std::string("verdict: ") +
         (certificate.order_independent ? "ORDER INDEPENDENT"
                                        : "NOT ORDER INDEPENDENT") +
         "\n";
  for (const DecisionReport::PropertyDetail& p :
       certificate.report.properties) {
    out += "property " + std::to_string(p.property) + ": tt " +
           std::to_string(p.raw_disjuncts_tt) + "→" +
           std::to_string(p.pruned_disjuncts_tt) + " disjuncts, ts " +
           std::to_string(p.raw_disjuncts_ts) + "→" +
           std::to_string(p.pruned_disjuncts_ts) + " disjuncts\n";
    for (const ContainmentCertificate& t : certificate.tests) {
      if (t.property != p.property) continue;
      out += "  " + t.direction + ": " +
             (t.contained ? "contained" : "REFUTED") +
             " (steps=" + std::to_string(t.steps) +
             ", containment_tests=" + std::to_string(t.containment_tests) +
             ", chase_rounds=" + std::to_string(t.chase_rounds) +
             ", hom_candidates=" + std::to_string(t.hom_candidates) + ")\n";
      if (!t.counterexample.empty()) {
        out += "    " + t.counterexample;
      }
    }
  }
  return out;
}

bool SatisfiesUpdateIsolationCondition(const AlgebraicUpdateMethod& method) {
  const Schema& schema = *method.context().schema;
  std::vector<std::string> updated;
  for (const UpdateStatement& s : method.statements()) {
    updated.push_back(PropertyRelationName(schema, s.property));
  }
  std::sort(updated.begin(), updated.end());
  for (const UpdateStatement& s : method.statements()) {
    for (const std::string& rel : ReferencedRelations(*s.expression)) {
      if (std::binary_search(updated.begin(), updated.end(), rel)) {
        return false;
      }
    }
  }
  return true;
}

Result<std::optional<OrderDependenceWitness>> SearchOrderDependenceWitness(
    const UpdateMethod& method, const Schema& schema, std::uint64_t seed,
    int trials, const InstanceGenerator::Options& options,
    bool key_pairs_only, ExecContext& ctx) {
  InstanceGenerator gen(&schema, seed);
  for (int trial = 0; trial < trials; ++trial) {
    SETREC_RETURN_IF_ERROR(ctx.CheckPoint("witness-search/trial"));
    Instance instance = gen.RandomInstance(options);
    std::vector<Receiver> receivers =
        InstanceGenerator::AllReceivers(instance, method.signature());
    for (std::size_t i = 0; i < receivers.size(); ++i) {
      for (std::size_t j = i + 1; j < receivers.size(); ++j) {
        if (key_pairs_only && receivers[i].receiving_object() ==
                                  receivers[j].receiving_object()) {
          continue;
        }
        std::vector<Receiver> pair = {receivers[i], receivers[j]};
        SETREC_ASSIGN_OR_RETURN(
            OrderIndependenceOutcome outcome,
            PairwiseOrderIndependentOn(method, instance, pair, ctx));
        if (!outcome.order_independent) {
          return std::optional<OrderDependenceWitness>(OrderDependenceWitness{
              std::move(instance), receivers[i], receivers[j]});
        }
      }
    }
  }
  return std::optional<OrderDependenceWitness>();
}

Result<std::optional<QueryOrderDependenceWitness>>
SearchQueryOrderDependenceWitness(const UpdateMethod& method,
                                  const ExprPtr& query, const Schema& schema,
                                  std::uint64_t seed, int trials,
                                  const InstanceGenerator::Options& options,
                                  std::size_t max_set_size, ExecContext& ctx) {
  InstanceGenerator gen(&schema, seed);
  for (int trial = 0; trial < trials; ++trial) {
    SETREC_RETURN_IF_ERROR(ctx.CheckPoint("witness-search/query-trial"));
    Instance instance = gen.RandomInstance(options);
    SETREC_ASSIGN_OR_RETURN(
        std::vector<Receiver> receivers,
        ReceiversFromQuery(query, instance, method.signature(), ctx));
    // Q(I) receivers are tuples of objects drawn from the instance, so
    // they are valid over it; skip oversized sets (the exhaustive test is
    // |T|!).
    if (receivers.size() > max_set_size) continue;
    SETREC_ASSIGN_OR_RETURN(
        OrderIndependenceOutcome outcome,
        OrderIndependentOn(method, instance, receivers, ctx, max_set_size));
    if (!outcome.order_independent) {
      return std::optional<QueryOrderDependenceWitness>(
          QueryOrderDependenceWitness{std::move(instance),
                                      std::move(outcome)});
    }
  }
  return std::optional<QueryOrderDependenceWitness>();
}

}  // namespace setrec
