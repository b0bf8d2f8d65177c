// Experiment E16 (performance side) — cost drivers of the Appendix A
// containment test: representative-set growth with the number of
// same-domain variables (restricted Bell numbers), the taming effect of
// non-equalities and of typing, and homomorphism-search cost on path/star
// patterns.

#include <benchmark/benchmark.h>

#include "bench_obs.h"
#include "conjunctive/containment.h"
#include "conjunctive/homomorphism.h"
#include "conjunctive/representative.h"
#include "conjunctive/translate.h"
#include "relational/builder.h"

namespace setrec {
namespace {

constexpr ClassId kP = 0;

Catalog GraphCatalog() {
  Catalog catalog;
  (void)catalog.AddRelation(
      "E",
      std::move(RelationScheme::Make({{"x", kP}, {"y", kP}})).value());
  (void)catalog.AddRelation(
      "V", std::move(RelationScheme::Make({{"v", kP}})).value());
  return catalog;
}

/// A chain query x0 →E x1 →E ... →E xk with all variables of one domain.
ConjunctiveQuery PathQuery(std::int64_t length, bool with_neq) {
  ConjunctiveQuery q;
  std::vector<VarId> vars;
  for (std::int64_t i = 0; i <= length; ++i) vars.push_back(q.NewVar(kP));
  for (std::int64_t i = 0; i < length; ++i) {
    q.AddConjunct("E", {vars[static_cast<std::size_t>(i)],
                        vars[static_cast<std::size_t>(i + 1)]});
  }
  if (with_neq) {
    for (std::size_t i = 0; i + 1 < vars.size(); ++i) {
      q.AddNonEquality(vars[i], vars[i + 1]);
    }
  }
  q.set_summary({vars[0]});
  return q;
}

void BM_RepresentativeValuations(benchmark::State& state) {
  ConjunctiveQuery q = PathQuery(state.range(0), /*with_neq=*/false);
  std::size_t count = 0;
  for (auto _ : state) {
    count = CountRepresentativeValuations(q);
    benchmark::DoNotOptimize(count);
  }
  state.counters["partitions"] = static_cast<double>(count);  // Bell(k+1)
}
BENCHMARK(BM_RepresentativeValuations)
    ->DenseRange(2, 8)
    ->Unit(benchmark::kMicrosecond);

void BM_RepresentativeValuationsWithNeq(benchmark::State& state) {
  ConjunctiveQuery q = PathQuery(state.range(0), /*with_neq=*/true);
  std::size_t count = 0;
  for (auto _ : state) {
    count = CountRepresentativeValuations(q);
    benchmark::DoNotOptimize(count);
  }
  state.counters["partitions"] = static_cast<double>(count);
}
BENCHMARK(BM_RepresentativeValuationsWithNeq)
    ->DenseRange(2, 8)
    ->Unit(benchmark::kMicrosecond);

/// Path-in-path containment: q_{k+1} ⊆ q_k (longer walks are walks).
void BM_PathContainment(benchmark::State& state) {
  Catalog catalog = GraphCatalog();
  DependencySet none;
  const std::int64_t k = state.range(0);
  PositiveQuery longer{std::move(RelationScheme::Make({{"x", kP}})).value(),
                       {PathQuery(k + 1, false)}};
  PositiveQuery shorter{std::move(RelationScheme::Make({{"x", kP}})).value(),
                        {PathQuery(k, false)}};
  ExecContext ctx;
  for (auto _ : state) {
    Result<bool> contained =
        ContainedUnder(longer, shorter, none, catalog, ctx);
    if (!contained.ok() || !*contained) {
      state.SkipWithError("path containment should hold");
    }
    benchmark::DoNotOptimize(contained);
  }
}
BENCHMARK(BM_PathContainment)
    ->DenseRange(1, 5)
    ->Unit(benchmark::kMillisecond);

/// Union width: containment of a k-way union in itself (Sagiv–Yannakakis
/// disjunct-by-disjunct processing).
void BM_UnionSelfEquivalence(benchmark::State& state) {
  Catalog catalog = GraphCatalog();
  DependencySet none;
  const std::int64_t width = state.range(0);
  PositiveQuery q{std::move(RelationScheme::Make({{"x", kP}})).value(), {}};
  for (std::int64_t i = 0; i < width; ++i) {
    q.disjuncts.push_back(PathQuery(1 + (i % 3), i % 2 == 0));
  }
  ExecContext ctx;
  for (auto _ : state) {
    Result<bool> eq = EquivalentUnder(q, q, none, catalog, ctx);
    if (!eq.ok() || !*eq) state.SkipWithError("self-equivalence must hold");
    benchmark::DoNotOptimize(eq);
  }
}
BENCHMARK(BM_UnionSelfEquivalence)
    ->RangeMultiplier(2)
    ->Range(1, 16)
    ->Unit(benchmark::kMillisecond);

/// Klug counterexample search cost: q1 ⊄ q2 where the counterexample is the
/// collapsed (loop) valuation — found early by the backtracking order.
void BM_EarlyCounterexample(benchmark::State& state) {
  Catalog catalog = GraphCatalog();
  DependencySet none;
  ExprPtr q1e = ra::Project(ra::Rel("E"), {"x"});
  ExprPtr q2e = ra::Project(ra::SelectNeq(ra::Rel("E"), "x", "y"), {"x"});
  PositiveQuery q1 = std::move(TranslateToPositiveQuery(q1e, catalog)).value();
  PositiveQuery q2 = std::move(TranslateToPositiveQuery(q2e, catalog)).value();
  for (auto _ : state) {
    Result<ContainmentResult> r = CheckContainment(q1, q2, none, catalog, true,
                                               benchobs::ObsContext());
    if (!r.ok() || r->contained) state.SkipWithError("expected refutation");
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_EarlyCounterexample)->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace setrec
