// Experiment E13 — cost of the Theorem 5.12 decision procedure on the
// paper's named methods, split by order-independence kind. The dominant
// factors are the number of union branches the Theorem 5.6 reduction
// produces (products distribute over unions) and the representative-set
// size of each chased disjunct (restricted Bell numbers per domain), paid
// only by the chased disjuncts the strict-homomorphism cover leaves open.

#include <benchmark/benchmark.h>

#include "algebraic/method_library.h"
#include "algebraic/order_independence.h"
#include "bench_obs.h"
#include "conjunctive/containment.h"
#include "conjunctive/translate.h"

namespace setrec {
namespace {

template <typename MakeFn, typename SchemaT>
void RunDecision(benchmark::State& state, const SchemaT& schema, MakeFn make,
                 OrderIndependenceKind kind) {
  auto method = std::move(make(schema)).value();
  for (auto _ : state) {
    Result<bool> verdict =
        DecideOrderIndependence(*method, kind, benchobs::ObsOptions());
    if (!verdict.ok()) state.SkipWithError("decision failed");
    benchmark::DoNotOptimize(verdict);
  }
  // Report the reduction's union width as a counter.
  auto reductions =
      std::move(BuildOrderIndependenceReduction(*method, kind)).value();
  std::size_t disjuncts = 0;
  for (const auto& r : reductions) {
    disjuncts += std::move(TranslateToPositiveQuery(
                               r.e_tt, method->context().reduction_catalog))
                     .value()
                     .disjuncts.size();
  }
  state.counters["union_branches"] = static_cast<double>(disjuncts);
  // And what one decision costs Klug's test: the representative valuations
  // it visits, and the chased disjuncts the cover settles without
  // enumerating them.
  MetricsRegistry counted;
  if (!DecideOrderIndependence(*method, kind, {.metrics = &counted}).ok()) {
    state.SkipWithError("decision failed");
  }
  state.counters["valuations"] =
      static_cast<double>(counted.engine.containment_valuations.value());
  state.counters["covered"] =
      static_cast<double>(counted.engine.containment_covered.value());
}

void BM_Decide_AddBar_Absolute(benchmark::State& state) {
  DrinkersSchema ds = std::move(MakeDrinkersSchema()).value();
  RunDecision(state, ds, MakeAddBar, OrderIndependenceKind::kAbsolute);
}
BENCHMARK(BM_Decide_AddBar_Absolute)->Unit(benchmark::kMillisecond);

void BM_Decide_AddBar_KeyOrder(benchmark::State& state) {
  DrinkersSchema ds = std::move(MakeDrinkersSchema()).value();
  RunDecision(state, ds, MakeAddBar, OrderIndependenceKind::kKeyOrder);
}
BENCHMARK(BM_Decide_AddBar_KeyOrder)->Unit(benchmark::kMillisecond);

void BM_Decide_FavoriteBar_Absolute(benchmark::State& state) {
  DrinkersSchema ds = std::move(MakeDrinkersSchema()).value();
  RunDecision(state, ds, MakeFavoriteBar, OrderIndependenceKind::kAbsolute);
}
BENCHMARK(BM_Decide_FavoriteBar_Absolute)->Unit(benchmark::kMillisecond);

void BM_Decide_FavoriteBar_KeyOrder(benchmark::State& state) {
  DrinkersSchema ds = std::move(MakeDrinkersSchema()).value();
  RunDecision(state, ds, MakeFavoriteBar, OrderIndependenceKind::kKeyOrder);
}
BENCHMARK(BM_Decide_FavoriteBar_KeyOrder)->Unit(benchmark::kMillisecond);

void BM_Decide_DeleteBar_Absolute(benchmark::State& state) {
  DrinkersSchema ds = std::move(MakeDrinkersSchema()).value();
  RunDecision(state, ds, MakeDeleteBar, OrderIndependenceKind::kAbsolute);
}
BENCHMARK(BM_Decide_DeleteBar_Absolute)->Unit(benchmark::kMillisecond);

void BM_Decide_LikesServes_Absolute(benchmark::State& state) {
  DrinkersSchema ds = std::move(MakeDrinkersSchema()).value();
  RunDecision(state, ds, MakeLikesServesBar,
              OrderIndependenceKind::kAbsolute);
}
BENCHMARK(BM_Decide_LikesServes_Absolute)->Unit(benchmark::kMillisecond);

void BM_Decide_CopyExtend_Absolute(benchmark::State& state) {
  PairSchema ps = std::move(MakePairSchema()).value();
  RunDecision(state, ps, MakeCopyExtendMethod,
              OrderIndependenceKind::kAbsolute);
}
BENCHMARK(BM_Decide_CopyExtend_Absolute)->Unit(benchmark::kMillisecond);

void BM_Decide_CopyExtend_KeyOrder(benchmark::State& state) {
  PairSchema ps = std::move(MakePairSchema()).value();
  RunDecision(state, ps, MakeCopyExtendMethod,
              OrderIndependenceKind::kKeyOrder);
}
BENCHMARK(BM_Decide_CopyExtend_KeyOrder)->Unit(benchmark::kMillisecond);

void BM_Decide_PayrollB_KeyOrder(benchmark::State& state) {
  PayrollSchema ps = std::move(MakePayrollSchema()).value();
  RunDecision(state, ps, MakeSalaryFromNewSal,
              OrderIndependenceKind::kKeyOrder);
}
BENCHMARK(BM_Decide_PayrollB_KeyOrder)->Unit(benchmark::kMillisecond);

void BM_Decide_PayrollC_KeyOrder(benchmark::State& state) {
  PayrollSchema ps = std::move(MakePayrollSchema()).value();
  RunDecision(state, ps, MakeSalaryFromManagersNewSal,
              OrderIndependenceKind::kKeyOrder);
}
BENCHMARK(BM_Decide_PayrollC_KeyOrder)->Unit(benchmark::kMillisecond);

/// Ablation: disjunct-subsumption pruning (SimplifyPositiveQuery) on the
/// heaviest named reduction. The Theorem 5.6 construction unions a "keep"
/// branch with a "fresh" branch per application, and many composed branches
/// subsume one another; pruning shrinks both the outer disjunct loop and
/// the inner membership disjunctions.
void RunEquivalenceAblation(benchmark::State& state, bool simplify) {
  PairSchema ps = std::move(MakePairSchema()).value();
  auto method = std::move(MakeCopyExtendMethod(ps)).value();
  auto reductions = std::move(BuildOrderIndependenceReduction(
                                  *method, OrderIndependenceKind::kKeyOrder))
                        .value();
  const MethodContext& ctx = method->context();
  std::vector<std::pair<PositiveQuery, PositiveQuery>> pairs;
  for (const auto& r : reductions) {
    pairs.emplace_back(
        std::move(TranslateToPositiveQuery(r.e_tt, ctx.reduction_catalog))
            .value(),
        std::move(TranslateToPositiveQuery(r.e_ts, ctx.reduction_catalog))
            .value());
  }
  for (auto _ : state) {
    for (const auto& [q1, q2] : pairs) {
      Result<ContainmentResult> a =
          CheckContainment(q1, q2, ctx.reduction_deps, ctx.reduction_catalog,
                           simplify, benchobs::ObsContext());
      Result<ContainmentResult> b =
          CheckContainment(q2, q1, ctx.reduction_deps, ctx.reduction_catalog,
                           simplify, benchobs::ObsContext());
      if (!a.ok() || !b.ok() || !a->contained || !b->contained) {
        state.SkipWithError("key-order equivalence expected");
      }
      benchmark::DoNotOptimize(a);
      benchmark::DoNotOptimize(b);
    }
  }
}

void BM_Ablation_WithPruning(benchmark::State& state) {
  RunEquivalenceAblation(state, /*simplify=*/true);
}
BENCHMARK(BM_Ablation_WithPruning)->Unit(benchmark::kMillisecond);

void BM_Ablation_WithoutPruning(benchmark::State& state) {
  RunEquivalenceAblation(state, /*simplify=*/false);
}
BENCHMARK(BM_Ablation_WithoutPruning)->Unit(benchmark::kMillisecond);

/// The Proposition 5.8 syntactic check, for contrast: linear in the
/// expression size — the price of being only sufficient.
void BM_Prop58_SyntacticCheck(benchmark::State& state) {
  DrinkersSchema ds = std::move(MakeDrinkersSchema()).value();
  auto method = std::move(MakeAddBar(ds)).value();
  for (auto _ : state) {
    bool ok = SatisfiesUpdateIsolationCondition(*method);
    benchmark::DoNotOptimize(ok);
  }
}
BENCHMARK(BM_Prop58_SyntacticCheck);

}  // namespace
}  // namespace setrec
