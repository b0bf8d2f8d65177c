// Static analysis of update methods: runs the whole analysis stack of the
// paper on every library method —
//   * Proposition 5.8's syntactic sufficient condition,
//   * the Theorem 5.12 decision procedure (absolute and key-order),
//   * the syntactic schema coloring with its soundness/simplicity verdicts
//     (Theorems 4.14/4.23),
//   * and, for order-dependent methods, a concrete witness found by the
//     randomized refuter.

#include <cstdio>
#include <cstdlib>

#include "algebraic/method_library.h"
#include "algebraic/order_independence.h"
#include "coloring/inference.h"
#include "coloring/soundness.h"
#include "core/printer.h"

namespace {

using namespace setrec;  // NOLINT: example brevity

template <typename T>
T Unwrap(Result<T> result, const char* what) {
  if (!result.ok()) {
    std::fprintf(stderr, "%s failed: %s\n", what,
                 result.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(result).value();
}

void Analyze(const AlgebraicUpdateMethod& method, const Schema& schema) {
  std::printf("----------------------------------------------------------\n");
  std::printf("%s\n", method.ToString().c_str());
  std::printf("  positive: %s\n", method.IsPositiveMethod() ? "yes" : "no");
  std::printf("  Prop 5.8 syntactic condition (⇒ key-order independent): "
              "%s\n",
              SatisfiesUpdateIsolationCondition(method) ? "holds" : "fails");

  if (method.IsPositiveMethod()) {
    DecisionReport absolute = Unwrap(
        DecideOrderIndependenceDetailed(method,
                                        OrderIndependenceKind::kAbsolute),
        "decide");
    bool key = Unwrap(
        DecideOrderIndependence(method, OrderIndependenceKind::kKeyOrder),
        "decide");
    std::printf("  Thm 5.12 decision: order independent %-3s  key-order "
                "independent %s\n",
                absolute.order_independent ? "yes" : "no",
                key ? "yes" : "no");
    for (const auto& d : absolute.properties) {
      std::printf(
          "    reduction for '%s': %zu ∪-branches (pruned to %zu) vs %zu "
          "(pruned to %zu) — %s\n",
          schema.property(d.property).name.c_str(), d.raw_disjuncts_tt,
          d.pruned_disjuncts_tt, d.raw_disjuncts_ts, d.pruned_disjuncts_ts,
          d.equivalent ? "equivalent" : "NOT equivalent");
    }
  } else {
    std::printf("  Thm 5.12 decision: n/a (non-positive; undecidable in "
                "general, Cor 5.7)\n");
  }

  Coloring coloring = SyntacticColoring(method);
  std::printf("  syntactic coloring: %s\n", coloring.ToString().c_str());
  std::printf("    simple: %s  sound(inflationary): %s  "
              "sound(deflationary): %s\n",
              coloring.IsSimple() ? "yes" : "no",
              IsSoundColoring(coloring, UseAxiomatization::kInflationary)
                  ? "yes"
                  : "no",
              IsSoundColoring(coloring, UseAxiomatization::kDeflationary)
                  ? "yes"
                  : "no");
  if (coloring.IsSimple()) {
    std::printf("    ⇒ Theorems 4.14/4.23 certify order independence\n");
  }

  InstanceGenerator::Options options;
  options.min_objects_per_class = 2;
  options.max_objects_per_class = 3;
  options.edge_probability = 0.35;
  ExecContext ctx;
  auto witness = Unwrap(SearchOrderDependenceWitness(method, schema, 5, 6,
                                                     options, false, ctx),
                        "search");
  if (witness.has_value()) {
    std::printf("  refuter: order dependence witnessed on\n%s\n",
                InstanceToString(witness->instance).c_str());
    std::printf("    receivers %s and %s\n",
                ReceiverToString(schema, witness->first).c_str(),
                ReceiverToString(schema, witness->second).c_str());
  } else {
    std::printf("  refuter: no order-dependence witness found\n");
  }
}

}  // namespace

int main() {
  DrinkersSchema ds = Unwrap(MakeDrinkersSchema(), "drinkers");
  std::printf("== drinkers schema ==\n%s\n", SchemaToString(ds.schema).c_str());
  auto add_bar = Unwrap(MakeAddBar(ds), "add_bar");
  auto favorite = Unwrap(MakeFavoriteBar(ds), "favorite_bar");
  auto delete_bar = Unwrap(MakeDeleteBar(ds), "delete_bar");
  auto likes_serves = Unwrap(MakeLikesServesBar(ds), "likes_serves");
  for (const AlgebraicUpdateMethod* m :
       {add_bar.get(), favorite.get(), delete_bar.get(),
        likes_serves.get()}) {
    Analyze(*m, ds.schema);
  }

  PairSchema ps = Unwrap(MakePairSchema(), "pair");
  std::printf("\n== one-class schema ==\n%s\n",
              SchemaToString(ps.schema).c_str());
  auto conditional = Unwrap(MakeConditionalDeleteMethod(ps), "cond");
  auto copy_extend = Unwrap(MakeCopyExtendMethod(ps), "copy");
  auto parity = Unwrap(MakeParityMethod(ps), "parity");
  Analyze(*copy_extend, ps.schema);
  Analyze(*parity, ps.schema);
  // conditional_delete's reduction is the heaviest: run it last and only
  // syntactically + empirically (its disjunct count explodes; the bench
  // bench_decision charts this growth).
  std::printf("----------------------------------------------------------\n");
  std::printf("%s\n", conditional->ToString().c_str());
  std::printf("  positive: yes; Prop 5.8 condition: %s\n",
              SatisfiesUpdateIsolationCondition(*conditional) ? "holds"
                                                              : "fails");
  InstanceGenerator::Options options;
  options.min_objects_per_class = 3;
  options.max_objects_per_class = 4;
  options.edge_probability = 0.15;
  ExecContext ctx;
  auto witness =
      Unwrap(SearchOrderDependenceWitness(*conditional, ps.schema, 3, 20,
                                          options, false, ctx),
             "search");
  std::printf("  refuter: order dependence witness %s\n",
              witness.has_value() ? "found" : "not found");
  return 0;
}
