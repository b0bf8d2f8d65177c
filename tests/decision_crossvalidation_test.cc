// Differential validation of the Theorem 5.12 decision procedure: a corpus
// of randomly composed positive single-statement methods over the drinkers
// schema is classified statically, and every verdict is cross-checked
// against exhaustive pairwise semantics on sampled instances —
//   "independent"  ⇒ the refuter must find no witness (soundness), and
//   "dependent"    ⇒ the refuter must find one (the methods are small and
//                     the witness space is dense, so sampling suffices).

#include <gtest/gtest.h>

#include "algebraic/method_library.h"
#include "algebraic/order_independence.h"
#include "core/instance_generator.h"
#include "decision_corpus.h"
#include "relational/builder.h"

namespace setrec {
namespace {

class DecisionCrossValidation
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DecisionCrossValidation, VerdictMatchesSampledSemantics) {
  ExecContext ctx;
  DrinkersSchema ds = std::move(MakeDrinkersSchema()).value();
  ExprPtr e = CorpusExpression(GetParam());
  auto method_or = AlgebraicUpdateMethod::Make(
      &ds.schema, MethodSignature({ds.drinker, ds.bar}), "random",
      {UpdateStatement{ds.frequents, e}});
  ASSERT_TRUE(method_or.ok()) << ExprToString(*e);
  auto method = std::move(method_or).value();
  ASSERT_TRUE(method->IsPositiveMethod());

  const bool absolute = std::move(DecideOrderIndependence(
                                      *method,
                                      OrderIndependenceKind::kAbsolute))
                            .value();
  const bool key_order = std::move(DecideOrderIndependence(
                                       *method,
                                       OrderIndependenceKind::kKeyOrder))
                             .value();
  // Absolute implies key-order (key sets are sets).
  if (absolute) {
    EXPECT_TRUE(key_order) << ExprToString(*e);
  }

  InstanceGenerator::Options options;
  options.min_objects_per_class = 0;
  options.max_objects_per_class = 3;
  options.edge_probability = 0.45;
  auto witness = std::move(SearchOrderDependenceWitness(*method, ds.schema,
                                                        GetParam(), 30,
                                                        options, false, ctx))
                     .value();
  EXPECT_EQ(witness.has_value(), !absolute) << ExprToString(*e);

  auto key_witness = std::move(SearchOrderDependenceWitness(
                                   *method, ds.schema, GetParam(), 30,
                                   options,
                                   /*key_pairs_only=*/true, ctx))
                         .value();
  EXPECT_EQ(key_witness.has_value(), !key_order) << ExprToString(*e);
}

INSTANTIATE_TEST_SUITE_P(Corpus, DecisionCrossValidation,
                         ::testing::Range<std::uint64_t>(1, kCorpusEnd));

}  // namespace
}  // namespace setrec
