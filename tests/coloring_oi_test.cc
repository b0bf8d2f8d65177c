// Theorems 4.14 and 4.23: a sound coloring guarantees order independence
// of all its methods iff it is simple. If-direction: witnesses of simple
// sound colorings are uniformly inflationary/deflationary (Propositions
// 4.10/4.19) and pass randomized order-independence testing. Only-if
// direction: the six counterexample families are order dependent on the
// paper's demonstration instances.

#include <gtest/gtest.h>

#include "algebraic/method_library.h"
#include "algebraic/order_independence.h"
#include "coloring/counterexamples.h"
#include "coloring/inference.h"
#include "coloring/soundness.h"
#include "coloring/witness.h"
#include "core/sequential.h"

namespace setrec {
namespace {

class SimpleWitnessTest : public ::testing::TestWithParam<UseAxiomatization> {
};

TEST_P(SimpleWitnessTest, SimpleSoundColoringsYieldOrderIndependentMethods) {
  ExecContext ctx;
  const UseAxiomatization ax = GetParam();
  const bool inflationary = ax == UseAxiomatization::kInflationary;
  PairSchema ps = std::move(MakePairSchema()).value();
  InstanceGenerator::Options gen_options;
  gen_options.min_objects_per_class = 0;
  gen_options.max_objects_per_class = 7;
  gen_options.edge_probability = 0.3;

  int tested = 0;
  for (ColorSet c_class : ColorSet::All()) {
    for (ColorSet c_a : ColorSet::All()) {
      for (ColorSet c_b : ColorSet::All()) {
        Coloring k(&ps.schema);
        k.Set(SchemaItem::Class(ps.c), c_class);
        k.Set(SchemaItem::Property(ps.a), c_a);
        k.Set(SchemaItem::Property(ps.b), c_b);
        if (!k.IsSimple() || !IsSoundColoring(k, ax)) continue;
        EXPECT_TRUE(SoundColoringGuaranteesOrderIndependence(k));
        auto witness_or = MakeWitnessMethod(&ps.schema, k, ax);
        if (!witness_or.ok()) continue;  // deflationary corner
        auto witness = std::move(witness_or).value();
        ++tested;

        // Theorem 4.14/4.23 if-direction, empirically: no order-dependence
        // witness on random instances.
        auto dependence = std::move(SearchOrderDependenceWitness(
                                        *witness, ps.schema, 17, 3,
                                        gen_options, false, ctx))
                              .value();
        EXPECT_FALSE(dependence.has_value()) << k.ToString();

        // Propositions 4.10/4.19: uniform behaviour.
        InstanceGenerator gen(&ps.schema, 29);
        for (int i = 0; i < 4; ++i) {
          Instance instance = gen.RandomInstance(gen_options);
          auto receivers =
              gen.RandomReceiverSet(instance, witness->signature(), 1);
          if (receivers.empty()) continue;
          Result<Instance> out = witness->Apply(instance, receivers[0]);
          if (!out.ok()) continue;  // divergence guard hit
          if (inflationary) {
            EXPECT_TRUE(instance.IsSubInstanceOf(*out)) << k.ToString();
          } else {
            EXPECT_TRUE(out->IsSubInstanceOf(instance)) << k.ToString();
          }
        }
      }
    }
  }
  EXPECT_GT(tested, 0);
}

INSTANTIATE_TEST_SUITE_P(
    Axiomatizations, SimpleWitnessTest,
    ::testing::Values(UseAxiomatization::kInflationary,
                      UseAxiomatization::kDeflationary),
    [](const ::testing::TestParamInfo<UseAxiomatization>& param_info) {
      return param_info.param == UseAxiomatization::kInflationary
                 ? "inflationary"
                 : "deflationary";
    });

/// Only-if direction: each of the six counterexample families is order
/// dependent on its demonstration pair (I, T) from the proof of Theorem
/// 4.14.
class CounterexampleTest
    : public ::testing::TestWithParam<CounterexampleCase> {};

TEST_P(CounterexampleTest, DemonstrationSetRefutesOrderIndependence) {
  ExecContext ctx;
  PairSchema ps = std::move(MakePairSchema()).value();
  const CounterexampleCase which = GetParam();
  const bool node_case = which == CounterexampleCase::kNodeUD ||
                         which == CounterexampleCase::kNodeUCD ||
                         which == CounterexampleCase::kNodeUC;
  SchemaItem item = node_case ? SchemaItem::Class(ps.c)
                              : SchemaItem::Property(ps.a);
  Counterexample ce =
      std::move(MakeCounterexample(&ps.schema, which, item)).value();
  auto outcome = std::move(OrderIndependentOn(*ce.method, ce.instance,
                                              ce.receivers, ctx))
                     .value();
  EXPECT_FALSE(outcome.order_independent);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, CounterexampleTest,
    ::testing::Values(CounterexampleCase::kNodeUD,
                      CounterexampleCase::kNodeUCD,
                      CounterexampleCase::kNodeUC,
                      CounterexampleCase::kEdgeUD,
                      CounterexampleCase::kEdgeUCD,
                      CounterexampleCase::kEdgeUC),
    [](const ::testing::TestParamInfo<CounterexampleCase>& param_info) {
      switch (param_info.param) {
        case CounterexampleCase::kNodeUD:
          return std::string("node_ud");
        case CounterexampleCase::kNodeUCD:
          return std::string("node_ucd");
        case CounterexampleCase::kNodeUC:
          return std::string("node_uc");
        case CounterexampleCase::kEdgeUD:
          return std::string("edge_ud");
        case CounterexampleCase::kEdgeUCD:
          return std::string("edge_ucd");
        case CounterexampleCase::kEdgeUC:
          return std::string("edge_uc");
      }
      return std::string("unknown");
    });

TEST(CounterexampleTest, RejectsMismatchedItems) {
  PairSchema ps = std::move(MakePairSchema()).value();
  EXPECT_FALSE(MakeCounterexample(&ps.schema, CounterexampleCase::kNodeUD,
                                  SchemaItem::Property(ps.a))
                   .ok());
  EXPECT_FALSE(MakeCounterexample(&ps.schema, CounterexampleCase::kEdgeUC,
                                  SchemaItem::Class(ps.c))
                   .ok());
}

TEST(SyntacticColoringTest, Example415ColoringIsRecovered) {
  // The Example 4.15 method's syntactic coloring matches the paper's
  // minimal coloring: {u} on D, Ba, Be, l, s; {c,d} on f syntactically
  // (replacement could delete), and its *use* part coincides.
  DrinkersSchema ds = std::move(MakeDrinkersSchema()).value();
  auto method = std::move(MakeLikesServesBar(ds)).value();
  Coloring k = SyntacticColoring(*method);
  EXPECT_EQ(k.GetClass(ds.drinker), kU);
  EXPECT_EQ(k.GetClass(ds.bar), kU);
  EXPECT_EQ(k.GetClass(ds.beer), kU);
  EXPECT_EQ(k.GetProperty(ds.likes), kU);
  EXPECT_EQ(k.GetProperty(ds.serves), kU);
  // f: syntactically {u,c,d} — it is both read (the keep-branch) and
  // replaced. The paper's sharper analysis (Example 4.15) shows the method
  // never actually deletes f-edges, so the *minimal* coloring has just {c};
  // the syntactic one is a sound over-approximation.
  EXPECT_TRUE(kC.IsSubsetOf(k.GetProperty(ds.frequents)));

  // The observed behaviour confirms no deletions happen.
  ColoringValidationOptions options;
  options.trials = 12;
  Coloring observed =
      std::move(ObserveCreateDelete(*method, ds.schema, options)).value();
  EXPECT_FALSE(observed.GetProperty(ds.frequents).Has(Color::kDelete));
  EXPECT_TRUE(observed.DeleteSet().empty());
}

TEST(SyntacticColoringTest, FavoriteBarColoringIsNotSimple) {
  DrinkersSchema ds = std::move(MakeDrinkersSchema()).value();
  auto favorite = std::move(MakeFavoriteBar(ds)).value();
  Coloring k = SyntacticColoring(*favorite);
  // f gets {c,d}: not simple, so Theorem 4.14 does not certify order
  // independence — and indeed favorite_bar is order dependent.
  EXPECT_FALSE(k.IsSimple());
  EXPECT_EQ(k.GetProperty(ds.frequents), kCD);
}

}  // namespace
}  // namespace setrec
