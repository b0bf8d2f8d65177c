// Tests for the Theorem 5.12 decision procedure, the Proposition 5.8
// syntactic condition, and the Corollary 5.7 randomized refuter, checked
// against the paper's classification of its named methods and against
// exhaustive semantic ground truth on random instances.

#include <gtest/gtest.h>

#include "algebraic/method_library.h"
#include "algebraic/order_independence.h"
#include "core/sequential.h"
#include "relational/builder.h"

namespace setrec {
namespace {

TEST(Prop58Test, SyntacticConditionMatchesExample59) {
  DrinkersSchema ds = std::move(MakeDrinkersSchema()).value();
  // favorite_bar (f := arg1) does not access Df: condition holds.
  auto favorite = std::move(MakeFavoriteBar(ds)).value();
  EXPECT_TRUE(SatisfiesUpdateIsolationCondition(*favorite));
  // add_bar accesses and modifies Df: condition fails (yet the method is
  // order independent — the condition is only sufficient, Example 5.9).
  auto add_bar = std::move(MakeAddBar(ds)).value();
  EXPECT_FALSE(SatisfiesUpdateIsolationCondition(*add_bar));
  // delete_bar likewise reads Df.
  auto delete_bar = std::move(MakeDeleteBar(ds)).value();
  EXPECT_FALSE(SatisfiesUpdateIsolationCondition(*delete_bar));
}

TEST(DecisionTest, AddBarIsOrderIndependent) {
  DrinkersSchema ds = std::move(MakeDrinkersSchema()).value();
  auto add_bar = std::move(MakeAddBar(ds)).value();
  EXPECT_TRUE(std::move(DecideOrderIndependence(
                            *add_bar, OrderIndependenceKind::kAbsolute))
                  .value());
  EXPECT_TRUE(std::move(DecideOrderIndependence(
                            *add_bar, OrderIndependenceKind::kKeyOrder))
                  .value());
}

TEST(DecisionTest, FavoriteBarIsKeyOrderIndependentOnly) {
  DrinkersSchema ds = std::move(MakeDrinkersSchema()).value();
  auto favorite = std::move(MakeFavoriteBar(ds)).value();
  EXPECT_FALSE(std::move(DecideOrderIndependence(
                             *favorite, OrderIndependenceKind::kAbsolute))
                   .value());
  EXPECT_TRUE(std::move(DecideOrderIndependence(
                            *favorite, OrderIndependenceKind::kKeyOrder))
                  .value());
}

TEST(DecisionTest, DeleteBarIsOrderIndependent) {
  DrinkersSchema ds = std::move(MakeDrinkersSchema()).value();
  auto delete_bar = std::move(MakeDeleteBar(ds)).value();
  EXPECT_TRUE(std::move(DecideOrderIndependence(
                            *delete_bar, OrderIndependenceKind::kAbsolute))
                  .value());
}

TEST(DecisionTest, LikesServesIsOrderIndependent) {
  DrinkersSchema ds = std::move(MakeDrinkersSchema()).value();
  auto method = std::move(MakeLikesServesBar(ds)).value();
  EXPECT_TRUE(std::move(DecideOrderIndependence(
                            *method, OrderIndependenceKind::kAbsolute))
                  .value());
}

TEST(DecisionTest, RejectsNonPositiveMethods) {
  DrinkersSchema ds = std::move(MakeDrinkersSchema()).value();
  ExprPtr complement =
      ra::Diff(ra::Rename(ra::Rel("Ba"), "Ba", "f"),
               ra::Project(ra::JoinEq(ra::Rel("self"), ra::Rel("Df"), "self",
                                      "D"),
                           {"f"}));
  auto method = std::move(AlgebraicUpdateMethod::Make(
                              &ds.schema, MethodSignature({ds.drinker}),
                              "complement",
                              {UpdateStatement{ds.frequents, complement}}))
                    .value();
  EXPECT_EQ(
      DecideOrderIndependence(*method, OrderIndependenceKind::kAbsolute)
          .status()
          .code(),
      StatusCode::kInvalidArgument);
}

TEST(RefuterTest, FindsWitnessForFavoriteBar) {
  ExecContext ctx;
  DrinkersSchema ds = std::move(MakeDrinkersSchema()).value();
  auto favorite = std::move(MakeFavoriteBar(ds)).value();
  InstanceGenerator::Options options;
  options.max_objects_per_class = 3;
  auto witness = std::move(SearchOrderDependenceWitness(
                               *favorite, ds.schema, 7, 4, options, false, ctx))
                     .value();
  ASSERT_TRUE(witness.has_value());
  // The two orders genuinely disagree on the found witness.
  std::vector<Receiver> ab = {witness->first, witness->second};
  std::vector<Receiver> ba = {witness->second, witness->first};
  Instance iab =
      std::move(ApplySequence(*favorite, witness->instance, ab, ctx)).value();
  Instance iba =
      std::move(ApplySequence(*favorite, witness->instance, ba, ctx)).value();
  EXPECT_FALSE(iab == iba);
  // But never with distinct receiving objects (key pairs commute).
  auto key_witness = std::move(SearchOrderDependenceWitness(
                                   *favorite, ds.schema, 7, 4, options,
                                   /*key_pairs_only=*/true, ctx))
                         .value();
  EXPECT_FALSE(key_witness.has_value());
}

TEST(RefuterTest, FindsNoWitnessForAddBar) {
  ExecContext ctx;
  DrinkersSchema ds = std::move(MakeDrinkersSchema()).value();
  auto add_bar = std::move(MakeAddBar(ds)).value();
  InstanceGenerator::Options options;
  options.max_objects_per_class = 3;
  auto witness = std::move(SearchOrderDependenceWitness(
                               *add_bar, ds.schema, 11, 4, options, false, ctx))
                     .value();
  EXPECT_FALSE(witness.has_value());
}

TEST(RefuterTest, ConditionalDeleteIsOrderDependent) {
  ExecContext ctx;
  // Proposition 5.14's first method: order dependent in general. The first
  // deletion can push #Ca below the guard threshold, changing what the
  // second receiver does.
  PairSchema ps = std::move(MakePairSchema()).value();
  auto method = std::move(MakeConditionalDeleteMethod(ps)).value();
  ASSERT_TRUE(method->IsPositiveMethod());

  // Deterministic witness: Ca = {(c1,x), (c2,y)}, receivers (c1,x) and
  // (c2,z) with z ∉ a(c2).
  Instance instance(&ps.schema);
  const ObjectId c1(ps.c, 0), c2(ps.c, 1), x(ps.c, 2), y(ps.c, 3), z(ps.c, 4);
  for (ObjectId o : {c1, c2, x, y, z}) {
    ASSERT_TRUE(instance.AddObject(o).ok());
  }
  ASSERT_TRUE(instance.AddEdge(c1, ps.a, x).ok());
  ASSERT_TRUE(instance.AddEdge(c2, ps.a, y).ok());
  std::vector<Receiver> pair = {Receiver::Unchecked({c1, x}),
                                Receiver::Unchecked({c2, z})};
  auto outcome =
      std::move(OrderIndependentOn(*method, instance, pair, ctx)).value();
  EXPECT_FALSE(outcome.order_independent);

  // The randomized refuter finds some witness too (sparser edges make the
  // #Ca = 2 boundary likely).
  InstanceGenerator::Options options;
  options.min_objects_per_class = 3;
  options.max_objects_per_class = 4;
  options.edge_probability = 0.15;
  auto witness = std::move(SearchOrderDependenceWitness(
                               *method, ps.schema, 3, 20, options, false, ctx))
                     .value();
  EXPECT_TRUE(witness.has_value());
}

TEST(DecisionTest, ClearAndAllBarsAreOrderIndependent) {
  DrinkersSchema ds = std::move(MakeDrinkersSchema()).value();
  auto clear = std::move(MakeClearBars(ds)).value();
  auto all = std::move(MakeAllBars(ds)).value();
  // clear_bars reads Df syntactically (inside the unsatisfiable selection),
  // so Prop 5.8 is too coarse for it; the decision procedure is not.
  EXPECT_FALSE(SatisfiesUpdateIsolationCondition(*clear));
  EXPECT_TRUE(SatisfiesUpdateIsolationCondition(*all));
  for (const AlgebraicUpdateMethod* m : {clear.get(), all.get()}) {
    EXPECT_TRUE(std::move(DecideOrderIndependence(
                              *m, OrderIndependenceKind::kAbsolute))
                    .value())
        << m->name();
  }
  // Behaviour: clear empties the row, all fills it.
  Instance instance(&ds.schema);
  const ObjectId d(ds.drinker, 0);
  const ObjectId b0(ds.bar, 0), b1(ds.bar, 1);
  ASSERT_TRUE(instance.AddObject(d).ok());
  ASSERT_TRUE(instance.AddObject(b0).ok());
  ASSERT_TRUE(instance.AddObject(b1).ok());
  ASSERT_TRUE(instance.AddEdge(d, ds.frequents, b0).ok());
  Receiver r = Receiver::Unchecked({d});
  Instance cleared = std::move(clear->Apply(instance, r)).value();
  EXPECT_TRUE(cleared.Targets(d, ds.frequents).empty());
  Instance filled = std::move(all->Apply(instance, r)).value();
  EXPECT_EQ(filled.Targets(d, ds.frequents),
            (std::vector<ObjectId>{b0, b1}));
}

/// Cross-validation sweep: the decision procedure's verdict must agree with
/// exhaustive pairwise semantics on sampled instances — a verdict of
/// "independent" means no witness may exist; a verdict of "dependent" means
/// the refuter (given enough trials) finds one for these small methods.
struct NamedMethodCase {
  const char* name;
  bool absolute;
  bool key_order;
};

class DecisionGroundTruthTest
    : public ::testing::TestWithParam<NamedMethodCase> {};

TEST_P(DecisionGroundTruthTest, MatchesRandomizedSemantics) {
  ExecContext ctx;
  const NamedMethodCase& c = GetParam();
  DrinkersSchema ds = std::move(MakeDrinkersSchema()).value();
  std::unique_ptr<AlgebraicUpdateMethod> method;
  if (std::string(c.name) == "add_bar") {
    method = std::move(MakeAddBar(ds)).value();
  } else if (std::string(c.name) == "favorite_bar") {
    method = std::move(MakeFavoriteBar(ds)).value();
  } else if (std::string(c.name) == "delete_bar") {
    method = std::move(MakeDeleteBar(ds)).value();
  } else {
    method = std::move(MakeLikesServesBar(ds)).value();
  }
  EXPECT_EQ(std::move(DecideOrderIndependence(
                          *method, OrderIndependenceKind::kAbsolute))
                .value(),
            c.absolute);
  EXPECT_EQ(std::move(DecideOrderIndependence(
                          *method, OrderIndependenceKind::kKeyOrder))
                .value(),
            c.key_order);
  InstanceGenerator::Options options;
  options.max_objects_per_class = 3;
  auto witness = std::move(SearchOrderDependenceWitness(
                               *method, ds.schema, 13, 3, options, false, ctx))
                     .value();
  EXPECT_EQ(witness.has_value(), !c.absolute);
  auto key_witness = std::move(SearchOrderDependenceWitness(
                                   *method, ds.schema, 13, 3, options,
                                   /*key_pairs_only=*/true, ctx))
                         .value();
  EXPECT_EQ(key_witness.has_value(), !c.key_order);
}

INSTANTIATE_TEST_SUITE_P(
    NamedMethods, DecisionGroundTruthTest,
    ::testing::Values(NamedMethodCase{"add_bar", true, true},
                      NamedMethodCase{"favorite_bar", false, true},
                      NamedMethodCase{"delete_bar", true, true},
                      NamedMethodCase{"likes_serves", true, true}),
    [](const ::testing::TestParamInfo<NamedMethodCase>& param_info) {
      return std::string(param_info.param.name);
    });

}  // namespace
}  // namespace setrec
