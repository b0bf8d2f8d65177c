// Proposition 5.14: for query-order independence, the Lemma 3.3 pair
// reduction fails in both directions. We reproduce both counterexamples
// exactly as the paper constructs them.

#include <gtest/gtest.h>

#include "algebraic/method_library.h"
#include "algebraic/order_independence.h"
#include "core/instance_generator.h"
#include "core/sequential.h"
#include "relational/builder.h"

namespace setrec {
namespace {

/// Fixture building the single-class schema with properties a, b.
class Prop514Test : public ::testing::Test {
 protected:
  void SetUp() override { ps_ = std::move(MakePairSchema()).value(); }

  ObjectId C(std::uint32_t i) const { return ObjectId(ps_.c, i); }

  PairSchema ps_;
};

TEST_F(Prop514Test, GuardAtLeastCounts) {
  ExecContext ctx;
  Instance instance(&ps_.schema);
  for (std::uint32_t i = 0; i < 4; ++i) {
    ASSERT_TRUE(instance.AddObject(C(i)).ok());
  }
  auto count_guard = [&](int n) {
    ExprPtr g = std::move(GuardAtLeastTuples("Ca", "C", "a", n)).value();
    auto receivers_or = ReceiversFromQuery(
        ra::Product(Expr::Relation("Cb"), g), instance,
        MethodSignature({ps_.c, ps_.c}), ctx);
    return std::move(receivers_or).value().size();
  };
  // One b-edge so Cb is non-empty; grow Ca and watch the guards flip.
  ASSERT_TRUE(instance.AddEdge(C(0), ps_.b, C(1)).ok());
  EXPECT_EQ(count_guard(2), 0u);
  EXPECT_EQ(count_guard(3), 0u);
  ASSERT_TRUE(instance.AddEdge(C(0), ps_.a, C(1)).ok());
  EXPECT_EQ(count_guard(2), 0u);
  ASSERT_TRUE(instance.AddEdge(C(1), ps_.a, C(2)).ok());
  EXPECT_EQ(count_guard(2), 1u);
  EXPECT_EQ(count_guard(3), 0u);
  ASSERT_TRUE(instance.AddEdge(C(2), ps_.a, C(3)).ok());
  EXPECT_EQ(count_guard(3), 1u);
}

/// The if-direction fails: M is order independent on every two-element
/// subset of Q(I), yet not Q-order independent.
TEST_F(Prop514Test, IfDirectionCounterexample) {
  ExecContext ctx;
  auto method = std::move(MakeConditionalDeleteMethod(ps_)).value();
  ExprPtr query = std::move(MakeProp514Query(ps_)).value();

  // The paper's instance: Ca = {(c1,α1),(c2,α2),(c3,α)} and
  // Cb = {(c1,α1),(c2,α2),(c3,β)} with α ≠ β.
  Instance instance(&ps_.schema);
  const ObjectId c1 = C(0), c2 = C(1), c3 = C(2);
  const ObjectId alpha1 = C(3), alpha2 = C(4), alpha = C(5), beta = C(6);
  for (ObjectId o : {c1, c2, c3, alpha1, alpha2, alpha, beta}) {
    ASSERT_TRUE(instance.AddObject(o).ok());
  }
  ASSERT_TRUE(instance.AddEdge(c1, ps_.a, alpha1).ok());
  ASSERT_TRUE(instance.AddEdge(c2, ps_.a, alpha2).ok());
  ASSERT_TRUE(instance.AddEdge(c3, ps_.a, alpha).ok());
  ASSERT_TRUE(instance.AddEdge(c1, ps_.b, alpha1).ok());
  ASSERT_TRUE(instance.AddEdge(c2, ps_.b, alpha2).ok());
  ASSERT_TRUE(instance.AddEdge(c3, ps_.b, beta).ok());

  std::vector<Receiver> q_receivers =
      std::move(ReceiversFromQuery(query, instance,
                                   MethodSignature({ps_.c, ps_.c}), ctx))
          .value();
  ASSERT_EQ(q_receivers.size(), 3u);  // the three Cb pairs (#Ca = 3)

  // Every two-element subset of Q(I) is order independent...
  for (std::size_t i = 0; i < q_receivers.size(); ++i) {
    for (std::size_t j = i + 1; j < q_receivers.size(); ++j) {
      std::vector<Receiver> pair = {q_receivers[i], q_receivers[j]};
      auto outcome =
          std::move(OrderIndependentOn(*method, instance, pair, ctx)).value();
      EXPECT_TRUE(outcome.order_independent) << i << "," << j;
    }
  }
  // ...but the full three-element Q(I) is not.
  auto full =
      std::move(OrderIndependentOn(*method, instance, q_receivers, ctx))
          .value();
  EXPECT_FALSE(full.order_independent);
}

/// The only-if direction fails: M is Q-order independent for Q = C×C×C,
/// yet some pair of receivers from Q(I) disagrees.
TEST_F(Prop514Test, OnlyIfDirectionCounterexample) {
  ExecContext ctx;
  auto method = std::move(MakeCopyExtendMethod(ps_)).value();
  ASSERT_TRUE(method->IsPositiveMethod());

  // The paper's instance: two objects, no edges.
  Instance instance(&ps_.schema);
  const ObjectId o1 = C(0), o2 = C(1);
  ASSERT_TRUE(instance.AddObject(o1).ok());
  ASSERT_TRUE(instance.AddObject(o2).ok());

  // The disagreeing pair t1 = (o1,o1,o1), t2 = (o1,o2,o1).
  Receiver t1 = Receiver::Unchecked({o1, o1, o1});
  Receiver t2 = Receiver::Unchecked({o1, o2, o1});
  std::vector<Receiver> ab = {t1, t2}, ba = {t2, t1};
  Instance iab = std::move(ApplySequence(*method, instance, ab, ctx)).value();
  Instance iba = std::move(ApplySequence(*method, instance, ba, ctx)).value();
  EXPECT_EQ(iab.Targets(o1, ps_.a), (std::vector<ObjectId>{o1}));
  EXPECT_EQ(iba.Targets(o1, ps_.a), (std::vector<ObjectId>{o2}));
  EXPECT_FALSE(iab == iba);

  // Yet the *full* receiver set Q(I) = C×C×C is order independent: every
  // enumeration ends with every object linked to all objects by a and b.
  std::vector<Receiver> all = InstanceGenerator::AllReceivers(
      instance, MethodSignature({ps_.c, ps_.c, ps_.c}));
  ASSERT_EQ(all.size(), 8u);
  // 8! = 40320 permutations is too many; sample prefixes of the
  // lexicographic enumeration plus reversed and rotated orders.
  Instance reference =
      std::move(ApplySequence(*method, instance, all, ctx)).value();
  std::vector<Receiver> reversed(all.rbegin(), all.rend());
  EXPECT_EQ(std::move(ApplySequence(*method, instance, reversed, ctx)).value(),
            reference);
  for (std::size_t rot = 1; rot < all.size(); ++rot) {
    std::vector<Receiver> rotated(all.begin() + static_cast<std::ptrdiff_t>(rot),
                                  all.end());
    rotated.insert(rotated.end(), all.begin(),
                   all.begin() + static_cast<std::ptrdiff_t>(rot));
    EXPECT_EQ(std::move(ApplySequence(*method, instance, rotated, ctx)).value(),
              reference);
  }
  // The expected final state: both o1 and o2 have {o1, o2} as a- and
  // b-targets (every object ends with all other objects, Prop 5.14).
  for (ObjectId o : {o1, o2}) {
    EXPECT_EQ(reference.Targets(o, ps_.a), (std::vector<ObjectId>{o1, o2}));
    EXPECT_EQ(reference.Targets(o, ps_.b), (std::vector<ObjectId>{o1, o2}));
  }
}

TEST(QueryOrderRefuterTest, FindsAndMissesWitnessesAsExpected) {
  ExecContext ctx;
  // Q = D × Ba (all receiver pairs). favorite_bar is not Q-order
  // independent (same drinker, different bars); add_bar is.
  DrinkersSchema ds = std::move(MakeDrinkersSchema()).value();
  ExprPtr q = ra::Product(Expr::Relation("D"), Expr::Relation("Ba"));
  InstanceGenerator::Options options;
  options.min_objects_per_class = 1;
  options.max_objects_per_class = 2;
  options.edge_probability = 0.4;

  auto favorite = std::move(MakeFavoriteBar(ds)).value();
  auto witness = std::move(SearchQueryOrderDependenceWitness(
                               *favorite, q, ds.schema, 5, 10, options, 5, ctx))
                     .value();
  ASSERT_TRUE(witness.has_value());
  EXPECT_FALSE(witness->outcome.order_independent);

  auto add_bar = std::move(MakeAddBar(ds)).value();
  auto none = std::move(SearchQueryOrderDependenceWitness(
                            *add_bar, q, ds.schema, 5, 10, options, 5, ctx))
                  .value();
  EXPECT_FALSE(none.has_value());
}

TEST_F(Prop514Test, QueryOrderRefuterFindsTheProp514Witness) {
  ExecContext ctx;
  // The paper's M₁/Q pair: the refuter must eventually hit an instance
  // where the full Q(I) has disagreeing enumerations, even though every
  // *pair* from Q(I) agrees.
  auto method = std::move(MakeConditionalDeleteMethod(ps_)).value();
  ExprPtr query = std::move(MakeProp514Query(ps_)).value();
  InstanceGenerator::Options options;
  options.min_objects_per_class = 5;
  options.max_objects_per_class = 8;
  options.edge_probability = 0.12;
  auto witness = std::move(SearchQueryOrderDependenceWitness(
                               *method, query, ps_.schema, 14, 60, options,
                               5, ctx))
                     .value();
  ASSERT_TRUE(witness.has_value());
  EXPECT_FALSE(witness->outcome.order_independent);
}

TEST_F(Prop514Test, CopyExtendDecisionVerdicts) {
  // copy_extend is key-order independent (distinct receiving objects touch
  // disjoint rows and read only their own), but not absolutely so.
  auto method = std::move(MakeCopyExtendMethod(ps_)).value();
  EXPECT_FALSE(std::move(DecideOrderIndependence(
                             *method, OrderIndependenceKind::kAbsolute))
                   .value());
  EXPECT_TRUE(std::move(DecideOrderIndependence(
                            *method, OrderIndependenceKind::kKeyOrder))
                  .value());
}

}  // namespace
}  // namespace setrec
