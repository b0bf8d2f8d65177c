// Tests for the Section 5 reduction gadgets: the Lemma 5.3 binary-relation
// representation and the Theorem 5.6 equivalence-to-order-independence
// gadget (whose non-positivity is exactly Corollary 5.7's undecidability
// frontier).

#include <gtest/gtest.h>

#include "algebraic/gadgets.h"
#include "algebraic/method_library.h"
#include "algebraic/order_independence.h"
#include "core/sequential.h"
#include "objrel/encoding.h"
#include "relational/builder.h"
#include "relational/evaluator.h"

namespace setrec {
namespace {

TEST(Lemma53Test, BinaryRelationRoundTrips) {
  BinaryRelationRepresentation rep =
      std::move(MakeBinaryRelationSchema()).value();
  std::vector<std::pair<std::uint32_t, std::uint32_t>> pairs = {
      {0, 1}, {1, 1}, {2, 0}};
  Instance instance = std::move(RepresentBinaryRelation(rep, pairs)).value();
  EXPECT_EQ(instance.objects(rep.tuple_class).size(), pairs.size());

  Database db = std::move(EncodeInstance(instance)).value();
  Relation recovered =
      std::move(Evaluate(RecoverBinaryRelation(rep), db)).value();
  ASSERT_EQ(recovered.size(), pairs.size());
  for (const auto& [a, b] : pairs) {
    EXPECT_TRUE(recovered.Contains(Tuple{ObjectId(rep.domain_class, a),
                                         ObjectId(rep.domain_class, b)}));
  }
}

TEST(Lemma53Test, EmptyRelationRepresentsEmptyInstance) {
  BinaryRelationRepresentation rep =
      std::move(MakeBinaryRelationSchema()).value();
  Instance instance = std::move(RepresentBinaryRelation(rep, {})).value();
  EXPECT_EQ(instance.num_objects(), 0u);
  Database db = std::move(EncodeInstance(instance)).value();
  Relation recovered =
      std::move(Evaluate(RecoverBinaryRelation(rep), db)).value();
  EXPECT_TRUE(recovered.empty());
}

class GadgetTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Base schema: one class P with property e : P → P.
    ClassId p = std::move(base_.AddClass("P")).value();
    PropertyId e = std::move(base_.AddProperty("e", p, p)).value();
    p_ = p;
    e_ = e;
  }

  Schema base_;
  ClassId p_ = 0;
  PropertyId e_ = 0;
};

TEST_F(GadgetTest, InequivalentExpressionsGiveOrderDependence) {
  ExecContext ctx;
  // e1 = ∅-test on Pe; e2 = test on P itself. On an instance with P-objects
  // but no e-edges they disagree about emptiness.
  EquivalenceGadget gadget =
      std::move(MakeEquivalenceGadget(base_, ra::Rel("Pe"), ra::Rel("P")))
          .value();
  EXPECT_FALSE(gadget.method->IsPositiveMethod());  // Corollary 5.7
  EXPECT_EQ(DecideOrderIndependence(*gadget.method,
                                    OrderIndependenceKind::kAbsolute)
                .status()
                .code(),
            StatusCode::kInvalidArgument);

  Instance base_instance(gadget.schema.get());
  ASSERT_TRUE(base_instance.AddObject(ObjectId(p_, 0)).ok());  // no e-edges

  GadgetDemonstration demo =
      std::move(MakeGadgetDemonstration(gadget, base_instance)).value();
  std::vector<Receiver> receivers = {demo.first, demo.second};
  auto outcome = std::move(OrderIndependentOn(*gadget.method, demo.instance,
                                              receivers, ctx))
                     .value();
  EXPECT_FALSE(outcome.order_independent);

  // The disagreement is exactly the proof's: one order leaves a gb-edge at
  // the first receiver, the other does not.
  ASSERT_TRUE(outcome.result_a.has_value());
  ASSERT_TRUE(outcome.result_b.has_value());
  const ObjectId o = demo.first.receiving_object();
  const bool a_has = !outcome.result_a->Targets(o, gadget.gb).empty();
  const bool b_has = !outcome.result_b->Targets(o, gadget.gb).empty();
  EXPECT_NE(a_has, b_has);
}

TEST_F(GadgetTest, EquivalentExpressionsGiveOrderIndependence) {
  ExecContext ctx;
  // Syntactically different but equivalent: Pe vs Pe ∪ Pe.
  ExprPtr pe = ra::Rel("Pe");
  EquivalenceGadget gadget =
      std::move(MakeEquivalenceGadget(base_, pe, ra::Union(pe, pe))).value();

  // With and without e-edges, every demonstration pair agrees.
  for (bool with_edge : {false, true}) {
    Instance base_instance(gadget.schema.get());
    ASSERT_TRUE(base_instance.AddObject(ObjectId(p_, 0)).ok());
    if (with_edge) {
      ASSERT_TRUE(
          base_instance.AddEdge(ObjectId(p_, 0), e_, ObjectId(p_, 0)).ok());
    }
    GadgetDemonstration demo =
        std::move(MakeGadgetDemonstration(gadget, base_instance)).value();
    std::vector<Receiver> receivers = {demo.first, demo.second};
    auto outcome = std::move(OrderIndependentOn(*gadget.method,
                                                demo.instance, receivers, ctx))
                       .value();
    EXPECT_TRUE(outcome.order_independent) << "with_edge=" << with_edge;
  }

  // And the randomized refuter over the whole gadget schema finds nothing.
  InstanceGenerator::Options options;
  options.min_objects_per_class = 1;
  options.max_objects_per_class = 3;
  options.edge_probability = 0.5;
  auto witness = std::move(SearchOrderDependenceWitness(
                               *gadget.method, *gadget.schema, 21, 6,
                               options, false, ctx))
                     .value();
  EXPECT_FALSE(witness.has_value());
}

TEST_F(GadgetTest, RejectsInstancesWithGadgetObjects) {
  EquivalenceGadget gadget =
      std::move(MakeEquivalenceGadget(base_, ra::Rel("P"), ra::Rel("P")))
          .value();
  Instance bad(gadget.schema.get());
  ASSERT_TRUE(bad.AddObject(ObjectId(gadget.gadget_class, 0)).ok());
  EXPECT_EQ(MakeGadgetDemonstration(gadget, bad).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(DecisionReportTest, ReportsUnionWidthsAndPruning) {
  DrinkersSchema ds = std::move(MakeDrinkersSchema()).value();
  auto add_bar = std::move(MakeAddBar(ds)).value();
  DecisionReport report =
      std::move(DecideOrderIndependenceDetailed(
                    *add_bar, OrderIndependenceKind::kAbsolute))
          .value();
  EXPECT_TRUE(report.order_independent);
  ASSERT_EQ(report.properties.size(), 1u);
  const auto& d = report.properties[0];
  EXPECT_EQ(d.property, ds.frequents);
  EXPECT_TRUE(d.equivalent);
  EXPECT_GT(d.raw_disjuncts_tt, 0u);
  EXPECT_LE(d.pruned_disjuncts_tt, d.raw_disjuncts_tt);
  EXPECT_LE(d.pruned_disjuncts_ts, d.raw_disjuncts_ts);

  auto favorite = std::move(MakeFavoriteBar(ds)).value();
  DecisionReport fav = std::move(DecideOrderIndependenceDetailed(
                                     *favorite,
                                     OrderIndependenceKind::kAbsolute))
                           .value();
  EXPECT_FALSE(fav.order_independent);
  ASSERT_EQ(fav.properties.size(), 1u);
  EXPECT_FALSE(fav.properties[0].equivalent);
}

}  // namespace
}  // namespace setrec
