// Tests for algebraic update methods (Section 5): application semantics
// (Definition 5.4), the paper's named methods (Examples 2.7, 4.15, 5.5,
// 5.11) against Figures 2-5, validation rules and positivity.

#include <gtest/gtest.h>

#include "algebraic/method_library.h"
#include "algebraic/order_independence.h"
#include "core/sequential.h"
#include "relational/builder.h"

namespace setrec {
namespace {

class DrinkersTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ds_ = std::move(MakeDrinkersSchema()).value();
    figure2_ = std::make_unique<Instance>(&ds_.schema);
    drinker1_ = ObjectId(ds_.drinker, 1);
    bar1_ = ObjectId(ds_.bar, 1);
    bar2_ = ObjectId(ds_.bar, 2);
    bar3_ = ObjectId(ds_.bar, 3);
    ASSERT_TRUE(figure2_->AddObject(drinker1_).ok());
    for (ObjectId b : {bar1_, bar2_, bar3_}) {
      ASSERT_TRUE(figure2_->AddObject(b).ok());
    }
    ASSERT_TRUE(figure2_->AddEdge(drinker1_, ds_.frequents, bar1_).ok());
    ASSERT_TRUE(figure2_->AddEdge(drinker1_, ds_.frequents, bar2_).ok());
  }

  std::vector<ObjectId> Frequented(const Instance& i) const {
    return i.Targets(drinker1_, ds_.frequents);
  }

  DrinkersSchema ds_;
  std::unique_ptr<Instance> figure2_;
  ObjectId drinker1_{0, 0}, bar1_{0, 0}, bar2_{0, 0}, bar3_{0, 0};
};

TEST_F(DrinkersTest, AddBarMatchesFigure3) {
  auto add_bar = std::move(MakeAddBar(ds_)).value();
  Receiver r = Receiver::Unchecked({drinker1_, bar3_});
  Instance figure3 = std::move(add_bar->Apply(*figure2_, r)).value();
  EXPECT_EQ(Frequented(figure3), (std::vector<ObjectId>{bar1_, bar2_, bar3_}));
  // Nothing else changed.
  EXPECT_EQ(figure3.num_objects(), figure2_->num_objects());
  EXPECT_EQ(figure3.num_edges(), figure2_->num_edges() + 1);
}

TEST_F(DrinkersTest, FavoriteBarMatchesFigure4) {
  auto favorite = std::move(MakeFavoriteBar(ds_)).value();
  Receiver r = Receiver::Unchecked({drinker1_, bar1_});
  Instance figure4 = std::move(favorite->Apply(*figure2_, r)).value();
  EXPECT_EQ(Frequented(figure4), (std::vector<ObjectId>{bar1_}));
}

TEST_F(DrinkersTest, FavoriteBarSequenceMatchesFigure5) {
  ExecContext ctx;
  auto favorite = std::move(MakeFavoriteBar(ds_)).value();
  std::vector<Receiver> order = {Receiver::Unchecked({drinker1_, bar1_}),
                                 Receiver::Unchecked({drinker1_, bar3_})};
  Instance figure5 = std::move(ApplySequence(*favorite, *figure2_, order, ctx))
                         .value();
  EXPECT_EQ(Frequented(figure5), (std::vector<ObjectId>{bar3_}));
  // The reverse order ends at bar1 (Example 3.2): order dependent.
  std::vector<Receiver> reversed = {order[1], order[0]};
  Instance other = std::move(ApplySequence(*favorite, *figure2_, reversed, ctx))
                       .value();
  EXPECT_EQ(Frequented(other), (std::vector<ObjectId>{bar1_}));
  EXPECT_FALSE(figure5 == other);
}

TEST_F(DrinkersTest, ExhaustiveOrderIndependenceOnFigure2) {
  ExecContext ctx;
  auto add_bar = std::move(MakeAddBar(ds_)).value();
  auto favorite = std::move(MakeFavoriteBar(ds_)).value();
  std::vector<Receiver> receivers = {Receiver::Unchecked({drinker1_, bar1_}),
                                     Receiver::Unchecked({drinker1_, bar3_})};
  auto add_outcome =
      std::move(OrderIndependentOn(*add_bar, *figure2_, receivers, ctx))
          .value();
  EXPECT_TRUE(add_outcome.order_independent);
  ASSERT_TRUE(add_outcome.result.has_value());
  auto fav_outcome =
      std::move(OrderIndependentOn(*favorite, *figure2_, receivers, ctx))
          .value();
  EXPECT_FALSE(fav_outcome.order_independent);
  ASSERT_TRUE(fav_outcome.result_a.has_value());
  ASSERT_TRUE(fav_outcome.result_b.has_value());
  EXPECT_FALSE(*fav_outcome.result_a == *fav_outcome.result_b);
}

TEST_F(DrinkersTest, DeleteBarRemovesOnlyTheArgument) {
  auto delete_bar = std::move(MakeDeleteBar(ds_)).value();
  EXPECT_TRUE(delete_bar->IsPositiveMethod());  // Example 5.11's point
  Receiver r = Receiver::Unchecked({drinker1_, bar1_});
  Instance after = std::move(delete_bar->Apply(*figure2_, r)).value();
  EXPECT_EQ(Frequented(after), (std::vector<ObjectId>{bar2_}));
  // Deleting a bar not frequented is a no-op.
  Receiver r3 = Receiver::Unchecked({drinker1_, bar3_});
  Instance same = std::move(delete_bar->Apply(*figure2_, r3)).value();
  EXPECT_EQ(same, *figure2_);
}

TEST_F(DrinkersTest, LikesServesAddsBarsServingLikedBeers) {
  // Example 4.15: extend Figure 2 with beers; Bar_3 serves a liked beer.
  Instance instance = *figure2_;
  const ObjectId duvel(ds_.beer, 0), bud(ds_.beer, 1);
  ASSERT_TRUE(instance.AddObject(duvel).ok());
  ASSERT_TRUE(instance.AddObject(bud).ok());
  ASSERT_TRUE(instance.AddEdge(drinker1_, ds_.likes, duvel).ok());
  ASSERT_TRUE(instance.AddEdge(bar3_, ds_.serves, duvel).ok());
  ASSERT_TRUE(instance.AddEdge(bar2_, ds_.serves, bud).ok());

  auto method = std::move(MakeLikesServesBar(ds_)).value();
  Receiver r = Receiver::Unchecked({drinker1_});
  Instance after = std::move(method->Apply(instance, r)).value();
  EXPECT_EQ(Frequented(after), (std::vector<ObjectId>{bar1_, bar2_, bar3_}));
  // Inflationary (its minimal coloring is simple, Proposition 4.10).
  EXPECT_TRUE(instance.IsSubInstanceOf(after));
}

TEST_F(DrinkersTest, ApplyRejectsInvalidReceivers) {
  auto favorite = std::move(MakeFavoriteBar(ds_)).value();
  Receiver missing = Receiver::Unchecked({drinker1_, ObjectId(ds_.bar, 9)});
  EXPECT_EQ(favorite->Apply(*figure2_, missing).status().code(),
            StatusCode::kFailedPrecondition);
  Receiver wrong_arity = Receiver::Unchecked({drinker1_});
  EXPECT_FALSE(favorite->Apply(*figure2_, wrong_arity).ok());
}

TEST_F(DrinkersTest, MakeValidatesStatements) {
  // serves is not a property of the receiving class Drinker.
  auto bad = AlgebraicUpdateMethod::Make(
      &ds_.schema, MethodSignature({ds_.drinker, ds_.bar}), "bad",
      {UpdateStatement{ds_.serves, Expr::Relation("arg1")}});
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);

  // Two statements on the same property (Definition 5.4(4)).
  auto dup = AlgebraicUpdateMethod::Make(
      &ds_.schema, MethodSignature({ds_.drinker, ds_.bar}), "dup",
      {UpdateStatement{ds_.frequents, Expr::Relation("arg1")},
       UpdateStatement{ds_.frequents, Expr::Relation("arg1")}});
  EXPECT_EQ(dup.status().code(), StatusCode::kInvalidArgument);

  // Wrong domain: assigning beers to frequents.
  auto wrong = AlgebraicUpdateMethod::Make(
      &ds_.schema, MethodSignature({ds_.drinker, ds_.beer}), "wrong",
      {UpdateStatement{ds_.frequents, Expr::Relation("arg1")}});
  EXPECT_EQ(wrong.status().code(), StatusCode::kInvalidArgument);

  // Non-unary expression.
  auto wide = AlgebraicUpdateMethod::Make(
      &ds_.schema, MethodSignature({ds_.drinker, ds_.bar}), "wide",
      {UpdateStatement{ds_.frequents, Expr::Relation("Df")}});
  EXPECT_EQ(wide.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(DrinkersTest, PositivityDetection) {
  EXPECT_TRUE(std::move(MakeAddBar(ds_)).value()->IsPositiveMethod());
  EXPECT_TRUE(std::move(MakeFavoriteBar(ds_)).value()->IsPositiveMethod());
  // A difference-using method is not positive.
  ExprPtr all_bars = ra::Rename(ra::Rel("Ba"), "Ba", "f");
  ExprPtr current = ra::Project(
      ra::JoinEq(ra::Rel("self"), ra::Rel("Df"), "self", "D"), {"f"});
  auto complement = AlgebraicUpdateMethod::Make(
      &ds_.schema, MethodSignature({ds_.drinker}), "complement",
      {UpdateStatement{ds_.frequents, ra::Diff(all_bars, current)}});
  ASSERT_TRUE(complement.ok());
  EXPECT_FALSE((*complement)->IsPositiveMethod());
}

TEST_F(DrinkersTest, MethodToStringMentionsStatements) {
  auto add_bar = std::move(MakeAddBar(ds_)).value();
  const std::string s = add_bar->ToString();
  EXPECT_NE(s.find("add_bar"), std::string::npos);
  EXPECT_NE(s.find("f :="), std::string::npos);
}

TEST(MethodLibraryTest, TransitiveClosureStepMatchesExample64) {
  TcSchema tc = std::move(MakeTcSchema()).value();
  auto method = std::move(MakeTransitiveClosureMethod(tc)).value();
  // Path 0 -> 1 -> 2 in e; receiver (0, anything) derives 0's tc edges from
  // e plus one step through existing tc.
  Instance instance(&tc.schema);
  const ObjectId n0(tc.c, 0), n1(tc.c, 1), n2(tc.c, 2);
  for (ObjectId o : {n0, n1, n2}) ASSERT_TRUE(instance.AddObject(o).ok());
  ASSERT_TRUE(instance.AddEdge(n0, tc.e, n1).ok());
  ASSERT_TRUE(instance.AddEdge(n1, tc.e, n2).ok());

  Receiver r0 = Receiver::Unchecked({n0, n0});
  Instance once = std::move(method->Apply(instance, r0)).value();
  EXPECT_EQ(once.Targets(n0, tc.tc), (std::vector<ObjectId>{n1}));

  // After receiver 1 seeds tc(1) = {2}, re-applying at 0 adds the 2-step.
  Receiver r1 = Receiver::Unchecked({n1, n1});
  Instance twice = std::move(method->Apply(once, r1)).value();
  Instance thrice = std::move(method->Apply(twice, r0)).value();
  EXPECT_EQ(thrice.Targets(n0, tc.tc), (std::vector<ObjectId>{n1, n2}));
}

TEST(MethodLibraryTest, ReceiversFromQueryChecksSchemes) {
  ExecContext ctx;
  PairSchema ps = std::move(MakePairSchema()).value();
  Instance instance(&ps.schema);
  const ObjectId n0(ps.c, 0), n1(ps.c, 1);
  ASSERT_TRUE(instance.AddObject(n0).ok());
  ASSERT_TRUE(instance.AddObject(n1).ok());
  ASSERT_TRUE(instance.AddEdge(n0, ps.b, n1).ok());

  MethodSignature sig({ps.c, ps.c});
  auto receivers =
      ReceiversFromQuery(Expr::Relation("Cb"), instance, sig, ctx);
  ASSERT_TRUE(receivers.ok());
  ASSERT_EQ(receivers->size(), 1u);
  EXPECT_EQ((*receivers)[0].receiving_object(), n0);
  EXPECT_EQ((*receivers)[0].arg(0), n1);

  // Arity mismatch.
  MethodSignature wide({ps.c, ps.c, ps.c});
  EXPECT_FALSE(
      ReceiversFromQuery(Expr::Relation("Cb"), instance, wide, ctx).ok());
}

}  // namespace
}  // namespace setrec
