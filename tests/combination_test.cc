// The "coarser grained" combination semantics from the end of Section 1:
// the Abiteboul–Vianu union combination and the refined operator
// ∩i Di ∪ ∪i (Di − D).

#include <gtest/gtest.h>

#include "algebraic/method_library.h"
#include "core/combination.h"
#include "core/instance_generator.h"
#include "core/sequential.h"

namespace setrec {
namespace {

class CombinationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ds_ = std::move(MakeDrinkersSchema()).value();
    instance_ = std::make_unique<Instance>(&ds_.schema);
    d_ = ObjectId(ds_.drinker, 0);
    b0_ = ObjectId(ds_.bar, 0);
    b1_ = ObjectId(ds_.bar, 1);
    b2_ = ObjectId(ds_.bar, 2);
    ASSERT_TRUE(instance_->AddObject(d_).ok());
    for (ObjectId b : {b0_, b1_, b2_}) {
      ASSERT_TRUE(instance_->AddObject(b).ok());
    }
    ASSERT_TRUE(instance_->AddEdge(d_, ds_.frequents, b0_).ok());
  }

  DrinkersSchema ds_;
  std::unique_ptr<Instance> instance_;
  ObjectId d_{0, 0}, b0_{0, 0}, b1_{0, 0}, b2_{0, 0};
};

TEST_F(CombinationTest, EmptyReceiverSetIsIdentity) {
  auto add_bar = std::move(MakeAddBar(ds_)).value();
  EXPECT_EQ(std::move(ApplyCombinationUnion(*add_bar, *instance_, {}))
                .value(),
            *instance_);
  EXPECT_EQ(std::move(ApplyCombinationRefined(*add_bar, *instance_, {}))
                .value(),
            *instance_);
}

TEST_F(CombinationTest, UnionCombinationCollectsAllAdditions) {
  ExecContext ctx;
  auto add_bar = std::move(MakeAddBar(ds_)).value();
  std::vector<Receiver> receivers = {Receiver::Unchecked({d_, b1_}),
                                     Receiver::Unchecked({d_, b2_})};
  Instance combined =
      std::move(ApplyCombinationUnion(*add_bar, *instance_, receivers))
          .value();
  EXPECT_EQ(combined.Targets(d_, ds_.frequents),
            (std::vector<ObjectId>{b0_, b1_, b2_}));
  // For the inflationary add_bar, union combination equals sequential
  // application.
  Instance sequential =
      std::move(ApplySequence(*add_bar, *instance_, receivers, ctx)).value();
  EXPECT_EQ(combined, sequential);
}

TEST_F(CombinationTest, UnionCombinationLosesDeletions) {
  // For favorite_bar the union combination keeps everything every branch
  // kept: D1 = {b1}, D2 = {b2}, so the union holds both new bars — and the
  // old bar b0 is restored by neither... D1 lacks b0 and D2 lacks b0, so
  // b0 disappears; but b1 ∈ D1 and b2 ∈ D2 both survive, unlike any
  // sequential outcome.
  auto favorite = std::move(MakeFavoriteBar(ds_)).value();
  std::vector<Receiver> receivers = {Receiver::Unchecked({d_, b1_}),
                                     Receiver::Unchecked({d_, b2_})};
  Instance combined =
      std::move(ApplyCombinationUnion(*favorite, *instance_, receivers))
          .value();
  EXPECT_EQ(combined.Targets(d_, ds_.frequents),
            (std::vector<ObjectId>{b1_, b2_}));
}

TEST_F(CombinationTest, RefinedCombinationAgreesOnDeletes) {
  ExecContext ctx;
  // delete_bar: D1 deletes b0, D2 deletes nothing (b1 not frequented).
  // Refined: (D1 ∩ D2) ∪ (D1 − D) ∪ (D2 − D): the deletion of b0 sticks
  // (b0-edge ∉ D1), and nothing is spuriously added — matching the
  // sequential result. Plain union would resurrect the deleted edge.
  auto delete_bar = std::move(MakeDeleteBar(ds_)).value();
  std::vector<Receiver> receivers = {Receiver::Unchecked({d_, b0_}),
                                     Receiver::Unchecked({d_, b1_})};
  Instance refined =
      std::move(ApplyCombinationRefined(*delete_bar, *instance_, receivers))
          .value();
  Instance sequential =
      std::move(ApplySequence(*delete_bar, *instance_, receivers, ctx)).value();
  EXPECT_EQ(refined, sequential);
  EXPECT_TRUE(refined.Targets(d_, ds_.frequents).empty());

  Instance unioned =
      std::move(ApplyCombinationUnion(*delete_bar, *instance_, receivers))
          .value();
  EXPECT_EQ(unioned.Targets(d_, ds_.frequents),
            (std::vector<ObjectId>{b0_}));
}

/// On key sets, the refined combination coincides with sequential
/// application for the key-order independent library methods (they modify
/// disjoint rows, so intersections and additions recombine exactly).
class RefinedCombinationProperty
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RefinedCombinationProperty, MatchesSequentialOnKeySets) {
  ExecContext ctx;
  DrinkersSchema ds = std::move(MakeDrinkersSchema()).value();
  InstanceGenerator gen(&ds.schema, GetParam());
  InstanceGenerator::Options options;
  options.min_objects_per_class = 2;
  options.max_objects_per_class = 4;
  options.edge_probability = 0.4;
  Instance instance = gen.RandomInstance(options);

  std::vector<std::unique_ptr<AlgebraicUpdateMethod>> methods;
  methods.push_back(std::move(MakeAddBar(ds)).value());
  methods.push_back(std::move(MakeFavoriteBar(ds)).value());
  methods.push_back(std::move(MakeDeleteBar(ds)).value());
  for (const auto& method : methods) {
    std::vector<Receiver> keys =
        gen.RandomKeySet(instance, method->signature(), 3);
    Instance sequential =
        std::move(ApplySequence(*method, instance, keys, ctx)).value();
    Instance refined =
        std::move(ApplyCombinationRefined(*method, instance, keys)).value();
    EXPECT_EQ(sequential, refined) << method->name();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RefinedCombinationProperty,
                         ::testing::Range<std::uint64_t>(1, 13));

}  // namespace
}  // namespace setrec
