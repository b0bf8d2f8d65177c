// Differential tests for the Instance mutation journal: over seeded random
// mutation programs — no-ops, add-then-remove of one item, removal of
// objects that have edges, ClearEdgesFrom and whole-instance assignment —
// the journal's delta must equal DiffInstances(before, after) and print the
// same WAL text, Rollback() must restore `before` bit-identically, and
// ApplyDelta(before, delta) must reproduce `after`. The commit paths of the
// SQL engine, the durable store, the transaction layer and the server all
// rest on these three equalities.

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <utility>
#include <vector>

#include "algebraic/method_library.h"
#include "core/ids.h"
#include "core/instance.h"
#include "core/instance_generator.h"
#include "core/receiver.h"
#include "core/schema.h"
#include "core/sequential.h"
#include "core/status.h"
#include "core/update_method.h"
#include "text/printer.h"

namespace setrec {
namespace {

/// A uniformly drawn member of a non-empty ordered set.
template <typename Set>
auto Pick(const Set& set, SplitMix64& rng) {
  auto it = set.begin();
  std::advance(it, static_cast<std::ptrdiff_t>(rng.UniformInt(set.size())));
  return *it;
}

ObjectId AnyObject(const Schema& schema, SplitMix64& rng) {
  return ObjectId(static_cast<ClassId>(rng.UniformInt(schema.num_classes())),
                  static_cast<std::uint32_t>(rng.UniformInt(12)));
}

/// An edge of some property between objects that may or may not exist.
Edge AnyEdge(const Schema& schema, SplitMix64& rng) {
  const auto p = static_cast<PropertyId>(rng.UniformInt(schema.num_properties()));
  const Schema::PropertyDef& def = schema.property(p);
  return Edge{ObjectId(def.source, static_cast<std::uint32_t>(rng.UniformInt(12))),
              p,
              ObjectId(def.target, static_cast<std::uint32_t>(rng.UniformInt(12)))};
}

/// One random mutation of `instance`. Invalid requests (an edge whose
/// endpoint is absent) fail without effect, like every no-op.
void MutateOnce(Instance& instance, const Schema& schema, SplitMix64& rng,
                std::uint64_t seed) {
  switch (rng.UniformInt(9)) {
    case 0:
      (void)instance.AddObject(AnyObject(schema, rng));
      break;
    case 1: {
      // Removal of an object that (usually) has edges.
      const ObjectId o = AnyObject(schema, rng);
      (void)instance.RemoveObject(o);
      break;
    }
    case 2: {
      const Edge e = AnyEdge(schema, rng);
      (void)instance.AddEdge(e);
      break;
    }
    case 3: {
      // An existing edge, so the removal is effective.
      const auto p =
          static_cast<PropertyId>(rng.UniformInt(schema.num_properties()));
      if (instance.edges(p).empty()) break;
      const auto [source, target] = Pick(instance.edges(p), rng);
      (void)instance.RemoveEdge(source, p, target);
      break;
    }
    case 4: {
      const Edge e = AnyEdge(schema, rng);
      (void)instance.ClearEdgesFrom(e.source, e.property);
      break;
    }
    case 5: {
      // No-ops: re-add a present item, remove an absent one.
      const std::vector<ObjectId> objects = instance.AllObjects();
      if (!objects.empty()) (void)instance.AddObject(Pick(objects, rng));
      const std::vector<Edge> edges = instance.AllEdges();
      if (!edges.empty()) (void)instance.AddEdge(Pick(edges, rng));
      (void)instance.RemoveObject(ObjectId(0, 1000));
      const Edge e = AnyEdge(schema, rng);
      if (!instance.HasEdge(e.source, e.property, e.target)) {
        (void)instance.RemoveEdge(e.source, e.property, e.target);
      }
      break;
    }
    case 6: {
      // Add-then-remove of one item: cancels out of the delta.
      const ObjectId o(0, 500 + static_cast<std::uint32_t>(rng.UniformInt(4)));
      (void)instance.AddObject(o);
      (void)instance.RemoveObject(o);
      const Edge e = AnyEdge(schema, rng);
      if (!instance.HasEdge(e.source, e.property, e.target) &&
          instance.AddEdge(e).ok()) {
        (void)instance.RemoveEdge(e.source, e.property, e.target);
      }
      break;
    }
    case 7: {
      // Remove-then-re-add: also cancels, though the cascade is gone.
      const std::vector<Edge> edges = instance.AllEdges();
      if (edges.empty()) break;
      const Edge e = Pick(edges, rng);
      (void)instance.RemoveObject(e.source);
      (void)instance.AddObject(e.source);
      break;
    }
    default: {
      // Whole-instance assignment, by copy or by move.
      InstanceGenerator gen(&schema, seed * 31 + rng.Next() % 1000);
      InstanceGenerator::Options options;
      options.max_objects_per_class = 6;
      Instance other = gen.RandomInstance(options);
      if (rng.Bernoulli(0.5)) {
        instance = other;
      } else {
        instance = std::move(other);
      }
      break;
    }
  }
}

class JournalTest : public ::testing::Test {
 protected:
  void SetUp() override { ds_ = std::move(MakeDrinkersSchema()).value(); }

  Instance Generate(std::uint64_t seed) const {
    InstanceGenerator gen(&ds_.schema, seed);
    InstanceGenerator::Options options;
    options.min_objects_per_class = 4;
    options.max_objects_per_class = 10;
    options.edge_probability = 0.3;
    return gen.RandomInstance(options);
  }

  DrinkersSchema ds_;
};

TEST_F(JournalTest, RandomProgramsMatchTheDiffOracle) {
  std::size_t nonempty = 0;
  for (std::uint64_t seed = 0; seed < 64; ++seed) {
    const Instance before = Generate(seed);
    Instance instance = before;
    SplitMix64 rng(seed * 7919 + 3);
    const std::size_t length = 1 + rng.UniformInt(12);
    instance.BeginJournal();
    for (std::size_t i = 0; i < length; ++i) {
      MutateOnce(instance, ds_.schema, rng, seed);
    }
    const Instance after = instance;
    const InstanceDelta delta = instance.JournalDelta();
    const InstanceDelta oracle = DiffInstances(before, after);
    ASSERT_EQ(delta, oracle) << "seed " << seed;
    EXPECT_EQ(DeltaToText(delta, ds_.schema), DeltaToText(oracle, ds_.schema))
        << "seed " << seed;
    if (!delta.empty()) ++nonempty;

    Instance replayed = before;
    ASSERT_TRUE(ApplyDelta(replayed, delta).ok()) << "seed " << seed;
    EXPECT_TRUE(replayed == after) << "seed " << seed;

    instance.Rollback();
    EXPECT_TRUE(instance == before) << "seed " << seed;
    EXPECT_TRUE(instance.JournalDelta().empty()) << "seed " << seed;
    instance.EndJournal();
    EXPECT_FALSE(instance.journaling());
  }
  // The corpus must exercise real changes, not only cancellations.
  EXPECT_GT(nonempty, 32u);
}

/// The seeded programs above, run on an instance that shares its chunks
/// with a copy taken before the scope opens: neither the program, nor its
/// rollback, nor its commit may change the copy.
TEST_F(JournalTest, ACopyTakenBeforeTheScopeNeverChanges) {
  for (std::uint64_t seed = 0; seed < 64; ++seed) {
    for (const bool commit : {false, true}) {
      Instance instance = Generate(seed);
      const Instance copy = instance;
      const std::vector<ObjectId> objects = copy.AllObjects();
      const std::vector<Edge> edges = copy.AllEdges();
      SplitMix64 rng(seed * 7919 + 3);
      const std::size_t length = 1 + rng.UniformInt(12);
      instance.BeginJournal();
      for (std::size_t i = 0; i < length; ++i) {
        MutateOnce(instance, ds_.schema, rng, seed);
      }
      EXPECT_EQ(copy.AllObjects(), objects) << "seed " << seed;
      EXPECT_EQ(copy.AllEdges(), edges) << "seed " << seed;
      if (!commit) {
        instance.Rollback();
        EXPECT_TRUE(instance == copy) << "seed " << seed;
      }
      instance.EndJournal();
      EXPECT_EQ(copy.AllObjects(), objects) << "seed " << seed;
      EXPECT_EQ(copy.AllEdges(), edges) << "seed " << seed;
    }
  }
}

TEST_F(JournalTest, NoOpsRecordNothing) {
  Instance instance = Generate(5);
  const Instance before = instance;
  const Edge present = instance.AllEdges().front();
  instance.BeginJournal();
  ASSERT_TRUE(instance.AddObject(present.source).ok());
  ASSERT_TRUE(instance.AddEdge(present).ok());
  ASSERT_TRUE(instance.RemoveObject(ObjectId(ds_.drinker, 999)).ok());
  ASSERT_TRUE(instance.RemoveEdge(ObjectId(ds_.drinker, 999), ds_.frequents,
                                  ObjectId(ds_.bar, 0))
                  .ok());
  ASSERT_TRUE(instance.ClearEdgesFrom(ObjectId(ds_.drinker, 999), ds_.likes)
                  .ok());
  EXPECT_FALSE(instance.AddEdge(ObjectId(ds_.drinker, 999), ds_.frequents,
                                ObjectId(ds_.bar, 0))
                   .ok());
  EXPECT_TRUE(instance.JournalDelta().empty());
  instance.Rollback();
  EXPECT_TRUE(instance == before);
  instance.EndJournal();
}

TEST_F(JournalTest, RemovedObjectCarriesItsCascadedEdges) {
  Instance instance = Generate(9);
  const Edge e = instance.AllEdges().front();
  const Instance before = instance;
  instance.BeginJournal();
  ASSERT_TRUE(instance.RemoveObject(e.source).ok());
  const InstanceDelta delta = instance.JournalDelta();
  EXPECT_EQ(delta, DiffInstances(before, instance));
  EXPECT_EQ(delta.removed_objects, std::vector<ObjectId>{e.source});
  EXPECT_FALSE(delta.removed_edges.empty());
  instance.Rollback();
  EXPECT_TRUE(instance == before);
  instance.EndJournal();
}

TEST_F(JournalTest, NestedScopesAreSavepoints) {
  Instance instance = Generate(2);
  const Instance before = instance;
  instance.BeginJournal();
  ASSERT_TRUE(instance.AddObject(ObjectId(ds_.bar, 700)).ok());
  const Instance after_outer_step = instance;

  instance.BeginJournal();
  ASSERT_TRUE(instance.AddObject(ObjectId(ds_.beer, 700)).ok());
  EXPECT_EQ(instance.JournalDelta().added_objects,
            std::vector<ObjectId>{ObjectId(ds_.beer, 700)});
  instance.Rollback();  // undoes the inner scope only
  EXPECT_TRUE(instance == after_outer_step);
  ASSERT_TRUE(instance.AddEdge(ObjectId(ds_.drinker, 0), ds_.frequents,
                               ObjectId(ds_.bar, 700))
                  .ok());
  instance.EndJournal();  // the inner edge stays recorded in the outer scope

  EXPECT_EQ(instance.JournalDelta(), DiffInstances(before, instance));
  instance.Rollback();
  EXPECT_TRUE(instance == before);
  instance.EndJournal();
}

TEST_F(JournalTest, CopiesNeverInheritTheJournal) {
  Instance instance = Generate(3);
  instance.BeginJournal();
  ASSERT_TRUE(instance.AddObject(ObjectId(ds_.bar, 800)).ok());
  Instance copy = instance;
  EXPECT_FALSE(copy.journaling());
  ASSERT_TRUE(copy.AddObject(ObjectId(ds_.bar, 801)).ok());
  Instance moved = std::move(copy);
  EXPECT_FALSE(moved.journaling());
  EXPECT_EQ(instance.JournalDelta().added_objects,
            std::vector<ObjectId>{ObjectId(ds_.bar, 800)});
  instance.EndJournal();
}

TEST_F(JournalTest, AssignmentRecordsOneDiffAndRollsBack) {
  Instance instance = Generate(4);
  const Instance before = instance;
  const Instance other = Generate(40);
  instance.BeginJournal();
  const std::uint64_t diffs = InstanceCosts().diffs.value();
  instance = other;
  EXPECT_EQ(InstanceCosts().diffs.value() - diffs, 1u);
  EXPECT_EQ(instance.JournalDelta(), DiffInstances(before, other));
  ASSERT_TRUE(instance.RemoveObject(instance.AllObjects().front()).ok());
  EXPECT_EQ(instance.JournalDelta(), DiffInstances(before, instance));
  instance.Rollback();
  EXPECT_TRUE(instance == before);
  instance.EndJournal();
}

TEST_F(JournalTest, RunJournaledCommitsTheDeltaOrRollsBack) {
  const Instance before = Generate(6);
  const ObjectId fresh(ds_.bar, 900);

  // Success: the hook sees the journaled delta; the mutation stays.
  Instance instance = before;
  InstanceDelta seen;
  InstanceDelta committed;
  ASSERT_TRUE(RunJournaled(
                  instance, [&] { return instance.AddObject(fresh); },
                  [&](const InstanceDelta& d) {
                    seen = d;
                    return Status::OK();
                  },
                  &committed)
                  .ok());
  EXPECT_EQ(seen, DiffInstances(before, instance));
  EXPECT_EQ(committed, seen);
  EXPECT_FALSE(instance.journaling());

  // A veto rolls back.
  instance = before;
  Status vetoed = RunJournaled(
      instance, [&] { return instance.AddObject(fresh); },
      [](const InstanceDelta&) { return Status::Internal("veto"); });
  EXPECT_EQ(vetoed.code(), StatusCode::kInternal);
  EXPECT_TRUE(instance == before);

  // A failing body rolls back its partial effect and never reaches the hook.
  bool hooked = false;
  Status failed = RunJournaled(
      instance,
      [&]() -> Status {
        SETREC_RETURN_IF_ERROR(instance.AddObject(fresh));
        return instance.AddEdge(ObjectId(ds_.drinker, 999), ds_.frequents,
                                fresh);
      },
      [&](const InstanceDelta&) {
        hooked = true;
        return Status::OK();
      });
  EXPECT_FALSE(failed.ok());
  EXPECT_FALSE(hooked);
  EXPECT_TRUE(instance == before);
}

TEST_F(JournalTest, InverseDeltaUndoesADelta) {
  for (std::uint64_t seed = 0; seed < 16; ++seed) {
    const Instance before = Generate(seed);
    Instance after = before;
    SplitMix64 rng(seed + 11);
    for (int i = 0; i < 6; ++i) MutateOnce(after, ds_.schema, rng, seed);
    Instance undone = after;
    ASSERT_TRUE(
        ApplyDelta(undone, InverseDelta(DiffInstances(before, after))).ok());
    EXPECT_TRUE(undone == before) << "seed " << seed;
  }
}

TEST_F(JournalTest, InPlaceApplicationMatchesApplyAndCopiesOnce) {
  const auto add_bar = std::move(MakeAddBar(ds_)).value();
  const auto delete_bar = std::move(MakeDeleteBar(ds_)).value();
  for (std::uint64_t seed = 0; seed < 16; ++seed) {
    const Instance instance = Generate(seed);
    InstanceGenerator gen(&ds_.schema, seed);
    for (const UpdateMethod* method :
         {static_cast<const UpdateMethod*>(add_bar.get()),
          static_cast<const UpdateMethod*>(delete_bar.get())}) {
      const std::vector<Receiver> receivers =
          gen.RandomReceiverSet(instance, method->signature(), 4);
      // Reference: receiver-at-a-time Apply, one copy per receiver.
      Instance reference = instance;
      for (const Receiver& t : receivers) {
        reference = std::move(method->Apply(reference, t)).value();
      }
      const std::uint64_t copies = InstanceCosts().copies.value();
      ExecContext ctx;
      Result<Instance> sequenced =
          ApplySequence(*method, instance, receivers, ctx);
      EXPECT_EQ(InstanceCosts().copies.value() - copies, 1u)
          << "ApplySequence copies once per call";
      ASSERT_TRUE(sequenced.ok()) << "seed " << seed;
      EXPECT_TRUE(*sequenced == reference) << "seed " << seed;
    }
  }
}

TEST_F(JournalTest, FailedInPlaceApplicationLeavesTheInstanceUntouched) {
  ExecContext ctx;
  const auto add_bar = std::move(MakeAddBar(ds_)).value();
  Instance instance = Generate(8);
  const Instance before = instance;
  const Receiver absent = Receiver::Unchecked(
      {ObjectId(ds_.drinker, 999), ObjectId(ds_.bar, 0)});
  EXPECT_FALSE(add_bar->ApplyInPlace(instance, absent, ctx).ok());
  EXPECT_TRUE(instance == before);
}

}  // namespace
}  // namespace setrec
