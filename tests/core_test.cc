// Unit tests for the core object-database model: schemas, instances,
// partial instances and the G operator, restrictions, receivers and key
// sets — Definitions 2.1-2.6, 4.1-4.5 and Figure 1.

#include <gtest/gtest.h>

#include "core/instance.h"
#include "core/instance_generator.h"
#include "core/item_set.h"
#include "core/partial_instance.h"
#include "core/printer.h"
#include "core/receiver.h"
#include "core/schema.h"

namespace setrec {
namespace {

class UllmanSchemaTest : public ::testing::Test {
 protected:
  void SetUp() override {
    drinker_ = schema_.AddClass("Drinker").value();
    bar_ = schema_.AddClass("Bar").value();
    beer_ = schema_.AddClass("Beer").value();
    frequents_ = schema_.AddProperty("frequents", drinker_, bar_).value();
    likes_ = schema_.AddProperty("likes", drinker_, beer_).value();
    serves_ = schema_.AddProperty("serves", bar_, beer_).value();
  }

  Schema schema_;
  ClassId drinker_ = 0, bar_ = 0, beer_ = 0;
  PropertyId frequents_ = 0, likes_ = 0, serves_ = 0;
};

TEST_F(UllmanSchemaTest, BasicAccessors) {
  EXPECT_EQ(schema_.num_classes(), 3u);
  EXPECT_EQ(schema_.num_properties(), 3u);
  EXPECT_EQ(schema_.class_name(drinker_), "Drinker");
  EXPECT_EQ(schema_.property(serves_).name, "serves");
  EXPECT_EQ(schema_.property(serves_).source, bar_);
  EXPECT_EQ(schema_.property(serves_).target, beer_);
  EXPECT_TRUE(schema_.FindClass("Bar").ok());
  EXPECT_FALSE(schema_.FindClass("Pub").ok());
  EXPECT_TRUE(schema_.FindProperty("likes").ok());
  EXPECT_FALSE(schema_.FindProperty("dislikes").ok());
}

TEST_F(UllmanSchemaTest, RejectsDuplicateAndCollidingNames) {
  EXPECT_EQ(schema_.AddClass("Drinker").status().code(),
            StatusCode::kAlreadyExists);
  // Class and property namespaces are disjoint (Definition 2.1 preamble).
  EXPECT_EQ(schema_.AddClass("likes").status().code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(schema_.AddProperty("Drinker", drinker_, bar_).status().code(),
            StatusCode::kAlreadyExists);
  // Every edge carries a distinct label.
  EXPECT_EQ(schema_.AddProperty("serves", drinker_, bar_).status().code(),
            StatusCode::kAlreadyExists);
}

TEST_F(UllmanSchemaTest, IncidentProperties) {
  EXPECT_EQ(schema_.IncidentProperties(drinker_),
            (std::vector<PropertyId>{frequents_, likes_}));
  EXPECT_EQ(schema_.IncidentProperties(bar_),
            (std::vector<PropertyId>{frequents_, serves_}));
  EXPECT_EQ(schema_.IncidentProperties(beer_),
            (std::vector<PropertyId>{likes_, serves_}));
}

TEST_F(UllmanSchemaTest, InstanceTypingIsEnforced) {
  Instance instance(&schema_);
  const ObjectId mary(drinker_, 0);
  const ObjectId cheers(bar_, 0);
  const ObjectId duff(beer_, 0);
  ASSERT_TRUE(instance.AddObject(mary).ok());
  ASSERT_TRUE(instance.AddObject(cheers).ok());
  ASSERT_TRUE(instance.AddObject(duff).ok());

  EXPECT_TRUE(instance.AddEdge(mary, frequents_, cheers).ok());
  // Wrong classes for the property.
  EXPECT_EQ(instance.AddEdge(mary, serves_, duff).code(),
            StatusCode::kInvalidArgument);
  // Endpoint missing: instances are proper graphs (Definition 2.2).
  EXPECT_EQ(instance.AddEdge(mary, likes_, ObjectId(beer_, 7)).code(),
            StatusCode::kFailedPrecondition);
}

TEST_F(UllmanSchemaTest, RemoveObjectCascadesToIncidentEdges) {
  Instance instance(&schema_);
  const ObjectId mary(drinker_, 0);
  const ObjectId cheers(bar_, 0);
  const ObjectId duff(beer_, 0);
  ASSERT_TRUE(instance.AddObject(mary).ok());
  ASSERT_TRUE(instance.AddObject(cheers).ok());
  ASSERT_TRUE(instance.AddObject(duff).ok());
  ASSERT_TRUE(instance.AddEdge(mary, frequents_, cheers).ok());
  ASSERT_TRUE(instance.AddEdge(cheers, serves_, duff).ok());

  ASSERT_TRUE(instance.RemoveObject(cheers).ok());
  EXPECT_FALSE(instance.HasObject(cheers));
  EXPECT_EQ(instance.num_edges(), 0u);
  EXPECT_EQ(instance.num_objects(), 2u);
}

TEST_F(UllmanSchemaTest, InstanceEqualityIsStructural) {
  Instance a(&schema_);
  Instance b(&schema_);
  const ObjectId mary(drinker_, 0);
  ASSERT_TRUE(a.AddObject(mary).ok());
  ASSERT_TRUE(b.AddObject(mary).ok());
  EXPECT_EQ(a, b);
  // Adding and removing leaves no structural trace.
  const ObjectId cheers(bar_, 0);
  ASSERT_TRUE(a.AddObject(cheers).ok());
  ASSERT_TRUE(a.AddEdge(mary, frequents_, cheers).ok());
  ASSERT_TRUE(a.RemoveEdge(mary, frequents_, cheers).ok());
  ASSERT_TRUE(a.RemoveObject(cheers).ok());
  EXPECT_EQ(a, b);
}

/// Reconstructs Figure 1 and checks its shape through the printer.
TEST_F(UllmanSchemaTest, FigureOneInstance) {
  Instance instance(&schema_);
  const ObjectId mary(drinker_, 0), john(drinker_, 1);
  const ObjectId cheers(bar_, 0), old_tavern(bar_, 1);
  const ObjectId jupiler(beer_, 0), bud(beer_, 1), duvel(beer_, 2);
  for (ObjectId o : {mary, john}) ASSERT_TRUE(instance.AddObject(o).ok());
  for (ObjectId o : {cheers, old_tavern}) {
    ASSERT_TRUE(instance.AddObject(o).ok());
  }
  for (ObjectId o : {jupiler, bud, duvel}) {
    ASSERT_TRUE(instance.AddObject(o).ok());
  }
  ASSERT_TRUE(instance.AddEdge(mary, likes_, jupiler).ok());
  ASSERT_TRUE(instance.AddEdge(mary, frequents_, cheers).ok());
  ASSERT_TRUE(instance.AddEdge(john, likes_, duvel).ok());
  ASSERT_TRUE(instance.AddEdge(john, frequents_, old_tavern).ok());
  ASSERT_TRUE(instance.AddEdge(cheers, serves_, jupiler).ok());
  ASSERT_TRUE(instance.AddEdge(cheers, serves_, bud).ok());
  ASSERT_TRUE(instance.AddEdge(old_tavern, serves_, bud).ok());
  ASSERT_TRUE(instance.AddEdge(old_tavern, serves_, jupiler).ok());
  ASSERT_TRUE(instance.AddEdge(old_tavern, serves_, duvel).ok());

  EXPECT_EQ(instance.num_objects(), 7u);
  EXPECT_EQ(instance.num_edges(), 9u);
  EXPECT_EQ(instance.Targets(old_tavern, serves_).size(), 3u);
  const std::string rendered = InstanceToString(instance);
  EXPECT_NE(rendered.find("Drinker_0 --frequents--> Bar_0"),
            std::string::npos);
  EXPECT_NE(rendered.find("Bar_1 --serves--> Beer_2"), std::string::npos);
}

TEST_F(UllmanSchemaTest, PartialInstanceUnionDifferenceAndG) {
  Instance instance(&schema_);
  const ObjectId mary(drinker_, 0);
  const ObjectId cheers(bar_, 0);
  ASSERT_TRUE(instance.AddObject(mary).ok());
  ASSERT_TRUE(instance.AddObject(cheers).ok());
  ASSERT_TRUE(instance.AddEdge(mary, frequents_, cheers).ok());

  PartialInstance all = PartialInstance::FromInstance(instance);
  EXPECT_EQ(all.num_items(), 3u);

  // Remove the bar: the frequents edge dangles; G trims it.
  PartialInstance just_bar(&schema_);
  ASSERT_TRUE(just_bar.AddObject(cheers).ok());
  PartialInstance dangling = all.Difference(just_bar);
  EXPECT_EQ(dangling.num_items(), 2u);
  EXPECT_TRUE(dangling.HasEdge(mary, frequents_, cheers));
  Instance trimmed = dangling.G();
  EXPECT_TRUE(trimmed.HasObject(mary));
  EXPECT_FALSE(trimmed.HasObject(cheers));
  EXPECT_EQ(trimmed.num_edges(), 0u);

  // Union restores the instance.
  EXPECT_EQ(dangling.Union(just_bar).G(), instance);
  // Intersection with itself is the identity.
  EXPECT_EQ(all.Intersection(all), all);
}

TEST_F(UllmanSchemaTest, RestrictionDropsUncoloredItems) {
  Instance instance(&schema_);
  const ObjectId mary(drinker_, 0);
  const ObjectId cheers(bar_, 0);
  const ObjectId duff(beer_, 0);
  ASSERT_TRUE(instance.AddObject(mary).ok());
  ASSERT_TRUE(instance.AddObject(cheers).ok());
  ASSERT_TRUE(instance.AddObject(duff).ok());
  ASSERT_TRUE(instance.AddEdge(mary, frequents_, cheers).ok());
  ASSERT_TRUE(instance.AddEdge(cheers, serves_, duff).ok());

  SchemaItemSet items;
  items.InsertClass(drinker_);
  items.InsertClass(bar_);
  items.InsertProperty(frequents_);
  ASSERT_TRUE(items.IsEdgeClosed(schema_));
  PartialInstance restricted = PartialInstance::Restrict(instance, items);
  EXPECT_TRUE(restricted.HasObject(mary));
  EXPECT_TRUE(restricted.HasObject(cheers));
  EXPECT_FALSE(restricted.HasObject(duff));
  EXPECT_TRUE(restricted.HasEdge(mary, frequents_, cheers));
  EXPECT_FALSE(restricted.HasEdge(cheers, serves_, duff));

  // A property set without its endpoints is not edge-closed; closing fixes
  // it (needed for Definition 4.7's conditions on X).
  SchemaItemSet open;
  open.InsertProperty(serves_);
  EXPECT_FALSE(open.IsEdgeClosed(schema_));
  open.CloseUnderIncidentClasses(schema_);
  EXPECT_TRUE(open.IsEdgeClosed(schema_));
  EXPECT_TRUE(open.ContainsClass(bar_));
  EXPECT_TRUE(open.ContainsClass(beer_));
}

TEST_F(UllmanSchemaTest, ReceiverValidation) {
  Instance instance(&schema_);
  const ObjectId mary(drinker_, 0);
  const ObjectId cheers(bar_, 0);
  ASSERT_TRUE(instance.AddObject(mary).ok());
  ASSERT_TRUE(instance.AddObject(cheers).ok());

  MethodSignature signature({drinker_, bar_});
  EXPECT_TRUE(Receiver::Make(signature, {mary, cheers}, instance).ok());
  // Wrong class order.
  EXPECT_FALSE(Receiver::Make(signature, {cheers, mary}, instance).ok());
  // Absent object.
  EXPECT_EQ(
      Receiver::Make(signature, {mary, ObjectId(bar_, 9)}, instance)
          .status()
          .code(),
      StatusCode::kFailedPrecondition);
  // Wrong arity.
  EXPECT_FALSE(Receiver::Make(signature, {mary}, instance).ok());
}

TEST_F(UllmanSchemaTest, KeySetDetection) {
  const ObjectId d0(drinker_, 0), d1(drinker_, 1);
  const ObjectId b0(bar_, 0), b1(bar_, 1);
  std::vector<Receiver> key_set = {Receiver::Unchecked({d0, b0}),
                                   Receiver::Unchecked({d1, b0})};
  EXPECT_TRUE(IsKeySet(key_set));
  std::vector<Receiver> not_key = {Receiver::Unchecked({d0, b0}),
                                   Receiver::Unchecked({d0, b1})};
  EXPECT_FALSE(IsKeySet(not_key));
  // A duplicated receiver does not break the key property (T is a set).
  std::vector<Receiver> dup = {Receiver::Unchecked({d0, b0}),
                               Receiver::Unchecked({d0, b0})};
  EXPECT_TRUE(IsKeySet(dup));
}

TEST_F(UllmanSchemaTest, PrinterRendersReceiversAndObjects) {
  EXPECT_EQ(ObjectName(schema_, ObjectId(bar_, 2)), "Bar_2");
  Receiver r = Receiver::Unchecked({ObjectId(drinker_, 0), ObjectId(bar_, 2)});
  EXPECT_EQ(ReceiverToString(schema_, r), "[Drinker_0, Bar_2]");
  EXPECT_NE(SchemaToString(schema_).find("Drinker --frequents--> Bar"),
            std::string::npos);
}

TEST_F(UllmanSchemaTest, GeneratorIsDeterministicAndTyped) {
  InstanceGenerator::Options options;
  options.min_objects_per_class = 2;
  options.max_objects_per_class = 3;
  options.edge_probability = 0.5;
  InstanceGenerator g1(&schema_, 42), g2(&schema_, 42), g3(&schema_, 43);
  Instance a = g1.RandomInstance(options);
  Instance b = g2.RandomInstance(options);
  Instance c = g3.RandomInstance(options);
  EXPECT_EQ(a, b);
  EXPECT_FALSE(a == c);
  for (ClassId cls : {drinker_, bar_, beer_}) {
    EXPECT_GE(a.objects(cls).size(), 2u);
    EXPECT_LE(a.objects(cls).size(), 3u);
  }

  // AllReceivers is the Cartesian product of class populations.
  MethodSignature signature({drinker_, bar_});
  std::vector<Receiver> all = InstanceGenerator::AllReceivers(a, signature);
  EXPECT_EQ(all.size(),
            a.objects(drinker_).size() * a.objects(bar_).size());

  // Key sets are key sets.
  std::vector<Receiver> keys = g1.RandomKeySet(a, signature, 3);
  EXPECT_TRUE(IsKeySet(keys));
  EXPECT_LE(keys.size(), 3u);
}

TEST_F(UllmanSchemaTest, CopyAssignmentOverAnyShapeGivesTheSource) {
  // Assignment reuses the target's sets key by key, so cover targets whose
  // classes and properties are a superset, a subset and disjoint from the
  // source's (edge probability 0 leaves a property's key absent).
  InstanceGenerator gen(&schema_, 9);
  InstanceGenerator::Options dense;
  dense.min_objects_per_class = 3;
  dense.max_objects_per_class = 6;
  dense.edge_probability = 0.5;
  InstanceGenerator::Options sparse = dense;
  sparse.min_objects_per_class = 0;
  sparse.edge_probability = 0.0;
  std::vector<Instance> shapes = {Instance(&schema_), gen.RandomInstance(dense),
                                  gen.RandomInstance(sparse),
                                  gen.RandomInstance(dense)};
  Instance only_serves(&schema_);
  ASSERT_TRUE(only_serves.AddObject(ObjectId(bar_, 0)).ok());
  ASSERT_TRUE(only_serves.AddObject(ObjectId(beer_, 0)).ok());
  ASSERT_TRUE(
      only_serves.AddEdge(ObjectId(bar_, 0), serves_, ObjectId(beer_, 0)).ok());
  shapes.push_back(only_serves);
  for (const Instance& source : shapes) {
    for (const Instance& start : shapes) {
      Instance target = start;
      const std::uint64_t copies = InstanceCosts().copies.value();
      target = source;
      EXPECT_EQ(InstanceCosts().copies.value() - copies, 1u);
      EXPECT_EQ(target, source);
      EXPECT_EQ(target.num_edges(), source.num_edges());
      EXPECT_EQ(target.AllObjects(), source.AllObjects());
    }
  }
}

}  // namespace
}  // namespace setrec
