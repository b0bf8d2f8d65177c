// Tests for the typed chase (Appendix A): the fd rule (variable merging,
// distinguished-first ordering, the ⊥ contradiction case), the ind rule
// (full inclusion dependencies add conjuncts over existing variables),
// termination, the Church–Rosser property, and Lemma A.2 (Σ-equivalence of
// the chased query), the last as a randomized property.

#include <gtest/gtest.h>

#include "conjunctive/chase.h"
#include "conjunctive/homomorphism.h"
#include "core/instance_generator.h"
#include "relational/relation.h"

namespace setrec {
namespace {

constexpr ClassId kP = 0;

ObjectId P(std::uint32_t i) { return ObjectId(kP, i); }

RelationScheme MakeScheme(std::vector<Attribute> attrs) {
  return std::move(RelationScheme::Make(std::move(attrs))).value();
}

Catalog GraphCatalog() {
  Catalog catalog;
  EXPECT_TRUE(
      catalog.AddRelation("E", MakeScheme({{"x", kP}, {"y", kP}})).ok());
  EXPECT_TRUE(catalog.AddRelation("V", MakeScheme({{"v", kP}})).ok());
  return catalog;
}

TEST(ChaseTest, FdRuleMergesVariables) {
  ExecContext ctx;
  // q(y1, y2) :- E(x, y1), E(x, y2) under E: x→y collapses y1 = y2.
  ConjunctiveQuery q;
  VarId x = q.NewVar(kP), y1 = q.NewVar(kP), y2 = q.NewVar(kP);
  q.AddConjunct("E", {x, y1});
  q.AddConjunct("E", {x, y2});
  q.set_summary({y1, y2});
  DependencySet deps;
  deps.fds.push_back(FunctionalDependency{"E", {"x"}, "y"});
  ConjunctiveQuery chased =
      std::move(ChaseQuery(q, deps, GraphCatalog(), ctx)).value();
  ASSERT_FALSE(chased.trivially_false());
  EXPECT_EQ(chased.num_vars(), 2u);
  EXPECT_EQ(chased.conjuncts().size(), 1u);
  EXPECT_EQ(chased.summary()[0], chased.summary()[1]);
}

TEST(ChaseTest, FdRuleDetectsContradiction) {
  ExecContext ctx;
  // Same query plus y1 ≠ y2: the chase must report ⊥.
  ConjunctiveQuery q;
  VarId x = q.NewVar(kP), y1 = q.NewVar(kP), y2 = q.NewVar(kP);
  q.AddConjunct("E", {x, y1});
  q.AddConjunct("E", {x, y2});
  q.AddNonEquality(y1, y2);
  q.set_summary({x});
  DependencySet deps;
  deps.fds.push_back(FunctionalDependency{"E", {"x"}, "y"});
  ConjunctiveQuery chased =
      std::move(ChaseQuery(q, deps, GraphCatalog(), ctx)).value();
  EXPECT_TRUE(chased.trivially_false());
}

TEST(ChaseTest, EmptyLhsFdMergesEverything) {
  ExecContext ctx;
  // ∅ → v over V: all V-variables merge (the Theorem 5.6 singleton trick).
  ConjunctiveQuery q;
  VarId a = q.NewVar(kP), b = q.NewVar(kP), c = q.NewVar(kP);
  q.AddConjunct("V", {a});
  q.AddConjunct("V", {b});
  q.AddConjunct("V", {c});
  q.set_summary({a});
  DependencySet deps;
  deps.fds.push_back(FunctionalDependency{"V", {}, "v"});
  ConjunctiveQuery chased =
      std::move(ChaseQuery(q, deps, GraphCatalog(), ctx)).value();
  EXPECT_EQ(chased.num_vars(), 1u);
  EXPECT_EQ(chased.conjuncts().size(), 1u);
}

TEST(ChaseTest, IndRuleAddsConjunctsAndTerminates) {
  ExecContext ctx;
  // E[x] ⊆ V and E[y] ⊆ V: each E conjunct spawns V conjuncts, then the
  // process stops (full inds add no fresh variables).
  ConjunctiveQuery q;
  VarId x = q.NewVar(kP), y = q.NewVar(kP);
  q.AddConjunct("E", {x, y});
  q.set_summary({x, y});
  DependencySet deps;
  deps.inds.push_back(InclusionDependency{"E", {"x"}, "V"});
  deps.inds.push_back(InclusionDependency{"E", {"y"}, "V"});
  ConjunctiveQuery chased =
      std::move(ChaseQuery(q, deps, GraphCatalog(), ctx)).value();
  EXPECT_EQ(chased.conjuncts().size(), 3u);
  EXPECT_EQ(chased.num_vars(), 2u);
  // Idempotent: chasing again changes nothing.
  ConjunctiveQuery again =
      std::move(ChaseQuery(chased, deps, GraphCatalog(), ctx)).value();
  EXPECT_EQ(again.conjuncts().size(), 3u);
}

TEST(ChaseTest, DistinguishedVariablesSurviveMerges) {
  ExecContext ctx;
  // The fd rule keeps the least variable under the "distinguished first"
  // ordering; the summary variable must survive.
  ConjunctiveQuery q;
  VarId x = q.NewVar(kP), y_exist = q.NewVar(kP), y_dist = q.NewVar(kP);
  q.AddConjunct("E", {x, y_exist});
  q.AddConjunct("E", {x, y_dist});
  q.set_summary({y_dist});  // the *later* variable is distinguished
  DependencySet deps;
  deps.fds.push_back(FunctionalDependency{"E", {"x"}, "y"});
  ConjunctiveQuery chased =
      std::move(ChaseQuery(q, deps, GraphCatalog(), ctx)).value();
  ASSERT_EQ(chased.summary().size(), 1u);
  // The summary variable still appears in the conjunct.
  ASSERT_EQ(chased.conjuncts().size(), 1u);
  EXPECT_EQ(chased.conjuncts().begin()->vars[1], chased.summary()[0]);
}

TEST(ChaseTest, ChurchRosserOnConjunctOrder) {
  ExecContext ctx;
  // Building the same query with conjuncts in different insertion orders
  // yields identical chase results (after compaction).
  DependencySet deps;
  deps.fds.push_back(FunctionalDependency{"E", {"x"}, "y"});
  deps.inds.push_back(InclusionDependency{"E", {"y"}, "V"});

  ConjunctiveQuery q1;
  {
    VarId a = q1.NewVar(kP), b = q1.NewVar(kP), c = q1.NewVar(kP);
    q1.AddConjunct("E", {a, b});
    q1.AddConjunct("E", {a, c});
    q1.set_summary({a});
  }
  ConjunctiveQuery q2;
  {
    VarId a = q2.NewVar(kP), b = q2.NewVar(kP), c = q2.NewVar(kP);
    q2.AddConjunct("E", {a, c});
    q2.AddConjunct("E", {a, b});
    q2.set_summary({a});
  }
  ConjunctiveQuery c1 =
      std::move(ChaseQuery(q1, deps, GraphCatalog(), ctx)).value();
  ConjunctiveQuery c2 =
      std::move(ChaseQuery(q2, deps, GraphCatalog(), ctx)).value();
  EXPECT_EQ(c1.ToString(), c2.ToString());
}

/// Lemma A.2 as a property: q and chase(q) agree on every database that
/// satisfies Σ.
class ChaseEquivalenceTest : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(ChaseEquivalenceTest, ChasedQueryIsSigmaEquivalent) {
  ExecContext ctx;
  SplitMix64 rng(GetParam());
  Catalog catalog = GraphCatalog();
  DependencySet deps;
  deps.fds.push_back(FunctionalDependency{"E", {"x"}, "y"});
  deps.inds.push_back(InclusionDependency{"E", {"x"}, "V"});
  deps.inds.push_back(InclusionDependency{"E", {"y"}, "V"});

  // Random query: a small pattern of E-atoms over 4 variables with an
  // optional non-equality.
  ConjunctiveQuery q;
  std::vector<VarId> vars;
  for (int i = 0; i < 4; ++i) vars.push_back(q.NewVar(kP));
  // Keep the query safe: every variable occurs in some conjunct.
  for (VarId v : vars) q.AddConjunct("V", {v});
  const std::size_t atoms = 2 + rng.UniformInt(3);
  for (std::size_t i = 0; i < atoms; ++i) {
    q.AddConjunct("E", {vars[rng.UniformInt(4)], vars[rng.UniformInt(4)]});
  }
  if (rng.UniformInt(2) == 0) {
    q.AddNonEquality(vars[rng.UniformInt(4)], vars[rng.UniformInt(4)]);
  }
  q.set_summary({vars[0]});

  ConjunctiveQuery chased =
      std::move(ChaseQuery(q, deps, catalog, ctx)).value();

  // Random Σ-satisfying database: a function graph (x→f(x)) over 4 values.
  Database db;
  Relation v(MakeScheme({{"v", kP}}));
  Relation e(MakeScheme({{"x", kP}, {"y", kP}}));
  for (std::uint32_t i = 0; i < 4; ++i) {
    ASSERT_TRUE(v.Insert(Tuple{P(i)}).ok());
    if (rng.UniformInt(3) != 0) {  // partial function keeps it interesting
      ASSERT_TRUE(
          e.Insert(Tuple{P(i), P(static_cast<std::uint32_t>(rng.UniformInt(4)))})
              .ok());
    }
  }
  db.Put("V", std::move(v));
  db.Put("E", std::move(e));
  ASSERT_TRUE(std::move(SatisfiesAll(db, deps)).value());

  RelationScheme scheme = MakeScheme({{"x", kP}});
  Relation before =
      std::move(EvaluateConjunctiveQuery(q, scheme, db, ctx)).value();
  Relation after =
      std::move(EvaluateConjunctiveQuery(chased, scheme, db, ctx)).value();
  EXPECT_EQ(before, after);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChaseEquivalenceTest,
                         ::testing::Range<std::uint64_t>(1, 26));

}  // namespace
}  // namespace setrec
