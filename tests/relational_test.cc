// Tests for the relational algebra engine: typed relations, the evaluator
// for all eight operators, scheme inference, positivity (Definition 5.2),
// dependencies, classical algebraic identities as randomized properties,
// and bound relations with the joins that read them by index.

#include <gtest/gtest.h>

#include "algebraic/method_library.h"
#include "core/instance_generator.h"
#include "incremental/view_cache.h"
#include "objrel/encoding.h"
#include "obs/explain.h"
#include "relational/builder.h"
#include "relational/dependencies.h"
#include "relational/evaluator.h"
#include "relational/expression.h"
#include "relational/relation.h"
#include "text/parser.h"

namespace setrec {
namespace {

// Two domains: class 0 ("P") and class 1 ("Q").
constexpr ClassId kP = 0;
constexpr ClassId kQ = 1;

ObjectId P(std::uint32_t i) { return ObjectId(kP, i); }
ObjectId Q(std::uint32_t i) { return ObjectId(kQ, i); }

RelationScheme MakeScheme(std::vector<Attribute> attrs) {
  return std::move(RelationScheme::Make(std::move(attrs))).value();
}

class AlgebraTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Relation r(MakeScheme({{"x", kP}, {"y", kQ}}));
    ASSERT_TRUE(r.Insert(Tuple{P(0), Q(0)}).ok());
    ASSERT_TRUE(r.Insert(Tuple{P(0), Q(1)}).ok());
    ASSERT_TRUE(r.Insert(Tuple{P(1), Q(1)}).ok());
    db_.Put("R", std::move(r));

    Relation s(MakeScheme({{"y2", kQ}, {"z", kP}}));
    ASSERT_TRUE(s.Insert(Tuple{Q(1), P(0)}).ok());
    ASSERT_TRUE(s.Insert(Tuple{Q(2), P(1)}).ok());
    db_.Put("S", std::move(s));

    Relation u(MakeScheme({{"x", kP}, {"y", kQ}}));
    ASSERT_TRUE(u.Insert(Tuple{P(1), Q(1)}).ok());
    ASSERT_TRUE(u.Insert(Tuple{P(2), Q(2)}).ok());
    db_.Put("U", std::move(u));
  }

  Database db_;
};

TEST_F(AlgebraTest, RelationInsertEnforcesTyping) {
  Relation r(MakeScheme({{"x", kP}}));
  EXPECT_TRUE(r.Insert(Tuple{P(5)}).ok());
  EXPECT_EQ(r.Insert(Tuple{Q(5)}).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(r.Insert(Tuple{P(1), P(2)}).code(), StatusCode::kInvalidArgument);
  // Duplicate insertion is a no-op.
  EXPECT_TRUE(r.Insert(Tuple{P(5)}).ok());
  EXPECT_EQ(r.size(), 1u);
}

TEST_F(AlgebraTest, UnionAndDifference) {
  Relation u = std::move(Evaluate(ra::Union(ra::Rel("R"), ra::Rel("U")), db_))
                   .value();
  EXPECT_EQ(u.size(), 4u);
  Relation d = std::move(Evaluate(ra::Diff(ra::Rel("R"), ra::Rel("U")), db_))
                   .value();
  EXPECT_EQ(d.size(), 2u);
  EXPECT_TRUE(d.Contains(Tuple{P(0), Q(0)}));
  EXPECT_TRUE(d.Contains(Tuple{P(0), Q(1)}));
  // Scheme mismatch is an error.
  EXPECT_FALSE(Evaluate(ra::Union(ra::Rel("R"), ra::Rel("S")), db_).ok());
}

TEST_F(AlgebraTest, ProductAndJoins) {
  Relation p = std::move(Evaluate(ra::Product(ra::Rel("R"), ra::Rel("S")),
                                  db_))
                   .value();
  EXPECT_EQ(p.size(), 6u);
  EXPECT_EQ(p.scheme().arity(), 4u);
  // Theta-join on y = y2.
  Relation j = std::move(Evaluate(ra::JoinEq(ra::Rel("R"), ra::Rel("S"), "y",
                                             "y2"),
                                  db_))
                   .value();
  EXPECT_EQ(j.size(), 2u);  // (P0,Q1)&(Q1,P0), (P1,Q1)&(Q1,P0)
  // Product with a name collision is rejected.
  EXPECT_FALSE(Evaluate(ra::Product(ra::Rel("R"), ra::Rel("R")), db_).ok());
  // Renaming resolves it.
  ExprPtr rr = ra::Product(
      ra::Rel("R"), ra::Rename(ra::Rename(ra::Rel("R"), "x", "x2"), "y", "y2"));
  EXPECT_EQ(std::move(Evaluate(rr, db_)).value().size(), 9u);
}

TEST_F(AlgebraTest, SelectionsRespectDomains) {
  // x and z share domain P.
  ExprPtr cross = ra::Product(ra::Rel("R"), ra::Rel("S"));
  Relation eq =
      std::move(Evaluate(ra::SelectEq(cross, "x", "z"), db_)).value();
  EXPECT_EQ(eq.size(), 3u);
  Relation neq =
      std::move(Evaluate(ra::SelectNeq(cross, "x", "z"), db_)).value();
  EXPECT_EQ(neq.size(), 3u);
  // Comparing attributes of different domains is a type error.
  EXPECT_FALSE(Evaluate(ra::SelectEq(cross, "x", "y"), db_).ok());
}

TEST_F(AlgebraTest, ProjectionAndGuards) {
  Relation xs = std::move(Evaluate(ra::Project(ra::Rel("R"), {"x"}), db_))
                    .value();
  EXPECT_EQ(xs.size(), 2u);
  // Reordering projection.
  Relation yx = std::move(Evaluate(ra::Project(ra::Rel("R"), {"y", "x"}), db_))
                    .value();
  EXPECT_EQ(yx.scheme().attribute(0).name, "y");
  // π_∅: the nullary guard, {()} iff non-empty.
  Relation guard = std::move(Evaluate(ra::Guard(ra::Rel("R")), db_)).value();
  EXPECT_EQ(guard.size(), 1u);
  EXPECT_EQ(guard.scheme().arity(), 0u);
  Relation empty_guard =
      std::move(Evaluate(ra::Guard(ra::Diff(ra::Rel("R"), ra::Rel("R"))),
                         db_))
          .value();
  EXPECT_TRUE(empty_guard.empty());
  // Guard as a multiplier conditions a relation.
  Relation conditioned = std::move(Evaluate(
                                       ra::Product(ra::Rel("S"),
                                                   ra::Guard(ra::Rel("R"))),
                                       db_))
                             .value();
  EXPECT_EQ(conditioned.size(), 2u);
}

TEST_F(AlgebraTest, RenameValidation) {
  EXPECT_FALSE(Evaluate(ra::Rename(ra::Rel("R"), "nope", "w"), db_).ok());
  EXPECT_FALSE(Evaluate(ra::Rename(ra::Rel("R"), "x", "y"), db_).ok());
  Relation renamed =
      std::move(Evaluate(ra::Rename(ra::Rel("R"), "x", "w"), db_)).value();
  EXPECT_EQ(renamed.scheme().attribute(0).name, "w");
  EXPECT_EQ(renamed.scheme().attribute(0).domain, kP);
}

TEST_F(AlgebraTest, InferSchemeAgreesWithEvaluation) {
  Catalog catalog;
  ASSERT_TRUE(catalog
                  .AddRelation("R", MakeScheme({{"x", kP}, {"y", kQ}}))
                  .ok());
  ASSERT_TRUE(catalog
                  .AddRelation("S", MakeScheme({{"y2", kQ}, {"z", kP}}))
                  .ok());
  ExprPtr e = ra::Project(
      ra::JoinEq(ra::Rel("R"), ra::Rel("S"), "y", "y2"), {"x", "z"});
  RelationScheme inferred = std::move(InferScheme(*e, catalog)).value();
  Relation evaluated = std::move(Evaluate(e, db_)).value();
  EXPECT_EQ(inferred, evaluated.scheme());
  // Unknown relation.
  EXPECT_FALSE(InferScheme(*ra::Rel("nope"), catalog).ok());

  // Every reader of an ill-typed expression over the drinkers encoding
  // reports InferScheme's code and message: both evaluation backends,
  // EXPLAIN and the view cache.
  DrinkersSchema ds = std::move(MakeDrinkersSchema()).value();
  const Catalog drinkers = std::move(EncodeCatalog(ds.schema)).value();
  const Instance instance = std::move(ParseInstance(R"(
    instance { object D(1); object D(2); object Ba(1); object Ba(2); }
  )",
                                                    &ds.schema))
                                .value();
  const Database db = std::move(EncodeInstance(instance)).value();
  const ExprPtr df = ra::Rel("Df");
  const std::vector<std::pair<std::string, ExprPtr>> cases = {
      {"Union(D, Ba)", ra::Union(ra::Rel("D"), ra::Rel("Ba"))},
      {"Product(Df, Dl)", ra::Product(df, ra::Rel("Dl"))},
      {"σ[D=f](Df)", ra::SelectEq(df, "D", "f")},
      {"σ[D=x](Df)", ra::SelectEq(df, "D", "x")},
      {"π[D,D](Df)", ra::Project(df, {"D", "D"})},
      {"ρ[D→f](Df)", ra::Rename(df, "D", "f")},
      {"Nope", ra::Rel("Nope")},
      {"σ[D=Ba](D × Ba)",
       ra::SelectEq(ra::Product(ra::Rel("D"), ra::Rel("Ba")), "D", "Ba")},
  };
  auto expect_same = [](const Status& got, const Status& want,
                        const std::string& who) {
    EXPECT_EQ(got.code(), want.code()) << who;
    EXPECT_EQ(got.message(), want.message()) << who;
  };
  for (const auto& [label, expr] : cases) {
    SCOPED_TRACE(label);
    const Status want = InferScheme(*expr, drinkers).status();
    ASSERT_FALSE(want.ok());
    for (const ExecBackend backend :
         {ExecBackend::kInterpreter, ExecBackend::kVectorized}) {
      ExecOptions options;
      options.backend = backend;
      expect_same(Evaluate(expr, db, options).status(), want,
                  backend == ExecBackend::kInterpreter ? "interpreter"
                                                       : "vectorized");
    }
    expect_same(ExplainExpression(expr, drinkers).status(), want, "EXPLAIN");
    ViewCache cache(&ds.schema);
    expect_same(cache.Register("v", expr), want, "ViewCache::Register");
  }

  // A type error wins over the row budget under both backends: it is found
  // before the first product row is charged.
  const ExprPtr budgeted =
      ra::Union(ra::Product(ra::Rel("D"), ra::Rel("Ba")), ra::Rel("D"));
  for (const ExecBackend backend :
       {ExecBackend::kInterpreter, ExecBackend::kVectorized}) {
    ExecContext::Limits limits;
    limits.max_rows = 1;
    ExecContext ctx(limits);
    ExecOptions options;
    options.ctx = &ctx;
    options.backend = backend;
    EXPECT_EQ(Evaluate(budgeted, db, options).status().code(),
              StatusCode::kInvalidArgument);
  }
}

TEST_F(AlgebraTest, PositivityAndReferencedRelations) {
  ExprPtr pos = ra::Union(
      ra::Project(ra::JoinNeq(ra::Rel("R"), ra::Rel("S"), "x", "z"), {"x"}),
      ra::Project(ra::Rel("R"), {"x"}));
  EXPECT_TRUE(IsPositive(*pos));
  ExprPtr neg = ra::Diff(ra::Project(ra::Rel("R"), {"x"}),
                         ra::Project(ra::Rel("U"), {"x"}));
  EXPECT_FALSE(IsPositive(*neg));
  EXPECT_EQ(ReferencedRelations(*pos), (std::vector<std::string>{"R", "S"}));
}

TEST_F(AlgebraTest, SubstituteRelationSharesUntouchedSubtrees) {
  ExprPtr left = ra::Project(ra::Rel("R"), {"x"});
  ExprPtr right = ra::Project(ra::Rel("U"), {"x"});
  ExprPtr u = ra::Union(left, right);
  ExprPtr substituted =
      SubstituteRelation(u, "U", ra::Rename(ra::Rel("R"), "y", "w"));
  // Left subtree is shared, right replaced.
  EXPECT_EQ(substituted->left().get(), left.get());
  EXPECT_NE(substituted->right().get(), right.get());
  Relation result = std::move(Evaluate(substituted, db_)).value();
  EXPECT_EQ(result.size(), 2u);
  // No-op substitution returns the identical node.
  EXPECT_EQ(SubstituteRelation(u, "Z", left).get(), u.get());
}

TEST_F(AlgebraTest, EvaluatorMemoizesSharedNodes) {
  ExprPtr shared = ra::Product(ra::Rel("R"), ra::Rel("S"));
  ExprPtr twice = ra::Union(ra::Project(shared, {"x"}),
                            ra::Project(shared, {"x"}));
  Relation result = std::move(Evaluate(twice, db_)).value();
  EXPECT_EQ(result.size(), 2u);
}

TEST_F(AlgebraTest, ExprToStringRoundsTheSyntax) {
  ExprPtr e = ra::Project(
      ra::SelectNeq(ra::Product(ra::Rel("R"), ra::Rel("S")), "x", "z"),
      {"x"});
  EXPECT_EQ(ExprToString(*e), "π[x](σ[x≠z]((R × S)))");
}

TEST_F(AlgebraTest, DependencySatisfaction) {
  // R: x -> y fails (P0 maps to Q0 and Q1); U: x -> y holds.
  FunctionalDependency fd_r{"R", {"x"}, "y"};
  FunctionalDependency fd_u{"U", {"x"}, "y"};
  EXPECT_FALSE(std::move(Satisfies(db_, fd_r)).value());
  EXPECT_TRUE(std::move(Satisfies(db_, fd_u)).value());
  // Empty-LHS FD: at most one tuple overall.
  FunctionalDependency singleton{"R", {}, "x"};
  EXPECT_FALSE(std::move(Satisfies(db_, singleton)).value());

  // Full IND: U[x y] ⊆ R fails on (P2,Q2); U ⊆ R∪U holds — test via R.
  InclusionDependency ind{"U", {"x", "y"}, "R"};
  EXPECT_FALSE(std::move(Satisfies(db_, ind)).value());
  InclusionDependency refl{"R", {"x", "y"}, "R"};
  EXPECT_TRUE(std::move(Satisfies(db_, refl)).value());

  // Disjointness over unary relations.
  Relation a(MakeScheme({{"v", kP}}));
  ASSERT_TRUE(a.Insert(Tuple{P(0)}).ok());
  Relation b(MakeScheme({{"w", kP}}));
  ASSERT_TRUE(b.Insert(Tuple{P(1)}).ok());
  Database db2;
  db2.Put("A", std::move(a));
  db2.Put("B", std::move(b));
  EXPECT_TRUE(
      std::move(Satisfies(db2, DisjointnessDependency{"A", "B"})).value());
  Relation b2(MakeScheme({{"w", kP}}));
  ASSERT_TRUE(b2.Insert(Tuple{P(0)}).ok());
  db2.Put("B", std::move(b2));
  EXPECT_FALSE(
      std::move(Satisfies(db2, DisjointnessDependency{"A", "B"})).value());
}

/// Differential test for join fusion: selection chains over a product must
/// agree with the unfused reference (product first, filters applied one at
/// a time, all in test code), across mixes of cross-side equalities (join
/// keys), same-side conditions (local filters) and cross non-equalities
/// (residual filters). Both backends read the one join classification of
/// the lowering, so each is checked against this independent reference.
class JoinFusionTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(JoinFusionTest, FusedChainMatchesUnfusedReference) {
  SplitMix64 rng(GetParam() * 104729);
  Database db;
  auto random_relation = [&](std::vector<Attribute> attrs) {
    Relation r(MakeScheme(std::move(attrs)));
    const std::size_t n = 2 + rng.UniformInt(8);
    for (std::size_t i = 0; i < n; ++i) {
      std::vector<ObjectId> values;
      for (std::size_t k = 0; k < r.scheme().arity(); ++k) {
        values.push_back(
            ObjectId(r.scheme().attribute(k).domain,
                     static_cast<std::uint32_t>(rng.UniformInt(3))));
      }
      EXPECT_TRUE(r.Insert(Tuple(std::move(values))).ok());
    }
    return r;
  };
  db.Put("L", random_relation({{"a", kP}, {"b", kP}, {"c", kQ}}));
  db.Put("R2", random_relation({{"d", kP}, {"e", kP}, {"f", kQ}}));

  // A random chain of 1-4 selections over L × R2.
  const char* kAttrsP[] = {"a", "b", "d", "e"};
  const char* kAttrsQ[] = {"c", "f"};
  ExprPtr chain = ra::Product(ra::Rel("L"), ra::Rel("R2"));
  std::vector<std::pair<std::string, std::string>> conds;
  std::vector<bool> equals;
  const std::size_t n_conds = 1 + rng.UniformInt(4);
  for (std::size_t i = 0; i < n_conds; ++i) {
    std::string a, b;
    if (rng.UniformInt(4) == 0) {
      a = kAttrsQ[rng.UniformInt(2)];
      b = kAttrsQ[rng.UniformInt(2)];
    } else {
      a = kAttrsP[rng.UniformInt(4)];
      b = kAttrsP[rng.UniformInt(4)];
    }
    const bool eq = rng.UniformInt(2) == 0;
    chain = eq ? ra::SelectEq(chain, a, b) : ra::SelectNeq(chain, a, b);
    conds.emplace_back(a, b);
    equals.push_back(eq);
  }
  // Reference: materialize the product, then filter tuple by tuple.
  const Relation& l = *std::move(db.Find("L")).value();
  const Relation& r = *std::move(db.Find("R2")).value();
  std::vector<Attribute> attrs = l.scheme().attributes();
  for (const Attribute& a : r.scheme().attributes()) attrs.push_back(a);
  Relation reference(MakeScheme(std::move(attrs)));
  for (const Tuple& lt : l) {
    for (const Tuple& rt : r) {
      const Tuple t = lt.Concat(rt);
      bool keep = true;
      for (std::size_t i = 0; i < conds.size(); ++i) {
        const std::size_t ia =
            std::move(reference.scheme().IndexOf(conds[i].first)).value();
        const std::size_t ib =
            std::move(reference.scheme().IndexOf(conds[i].second)).value();
        if ((t.at(ia) == t.at(ib)) != equals[i]) {
          keep = false;
          break;
        }
      }
      if (keep) {
        ASSERT_TRUE(reference.Insert(t).ok());
      }
    }
  }
  for (const ExecBackend backend :
       {ExecBackend::kInterpreter, ExecBackend::kVectorized}) {
    ExecOptions options;
    options.backend = backend;
    Relation fused = std::move(Evaluate(chain, db, options)).value();
    EXPECT_EQ(fused, reference)
        << (backend == ExecBackend::kInterpreter ? "interpreter"
                                                  : "vectorized");
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, JoinFusionTest,
                         ::testing::Range<std::uint64_t>(1, 21));

TEST_F(AlgebraTest, GuardShortCircuitKeepsSchemes) {
  // E × π_∅(∅): empty guard; the result must still carry E's scheme even
  // though the data path is skipped.
  ExprPtr empty_guard = ra::Guard(ra::Diff(ra::Rel("R"), ra::Rel("R")));
  Relation left_guarded =
      std::move(Evaluate(ra::Product(empty_guard, ra::Rel("S")), db_))
          .value();
  EXPECT_TRUE(left_guarded.empty());
  EXPECT_EQ(left_guarded.scheme().attribute(0).name, "y2");
  Relation right_guarded =
      std::move(Evaluate(ra::Product(ra::Rel("S"), empty_guard), db_))
          .value();
  EXPECT_TRUE(right_guarded.empty());
  EXPECT_EQ(right_guarded.scheme().attribute(0).name, "y2");
  // Non-empty guard: identical to the plain relation.
  Relation passed =
      std::move(Evaluate(ra::Product(ra::Rel("S"), ra::Guard(ra::Rel("R"))),
                         db_))
          .value();
  EXPECT_EQ(passed.size(), 2u);
}

/// Randomized algebraic identities: distributivity of selection over union,
/// projection-pushing through union, and De Morgan-ish difference laws.
class AlgebraPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(AlgebraPropertyTest, ClassicalIdentitiesHold) {
  SplitMix64 rng(GetParam());
  Database db;
  auto random_relation = [&]() {
    Relation r(MakeScheme({{"x", kP}, {"y", kP}}));
    const std::size_t n = 1 + rng.UniformInt(6);
    for (std::size_t i = 0; i < n; ++i) {
      Status s = r.Insert(Tuple{P(static_cast<std::uint32_t>(rng.UniformInt(3))),
                                P(static_cast<std::uint32_t>(rng.UniformInt(3)))});
      EXPECT_TRUE(s.ok());
    }
    return r;
  };
  db.Put("A", random_relation());
  db.Put("B", random_relation());

  auto eval = [&](const ExprPtr& e) {
    return std::move(Evaluate(e, db)).value();
  };
  ExprPtr a = ra::Rel("A"), b = ra::Rel("B");
  // σ(A ∪ B) = σ(A) ∪ σ(B).
  EXPECT_EQ(eval(ra::SelectEq(ra::Union(a, b), "x", "y")),
            eval(ra::Union(ra::SelectEq(a, "x", "y"),
                           ra::SelectEq(b, "x", "y"))));
  // σ(A − B) = σ(A) − σ(B).
  EXPECT_EQ(eval(ra::SelectNeq(ra::Diff(a, b), "x", "y")),
            eval(ra::Diff(ra::SelectNeq(a, "x", "y"),
                          ra::SelectNeq(b, "x", "y"))));
  // π(A ∪ B) = π(A) ∪ π(B).
  EXPECT_EQ(eval(ra::Project(ra::Union(a, b), {"x"})),
            eval(ra::Union(ra::Project(a, {"x"}), ra::Project(b, {"x"}))));
  // A − (A − B) = A ∩ B = join-free intersection via double difference.
  EXPECT_EQ(eval(ra::Diff(a, ra::Diff(a, b))), eval(ra::Diff(b, ra::Diff(b, a))));
  // Union is commutative and idempotent.
  EXPECT_EQ(eval(ra::Union(a, b)), eval(ra::Union(b, a)));
  EXPECT_EQ(eval(ra::Union(a, a)), eval(a));
}

INSTANTIATE_TEST_SUITE_P(Seeds, AlgebraPropertyTest,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u));

// -- Bound relations and index builds -----------------------------------------

/// R(x, y) with rows for x = P(0) .. P(n-1), each linked to two Qs.
SortedPairs MakePairs(std::uint32_t n) {
  SortedPairs pairs;
  for (std::uint32_t i = 0; i < n; ++i) {
    pairs.insert({P(i), Q(i % 3)});
    pairs.insert({P(i), Q(i % 3 + 1)});
  }
  return pairs;
}

TEST(BoundRelationTest, ReadsLikeTheMaterializedRelation) {
  const SortedPairs pairs = MakePairs(5);
  const RelationScheme scheme = MakeScheme({{"x", kP}, {"y", kQ}});
  Counter materialized;
  Database bound;
  ASSERT_TRUE(bound.Bind("R", scheme, &pairs, &materialized).ok());
  EXPECT_EQ(bound.Bind("U", MakeScheme({{"x", kP}}), &pairs).code(),
            StatusCode::kInvalidArgument);
  Database put;
  Relation r(scheme);
  for (const auto& [x, y] : pairs) ASSERT_TRUE(r.Insert(Tuple{x, y}).ok());
  put.Put("R", r);

  // Scheme, size and index reads leave it unmaterialized.
  EXPECT_EQ(*std::move(bound.FindScheme("R")).value(), scheme);
  EXPECT_EQ(std::move(bound.FindSize("R")).value(), 10u);
  ASSERT_NE(bound.FindBound("R"), nullptr);
  EXPECT_EQ(put.FindBound("R"), nullptr);
  const BoundRelation::Rows rows = bound.FindBound("R")->RowsWithFirst(P(3));
  EXPECT_EQ(std::vector(rows.begin(), rows.end()),
            (std::vector<std::pair<ObjectId, ObjectId>>{{P(3), Q(0)},
                                                       {P(3), Q(1)}}));
  EXPECT_TRUE(bound.FindBound("R")->RowsWithFirst(P(9)).empty());
  EXPECT_EQ(bound.FindSize("Nope").status().code(), StatusCode::kNotFound);
  EXPECT_EQ(materialized.value(), 0u);

  // A whole read materializes once, shared by copies.
  const Database copy = bound;
  EXPECT_TRUE(*std::move(bound.Find("R")).value() == r);
  EXPECT_EQ(materialized.value(), 10u);
  EXPECT_EQ(std::move(copy.FindShared("R")).value(),
            std::move(bound.FindShared("R")).value());
  EXPECT_TRUE(copy == put);
  EXPECT_EQ(materialized.value(), 10u);

  // Put replaces a binding.
  bound.Put("R", Relation(scheme));
  EXPECT_EQ(bound.FindBound("R"), nullptr);
  EXPECT_EQ(std::move(bound.FindSize("R")).value(), 0u);
}

/// Evaluates `expr` with `backend`, returning the result and the logical
/// counters (rows, probes, build rows).
std::pair<Relation, std::vector<std::uint64_t>> EvalCounted(
    const ExprPtr& expr, const Database& db, ExecBackend backend) {
  MetricsRegistry metrics;
  Relation out =
      std::move(Evaluate(expr, db, {.metrics = &metrics, .backend = backend}))
          .value();
  return {std::move(out),
          {metrics.engine.eval_rows.value(),
           metrics.engine.eval_join_probes.value(),
           metrics.engine.eval_join_build_rows.value()}};
}

TEST(BoundRelationTest, IndexBuildsJoinLikeTheMaterializedRelation) {
  const SortedPairs pairs = MakePairs(64);
  const RelationScheme scheme = MakeScheme({{"x", kP}, {"y", kQ}});
  Relation k(MakeScheme({{"k", kP}, {"q", kQ}}));
  for (std::uint32_t i : {1u, 2u, 5u, 70u}) {
    ASSERT_TRUE(k.Insert(Tuple{P(i), Q(i % 2)}).ok());
  }
  Database bound;
  ASSERT_TRUE(bound.Bind("R", scheme, &pairs).ok());
  bound.Put("K", k);
  Database put;
  Relation r_rows(scheme);
  for (const auto& [x, y] : pairs) {
    ASSERT_TRUE(r_rows.Insert(Tuple{x, y}).ok());
  }
  put.Put("R", std::move(r_rows));
  put.Put("K", k);

  const ExprPtr r = ra::Rel("R");
  const ExprPtr renamed = ra::Rename(ra::Rename(r, "x", "x2"), "y", "y2");
  struct Case {
    ExprPtr expr;
    bool index;              // whether the lowering reads R by index
    std::uint64_t build = 0;  // an index build's table rows
  };
  // K's keys 1, 2, 5 and 70 select R's rows of P(1), P(2) and P(5).
  const std::vector<Case> cases = {
      // Keyed on R's first column, also through ρs, with a second key, a
      // residual and probe filters.
      {ra::JoinEq(ra::Rel("K"), r, "k", "x"), true, 6},
      {ra::JoinEq(ra::Rel("K"), renamed, "k", "x2"), true, 6},
      {ra::SelectEq(ra::JoinEq(ra::Rel("K"), renamed, "k", "x2"), "q", "y2"),
       true, 6},
      {ra::SelectNeq(ra::JoinEq(ra::Rel("K"), renamed, "k", "x2"), "q", "y2"),
       true, 6},
      {ra::SelectEq(ra::JoinEq(ra::Rel("K"), renamed, "k", "x2"), "k", "k"),
       true, 6},
      {ra::SelectNeq(ra::JoinEq(ra::Rel("K"), renamed, "k", "x2"), "k", "k"),
       true, 0},
      // No index: keyed on R's second column, R on the probe side, a
      // cross product.
      {ra::JoinEq(ra::Rename(ra::Rel("K"), "q", "q0"), r, "q0", "y"), false},
      {ra::JoinEq(r, ra::Rename(ra::Rename(ra::Rel("K"), "k", "x3"), "q",
                                "q3"),
                  "x", "x3"),
       false},
      {ra::Product(ra::Rel("K"), r), false},
  };
  for (const Case& c : cases) {
    const std::string what = ExprToString(*c.expr);
    PhysicalPlan plan(bound);
    const PhysicalNode* root = std::move(plan.Lower(*c.expr)).value();
    const PhysicalNode* join = root;
    while (join->kind != PhysicalNode::Kind::kJoin &&
           join->kind != PhysicalNode::Kind::kProduct) {
      join = join->left;
    }
    EXPECT_EQ(join->index != nullptr, c.index) << what;

    const auto [reference, reference_counts] =
        EvalCounted(c.expr, put, ExecBackend::kInterpreter);
    for (ExecBackend backend :
         {ExecBackend::kInterpreter, ExecBackend::kVectorized}) {
      const auto [result, counts] = EvalCounted(c.expr, bound, backend);
      const std::string at = what + " " + ExecBackendName(backend);
      EXPECT_TRUE(result == reference) << at;
      EXPECT_EQ(counts[0], reference_counts[0]) << at;
      EXPECT_EQ(counts[1], reference_counts[1]) << at;
      EXPECT_EQ(counts[2], c.index ? c.build : reference_counts[2]) << at;
    }
  }
}

}  // namespace
}  // namespace setrec
