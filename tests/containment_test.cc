// Tests for the conjunctive-query containment machinery of Appendix A:
// translation from positive algebra, Chandra–Merlin homomorphisms, Klug's
// representative-set test for non-equalities (Theorem A.1), union
// containment (Sagiv–Yannakakis), and containment under dependencies
// (Lemma 5.13) — cross-validated against exhaustive evaluation on random
// databases, and the compiled containment test against two references
// built from the canonical Database of each representative valuation:
// Klug's plain enumeration, and the same with the strict-homomorphism
// cover step.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "algebraic/method_library.h"
#include "algebraic/order_independence.h"
#include "conjunctive/chase.h"
#include "conjunctive/containment.h"
#include "conjunctive/homomorphism.h"
#include "conjunctive/representative.h"
#include "conjunctive/translate.h"
#include "core/instance_generator.h"
#include "decision_corpus.h"
#include "relational/builder.h"
#include "relational/evaluator.h"

namespace setrec {
namespace {

constexpr ClassId kP = 0;

ObjectId P(std::uint32_t i) { return ObjectId(kP, i); }

RelationScheme MakeScheme(std::vector<Attribute> attrs) {
  return std::move(RelationScheme::Make(std::move(attrs))).value();
}

/// A catalog with one binary relation E(x, y) over a single domain — the
/// classical graph setting for conjunctive-query theory.
Catalog GraphCatalog() {
  Catalog catalog;
  EXPECT_TRUE(
      catalog.AddRelation("E", MakeScheme({{"x", kP}, {"y", kP}})).ok());
  EXPECT_TRUE(catalog.AddRelation("V", MakeScheme({{"v", kP}})).ok());
  return catalog;
}

PositiveQuery Translate(const ExprPtr& e, const Catalog& catalog) {
  return std::move(TranslateToPositiveQuery(e, catalog)).value();
}

TEST(TranslateTest, RelationLeafAndSelections) {
  Catalog catalog = GraphCatalog();
  PositiveQuery q = Translate(ra::Rel("E"), catalog);
  ASSERT_EQ(q.disjuncts.size(), 1u);
  EXPECT_EQ(q.disjuncts[0].conjuncts().size(), 1u);
  EXPECT_EQ(q.disjuncts[0].summary().size(), 2u);

  // Self-loops: σ_{x=y}(E) unifies the variables.
  PositiveQuery loops = Translate(ra::SelectEq(ra::Rel("E"), "x", "y"),
                                  catalog);
  ASSERT_EQ(loops.disjuncts.size(), 1u);
  EXPECT_EQ(loops.disjuncts[0].num_vars(), 1u);

  // σ_{x≠y}σ_{x=y}(E) is unsatisfiable: the disjunct is dropped.
  PositiveQuery none = Translate(
      ra::SelectNeq(ra::SelectEq(ra::Rel("E"), "x", "y"), "x", "y"), catalog);
  EXPECT_TRUE(none.disjuncts.empty());

  // Unions concatenate, products multiply.
  ExprPtr u = ra::Union(ra::Rel("E"), ra::Rel("E"));
  EXPECT_EQ(Translate(u, catalog).disjuncts.size(), 2u);
  ExprPtr prod =
      ra::Product(u, ra::Rename(ra::Rename(u, "x", "x2"), "y", "y2"));
  EXPECT_EQ(Translate(prod, catalog).disjuncts.size(), 4u);

  // Difference is rejected (Definition 5.2).
  EXPECT_FALSE(
      TranslateToPositiveQuery(ra::Diff(ra::Rel("E"), ra::Rel("E")), catalog)
          .ok());
}

/// Translation preserves semantics: evaluating the positive query equals
/// evaluating the expression, on random graph databases.
class TranslationSemanticsTest
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TranslationSemanticsTest, QueryEvaluationMatchesAlgebra) {
  ExecContext ctx;
  Catalog catalog = GraphCatalog();
  SplitMix64 rng(GetParam());
  Database db;
  Relation e(MakeScheme({{"x", kP}, {"y", kP}}));
  Relation v(MakeScheme({{"v", kP}}));
  for (std::uint32_t i = 0; i < 4; ++i) {
    ASSERT_TRUE(v.Insert(Tuple{P(i)}).ok());
  }
  const std::size_t edges = 2 + rng.UniformInt(6);
  for (std::size_t i = 0; i < edges; ++i) {
    ASSERT_TRUE(e.Insert(Tuple{P(static_cast<std::uint32_t>(rng.UniformInt(4))),
                               P(static_cast<std::uint32_t>(rng.UniformInt(4)))})
                    .ok());
  }
  db.Put("E", std::move(e));
  db.Put("V", std::move(v));

  // Paths of length 2 with distinct endpoints, plus self-loop vertices.
  ExprPtr e2 = ra::Rename(ra::Rename(ra::Rel("E"), "x", "x2"), "y", "y2");
  ExprPtr paths = ra::Project(
      ra::SelectNeq(ra::SelectEq(ra::Product(ra::Rel("E"), e2), "y", "x2"),
                    "x", "y2"),
      {"x"});
  ExprPtr loops = ra::Project(ra::SelectEq(ra::Rel("E"), "x", "y"), {"x"});
  ExprPtr expr = ra::Union(paths, loops);

  Relation direct = std::move(Evaluate(expr, db)).value();
  PositiveQuery q = Translate(expr, GraphCatalog());
  Relation via_query = std::move(EvaluatePositiveQuery(q, db, ctx)).value();
  EXPECT_EQ(direct, via_query);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TranslationSemanticsTest,
                         ::testing::Range<std::uint64_t>(1, 11));

TEST(HomomorphismTest, ChandraMerlinClassics) {
  ExecContext ctx;
  // q_path(x) :- E(x,y), E(y,z)   vs   q_loop(x) :- E(x,x).
  ConjunctiveQuery path;
  VarId x = path.NewVar(kP), y = path.NewVar(kP), z = path.NewVar(kP);
  path.AddConjunct("E", {x, y});
  path.AddConjunct("E", {y, z});
  path.set_summary({x});

  ConjunctiveQuery loop;
  VarId w = loop.NewVar(kP);
  loop.AddConjunct("E", {w, w});
  loop.set_summary({w});

  // hom path → loop exists (collapse): so loop ⊆ path.
  EXPECT_TRUE(std::move(HasHomomorphism(path, loop, false, ctx)).value());
  // hom loop → path does not: path ⊄ loop.
  EXPECT_FALSE(std::move(HasHomomorphism(loop, path, false, ctx)).value());
}

TEST(KlugTest, NonEqualityBreaksTheHomomorphismTheorem) {
  ExecContext ctx;
  // Klug's phenomenon: with ≠, containment cannot be decided by one
  // canonical database. q1(x) :- E(x,y). q2(x) :- E(x,y), y≠x... q1 ⊄ q2
  // (loops), but the homomorphism q2 → q1 exists if ≠ is ignored.
  Catalog catalog = GraphCatalog();
  ExprPtr q1e = ra::Project(ra::Rel("E"), {"x"});
  ExprPtr q2e = ra::Project(ra::SelectNeq(ra::Rel("E"), "x", "y"), {"x"});
  PositiveQuery q1 = Translate(q1e, catalog);
  PositiveQuery q2 = Translate(q2e, catalog);
  DependencySet none;
  EXPECT_FALSE(std::move(ContainedUnder(q1, q2, none, catalog, ctx)).value());
  EXPECT_TRUE(std::move(ContainedUnder(q2, q1, none, catalog, ctx)).value());

  // The representative-set counterexample: the valuation collapsing x and y
  // (a loop) satisfies q1 but not q2.
  auto result =
      std::move(CheckContainment(q1, q2, none, catalog, true, ctx)).value();
  ASSERT_TRUE(result.counterexample.has_value());
  const Relation* edges = std::move(result.counterexample->Find("E")).value();
  ASSERT_EQ(edges->size(), 1u);
  EXPECT_EQ(edges->tuples().begin()->at(0), edges->tuples().begin()->at(1));
}

TEST(KlugTest, RepresentativeValuationCounts) {
  // n same-domain unconstrained variables yield Bell(n) partitions.
  ConjunctiveQuery q;
  VarId a = q.NewVar(kP), b = q.NewVar(kP), c = q.NewVar(kP);
  q.AddConjunct("V", {a});
  q.AddConjunct("V", {b});
  q.AddConjunct("V", {c});
  q.set_summary({a});
  EXPECT_EQ(CountRepresentativeValuations(q), 5u);  // Bell(3)

  // A non-equality removes the partitions merging that pair.
  q.AddNonEquality(a, b);
  EXPECT_EQ(CountRepresentativeValuations(q), 3u);

  // Different domains never merge.
  ConjunctiveQuery typed;
  VarId p = typed.NewVar(kP), r = typed.NewVar(1);
  typed.AddConjunct("V", {p});
  typed.AddConjunct("W", {r});
  typed.set_summary({p});
  EXPECT_EQ(CountRepresentativeValuations(typed), 1u);
}

TEST(UnionContainmentTest, SagivYannakakis) {
  ExecContext ctx;
  Catalog catalog = GraphCatalog();
  DependencySet none;
  // E ⊆ E ∪ loops, and loops ⊆ E, but E ⊄ loops.
  ExprPtr all = ra::Rel("E");
  ExprPtr loops = ra::SelectEq(ra::Rel("E"), "x", "y");
  PositiveQuery q_all = Translate(all, catalog);
  PositiveQuery q_loops = Translate(loops, catalog);
  PositiveQuery q_union = Translate(ra::Union(all, loops), catalog);
  EXPECT_TRUE(
      std::move(ContainedUnder(q_all, q_union, none, catalog, ctx)).value());
  EXPECT_TRUE(
      std::move(ContainedUnder(q_loops, q_all, none, catalog, ctx)).value());
  EXPECT_FALSE(
      std::move(ContainedUnder(q_all, q_loops, none, catalog, ctx)).value());
  EXPECT_TRUE(
      std::move(EquivalentUnder(q_all, q_union, none, catalog, ctx)).value());
}

TEST(DependencyContainmentTest, FunctionalDependencyEnablesContainment) {
  ExecContext ctx;
  // Under E: x→y, "two successors" implies they coincide:
  // q1() :- E(x,y1), E(x,y2), y1 ≠ y2 is unsatisfiable, hence contained in
  // anything — but only under the FD.
  Catalog catalog = GraphCatalog();
  ExprPtr e2 = ra::Rename(ra::Rename(ra::Rel("E"), "x", "x2"), "y", "y2");
  ExprPtr two = ra::Project(
      ra::SelectNeq(ra::SelectEq(ra::Product(ra::Rel("E"), e2), "x", "x2"),
                    "y", "y2"),
      std::vector<std::string>{});
  ExprPtr empty = ra::Project(
      ra::SelectNeq(ra::SelectEq(ra::Rel("E"), "x", "y"), "x", "y"),
      std::vector<std::string>{});
  PositiveQuery q_two = Translate(two, catalog);
  PositiveQuery q_empty = Translate(empty, catalog);
  ASSERT_TRUE(q_empty.disjuncts.empty());

  DependencySet none;
  EXPECT_FALSE(
      std::move(ContainedUnder(q_two, q_empty, none, catalog, ctx)).value());
  DependencySet fd;
  fd.fds.push_back(FunctionalDependency{"E", {"x"}, "y"});
  EXPECT_TRUE(
      std::move(ContainedUnder(q_two, q_empty, fd, catalog, ctx)).value());
}

TEST(DependencyContainmentTest, InclusionDependencyEnablesContainment) {
  ExecContext ctx;
  // Under E[x] ⊆ V, π_x(E) ⊆ V holds.
  Catalog catalog = GraphCatalog();
  ExprPtr sources = ra::Rename(ra::Project(ra::Rel("E"), {"x"}), "x", "v");
  ExprPtr verts = ra::Rel("V");
  PositiveQuery q_src = Translate(sources, catalog);
  PositiveQuery q_v = Translate(verts, catalog);
  DependencySet none;
  EXPECT_FALSE(
      std::move(ContainedUnder(q_src, q_v, none, catalog, ctx)).value());
  DependencySet ind;
  ind.inds.push_back(InclusionDependency{"E", {"x"}, "V"});
  EXPECT_TRUE(std::move(ContainedUnder(q_src, q_v, ind, catalog, ctx)).value());
}

TEST(DependencyContainmentTest, FdFilterOnRepresentativeInstances) {
  ExecContext ctx;
  // Completeness of the FD filter: under ∅→v (V is a singleton),
  // V × V ⊆ "the diagonal". Without the filter the valuation putting two
  // distinct values into V would wrongly refute containment.
  Catalog catalog = GraphCatalog();
  ExprPtr v2 = ra::Product(ra::Rel("V"), ra::Rename(ra::Rel("V"), "v", "v2"));
  ExprPtr diag = ra::SelectEq(v2, "v", "v2");
  PositiveQuery q_all = Translate(v2, catalog);
  PositiveQuery q_diag = Translate(diag, catalog);
  DependencySet singleton;
  singleton.fds.push_back(FunctionalDependency{"V", {}, "v"});
  EXPECT_TRUE(
      std::move(ContainedUnder(q_all, q_diag, singleton, catalog, ctx))
          .value());
  DependencySet none;
  EXPECT_FALSE(
      std::move(ContainedUnder(q_all, q_diag, none, catalog, ctx)).value());
}

TEST(SimplifyTest, PrunesSubsumedAndFalseDisjuncts) {
  ExecContext ctx;
  Catalog catalog = GraphCatalog();
  // Union of E(x,y) and the self-loop query σ_{x=y}(E): the loop disjunct
  // maps homomorphically into... no — the general disjunct maps into the
  // loop one (loops are edges), so the loop disjunct is subsumed.
  ExprPtr all = ra::Rel("E");
  ExprPtr loops = ra::SelectEq(ra::Rel("E"), "x", "y");
  PositiveQuery u = Translate(ra::Union(all, loops), catalog);
  ASSERT_EQ(u.disjuncts.size(), 2u);
  PositiveQuery pruned = SimplifyPositiveQuery(u, ctx);
  EXPECT_EQ(pruned.disjuncts.size(), 1u);

  // Identical disjuncts collapse to one.
  PositiveQuery dup = Translate(ra::Union(all, all), catalog);
  EXPECT_EQ(SimplifyPositiveQuery(dup, ctx).disjuncts.size(), 1u);

  // Pruning preserves semantics under containment both ways.
  DependencySet none;
  EXPECT_TRUE(
      std::move(EquivalentUnder(u, pruned, none, catalog, ctx)).value());

  // A ≠-guarded disjunct is NOT subsumed by the plain one (the plain
  // disjunct's homomorphism cannot satisfy strictness), nor vice versa.
  PositiveQuery mixed = Translate(
      ra::Union(loops, ra::SelectNeq(ra::Rel("E"), "x", "y")), catalog);
  EXPECT_EQ(SimplifyPositiveQuery(mixed, ctx).disjuncts.size(), 2u);
}

/// Ground-truth sweep: the decision agrees with brute-force evaluation over
/// all small databases satisfying the dependencies.
class ContainmentGroundTruthTest
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ContainmentGroundTruthTest, AgreesWithExhaustiveSmallModels) {
  Catalog catalog = GraphCatalog();
  SplitMix64 rng(GetParam());

  // Random small positive expressions over E with selections/projections.
  auto random_query = [&]() -> ExprPtr {
    ExprPtr e2 = ra::Rename(ra::Rename(ra::Rel("E"), "x", "x2"), "y", "y2");
    ExprPtr base = ra::SelectEq(ra::Product(ra::Rel("E"), e2), "y", "x2");
    switch (rng.UniformInt(4)) {
      case 0:
        return ra::Project(base, {"x"});
      case 1:
        return ra::Project(ra::SelectNeq(base, "x", "y2"), {"x"});
      case 2:
        return ra::Project(ra::Rel("E"), {"x"});
      default:
        return ra::Union(ra::Project(ra::SelectEq(ra::Rel("E"), "x", "y"),
                                     {"x"}),
                         ra::Project(base, {"x"}));
    }
  };
  ExprPtr e1 = random_query();
  ExprPtr e2 = random_query();
  PositiveQuery q1 = Translate(e1, catalog);
  PositiveQuery q2 = Translate(e2, catalog);
  DependencySet none;
  ExecContext ctx;
  auto verdict =
      std::move(CheckContainment(q1, q2, none, catalog, true, ctx)).value();

  if (!verdict.contained) {
    // A "not contained" verdict must come with a genuine counterexample:
    // evaluating both expressions on it exhibits a violating tuple.
    ASSERT_TRUE(verdict.counterexample.has_value());
    ASSERT_TRUE(verdict.counterexample_tuple.has_value());
    Relation r1 = std::move(Evaluate(e1, *verdict.counterexample)).value();
    Relation r2 = std::move(Evaluate(e2, *verdict.counterexample)).value();
    EXPECT_TRUE(r1.Contains(*verdict.counterexample_tuple));
    EXPECT_FALSE(r2.Contains(*verdict.counterexample_tuple));
  } else {
    // A "contained" verdict must hold on every graph over 3 vertices.
    for (std::uint32_t mask = 0; mask < 512; ++mask) {
      Database db;
      Relation v(MakeScheme({{"v", kP}}));
      for (std::uint32_t i = 0; i < 3; ++i) {
        ASSERT_TRUE(v.Insert(Tuple{P(i)}).ok());
      }
      Relation e(MakeScheme({{"x", kP}, {"y", kP}}));
      for (std::uint32_t bit = 0; bit < 9; ++bit) {
        if (mask & (1u << bit)) {
          ASSERT_TRUE(e.Insert(Tuple{P(bit / 3), P(bit % 3)}).ok());
        }
      }
      db.Put("V", std::move(v));
      db.Put("E", std::move(e));
      Relation r1 = std::move(Evaluate(e1, db)).value();
      Relation r2 = std::move(Evaluate(e2, db)).value();
      for (const Tuple& t : r1) {
        ASSERT_TRUE(r2.Contains(t)) << "mask " << mask;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ContainmentGroundTruthTest,
                         ::testing::Range<std::uint64_t>(1, 21));

// -- Differential suite: compiled containment vs. the canonical Database ----

/// What a reference run counted besides the engine counters.
struct ReferenceCounts {
  std::uint64_t fd_rejected = 0;  // valuations the FD filter skipped
  std::uint64_t valuations = 0;   // representative valuations visited
  std::uint64_t covered = 0;      // chased disjuncts the cover settled
};

/// The containment test spelled out over its public per-valuation pieces: a
/// canonical Database per representative valuation (BuildCanonicalInstance),
/// the FD filter on it (Satisfies), and membership of the summary in q2
/// (TupleInPositiveQuery). Without `cover` this is Klug's plain
/// enumeration, every valuation of every chased disjunct. With it, the
/// cover step runs where CheckContainment runs it: after the first
/// valuation found to be a member, once per chased disjunct, a strict
/// HasHomomorphism from each satisfiable disjunct of q2 — unless some
/// satisfiable disjunct of q2 fails to bind or has another summary arity.
Result<ContainmentResult> ReferenceContainment(const PositiveQuery& q1,
                                               const PositiveQuery& q2,
                                               const DependencySet& deps,
                                               const Catalog& catalog,
                                               bool cover,
                                               ReferenceCounts& counts,
                                               ExecContext& ctx) {
  if (!(q1.scheme == q2.scheme)) {
    return Status::InvalidArgument(
        "containment requires identical result schemes");
  }
  const ResolveRelation resolve = [&](const std::string& name)
      -> Result<std::pair<std::uint32_t, const RelationScheme*>> {
    SETREC_ASSIGN_OR_RETURN(const RelationScheme* scheme, catalog.Find(name));
    return std::pair(std::uint32_t{0}, scheme);
  };
  auto coverable = [&](const ConjunctiveQuery& chased) {
    for (const ConjunctiveQuery& q : q2.disjuncts) {
      if (q.trivially_false()) continue;
      if (q.summary().size() != chased.summary().size() ||
          !BindQuery(q, /*summary_bound=*/true, resolve).ok()) {
        return false;
      }
    }
    return true;
  };
  ContainmentResult result;
  for (const ConjunctiveQuery& disjunct : q1.disjuncts) {
    SETREC_ASSIGN_OR_RETURN(ConjunctiveQuery chased,
                            ChaseQuery(disjunct, deps, catalog, ctx));
    if (chased.trivially_false()) continue;
    bool try_cover = cover && coverable(chased);
    Status inner = Status::OK();
    bool refuted = false;
    Status enumerated = ForEachRepresentativeValuation(
        chased,
        [&](const std::vector<VarId>& block_of) {
          ++counts.valuations;
          Result<CanonicalInstance> canon =
              BuildCanonicalInstance(chased, block_of, catalog);
          if (!canon.ok()) {
            inner = canon.status();
            return false;
          }
          for (const FunctionalDependency& fd : deps.fds) {
            Result<bool> sat = Satisfies(canon->database, fd);
            if (!sat.ok()) {
              inner = sat.status();
              return false;
            }
            if (!*sat) {
              ++counts.fd_rejected;
              return true;
            }
          }
          Result<bool> member =
              TupleInPositiveQuery(q2, canon->summary, canon->database, ctx);
          if (!member.ok()) {
            inner = member.status();
            return false;
          }
          if (*member) {
            if (!try_cover) return true;
            try_cover = false;
            for (const ConjunctiveQuery& q : q2.disjuncts) {
              if (q.trivially_false()) continue;
              Result<bool> hom =
                  HasHomomorphism(q, chased, /*strict_neq=*/true, ctx);
              if (!hom.ok()) {
                inner = hom.status();
                return false;
              }
              if (*hom) {
                ++counts.covered;
                return false;
              }
            }
            return true;
          }
          result.counterexample = std::move(canon->database);
          result.counterexample_tuple = std::move(canon->summary);
          refuted = true;
          return false;
        },
        ctx);
    SETREC_RETURN_IF_ERROR(enumerated);
    SETREC_RETURN_IF_ERROR(inner);
    if (refuted) return result;
  }
  result.contained = true;
  return result;
}

/// One containment run: its outcome and what it charged.
struct ContainmentRun {
  Status status = Status::OK();
  ContainmentResult result;
  std::uint64_t steps = 0;
  std::uint64_t candidates = 0;
  std::uint64_t pruned = 0;
  std::uint64_t valuations = 0;
  std::uint64_t covered = 0;
};

template <typename Fn>
ContainmentRun Observe(Fn&& fn) {
  MetricsRegistry metrics;
  ExecContext ctx;
  ctx.set_metrics(&metrics);
  Result<ContainmentResult> r = fn(ctx);
  ContainmentRun run;
  if (r.ok()) {
    run.result = std::move(r).value();
  } else {
    run.status = r.status();
  }
  run.steps = ctx.steps();
  run.candidates = metrics.engine.hom_candidates.value();
  run.pruned = metrics.engine.hom_pruned.value();
  run.valuations = metrics.engine.containment_valuations.value();
  run.covered = metrics.engine.containment_covered.value();
  return run;
}

/// Expects two runs to agree on status text, verdict and counterexample.
void ExpectSameOutcome(const ContainmentRun& a, const ContainmentRun& b) {
  EXPECT_EQ(a.status.ToString(), b.status.ToString());
  EXPECT_EQ(a.result.contained, b.result.contained);
  EXPECT_EQ(a.result.counterexample, b.result.counterexample);
  EXPECT_EQ(a.result.counterexample_tuple, b.result.counterexample_tuple);
}

/// Runs CheckContainment (without simplification) and both references on
/// the same input. The compiled test must reach the plain enumeration's
/// status, verdict and counterexample, and charge exactly the work of the
/// reference that takes the same cover step. Returns that reference's
/// counts.
ReferenceCounts ExpectSameAsReference(const PositiveQuery& q1,
                                      const PositiveQuery& q2,
                                      const DependencySet& deps,
                                      const Catalog& catalog,
                                      const std::string& label) {
  SCOPED_TRACE(label);
  ReferenceCounts counts;
  ReferenceCounts plain_counts;
  const ContainmentRun compiled = Observe([&](ExecContext& ctx) {
    return CheckContainment(q1, q2, deps, catalog, /*simplify=*/false, ctx);
  });
  const ContainmentRun reference = Observe([&](ExecContext& ctx) {
    return ReferenceContainment(q1, q2, deps, catalog, /*cover=*/true, counts,
                                ctx);
  });
  const ContainmentRun plain = Observe([&](ExecContext& ctx) {
    return ReferenceContainment(q1, q2, deps, catalog, /*cover=*/false,
                                plain_counts, ctx);
  });
  ExpectSameOutcome(compiled, plain);
  ExpectSameOutcome(reference, plain);
  EXPECT_EQ(compiled.steps, reference.steps);
  EXPECT_EQ(compiled.candidates, reference.candidates);
  EXPECT_EQ(compiled.pruned, reference.pruned);
  EXPECT_EQ(compiled.valuations, counts.valuations);
  EXPECT_EQ(compiled.covered, counts.covered);
  return counts;
}

/// Both directions of every property reduction of `method`, simplified as
/// the decision procedure simplifies them.
void ExpectReductionsMatchReference(const AlgebraicUpdateMethod& method,
                                    OrderIndependenceKind kind,
                                    const std::string& label) {
  const MethodContext& mctx = method.context();
  auto reductions =
      std::move(BuildOrderIndependenceReduction(method, kind)).value();
  ASSERT_FALSE(reductions.empty());
  ExecContext ctx;
  for (const ReductionExpressions& r : reductions) {
    const PositiveQuery tt = SimplifyPositiveQuery(
        Translate(r.e_tt, mctx.reduction_catalog), ctx);
    const PositiveQuery ts = SimplifyPositiveQuery(
        Translate(r.e_ts, mctx.reduction_catalog), ctx);
    const std::string property = label + " property " +
                                 std::to_string(r.property);
    ExpectSameAsReference(tt, ts, mctx.reduction_deps, mctx.reduction_catalog,
                          property + " tt⊆ts");
    ExpectSameAsReference(ts, tt, mctx.reduction_deps, mctx.reduction_catalog,
                          property + " ts⊆tt");
  }
}

TEST(ContainmentDifferentialTest, E13ReductionsMatchTheReference) {
  DrinkersSchema ds = std::move(MakeDrinkersSchema()).value();
  PairSchema pairs = std::move(MakePairSchema()).value();
  PayrollSchema payroll = std::move(MakePayrollSchema()).value();
  auto add_bar = std::move(MakeAddBar(ds)).value();
  auto favorite_bar = std::move(MakeFavoriteBar(ds)).value();
  auto delete_bar = std::move(MakeDeleteBar(ds)).value();
  auto likes_serves = std::move(MakeLikesServesBar(ds)).value();
  auto copy_extend = std::move(MakeCopyExtendMethod(pairs)).value();
  auto payroll_b = std::move(MakeSalaryFromNewSal(payroll)).value();
  auto payroll_c = std::move(MakeSalaryFromManagersNewSal(payroll)).value();
  constexpr auto kAbs = OrderIndependenceKind::kAbsolute;
  constexpr auto kKey = OrderIndependenceKind::kKeyOrder;
  const std::vector<std::pair<const AlgebraicUpdateMethod*,
                              OrderIndependenceKind>>
      cases = {{add_bar.get(), kAbs},      {add_bar.get(), kKey},
               {favorite_bar.get(), kAbs}, {favorite_bar.get(), kKey},
               {delete_bar.get(), kAbs},   {likes_serves.get(), kAbs},
               {copy_extend.get(), kAbs},  {copy_extend.get(), kKey},
               {payroll_b.get(), kKey},    {payroll_c.get(), kKey}};
  for (const auto& [method, kind] : cases) {
    ExpectReductionsMatchReference(
        *method, kind,
        method->name() +
            (kind == kAbs ? std::string(" absolute") : " key-order"));
  }
}

TEST(ContainmentDifferentialTest, DecisionCorpusMatchesTheReference) {
  DrinkersSchema ds = std::move(MakeDrinkersSchema()).value();
  for (std::uint64_t seed = 1; seed < kCorpusEnd; ++seed) {
    auto method = std::move(AlgebraicUpdateMethod::Make(
                                &ds.schema,
                                MethodSignature({ds.drinker, ds.bar}),
                                "random",
                                {UpdateStatement{ds.frequents,
                                                 CorpusExpression(seed)}}))
                      .value();
    for (OrderIndependenceKind kind :
         {OrderIndependenceKind::kAbsolute, OrderIndependenceKind::kKeyOrder}) {
      ExpectReductionsMatchReference(*method, kind,
                                     "corpus seed " + std::to_string(seed));
    }
  }
}

/// A random safe conjunctive query over E and V with summary (x0): 2–4
/// variables, 1–3 E conjuncts, a V conjunct for every variable no E
/// conjunct covers, and sometimes a non-equality.
ConjunctiveQuery RandomGraphQuery(SplitMix64& rng) {
  ConjunctiveQuery q;
  const std::size_t n = 2 + rng.UniformInt(3);
  for (std::size_t i = 0; i < n; ++i) q.NewVar(kP);
  auto var = [&] { return static_cast<VarId>(rng.UniformInt(n)); };
  std::vector<bool> covered(n, false);
  const std::size_t edges = 1 + rng.UniformInt(3);
  for (std::size_t i = 0; i < edges; ++i) {
    const VarId a = var(), b = var();
    q.AddConjunct("E", {a, b});
    covered[a] = covered[b] = true;
  }
  for (VarId v = 0; v < n; ++v) {
    if (!covered[v] || rng.UniformInt(4) == 0) q.AddConjunct("V", {v});
  }
  if (rng.UniformInt(2) == 0) {
    const VarId a = var(), b = var();
    if (a != b) q.AddNonEquality(a, b);
  }
  q.set_summary({0});
  return q;
}

TEST(ContainmentDifferentialTest, RandomQueriesUnderFdsMatchTheReference) {
  ExecContext ctx;
  const Catalog catalog = GraphCatalog();
  const RelationScheme scheme = MakeScheme({{"v", kP}});
  std::uint64_t fd_rejected = 0;
  int contained = 0;
  int refuted = 0;
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    SplitMix64 rng(seed);
    PositiveQuery q1{scheme, {RandomGraphQuery(rng)}};
    PositiveQuery q2{scheme, {RandomGraphQuery(rng)}};
    if (rng.UniformInt(2) == 0) q2.disjuncts.push_back(RandomGraphQuery(rng));
    DependencySet deps;
    deps.fds.push_back(FunctionalDependency{"E", {"x"}, "y"});
    if (rng.UniformInt(3) == 0) {
      deps.fds.push_back(FunctionalDependency{"V", {}, "v"});
    }
    if (rng.UniformInt(2) == 0) {
      deps.inds.push_back(InclusionDependency{"E", {"y"}, "V"});
    }
    fd_rejected += ExpectSameAsReference(q1, q2, deps, catalog,
                                         "seed " + std::to_string(seed))
                       .fd_rejected;
    auto verdict =
        std::move(CheckContainment(q1, q2, deps, catalog, false, ctx)).value();
    ++(verdict.contained ? contained : refuted);
  }
  // The FD filter rejects valuations here (no E13 valuation is rejected),
  // and both verdicts occur.
  EXPECT_GT(fd_rejected, 0u);
  EXPECT_GT(contained, 0);
  EXPECT_GT(refuted, 0);
}

TEST(ContainmentDifferentialTest, MalformedInputsFailAsTheReferenceDoes) {
  ExecContext ctx;
  const Catalog catalog = GraphCatalog();
  const RelationScheme scheme = MakeScheme({{"v", kP}});
  auto query = [](std::vector<std::pair<std::string, std::vector<VarId>>>
                      conjuncts,
                  std::size_t num_vars) {
    ConjunctiveQuery q;
    for (std::size_t i = 0; i < num_vars; ++i) q.NewVar(kP);
    for (auto& [relation, vars] : conjuncts) {
      q.AddConjunct(relation, std::move(vars));
    }
    q.set_summary({0});
    return q;
  };
  const ConjunctiveQuery edge = query({{"E", {0, 1}}}, 2);
  const ConjunctiveQuery missing = query({{"E", {0, 1}}, {"W", {1}}}, 2);
  const ConjunctiveQuery short_edge = query({{"E", {0}}}, 1);
  const ConjunctiveQuery unsafe = query({{"E", {0, 1}}}, 3);
  ConjunctiveQuery mistyped = query({{"V", {0}}}, 1);
  mistyped.AddConjunct("E", {0, mistyped.NewVar(1)});

  struct Case {
    const char* label;
    ConjunctiveQuery q1;
    ConjunctiveQuery q2;
    DependencySet deps;
    StatusCode code;
  };
  DependencySet fd_on_missing;
  fd_on_missing.fds.push_back(FunctionalDependency{"W", {}, "w"});
  DependencySet fd_unknown_attribute;
  fd_unknown_attribute.fds.push_back(FunctionalDependency{"E", {"z"}, "y"});
  const std::vector<Case> cases = {
      {"q1 reads a relation missing from the catalog", missing, edge, {},
       StatusCode::kNotFound},
      {"q2 reads a relation missing from the catalog", edge, missing, {},
       StatusCode::kNotFound},
      {"q1 conjunct arity mismatch", short_edge, edge, {},
       StatusCode::kInvalidArgument},
      {"q2 conjunct arity mismatch", edge, short_edge, {},
       StatusCode::kInvalidArgument},
      {"q1 variable outside its attribute domain", mistyped, edge, {},
       StatusCode::kInvalidArgument},
      {"q2 unsafe variable", edge, unsafe, {}, StatusCode::kInvalidArgument},
      {"FD over a missing relation", edge, edge, fd_on_missing,
       StatusCode::kNotFound},
      {"FD over an unknown attribute", edge, edge, fd_unknown_attribute,
       StatusCode::kNotFound},
  };
  for (const Case& c : cases) {
    const PositiveQuery q1{scheme, {c.q1}};
    const PositiveQuery q2{scheme, {c.q2}};
    ExpectSameAsReference(q1, q2, c.deps, catalog, c.label);
    EXPECT_EQ(
        CheckContainment(q1, q2, c.deps, catalog, false, ctx).status().code(),
        c.code)
        << c.label;
  }

  // A malformed disjunct of q2 that only a later valuation reaches: the
  // first valuation of `edge` (a loop) is a member of `loop`, and `edge`
  // would cover, but the cover must not skip the valuation that fails.
  const ConjunctiveQuery loop = query({{"E", {0, 0}}}, 1);
  ConjunctiveQuery wide = edge;
  wide.set_summary({0, 1});
  struct Later {
    const char* label;
    ConjunctiveQuery bad;
    StatusCode code;
  };
  const std::vector<Later> later = {
      {"q2's later disjunct has another summary arity", wide,
       StatusCode::kInvalidArgument},
      {"q2's later disjunct reads a relation missing from the catalog",
       missing, StatusCode::kNotFound},
  };
  for (const Later& c : later) {
    const PositiveQuery q1{scheme, {edge}};
    const PositiveQuery q2{scheme, {loop, c.bad, edge}};
    ExpectSameAsReference(q1, q2, {}, catalog, c.label);
    EXPECT_EQ(CheckContainment(q1, q2, {}, catalog, false, ctx).status().code(),
              c.code)
        << c.label;
  }
}

// -- The cover step ----------------------------------------------------------

/// The single-edge query E(x, y) with summary (x).
ConjunctiveQuery EdgeQuery() {
  ConjunctiveQuery q;
  const VarId x = q.NewVar(kP), y = q.NewVar(kP);
  q.AddConjunct("E", {x, y});
  q.set_summary({x});
  return q;
}

TEST(ContainmentCoverTest, BottomDisjunctCoversNothing) {
  // E(x, y) ⊄ {⊥} ∪ {E(w, w)}: the first valuation (x = y) is a member of
  // the loop disjunct, which does not cover; ⊥ maps into anything but
  // witnesses nothing, so the refutation at x ≠ y must still be found.
  ExecContext ctx;
  const Catalog catalog = GraphCatalog();
  const RelationScheme scheme = MakeScheme({{"v", kP}});
  ConjunctiveQuery loop;
  const VarId w = loop.NewVar(kP);
  loop.AddConjunct("E", {w, w});
  loop.set_summary({w});
  ConjunctiveQuery bottom = loop;
  bottom.MarkTriviallyFalse();
  const PositiveQuery q1{scheme, {EdgeQuery()}};
  const PositiveQuery q2{scheme, {bottom, loop}};
  ExpectSameAsReference(q1, q2, {}, catalog, "⊥ next to a loop");
  Result<ContainmentResult> r =
      CheckContainment(q1, q2, {}, catalog, /*simplify=*/false, ctx);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_FALSE(r->contained);
  ASSERT_TRUE(r->counterexample_tuple.has_value());
}

TEST(ContainmentCoverTest, StepBudgetInsideTheCoverIsAnError) {
  const Catalog catalog = GraphCatalog();
  const PositiveQuery q{MakeScheme({{"v", kP}}), {EdgeQuery()}};
  FaultInjector observer;
  observer.set_recording(true);
  MetricsRegistry metrics;
  ExecContext observe;
  observe.set_fault_injector(&observer);
  observe.set_metrics(&metrics);
  Result<ContainmentResult> clean =
      CheckContainment(q, q, {}, catalog, /*simplify=*/false, observe);
  ASSERT_TRUE(clean.ok());
  EXPECT_TRUE(clean->contained);
  EXPECT_EQ(metrics.engine.containment_covered.value(), 1u);

  // A budget of every step before the cover's first node stops at that
  // node, and the stop is the call's status — not "not covered", which
  // would resume the enumeration and stop at its next checkpoint instead.
  const std::vector<std::string> probes = observer.recorded_probes();
  const auto first =
      std::find(probes.begin(), probes.end(), "homomorphism/map-node");
  ASSERT_NE(first, probes.end());
  ExecContext ctx(ExecContext::StepBudget(
      static_cast<std::uint64_t>(first - probes.begin())));
  Result<ContainmentResult> r =
      CheckContainment(q, q, {}, catalog, /*simplify=*/false, ctx);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(r.status().message(),
            "step budget exhausted at homomorphism/map-node");
}

/// RandomGraphQuery with at least one non-equality.
ConjunctiveQuery RandomNeqGraphQuery(SplitMix64& rng) {
  ConjunctiveQuery q = RandomGraphQuery(rng);
  const std::size_t n = q.num_vars();
  if (q.non_equalities().empty()) {
    const VarId a = static_cast<VarId>(rng.UniformInt(n));
    const VarId b = static_cast<VarId>((a + 1 + rng.UniformInt(n - 1)) % n);
    q.AddNonEquality(a, b);
  }
  return q;
}

TEST(ContainmentDifferentialTest, RandomNonEqualityQueriesMatchBothReferences) {
  ExecContext ctx;
  const Catalog catalog = GraphCatalog();
  const RelationScheme scheme = MakeScheme({{"v", kP}});
  int covered = 0;
  int uncovered_contained = 0;
  int refuted = 0;
  for (std::uint64_t seed = 1; seed <= 120; ++seed) {
    SplitMix64 rng(seed + 1000);
    const PositiveQuery q1{scheme, {RandomNeqGraphQuery(rng)}};
    PositiveQuery q2{scheme, {}};
    const std::size_t width = 1 + rng.UniformInt(3);
    for (std::size_t i = 0; i < width; ++i) {
      q2.disjuncts.push_back(RandomNeqGraphQuery(rng));
    }
    DependencySet deps;
    if (rng.UniformInt(2) == 0) {
      deps.fds.push_back(FunctionalDependency{"E", {"x"}, "y"});
    }
    const ReferenceCounts counts = ExpectSameAsReference(
        q1, q2, deps, catalog, "seed " + std::to_string(seed));
    auto verdict =
        std::move(CheckContainment(q1, q2, deps, catalog, false, ctx)).value();
    if (!verdict.contained) {
      ++refuted;
    } else if (counts.covered > 0) {
      ++covered;
    } else if (counts.valuations > 0) {
      ++uncovered_contained;
    }
  }
  EXPECT_GT(covered, 0);
  EXPECT_GT(uncovered_contained, 0);
  EXPECT_GT(refuted, 0);
}

TEST(ContainmentCoverTest, CopyExtendDecisionsCountTheirValuations) {
  // The reduction's heaviest pairs, both directions of both properties.
  // Key-order: the cover settles all 16 chased disjuncts, each after its
  // first valuation; the plain enumeration visits 13,656 valuations.
  // Absolute: both directions of one property are refuted at the first
  // valuation of a disjunct, after the cover settled the 7 before it; both
  // directions of the other are contained, with 11 of 13 disjuncts settled
  // and 2 paying for Klug's enumeration. The plain enumeration visits
  // 32,146 valuations.
  PairSchema pairs = std::move(MakePairSchema()).value();
  auto copy_extend = std::move(MakeCopyExtendMethod(pairs)).value();
  struct Expected {
    OrderIndependenceKind kind;
    std::uint64_t valuations;
    std::uint64_t covered;
  };
  for (const Expected& e :
       {Expected{OrderIndependenceKind::kAbsolute, 642, 36},
        Expected{OrderIndependenceKind::kKeyOrder, 16, 16}}) {
    MetricsRegistry metrics;
    ASSERT_TRUE(DecideOrderIndependenceCertified(*copy_extend, e.kind,
                                                 {.metrics = &metrics})
                    .ok());
    EXPECT_EQ(metrics.engine.containment_valuations.value(), e.valuations);
    EXPECT_EQ(metrics.engine.containment_covered.value(), e.covered);
  }
}

}  // namespace
}  // namespace setrec
