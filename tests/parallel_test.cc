// Tests for parallel application (Section 6): the par(E) rewriting
// (Definition 6.1) and its receiver-free hoisting, checked against the
// literal rewriting; M_par (Definition 6.2) and its exact evaluation
// counts; the singleton coincidence (Proposition 6.3), the
// transitive-closure separation (Example 6.4), the key-set coincidence
// theorem (Theorem 6.5) as a randomized property, and the parity gadget
// (footnote 8).

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>

#include "algebraic/gadgets.h"
#include "algebraic/method_library.h"
#include "algebraic/parallel.h"
#include "core/instance_generator.h"
#include "core/sequential.h"
#include "decision_corpus.h"
#include "obs/metrics.h"
#include "relational/builder.h"
#include "relational/evaluator.h"
#include "sql/table.h"

namespace setrec {
namespace {

TEST(ParTransformTest, RewritesLeavesAndOperators) {
  DrinkersSchema ds = std::move(MakeDrinkersSchema()).value();
  auto add_bar = std::move(MakeAddBar(ds)).value();
  const MethodContext& ctx = add_bar->context();
  ExprPtr par = std::move(ParTransform(add_bar->statements()[0].expression,
                                       ctx))
                    .value();
  // The rewritten expression references rec instead of self/arg1 and keeps
  // self in its result scheme.
  std::vector<std::string> rels = ReferencedRelations(*par);
  EXPECT_TRUE(std::find(rels.begin(), rels.end(), "rec") != rels.end());
  EXPECT_TRUE(std::find(rels.begin(), rels.end(), "self") == rels.end());
  EXPECT_TRUE(std::find(rels.begin(), rels.end(), "arg1") == rels.end());

  Catalog par_catalog = std::move(ParCatalog(ctx)).value();
  RelationScheme scheme = std::move(InferScheme(*par, par_catalog)).value();
  ASSERT_EQ(scheme.arity(), 2u);
  EXPECT_EQ(scheme.attribute(0).name, "self");
  EXPECT_EQ(scheme.attribute(0).domain, ds.drinker);
  EXPECT_EQ(scheme.attribute(1).domain, ds.bar);

  // Renaming the reserved attribute self is rejected.
  ExprPtr bad = ra::Rename(Expr::Relation("self"), "self", "elsewhere");
  EXPECT_EQ(ParTransform(bad, ctx).status().code(),
            StatusCode::kInvalidArgument);
}

/// Proposition 6.3: M_par(I, {t}) = M(I, t), as a randomized property over
/// the library methods.
class SingletonCoincidenceTest
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SingletonCoincidenceTest, ParallelOnSingletonEqualsDirect) {
  DrinkersSchema ds = std::move(MakeDrinkersSchema()).value();
  InstanceGenerator gen(&ds.schema, GetParam());
  InstanceGenerator::Options options;
  options.min_objects_per_class = 1;
  options.max_objects_per_class = 4;
  options.edge_probability = 0.4;
  Instance instance = gen.RandomInstance(options);

  std::vector<std::unique_ptr<AlgebraicUpdateMethod>> methods;
  methods.push_back(std::move(MakeAddBar(ds)).value());
  methods.push_back(std::move(MakeFavoriteBar(ds)).value());
  methods.push_back(std::move(MakeDeleteBar(ds)).value());
  methods.push_back(std::move(MakeLikesServesBar(ds)).value());
  for (const auto& method : methods) {
    std::vector<Receiver> one =
        gen.RandomReceiverSet(instance, method->signature(), 1);
    if (one.empty()) continue;
    Instance direct = std::move(method->Apply(instance, one[0])).value();
    Instance parallel =
        std::move(ParallelApply(*method, instance, one)).value();
    EXPECT_EQ(direct, parallel) << method->name();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SingletonCoincidenceTest,
                         ::testing::Range<std::uint64_t>(1, 13));

TEST(Example64Test, SequentialComputesTransitiveClosureParallelDoesNot) {
  ExecContext ctx;
  TcSchema tc = std::move(MakeTcSchema()).value();
  auto method = std::move(MakeTransitiveClosureMethod(tc)).value();

  // A 4-path 0 → 1 → 2 → 3 in e, no tc edges.
  Instance instance(&tc.schema);
  constexpr std::uint32_t kN = 4;
  for (std::uint32_t i = 0; i < kN; ++i) {
    ASSERT_TRUE(instance.AddObject(ObjectId(tc.c, i)).ok());
  }
  for (std::uint32_t i = 0; i + 1 < kN; ++i) {
    ASSERT_TRUE(
        instance.AddEdge(ObjectId(tc.c, i), tc.e, ObjectId(tc.c, i + 1)).ok());
  }
  std::vector<Receiver> all = InstanceGenerator::AllReceivers(
      instance, MethodSignature({tc.c, tc.c}));
  ASSERT_EQ(all.size(), kN * kN);

  // Parallel: every e-edge is duplicated as a tc-edge, nothing more.
  Instance parallel =
      std::move(ParallelApply(*method, instance, all)).value();
  EXPECT_EQ(parallel.edges(tc.tc).size(), kN - 1);
  for (const auto& [src, dst] : instance.edges(tc.e)) {
    EXPECT_TRUE(parallel.HasEdge(src, tc.tc, dst));
  }

  // Sequential: iterating the applications computes the transitive closure
  // (one pass over C × C receivers repeated until fixpoint; on a path,
  // n passes certainly suffice).
  Instance sequential = instance;
  for (std::uint32_t round = 0; round < kN; ++round) {
    sequential =
        std::move(ApplySequence(*method, sequential, all, ctx)).value();
  }
  std::size_t expected_tc = 0;
  for (std::uint32_t i = 0; i < kN; ++i) {
    for (std::uint32_t j = i + 1; j < kN; ++j) {
      EXPECT_TRUE(
          sequential.HasEdge(ObjectId(tc.c, i), tc.tc, ObjectId(tc.c, j)))
          << i << "→" << j;
      ++expected_tc;
    }
  }
  EXPECT_EQ(sequential.edges(tc.tc).size(), expected_tc);
}

/// Theorem 6.5: on key sets, sequential and parallel application coincide
/// for key-order independent methods — randomized over instances and key
/// sets for all library methods that are key-order independent.
class Theorem65Test : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(Theorem65Test, SequentialEqualsParallelOnKeySets) {
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
  methods.push_back(std::move(MakeLikesServesBar(ds)).value());
  for (const auto& method : methods) {
    std::vector<Receiver> keys =
        gen.RandomKeySet(instance, method->signature(), 3);
    ASSERT_TRUE(IsKeySet(keys));
    Instance sequential =
        std::move(ApplySequence(*method, instance, keys, ctx)).value();
    Instance parallel =
        std::move(ParallelApply(*method, instance, keys)).value();
    EXPECT_EQ(sequential, parallel) << method->name();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, Theorem65Test,
                         ::testing::Range<std::uint64_t>(1, 13));

TEST(Theorem65Test, FailsOnNonKeySetsForFavoriteBar) {
  ExecContext ctx;
  // The theorem's key-set hypothesis is necessary: favorite_bar on a
  // non-key set gives different sequential and parallel results (parallel
  // assigns *all* argument bars at once).
  DrinkersSchema ds = std::move(MakeDrinkersSchema()).value();
  auto favorite = std::move(MakeFavoriteBar(ds)).value();
  Instance instance(&ds.schema);
  const ObjectId d(ds.drinker, 0);
  const ObjectId b0(ds.bar, 0), b1(ds.bar, 1);
  ASSERT_TRUE(instance.AddObject(d).ok());
  ASSERT_TRUE(instance.AddObject(b0).ok());
  ASSERT_TRUE(instance.AddObject(b1).ok());
  std::vector<Receiver> non_key = {Receiver::Unchecked({d, b0}),
                                   Receiver::Unchecked({d, b1})};
  Instance parallel =
      std::move(ParallelApply(*favorite, instance, non_key)).value();
  // Parallel semantics: d points to both bars.
  EXPECT_EQ(parallel.Targets(d, ds.frequents),
            (std::vector<ObjectId>{b0, b1}));
  // Sequential (either order) leaves exactly one bar.
  Instance sequential =
      std::move(ApplySequence(*favorite, instance, non_key, ctx)).value();
  EXPECT_EQ(sequential.Targets(d, ds.frequents).size(), 1u);
}

/// Lemma 6.7 directly: on key sets, par(E)(I, T) = ∪_{t∈T} {t(self)} ×
/// E(I, t) — the per-receiver evaluations glued together by the self
/// column. (Stronger than the Theorem 6.5 end-to-end check: it pins the
/// *relation* par(E) computes, not just the final instance.)
class Lemma67Test : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(Lemma67Test, ParExpressionEqualsUnionOfPerReceiverResults) {
  DrinkersSchema ds = std::move(MakeDrinkersSchema()).value();
  InstanceGenerator gen(&ds.schema, GetParam());
  InstanceGenerator::Options options;
  options.min_objects_per_class = 2;
  options.max_objects_per_class = 4;
  options.edge_probability = 0.4;
  Instance instance = gen.RandomInstance(options);

  std::vector<std::unique_ptr<AlgebraicUpdateMethod>> methods;
  methods.push_back(std::move(MakeAddBar(ds)).value());
  methods.push_back(std::move(MakeDeleteBar(ds)).value());
  for (const auto& method : methods) {
    const MethodContext& ctx = method->context();
    std::vector<Receiver> keys =
        gen.RandomKeySet(instance, method->signature(), 3);
    if (keys.empty()) continue;
    const UpdateStatement& statement = method->statements()[0];

    // Left side: evaluate par(E) against the instance plus rec = keys.
    Database db = std::move(EncodeInstance(instance)).value();
    RelationScheme rec_scheme =
        std::move(RecScheme(ctx.signature)).value();
    Relation rec(rec_scheme);
    for (const Receiver& t : keys) {
      std::vector<ObjectId> values;
      for (std::size_t i = 0; i < t.size(); ++i) {
        values.push_back(t.object_at(i));
      }
      ASSERT_TRUE(rec.Insert(Tuple(std::move(values))).ok());
    }
    db.Put(kRecRelation, std::move(rec));
    ExprPtr par_expr =
        std::move(ParTransform(statement.expression, ctx)).value();
    Relation lhs = std::move(Evaluate(par_expr, db)).value();

    // Right side: ∪_t {t(self)} × E(I, t), computed per receiver.
    std::set<std::pair<ObjectId, ObjectId>> rhs;
    for (const Receiver& t : keys) {
      Database per = std::move(EncodeInstance(instance)).value();
      ASSERT_TRUE(
          InstallReceiverRelations(per, ctx, t, /*primed=*/false).ok());
      Relation value =
          std::move(Evaluate(statement.expression, per)).value();
      for (const Tuple& v : value) {
        rhs.emplace(t.receiving_object(), v.at(0));
      }
    }

    ASSERT_EQ(lhs.scheme().arity(), 2u) << method->name();
    std::size_t self_idx =
        std::move(lhs.scheme().IndexOf("self")).value();
    std::set<std::pair<ObjectId, ObjectId>> lhs_pairs;
    for (const Tuple& t : lhs) {
      lhs_pairs.emplace(t.at(self_idx), t.at(1 - self_idx));
    }
    EXPECT_EQ(lhs_pairs, rhs) << method->name();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, Lemma67Test,
                         ::testing::Range<std::uint64_t>(1, 11));

TEST(ParityTest, SequentialApplicationExpressesParity) {
  ExecContext ctx;
  // Footnote 8: greedy matching via sequential application leaves an
  // unmatched object iff |C| is odd — a query the relational algebra
  // (hence one-shot parallel application) cannot express.
  PairSchema ps = std::move(MakePairSchema()).value();
  auto method = std::move(MakeParityMethod(ps)).value();
  EXPECT_FALSE(method->IsPositiveMethod());

  for (std::uint32_t n = 1; n <= 5; ++n) {
    Instance instance(&ps.schema);
    for (std::uint32_t i = 0; i < n; ++i) {
      ASSERT_TRUE(instance.AddObject(ObjectId(ps.c, i)).ok());
    }
    std::vector<Receiver> all = InstanceGenerator::AllReceivers(
        instance, MethodSignature({ps.c, ps.c}));

    // Run several enumerations; the final instances may differ (the method
    // is order dependent) but the parity readout is invariant.
    std::vector<std::vector<Receiver>> orders;
    orders.push_back(all);
    orders.emplace_back(all.rbegin(), all.rend());
    std::vector<Receiver> shuffled = all;
    SplitMix64 rng(99 + n);
    for (std::size_t i = 0; i + 1 < shuffled.size(); ++i) {
      std::size_t j = i + rng.UniformInt(shuffled.size() - i);
      std::swap(shuffled[i], shuffled[j]);
    }
    orders.push_back(std::move(shuffled));

    for (const auto& order : orders) {
      Instance done = std::move(ApplySequence(*method, instance, order, ctx))
                          .value();
      std::set<ObjectId> matched;
      for (const auto& [src, dst] : done.edges(ps.a)) {
        matched.insert(src);
        matched.insert(dst);
      }
      const std::size_t unmatched = n - matched.size();
      EXPECT_EQ(unmatched, n % 2) << "n=" << n;
      // Matching edges pair distinct objects and form a matching.
      EXPECT_EQ(done.edges(ps.a).size(), n / 2);
    }
  }
}

// ---------------------------------------------------------------------------
// Receiver-free hoisting against the literal Definition 6.1
// ---------------------------------------------------------------------------

/// The literal Definition 6.1 rewriting, the reference ParTransform's
/// hoisting is checked against: every object relation becomes
/// π_self(rec) × R and every product a natural join on self, so each
/// receiver-free subplan is recomputed once per receiver.
class LiteralParRewriter {
 public:
  LiteralParRewriter(const MethodContext& context, const Catalog& catalog)
      : signature_(context.signature), catalog_(catalog) {}

  Result<ExprPtr> Transform(const ExprPtr& expr) {
    switch (expr->op()) {
      case Expr::Op::kRelation: {
        const std::string& name = expr->relation_name();
        if (name == kSelfRelation) {
          return ra::Project(ra::Rel(kRecRelation), {kSelfRelation});
        }
        for (std::size_t i = 0; i < signature_.num_args(); ++i) {
          if (name == ArgRelationName(i)) {
            return ra::Project(ra::Rel(kRecRelation),
                               {kSelfRelation, ArgRelationName(i)});
          }
        }
        return ra::Product(
            ra::Project(ra::Rel(kRecRelation), {kSelfRelation}),
            ra::Rel(name));
      }
      case Expr::Op::kUnion:
      case Expr::Op::kDifference: {
        SETREC_ASSIGN_OR_RETURN(ExprPtr l, Transform(expr->left()));
        SETREC_ASSIGN_OR_RETURN(ExprPtr r, Transform(expr->right()));
        return expr->op() == Expr::Op::kUnion ? ra::Union(l, r)
                                              : ra::Diff(l, r);
      }
      case Expr::Op::kProduct: {
        SETREC_ASSIGN_OR_RETURN(ExprPtr l, Transform(expr->left()));
        SETREC_ASSIGN_OR_RETURN(ExprPtr r, Transform(expr->right()));
        SETREC_ASSIGN_OR_RETURN(RelationScheme ls, InferScheme(*l, catalog_));
        SETREC_ASSIGN_OR_RETURN(RelationScheme rs, InferScheme(*r, catalog_));
        std::vector<std::string> keep;
        for (const Attribute& a : ls.attributes()) keep.push_back(a.name);
        for (const Attribute& a : rs.attributes()) {
          if (a.name != kSelfRelation) keep.push_back(a.name);
        }
        return ra::Project(
            ra::SelectEq(
                ra::Product(l, ra::Rename(r, kSelfRelation, "self§")),
                kSelfRelation, "self§"),
            std::move(keep));
      }
      case Expr::Op::kSelectEq:
      case Expr::Op::kSelectNeq: {
        SETREC_ASSIGN_OR_RETURN(ExprPtr c, Transform(expr->child()));
        return expr->op() == Expr::Op::kSelectEq
                   ? ra::SelectEq(c, expr->attr_a(), expr->attr_b())
                   : ra::SelectNeq(c, expr->attr_a(), expr->attr_b());
      }
      case Expr::Op::kProject: {
        SETREC_ASSIGN_OR_RETURN(ExprPtr c, Transform(expr->child()));
        std::vector<std::string> attrs = {kSelfRelation};
        for (const std::string& a : expr->projection()) attrs.push_back(a);
        return ra::Project(c, std::move(attrs));
      }
      case Expr::Op::kRename: {
        if (expr->rename_from() == kSelfRelation ||
            expr->rename_to() == kSelfRelation) {
          return Status::InvalidArgument(
              "par(E) cannot rename the reserved attribute self");
        }
        SETREC_ASSIGN_OR_RETURN(ExprPtr c, Transform(expr->child()));
        return ra::Rename(c, expr->rename_from(), expr->rename_to());
      }
    }
    return Status::Internal("unknown expression operator");
  }

 private:
  const MethodSignature& signature_;
  const Catalog& catalog_;
};

/// For every statement of `method`: the hoisted rewriting that
/// PrepareParallelApply produces and the literal one type-check to the same
/// scheme and evaluate to the same relation over the prepared database,
/// with rec a random key set, a random set in which some receiving object
/// carries several argument tuples, and the empty set.
void ExpectHoistingMatchesLiteral(const AlgebraicUpdateMethod& method,
                                  const Instance& instance,
                                  InstanceGenerator& gen) {
  const MethodContext& ctx = method.context();
  const MethodSignature& sig = method.signature();
  std::vector<std::vector<Receiver>> rec_sets;
  rec_sets.push_back(gen.RandomKeySet(instance, sig, 4));
  std::vector<Receiver> shared = gen.RandomReceiverSet(instance, sig, 8);
  const std::vector<Receiver> all =
      InstanceGenerator::AllReceivers(instance, sig);
  for (std::size_t i = 0; i + 1 < all.size(); ++i) {
    if (all[i].receiving_object() == all[i + 1].receiving_object()) {
      shared.push_back(all[i]);
      shared.push_back(all[i + 1]);
      break;
    }
  }
  rec_sets.push_back(std::move(shared));
  rec_sets.emplace_back();

  const Catalog catalog = std::move(ParCatalog(ctx)).value();
  ExecContext exec;
  for (const std::vector<Receiver>& rec : rec_sets) {
    Result<ParallelPlan> plan =
        PrepareParallelApply(method, instance, rec, exec);
    ASSERT_TRUE(plan.ok()) << method.name() << ": "
                           << plan.status().message();
    for (std::size_t i = 0; i < plan->statements.size(); ++i) {
      const ExprPtr& expression = method.statements()[i].expression;
      const ExprPtr& hoisted = plan->statements[i];
      const std::string label = method.name() + ": " +
                                ExprToString(*expression) + " with |rec| = " +
                                std::to_string(rec.size());
      Result<ExprPtr> literal =
          LiteralParRewriter(ctx, catalog).Transform(expression);
      ASSERT_TRUE(literal.ok()) << label << ": " << literal.status().message();
      Result<RelationScheme> literal_scheme = InferScheme(**literal, catalog);
      Result<RelationScheme> hoisted_scheme = InferScheme(*hoisted, catalog);
      ASSERT_TRUE(literal_scheme.ok()) << label;
      ASSERT_TRUE(hoisted_scheme.ok()) << label;
      EXPECT_EQ(*literal_scheme, *hoisted_scheme) << label;
      Result<Relation> want = Evaluate(*literal, plan->database);
      Result<Relation> got = Evaluate(hoisted, plan->database);
      ASSERT_TRUE(want.ok()) << label << ": " << want.status().message();
      ASSERT_TRUE(got.ok()) << label << ": " << got.status().message();
      EXPECT_TRUE(*want == *got)
          << label << "\n  hoisted: " << ExprToString(*hoisted);
    }
  }
}

class HoistingDifferentialTest
    : public ::testing::TestWithParam<std::uint64_t> {};

InstanceGenerator::Options SmallInstances() {
  InstanceGenerator::Options options;
  options.min_objects_per_class = 2;
  options.max_objects_per_class = 4;
  options.edge_probability = 0.4;
  return options;
}

TEST_P(HoistingDifferentialTest, DrinkersLibraryAndDecisionCorpus) {
  DrinkersSchema ds = std::move(MakeDrinkersSchema()).value();
  InstanceGenerator gen(&ds.schema, GetParam());
  const Instance instance = gen.RandomInstance(SmallInstances());
  std::vector<std::unique_ptr<AlgebraicUpdateMethod>> methods;
  methods.push_back(std::move(MakeAddBar(ds)).value());
  methods.push_back(std::move(MakeFavoriteBar(ds)).value());
  methods.push_back(std::move(MakeDeleteBar(ds)).value());
  methods.push_back(std::move(MakeLikesServesBar(ds)).value());
  methods.push_back(std::move(MakeClearBars(ds)).value());
  methods.push_back(std::move(MakeAllBars(ds)).value());  // receiver-free
  // The decision corpus: unions, "except the argument" products and π_∅
  // guards over receiver-free relations.
  for (std::uint64_t seed = 1; seed < kCorpusEnd; ++seed) {
    methods.push_back(
        std::move(AlgebraicUpdateMethod::Make(
                      &ds.schema, MethodSignature({ds.drinker, ds.bar}),
                      "corpus_" + std::to_string(seed),
                      {UpdateStatement{ds.frequents,
                                       CorpusExpression(seed)}}))
            .value());
  }
  // Shapes the library lacks: a receiver-free *left* factor whose
  // attribute order a union sees, a receiver-free guard as the left factor,
  // and a difference with a receiver-free left side.
  const ExprPtr own_bars =
      ra::Project(ra::JoinEq(ra::Rel("self"), ra::Rel("Df"), "self", "D"),
                  {"f"});
  const std::vector<ExprPtr> shapes = {
      ra::Project(
          ra::Union(ra::Product(ra::Rename(ra::Rel("Ba"), "Ba", "f"),
                                ra::Rel("arg1")),
                    ra::Product(ra::Rename(ra::Rel("arg1"), "arg1", "f"),
                                ra::Rename(ra::Rel("Ba"), "Ba", "arg1"))),
          {"f"}),
      ra::Product(ra::Guard(ra::Rel("Dl")),
                  ra::Rename(ra::Rel("arg1"), "arg1", "f")),
      ra::Diff(ra::Rename(ra::Rel("Ba"), "Ba", "f"), own_bars),
  };
  for (std::size_t i = 0; i < shapes.size(); ++i) {
    methods.push_back(
        std::move(AlgebraicUpdateMethod::Make(
                      &ds.schema, MethodSignature({ds.drinker, ds.bar}),
                      "shape_" + std::to_string(i),
                      {UpdateStatement{ds.frequents, shapes[i]}}))
            .value());
  }
  for (const auto& method : methods) {
    ExpectHoistingMatchesLiteral(*method, instance, gen);
  }
}

TEST_P(HoistingDifferentialTest, PairTcAndPayrollMethods) {
  PairSchema ps = std::move(MakePairSchema()).value();
  InstanceGenerator pair_gen(&ps.schema, GetParam());
  const Instance pairs = pair_gen.RandomInstance(SmallInstances());
  ExpectHoistingMatchesLiteral(
      *std::move(MakeConditionalDeleteMethod(ps)).value(), pairs, pair_gen);
  ExpectHoistingMatchesLiteral(*std::move(MakeCopyExtendMethod(ps)).value(),
                               pairs, pair_gen);
  ExpectHoistingMatchesLiteral(*std::move(MakeParityMethod(ps)).value(),
                               pairs, pair_gen);

  TcSchema tc = std::move(MakeTcSchema()).value();
  InstanceGenerator tc_gen(&tc.schema, GetParam());
  ExpectHoistingMatchesLiteral(
      *std::move(MakeTransitiveClosureMethod(tc)).value(),
      tc_gen.RandomInstance(SmallInstances()), tc_gen);

  PayrollSchema pay = std::move(MakePayrollSchema()).value();
  InstanceGenerator pay_gen(&pay.schema, GetParam());
  const Instance payroll = pay_gen.RandomInstance(SmallInstances());
  ExpectHoistingMatchesLiteral(*std::move(MakeSalaryFromNewSal(pay)).value(),
                               payroll, pay_gen);
  ExpectHoistingMatchesLiteral(
      *std::move(MakeSalaryFromManagersNewSal(pay)).value(), payroll,
      pay_gen);
}

TEST_P(HoistingDifferentialTest, EquivalenceGadgetGuardsAndDifferences) {
  // The Theorem 5.6 gadget conditions on π_∅ guards combined by
  // difference, some receiver-free and some not.
  DrinkersSchema ds = std::move(MakeDrinkersSchema()).value();
  EquivalenceGadget gadget =
      std::move(MakeEquivalenceGadget(ds.schema, ra::Rel("Df"),
                                      ra::Rel("Ba")))
          .value();
  InstanceGenerator gen(gadget.schema.get(), GetParam());
  ExpectHoistingMatchesLiteral(*gadget.method,
                               gen.RandomInstance(SmallInstances()), gen);
}

INSTANTIATE_TEST_SUITE_P(Seeds, HoistingDifferentialTest,
                         ::testing::Range<std::uint64_t>(1, 9));

TEST(HoistingDifferentialTest, RenamingSelfInsideAHoistedSubplanIsRejected) {
  DrinkersSchema ds = std::move(MakeDrinkersSchema()).value();
  auto add_bar = std::move(MakeAddBar(ds)).value();
  const MethodContext& ctx = add_bar->context();
  // Wholly receiver-free, as a product factor, and as a union operand.
  const ExprPtr to_self = ra::Rename(ra::Rel("Ba"), "Ba", "self");
  const ExprPtr from_self =
      ra::Rename(ra::Rename(ra::Rel("Ba"), "Ba", "self"), "self", "f");
  for (const ExprPtr& bad :
       {to_self, from_self,
        ra::Product(ra::Rel("arg1"), ra::Guard(to_self)),
        ra::Union(ra::Rename(ra::Rel("arg1"), "arg1", "f"), from_self)}) {
    EXPECT_EQ(ParTransform(bad, ctx).status().code(),
              StatusCode::kInvalidArgument)
        << ExprToString(*bad);
  }
}

/// Section 7's B′ at |T| = 4096 receivers over L = 4 raise levels. The
/// hoisted plan joins π_{self,arg1}(rec) with the 4-row NewSal once: one
/// row and one probe per receiver plus NewSal's own 4-row join, and two
/// 4-row hash tables. The literal plan charged 114,688 rows, 20,480
/// probes and 32,768 build rows. The counts are logical, so they hold at
/// every worker count under both backends.
TEST(ParallelCountsTest, PayrollBPrimeJoinsNewSalOnce) {
  constexpr std::uint32_t kReceivers = 4096;
  constexpr std::uint32_t kLevels = 4;
  PayrollSchema ps = std::move(MakePayrollSchema()).value();
  std::vector<EmployeeRow> employees;
  std::vector<NewSalRow> raises;
  for (std::uint32_t i = 0; i < kReceivers; ++i) {
    employees.push_back(EmployeeRow{i, 1000 + (i % kLevels), std::nullopt});
  }
  for (std::uint32_t s = 0; s < kLevels; ++s) {
    raises.push_back(NewSalRow{1000 + s, 2000 + s});
  }
  const Instance instance =
      std::move(BuildPayrollInstance(ps, employees, {}, raises)).value();
  auto method = std::move(MakeSalaryFromNewSal(ps)).value();
  std::vector<Receiver> receivers;
  const auto salaries = std::move(ReadSalaries(ps, instance)).value();
  for (auto [id, salary] : salaries) {
    receivers.push_back(Receiver::Unchecked(
        {ObjectId(ps.emp, id), ObjectId(ps.val, salary)}));
  }
  ASSERT_EQ(receivers.size(), kReceivers);

  std::optional<Instance> first;
  for (ExecBackend backend :
       {ExecBackend::kInterpreter, ExecBackend::kVectorized}) {
    for (std::size_t workers : {std::size_t{1}, std::size_t{2},
                                std::size_t{8}}) {
      MetricsRegistry metrics;
      ExecOptions options;
      options.metrics = &metrics;
      options.num_workers = workers;
      options.backend = backend;
      Result<Instance> out =
          ParallelApply(*method, instance, receivers, options);
      ASSERT_TRUE(out.ok()) << out.status().message();
      const std::string at = std::string(ExecBackendName(backend)) + " at " +
                             std::to_string(workers) + " workers";
      EXPECT_EQ(metrics.engine.eval_rows.value(), 4100u) << at;
      EXPECT_EQ(metrics.engine.eval_join_probes.value(), 4100u) << at;
      EXPECT_EQ(metrics.engine.eval_join_build_rows.value(), 8u) << at;
      EXPECT_EQ(metrics.engine.apply_edges.value(), 4096u) << at;
      if (!first.has_value()) first.emplace(*out);
      EXPECT_TRUE(*out == *first) << at;
    }
  }
}

/// An empty receiver set replaces no edge, so nothing is evaluated: not
/// even the receiver-free NewSal join, which would overrun a one-step
/// budget (the one step is the rewrite's statement checkpoint).
TEST(ParallelCountsTest, EmptyReceiverSetEvaluatesNothing) {
  PayrollSchema ps = std::move(MakePayrollSchema()).value();
  const std::vector<EmployeeRow> employees = {
      EmployeeRow{1, 1000, std::nullopt}};
  const std::vector<NewSalRow> raises = {NewSalRow{1000, 2000},
                                         NewSalRow{2000, 3000}};
  const Instance instance =
      std::move(BuildPayrollInstance(ps, employees, {}, raises)).value();
  auto method = std::move(MakeSalaryFromNewSal(ps)).value();
  ASSERT_EQ(method->statements().size(), 1u);

  MetricsRegistry metrics;
  ExecContext ctx{ExecContext::StepBudget(1)};
  ctx.set_metrics(&metrics);
  Result<Instance> out = ParallelApply(*method, instance, {}, {.ctx = &ctx});
  ASSERT_TRUE(out.ok()) << out.status().message();
  EXPECT_TRUE(*out == instance);
  EXPECT_EQ(metrics.engine.eval_rows.value(), 0u);
  EXPECT_EQ(metrics.engine.apply_edges.value(), 0u);
}

}  // namespace
}  // namespace setrec
