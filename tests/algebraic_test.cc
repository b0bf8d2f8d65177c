// Tests for algebraic update methods (Section 5): application semantics
// (Definition 5.4), the paper's named methods (Examples 2.7, 4.15, 5.5,
// 5.11) against Figures 2-5, validation rules and positivity; and M(I, t)
// over the bound instance against a reference that encodes what it reads.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "algebraic/method_library.h"
#include "algebraic/order_independence.h"
#include "core/instance_generator.h"
#include "core/sequential.h"
#include "decision_corpus.h"
#include "objrel/encoding.h"
#include "relational/builder.h"
#include "relational/evaluator.h"
#include "sql/table.h"

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

// -- M(I, t) over the bound instance against the encoded reference -----------

/// M(I, t) computed the way it was before method application bound the
/// instance: the read set encoded (EncodeInstance), the receiver relations
/// installed, every statement evaluated, the results spliced in.
Status ReferenceApplyInPlace(const AlgebraicUpdateMethod& method,
                             Instance& instance, const Receiver& receiver,
                             ExecContext& ctx) {
  if (!receiver.IsValidOver(method.signature(), instance)) {
    return Status::FailedPrecondition(
        "receiver is not valid over the instance for method " +
        method.name());
  }
  SETREC_ASSIGN_OR_RETURN(Database db,
                          EncodeInstance(instance, method.ReadRelations()));
  SETREC_RETURN_IF_ERROR(InstallReceiverRelations(db, method.context(),
                                                  receiver, /*primed=*/false));
  Evaluator evaluator(&db, ctx);
  std::vector<Relation> results;
  for (const UpdateStatement& s : method.statements()) {
    SETREC_ASSIGN_OR_RETURN(Relation r, evaluator.Eval(s.expression));
    results.push_back(std::move(r));
  }
  const ObjectId receiving = receiver.receiving_object();
  for (std::size_t i = 0; i < results.size(); ++i) {
    const PropertyId a = method.statements()[i].property;
    SETREC_RETURN_IF_ERROR(instance.ClearEdgesFrom(receiving, a));
    for (const Tuple& t : results[i]) {
      SETREC_RETURN_IF_ERROR(instance.AddEdge(receiving, a, t.at(0)));
    }
  }
  return Status::OK();
}

/// What applying a receiver sequence left: the instance, the first failure
/// (OK if none) and the logical counters charged.
struct Outcome {
  Instance instance;
  Status status;
  std::uint64_t rows = 0, probes = 0, build_rows = 0;
};

/// Applies `sequence` in order under one context with row budget
/// `max_rows` (0: none), stopping at the first failure, by ApplyInPlace or
/// by the reference.
Outcome RunSequence(const AlgebraicUpdateMethod& method,
                    const Instance& instance,
                    const std::vector<Receiver>& sequence,
                    std::uint64_t max_rows, bool reference) {
  MetricsRegistry metrics;
  ExecContext::Limits limits;
  limits.max_rows = max_rows;
  ExecContext ctx(limits);
  ctx.set_metrics(&metrics);
  Outcome out{instance, Status::OK()};
  for (const Receiver& t : sequence) {
    out.status = reference ? ReferenceApplyInPlace(method, out.instance, t, ctx)
                           : method.ApplyInPlace(out.instance, t, ctx);
    if (!out.status.ok()) break;
  }
  out.rows = metrics.engine.eval_rows.value();
  out.probes = metrics.engine.eval_join_probes.value();
  out.build_rows = metrics.engine.eval_join_build_rows.value();
  return out;
}

/// Over the bound database of each receiver of `sequence`, the interpreter
/// and the vectorized engine agree on every statement's result and on all
/// three join counters.
void ExpectBackendsAgreeWhenBound(const AlgebraicUpdateMethod& method,
                                  const Instance& instance,
                                  const std::vector<Receiver>& sequence,
                                  const std::string& tag) {
  for (const Receiver& t : sequence) {
    Database db = std::move(BindInstance(instance, method.context().catalog,
                                         method.ReadRelations()))
                      .value();
    ASSERT_TRUE(InstallReceiverRelations(db, method.context(), t,
                                         /*primed=*/false)
                    .ok());
    for (const UpdateStatement& s : method.statements()) {
      std::vector<Relation> results;
      std::vector<std::vector<std::uint64_t>> counters;
      for (ExecBackend backend :
           {ExecBackend::kInterpreter, ExecBackend::kVectorized}) {
        MetricsRegistry metrics;
        ExecContext ctx;
        ctx.set_metrics(&metrics);
        Evaluator evaluator(&db, ctx);
        evaluator.set_backend(backend);
        Result<Relation> r = evaluator.Eval(s.expression);
        ASSERT_TRUE(r.ok()) << tag << " " << r.status().message();
        results.push_back(std::move(r).value());
        counters.push_back({metrics.engine.eval_rows.value(),
                            metrics.engine.eval_join_probes.value(),
                            metrics.engine.eval_join_build_rows.value()});
      }
      const std::string at = tag + " " + method.name() + " " +
                             ExprToString(*s.expression);
      EXPECT_TRUE(results[0] == results[1]) << at;
      EXPECT_EQ(counters[0], counters[1]) << at;
    }
  }
}

/// Holds ApplyInPlace to the reference on `sequence`, unbudgeted and under
/// row budgets of 1, 2 and 3, and checks both backends over the bound
/// database. Returns the unbudgeted build rows of both sides.
std::pair<std::uint64_t, std::uint64_t> ExpectMatchesReference(
    const AlgebraicUpdateMethod& method, const Instance& instance,
    const std::vector<Receiver>& sequence, const std::string& tag) {
  std::pair<std::uint64_t, std::uint64_t> build_rows;
  for (std::uint64_t max_rows : {0u, 1u, 2u, 3u}) {
    const Outcome bound =
        RunSequence(method, instance, sequence, max_rows, false);
    const Outcome reference =
        RunSequence(method, instance, sequence, max_rows, true);
    const std::string at = tag + " " + method.name() + " max_rows " +
                           std::to_string(max_rows);
    EXPECT_EQ(bound.status, reference.status) << at;
    EXPECT_TRUE(bound.instance == reference.instance) << at;
    EXPECT_EQ(bound.rows, reference.rows) << at;
    EXPECT_EQ(bound.probes, reference.probes) << at;
    if (max_rows == 0) build_rows = {bound.build_rows, reference.build_rows};
  }
  ExpectBackendsAgreeWhenBound(method, instance, sequence, tag);
  return build_rows;
}

TEST(BoundApplyTest, MatchesTheReferenceOnTheDrinkersCorpus) {
  DrinkersSchema ds = std::move(MakeDrinkersSchema()).value();
  std::vector<std::unique_ptr<AlgebraicUpdateMethod>> methods;
  methods.push_back(std::move(MakeAddBar(ds)).value());
  methods.push_back(std::move(MakeFavoriteBar(ds)).value());
  methods.push_back(std::move(MakeDeleteBar(ds)).value());
  methods.push_back(std::move(MakeLikesServesBar(ds)).value());
  methods.push_back(std::move(MakeClearBars(ds)).value());
  methods.push_back(std::move(MakeAllBars(ds)).value());
  // The methods of the decision-procedure corpus.
  for (std::uint64_t seed = 1; seed < kCorpusEnd; ++seed) {
    methods.push_back(
        std::move(AlgebraicUpdateMethod::Make(
                      &ds.schema, MethodSignature({ds.drinker, ds.bar}),
                      "corpus" + std::to_string(seed),
                      {UpdateStatement{ds.frequents, CorpusExpression(seed)}}))
            .value());
  }
  std::uint64_t bound_build_rows = 0, reference_build_rows = 0;
  for (std::uint64_t seed = 0; seed < 16; ++seed) {
    InstanceGenerator gen(&ds.schema, seed);
    InstanceGenerator::Options options;
    options.min_objects_per_class = 2;
    options.max_objects_per_class = 6;
    const Instance instance = gen.RandomInstance(options);
    for (const auto& method : methods) {
      const std::vector<Receiver> sequence =
          gen.RandomReceiverSet(instance, method->signature(), 4);
      const auto [bound, reference] = ExpectMatchesReference(
          *method, instance, sequence, "seed " + std::to_string(seed));
      EXPECT_LE(bound, reference) << method->name();
      bound_build_rows += bound;
      reference_build_rows += reference;
    }
  }
  // The corpus exercises index builds: they build from fewer rows.
  EXPECT_LT(bound_build_rows, reference_build_rows);
}

TEST(BoundApplyTest, MatchesTheReferenceOnTheOtherLibrarySchemas) {
  TcSchema tc = std::move(MakeTcSchema()).value();
  PairSchema ps = std::move(MakePairSchema()).value();
  struct Case {
    const Schema* schema;
    std::unique_ptr<AlgebraicUpdateMethod> method;
  };
  std::vector<Case> cases;
  cases.push_back({&tc.schema,
                   std::move(MakeTransitiveClosureMethod(tc)).value()});
  cases.push_back({&ps.schema,
                   std::move(MakeConditionalDeleteMethod(ps)).value()});
  cases.push_back({&ps.schema, std::move(MakeCopyExtendMethod(ps)).value()});
  cases.push_back({&ps.schema, std::move(MakeParityMethod(ps)).value()});
  for (std::uint64_t seed = 0; seed < 16; ++seed) {
    for (const Case& c : cases) {
      InstanceGenerator gen(c.schema, seed);
      InstanceGenerator::Options options;
      options.min_objects_per_class = 2;
      options.max_objects_per_class = 6;
      const Instance instance = gen.RandomInstance(options);
      const std::vector<Receiver> sequence =
          gen.RandomReceiverSet(instance, c.method->signature(), 4);
      const auto [bound, reference] = ExpectMatchesReference(
          *c.method, instance, sequence, "seed " + std::to_string(seed));
      EXPECT_LE(bound, reference) << c.method->name();
    }
  }
}

TEST(BoundApplyTest, MatchesTheReferenceOnPayroll) {
  PayrollSchema ps = std::move(MakePayrollSchema()).value();
  std::vector<EmployeeRow> employees;
  std::vector<NewSalRow> raises;
  for (std::uint32_t i = 0; i < 24; ++i) {
    employees.push_back(EmployeeRow{
        i, 1000 + (i % 6),
        i == 0 ? std::nullopt : std::optional<std::uint32_t>(i / 4)});
  }
  for (std::uint32_t s = 0; s < 6; ++s) {
    raises.push_back(NewSalRow{1000 + s, 2000 + s});
  }
  const Instance instance =
      std::move(BuildPayrollInstance(ps, employees, {}, raises)).value();
  const auto b = std::move(MakeSalaryFromNewSal(ps)).value();
  const auto c = std::move(MakeSalaryFromManagersNewSal(ps)).value();
  std::vector<Receiver> salary_receivers;
  std::vector<Receiver> employee_receivers;
  for (const EmployeeRow& row : employees) {
    salary_receivers.push_back(Receiver::Unchecked(
        {ObjectId(ps.emp, row.id), ObjectId(ps.val, row.salary)}));
    employee_receivers.push_back(
        Receiver::Unchecked({ObjectId(ps.emp, row.id)}));
  }
  ExpectMatchesReference(*b, instance, salary_receivers, "payroll");
  const auto [bound, reference] =
      ExpectMatchesReference(*c, instance, employee_receivers, "payroll");
  // C' joins EmpManager by self and EmpSalary by Manager through the index.
  EXPECT_LT(bound, reference);
}

/// The exact work of M(I, t): a sequential add_bar builds its join from
/// each receiver's own Df edges at its turn, not from all of Df.
TEST(BoundApplyTest, AddBarBuildsFromTheReceiversOwnEdges) {
  constexpr std::uint32_t kDrinkers = 10000;
  constexpr std::uint32_t kBars = 100;
  DrinkersSchema ds = std::move(MakeDrinkersSchema()).value();
  Instance instance(&ds.schema);
  for (std::uint32_t b = 0; b < kBars; ++b) {
    ASSERT_TRUE(instance.AddObject(ObjectId(ds.bar, b)).ok());
  }
  for (std::uint32_t d = 0; d < kDrinkers; ++d) {
    const ObjectId drinker(ds.drinker, d);
    ASSERT_TRUE(instance.AddObject(drinker).ok());
    ASSERT_TRUE(instance
                    .AddEdge(drinker, ds.frequents,
                             ObjectId(ds.bar, d % kBars))
                    .ok());
    ASSERT_TRUE(instance
                    .AddEdge(drinker, ds.frequents,
                             ObjectId(ds.bar, (d * 7 + 3) % kBars))
                    .ok());
  }
  ASSERT_GT(instance.edges(ds.frequents).size(), 19000u);
  const auto add_bar = std::move(MakeAddBar(ds)).value();
  // Drinker 5 receives twice: at its second turn it has the bar the first
  // one added.
  const std::vector<Receiver> receivers = CanonicalReceiverSet(std::vector{
      Receiver::Unchecked({ObjectId(ds.drinker, 5), ObjectId(ds.bar, 90)}),
      Receiver::Unchecked({ObjectId(ds.drinker, 5), ObjectId(ds.bar, 91)}),
      Receiver::Unchecked({ObjectId(ds.drinker, 17), ObjectId(ds.bar, 2)}),
      Receiver::Unchecked({ObjectId(ds.drinker, 4242), ObjectId(ds.bar, 42)})});
  std::uint64_t own_edges = 0;
  Instance walk = instance;
  for (const Receiver& t : receivers) {
    own_edges += walk.Targets(t.receiving_object(), ds.frequents).size();
    walk = std::move(add_bar->Apply(walk, t)).value();
  }
  ASSERT_EQ(own_edges, 2u + 3u + 2u + 2u);

  MetricsRegistry metrics;
  Result<Instance> out =
      SequentialApply(*add_bar, instance, receivers, {.metrics = &metrics});
  ASSERT_TRUE(out.ok()) << out.status().message();
  EXPECT_TRUE(*out == walk);
  EXPECT_EQ(metrics.engine.eval_join_build_rows.value(), own_edges);
  EXPECT_EQ(metrics.engine.eval_join_probes.value(), 4u);
  const Outcome reference =
      RunSequence(*add_bar, instance, receivers, 0, /*reference=*/true);
  ASSERT_TRUE(reference.status.ok());
  EXPECT_EQ(metrics.engine.eval_rows.value(), reference.rows);
}

}  // namespace
}  // namespace setrec
