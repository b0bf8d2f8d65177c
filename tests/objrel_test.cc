// Tests for the object-relational encoding (Section 5.1, Proposition 5.1):
// the encode/decode round trip, the induced dependencies, queries over
// encoded instances, and the binding that method application reads.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "algebraic/method_library.h"
#include "core/instance_generator.h"
#include "objrel/encoding.h"
#include "relational/builder.h"
#include "relational/evaluator.h"
#include "sql/table.h"

namespace setrec {
namespace {

TEST(EncodingTest, CatalogShapesFollowTheSchema) {
  DrinkersSchema ds = std::move(MakeDrinkersSchema()).value();
  Catalog catalog = std::move(EncodeCatalog(ds.schema)).value();
  // Unary class relations D, Ba, Be; binary property relations Df, Dl, Bas.
  EXPECT_EQ(catalog.Names(),
            (std::vector<std::string>{"Ba", "Bas", "Be", "D", "Df", "Dl"}));
  const RelationScheme* df = std::move(catalog.Find("Df")).value();
  ASSERT_EQ(df->arity(), 2u);
  EXPECT_EQ(df->attribute(0).name, "D");
  EXPECT_EQ(df->attribute(0).domain, ds.drinker);
  EXPECT_EQ(df->attribute(1).name, "f");
  EXPECT_EQ(df->attribute(1).domain, ds.bar);
}

TEST(EncodingTest, NameCollisionsAreRejected) {
  Schema schema;
  ClassId a = std::move(schema.AddClass("A")).value();
  ClassId ab = std::move(schema.AddClass("AB")).value();
  // A+"BC" collides with AB+"C".
  ASSERT_TRUE(schema.AddProperty("BC", a, a).ok());
  ASSERT_TRUE(schema.AddProperty("C", ab, a).ok());
  EXPECT_EQ(EncodeCatalog(schema).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(EncodingTest, InducedDependenciesAreExactlyThePaperList) {
  DrinkersSchema ds = std::move(MakeDrinkersSchema()).value();
  DependencySet deps = InducedDependencies(ds.schema);
  // Two full INDs per edge, one disjointness per class pair.
  EXPECT_EQ(deps.inds.size(), 6u);
  EXPECT_EQ(deps.disjointness.size(), 3u);
  EXPECT_TRUE(deps.fds.empty());
  EXPECT_EQ(deps.inds[0].from_relation, "Df");
  EXPECT_EQ(deps.inds[0].to_relation, "D");
  EXPECT_EQ(deps.inds[1].from_relation, "Df");
  EXPECT_EQ(deps.inds[1].to_relation, "Ba");
}

/// Proposition 5.1 as a property: encode/decode is the identity, and every
/// encoded instance satisfies the induced dependencies.
class RoundTripTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RoundTripTest, EncodeDecodeIsIdentityAndDependenciesHold) {
  DrinkersSchema ds = std::move(MakeDrinkersSchema()).value();
  InstanceGenerator gen(&ds.schema, GetParam());
  InstanceGenerator::Options options;
  options.min_objects_per_class = 0;
  options.max_objects_per_class = 5;
  options.edge_probability = 0.4;
  Instance instance = gen.RandomInstance(options);

  Database db = std::move(EncodeInstance(instance)).value();
  EXPECT_TRUE(
      std::move(SatisfiesAll(db, InducedDependencies(ds.schema))).value());
  Instance decoded = std::move(DecodeInstance(db, ds.schema)).value();
  EXPECT_EQ(decoded, instance);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RoundTripTest,
                         ::testing::Range<std::uint64_t>(1, 13));

TEST(EncodingTest, DecodeRejectsDanglingTuples) {
  DrinkersSchema ds = std::move(MakeDrinkersSchema()).value();
  Instance instance(&ds.schema);
  const ObjectId d(ds.drinker, 0);
  const ObjectId b(ds.bar, 0);
  ASSERT_TRUE(instance.AddObject(d).ok());
  ASSERT_TRUE(instance.AddObject(b).ok());
  ASSERT_TRUE(instance.AddEdge(d, ds.frequents, b).ok());
  Database db = std::move(EncodeInstance(instance)).value();

  // Break the inclusion dependency: drop Ba's only object from its class
  // relation while keeping the Df tuple.
  Relation empty_bar(std::move(db.Find("Ba")).value()->scheme());
  db.Put("Ba", std::move(empty_bar));
  EXPECT_FALSE(
      std::move(SatisfiesAll(db, InducedDependencies(ds.schema))).value());
  EXPECT_FALSE(DecodeInstance(db, ds.schema).ok());
}

TEST(EncodingTest, QueriesOverEncodedInstances) {
  // The paper's Section 5.1 example query shape: bars frequented by a
  // drinker that serve a beer the drinker likes.
  DrinkersSchema ds = std::move(MakeDrinkersSchema()).value();
  Instance instance(&ds.schema);
  const ObjectId d(ds.drinker, 0);
  const ObjectId b0(ds.bar, 0), b1(ds.bar, 1);
  const ObjectId beer(ds.beer, 0);
  for (ObjectId o : {d}) ASSERT_TRUE(instance.AddObject(o).ok());
  for (ObjectId o : {b0, b1}) ASSERT_TRUE(instance.AddObject(o).ok());
  ASSERT_TRUE(instance.AddObject(beer).ok());
  ASSERT_TRUE(instance.AddEdge(d, ds.frequents, b0).ok());
  ASSERT_TRUE(instance.AddEdge(d, ds.frequents, b1).ok());
  ASSERT_TRUE(instance.AddEdge(d, ds.likes, beer).ok());
  ASSERT_TRUE(instance.AddEdge(b1, ds.serves, beer).ok());

  Database db = std::move(EncodeInstance(instance)).value();
  // Df ⋈_{D=D2} ρ(Dl), then match the frequented bar against Bas on both
  // the bar and the liked beer.
  ExprPtr dl2 = ra::Rename(ra::Rel("Dl"), "D", "D2");
  ExprPtr join1 = ra::JoinEq(ra::Rel("Df"), dl2, "D", "D2");
  ExprPtr bas2 = ra::Rename(ra::Rel("Bas"), "Ba", "Ba2");
  ExprPtr join2 = ra::SelectEq(ra::SelectEq(ra::Product(join1, bas2), "f",
                                            "Ba2"),
                               "l", "s");
  Relation result =
      std::move(Evaluate(ra::Project(join2, {"f"}), db)).value();
  ASSERT_EQ(result.size(), 1u);
  EXPECT_TRUE(result.Contains(Tuple{b1}));
}

// -- Read-set encoding --------------------------------------------------------

/// Full and read-set evaluations agree on the result, or fail with the
/// same status.
void ExpectSameOutcome(const Result<Relation>& full,
                       const Result<Relation>& read_set,
                       const std::string& what) {
  ASSERT_EQ(full.ok(), read_set.ok()) << what;
  if (full.ok()) {
    EXPECT_TRUE(*full == *read_set) << what;
  } else {
    EXPECT_EQ(full.status(), read_set.status()) << what;
  }
}

/// Evaluates `expr` for receiver `t` over `db` with the receiver relations
/// installed.
Result<Relation> EvalForReceiver(const ExprPtr& expr, Database db,
                                 const MethodContext& context,
                                 const Receiver& t) {
  SETREC_RETURN_IF_ERROR(InstallReceiverRelations(db, context, t, false));
  return Evaluate(expr, db);
}

/// M(I, t) computed from the full encoding: evaluate every statement, then
/// replace the receiving object's a-edges.
Result<Instance> ApplyOverFullEncoding(const AlgebraicUpdateMethod& method,
                                       const Instance& instance,
                                       const Receiver& t) {
  SETREC_ASSIGN_OR_RETURN(Database db, EncodeInstance(instance));
  Instance out = instance;
  std::vector<Relation> results;
  for (const UpdateStatement& s : method.statements()) {
    SETREC_ASSIGN_OR_RETURN(
        Relation r, EvalForReceiver(s.expression, db, method.context(), t));
    results.push_back(std::move(r));
  }
  for (std::size_t i = 0; i < results.size(); ++i) {
    const PropertyId a = method.statements()[i].property;
    SETREC_RETURN_IF_ERROR(out.ClearEdgesFrom(t.receiving_object(), a));
    for (const Tuple& target : results[i]) {
      SETREC_RETURN_IF_ERROR(out.AddEdge(t.receiving_object(), a, target.at(0)));
    }
  }
  return out;
}

/// Checks every statement of `method` (and `extra` statement-shaped
/// expressions, which may be ill-formed) for every receiver of `receivers`,
/// every query of `queries`, and Apply itself, against the full encoding.
void CheckReadSetEncoding(const AlgebraicUpdateMethod& method,
                          const Instance& instance,
                          const std::vector<Receiver>& receivers,
                          const std::vector<ExprPtr>& extra,
                          const std::vector<ExprPtr>& queries,
                          const std::string& tag) {
  const Database full = std::move(EncodeInstance(instance)).value();
  std::vector<ExprPtr> expressions = extra;
  for (const UpdateStatement& s : method.statements()) {
    expressions.push_back(s.expression);
  }
  for (const Receiver& t : receivers) {
    for (const ExprPtr& e : expressions) {
      const Database read_set = std::move(
          EncodeInstance(instance, ReferencedRelations(*e))).value();
      ExpectSameOutcome(EvalForReceiver(e, full, method.context(), t),
                        EvalForReceiver(e, read_set, method.context(), t),
                        tag + " " + method.name() + " " + ExprToString(*e));
    }
    Result<Instance> applied = method.Apply(instance, t);
    Result<Instance> reference = ApplyOverFullEncoding(method, instance, t);
    ASSERT_EQ(applied.ok(), reference.ok()) << tag << " " << method.name();
    if (applied.ok()) {
      EXPECT_TRUE(*applied == *reference) << tag << " " << method.name();
    } else {
      EXPECT_EQ(applied.status(), reference.status()) << tag;
    }
  }
  for (const ExprPtr& q : queries) {
    const Database read_set =
        std::move(EncodeInstance(instance, ReferencedRelations(*q))).value();
    ExpectSameOutcome(Evaluate(q, full), Evaluate(q, read_set),
                      tag + " query " + ExprToString(*q));
  }
}

TEST(ReadSetEncodingTest, MatchesTheFullEncodingOnTheDrinkersCorpus) {
  DrinkersSchema ds = std::move(MakeDrinkersSchema()).value();
  std::vector<std::unique_ptr<AlgebraicUpdateMethod>> methods;
  methods.push_back(std::move(MakeAddBar(ds)).value());
  methods.push_back(std::move(MakeFavoriteBar(ds)).value());
  methods.push_back(std::move(MakeDeleteBar(ds)).value());
  methods.push_back(std::move(MakeLikesServesBar(ds)).value());
  methods.push_back(std::move(MakeClearBars(ds)).value());
  methods.push_back(std::move(MakeAllBars(ds)).value());
  // Ill-formed expressions must fail identically: an unknown relation, a
  // union of mismatched schemes, a projection onto a missing attribute.
  const std::vector<ExprPtr> broken = {
      ra::Union(ra::Rel("self"), ra::Rel("Nope")),
      ra::Union(ra::Rel("Df"), ra::Rel("Dl")),
      ra::Project(ra::Rel("Df"), {"zzz"})};
  const std::vector<ExprPtr> queries = {
      ra::Project(ra::JoinEq(ra::Rel("Dl"), ra::Rel("Bas"), "l", "s"),
                  {"D", "Ba"}),
      ra::Product(ra::Rel("D"), ra::Rel("Ba")),
      ra::Diff(ra::Project(ra::Rel("Df"), {"D"}),
               ra::Project(ra::Rel("Dl"), {"D"})),
      ra::Rel("Nope"),
      ra::Union(ra::Rel("Df"), ra::Rel("Bas"))};
  for (std::uint64_t seed = 0; seed < 16; ++seed) {
    InstanceGenerator gen(&ds.schema, seed);
    InstanceGenerator::Options options;
    options.min_objects_per_class = 2;
    options.max_objects_per_class = 6;
    const Instance instance = gen.RandomInstance(options);
    for (const auto& method : methods) {
      const std::vector<Receiver> receivers =
          gen.RandomReceiverSet(instance, method->signature(), 4);
      CheckReadSetEncoding(*method, instance, receivers, broken, queries,
                           "seed " + std::to_string(seed));
    }
  }
}

TEST(ReadSetEncodingTest, MatchesTheFullEncodingOnPayroll) {
  ExecContext ctx;
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
  // The §7 set-oriented update's receiver query.
  const ExprPtr update_query = ra::Project(
      ra::JoinEq(ra::Rel("EmpSalary"),
                 ra::Project(ra::JoinEq(ra::Rel("NSOld"),
                                        ra::Rename(ra::Rel("NSNew"), "NS",
                                                   "NS2"),
                                        "NS", "NS2"),
                             {"Old", "New"}),
                 "Salary", "Old"),
      {"Emp", "New"});
  std::vector<Receiver> salary_receivers;
  std::vector<Receiver> employee_receivers;
  for (const EmployeeRow& row : employees) {
    salary_receivers.push_back(Receiver::Unchecked(
        {ObjectId(ps.emp, row.id), ObjectId(ps.val, row.salary)}));
    employee_receivers.push_back(
        Receiver::Unchecked({ObjectId(ps.emp, row.id)}));
  }
  CheckReadSetEncoding(*b, instance, salary_receivers, {}, {update_query},
                       "payroll");
  CheckReadSetEncoding(*c, instance, employee_receivers, {}, {update_query},
                       "payroll");

  // ReceiversFromQuery (read-set encoded) against the full encoding.
  const Relation full =
      std::move(Evaluate(update_query, EncodeInstance(instance).value()))
          .value();
  const auto receivers = std::move(ReceiversFromQuery(
      update_query, instance, b->signature(), ctx)).value();
  ASSERT_EQ(receivers.size(), full.size());
  std::size_t i = 0;
  for (const Tuple* t : full.SortedTuples()) {
    EXPECT_EQ(receivers[i++], Receiver::Unchecked(t->values()));
  }
}

// -- Binding ------------------------------------------------------------------

TEST(BindingTest, BoundRelationsReadLikeTheEncoding) {
  DrinkersSchema ds = std::move(MakeDrinkersSchema()).value();
  const Catalog catalog = std::move(EncodeCatalog(ds.schema)).value();
  const std::vector<std::string> names = catalog.Names();
  const std::vector<ExprPtr> queries = {
      ra::Project(ra::JoinEq(ra::Rel("Dl"), ra::Rel("Bas"), "l", "s"),
                  {"D", "Ba"}),
      ra::Project(ra::JoinEq(ra::Rename(ra::Rel("D"), "D", "D0"),
                             ra::Rel("Df"), "D0", "D"),
                  {"f"}),
      ra::JoinEq(ra::Rename(ra::Rel("Ba"), "Ba", "B2"), ra::Rel("Bas"), "B2",
                 "Ba"),
      ra::JoinEq(ra::Rename(ra::Rel("Df"), "D", "D2"), ra::Rel("Dl"), "D2",
                 "D"),
      ra::Diff(ra::Project(ra::Rel("Df"), {"D"}),
               ra::Project(ra::Rel("Dl"), {"D"})),
      ra::Rel("Nope")};
  const Counter& rows = InstanceCosts().encoded_rows;
  for (std::uint64_t seed = 0; seed < 16; ++seed) {
    InstanceGenerator gen(&ds.schema, seed);
    InstanceGenerator::Options options;
    options.min_objects_per_class = 2;
    options.max_objects_per_class = 6;
    const Instance instance = gen.RandomInstance(options);
    const std::string tag = "seed " + std::to_string(seed);

    std::uint64_t before = rows.value();
    const Database encoded = std::move(EncodeInstance(instance)).value();
    EXPECT_EQ(rows.value() - before,
              instance.num_objects() + instance.num_edges())
        << tag;

    // Binding encodes the class relations and no property relation; scheme
    // and size lookups read none.
    before = rows.value();
    const Database bound =
        std::move(BindInstance(instance, catalog, names)).value();
    EXPECT_EQ(rows.value() - before, instance.num_objects()) << tag;
    before = rows.value();
    EXPECT_EQ(bound.Names(), encoded.Names()) << tag;
    for (const std::string& name : names) {
      EXPECT_EQ(*std::move(bound.FindScheme(name)).value(),
                std::move(encoded.Find(name)).value()->scheme())
          << tag << " " << name;
      EXPECT_EQ(std::move(bound.FindSize(name)).value(),
                std::move(encoded.Find(name)).value()->size())
          << tag << " " << name;
    }
    EXPECT_EQ(rows.value() - before, 0u) << tag;

    // Index reads materialize nothing; whole reads materialize each
    // property relation once.
    for (const ExprPtr& q : {queries[1], queries[2]}) {
      ExpectSameOutcome(Evaluate(q, encoded), Evaluate(q, bound),
                        tag + " query " + ExprToString(*q));
    }
    EXPECT_EQ(rows.value() - before, 0u) << tag;
    EXPECT_TRUE(bound == encoded) << tag;
    EXPECT_EQ(rows.value() - before, instance.num_edges()) << tag;
    for (const ExprPtr& q : queries) {
      ExpectSameOutcome(Evaluate(q, encoded), Evaluate(q, bound),
                        tag + " query " + ExprToString(*q));
    }
    EXPECT_EQ(rows.value() - before, instance.num_edges()) << tag;
  }
}

TEST(BindingTest, ReadSetEncodingCountsItsRows) {
  DrinkersSchema ds = std::move(MakeDrinkersSchema()).value();
  InstanceGenerator gen(&ds.schema, 7);
  const Instance instance = gen.RandomInstance({});
  const Counter& rows = InstanceCosts().encoded_rows;
  const std::vector<std::string> read = {"Ba", "Df", "self"};
  const std::uint64_t before = rows.value();
  const Database db = std::move(EncodeInstance(instance, read)).value();
  EXPECT_EQ(rows.value() - before,
            instance.objects(ds.bar).size() +
                instance.edges(ds.frequents).size());
  EXPECT_EQ(db.Names(), (std::vector<std::string>{"Ba", "Df"}));
}

}  // namespace
}  // namespace setrec
