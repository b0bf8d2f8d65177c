#include "algebraic/method_library.h"

#include <array>

#include "relational/builder.h"
#include "relational/evaluator.h"

namespace setrec {

namespace {
using ra::Diff;
using ra::Guard;
using ra::JoinEq;
using ra::JoinNeq;
using ra::Product;
using ra::Project;
using ra::Rel;
using ra::Rename;
using ra::SelectEq;
using ra::SelectNeq;
using ra::Union;
using ra::UnionAll;
}  // namespace

Result<DrinkersSchema> MakeDrinkersSchema() {
  DrinkersSchema s;
  SETREC_ASSIGN_OR_RETURN(s.drinker, s.schema.AddClass("D"));
  SETREC_ASSIGN_OR_RETURN(s.bar, s.schema.AddClass("Ba"));
  SETREC_ASSIGN_OR_RETURN(s.beer, s.schema.AddClass("Be"));
  SETREC_ASSIGN_OR_RETURN(s.frequents,
                          s.schema.AddProperty("f", s.drinker, s.bar));
  SETREC_ASSIGN_OR_RETURN(s.likes, s.schema.AddProperty("l", s.drinker, s.beer));
  SETREC_ASSIGN_OR_RETURN(s.serves, s.schema.AddProperty("s", s.bar, s.beer));
  return s;
}

Result<std::unique_ptr<AlgebraicUpdateMethod>> MakeAddBar(
    const DrinkersSchema& s) {
  // f := π_f(self ⋈_{self=D} Df) ∪ arg1 (Example 5.5).
  ExprPtr e = Union(Project(JoinEq(Rel("self"), Rel("Df"), "self", "D"), {"f"}),
                    Rename(Rel("arg1"), "arg1", "f"));
  return AlgebraicUpdateMethod::Make(
      &s.schema, MethodSignature({s.drinker, s.bar}), "add_bar",
      {UpdateStatement{s.frequents, std::move(e)}});
}

Result<std::unique_ptr<AlgebraicUpdateMethod>> MakeFavoriteBar(
    const DrinkersSchema& s) {
  // f := arg1 (Example 5.5).
  return AlgebraicUpdateMethod::Make(
      &s.schema, MethodSignature({s.drinker, s.bar}), "favorite_bar",
      {UpdateStatement{s.frequents, Rel("arg1")}});
}

Result<std::unique_ptr<AlgebraicUpdateMethod>> MakeDeleteBar(
    const DrinkersSchema& s) {
  // f := π_f(self ⋈_{self=D} Df ⋈_{f≠arg1} arg1) (Example 5.11).
  ExprPtr e = Project(
      SelectNeq(Product(JoinEq(Rel("self"), Rel("Df"), "self", "D"),
                        Rel("arg1")),
                "f", "arg1"),
      {"f"});
  return AlgebraicUpdateMethod::Make(
      &s.schema, MethodSignature({s.drinker, s.bar}), "delete_bar",
      {UpdateStatement{s.frequents, std::move(e)}});
}

Result<std::unique_ptr<AlgebraicUpdateMethod>> MakeLikesServesBar(
    const DrinkersSchema& s) {
  // f := π_f(self ⋈_{self=D} Df)
  //    ∪ ρ_{Ba→f}(π_Ba(self ⋈_{self=D} Dl ⋈_{l=s} Bas)) (Examples 4.15/5.5).
  ExprPtr keep = Project(JoinEq(Rel("self"), Rel("Df"), "self", "D"), {"f"});
  ExprPtr serving = Rename(
      Project(JoinEq(JoinEq(Rel("self"), Rel("Dl"), "self", "D"), Rel("Bas"),
                     "l", "s"),
              {"Ba"}),
      "Ba", "f");
  return AlgebraicUpdateMethod::Make(
      &s.schema, MethodSignature({s.drinker}), "likes_serves_bar",
      {UpdateStatement{s.frequents, Union(std::move(keep), std::move(serving))}});
}

Result<std::unique_ptr<AlgebraicUpdateMethod>> MakeClearBars(
    const DrinkersSchema& s) {
  // f := π_f(σ_{f≠f}(Df)): the selection is unsatisfiable, so the value is
  // always ∅ — the constant-free way to write a clearing assignment.
  return AlgebraicUpdateMethod::Make(
      &s.schema, MethodSignature({s.drinker}), "clear_bars",
      {UpdateStatement{s.frequents,
                       Project(SelectNeq(Rel("Df"), "f", "f"), {"f"})}});
}

Result<std::unique_ptr<AlgebraicUpdateMethod>> MakeAllBars(
    const DrinkersSchema& s) {
  return AlgebraicUpdateMethod::Make(
      &s.schema, MethodSignature({s.drinker}), "all_bars",
      {UpdateStatement{s.frequents, Rename(Rel("Ba"), "Ba", "f")}});
}

Result<TcSchema> MakeTcSchema() {
  TcSchema s;
  SETREC_ASSIGN_OR_RETURN(s.c, s.schema.AddClass("C"));
  SETREC_ASSIGN_OR_RETURN(s.e, s.schema.AddProperty("e", s.c, s.c));
  SETREC_ASSIGN_OR_RETURN(s.tc, s.schema.AddProperty("tc", s.c, s.c));
  return s;
}

Result<std::unique_ptr<AlgebraicUpdateMethod>> MakeTransitiveClosureMethod(
    const TcSchema& s) {
  // tc := π_e(self ⋈_{self=C} Ce)
  //     ∪ π_e(self ⋈_{self=C} Ctc ⋈_{tc=C2} ρ_{C→C2}(Ce)) (Example 6.4).
  ExprPtr direct =
      Rename(Project(JoinEq(Rel("self"), Rel("Ce"), "self", "C"), {"e"}), "e",
             "tc");
  ExprPtr via = Rename(
      Project(JoinEq(JoinEq(Rel("self"), Rel("Ctc"), "self", "C"),
                     Rename(Rename(Rel("Ce"), "C", "C2"), "e", "e2"), "tc",
                     "C2"),
              {"e2"}),
      "e2", "tc");
  return AlgebraicUpdateMethod::Make(
      &s.schema, MethodSignature({s.c, s.c}), "tc_step",
      {UpdateStatement{s.tc, Union(std::move(direct), std::move(via))}});
}

Result<PairSchema> MakePairSchema() {
  PairSchema s;
  SETREC_ASSIGN_OR_RETURN(s.c, s.schema.AddClass("C"));
  SETREC_ASSIGN_OR_RETURN(s.a, s.schema.AddProperty("a", s.c, s.c));
  SETREC_ASSIGN_OR_RETURN(s.b, s.schema.AddProperty("b", s.c, s.c));
  return s;
}

Result<ExprPtr> GuardAtLeastTuples(const std::string& relation,
                                   const std::string& attr_x,
                                   const std::string& attr_y, int n) {
  if (n < 1 || n > 3) {
    return Status::InvalidArgument("GuardAtLeastTuples supports n in [1,3]");
  }
  if (n == 1) return Guard(Rel(relation));
  // Copies R, ρ(R), (ρρ(R)) with suffixed attribute names; two tuples differ
  // when they differ on x or on y, so the distinctness of each pair is a
  // union over the choice of differing attribute.
  auto copy = [&](int k) -> ExprPtr {
    if (k == 0) return Rel(relation);
    const std::string suffix = std::to_string(k + 1);
    return Rename(Rename(Rel(relation), attr_x, attr_x + suffix), attr_y,
                  attr_y + suffix);
  };
  auto attr = [&](const std::string& base, int k) {
    return k == 0 ? base : base + std::to_string(k + 1);
  };
  std::vector<std::pair<int, int>> pairs;
  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j < n; ++j) pairs.emplace_back(i, j);
  }
  std::vector<ExprPtr> copies;
  for (int k = 0; k < n; ++k) copies.push_back(copy(k));
  ExprPtr base = ra::ProductAll(copies);
  // For each assignment of a differing attribute to each pair, one selection
  // chain; the guard is the union over all assignments.
  std::vector<ExprPtr> guards;
  const int combos = 1 << pairs.size();
  for (int mask = 0; mask < combos; ++mask) {
    ExprPtr e = base;
    for (std::size_t p = 0; p < pairs.size(); ++p) {
      const std::string& which = (mask >> p) & 1 ? attr_y : attr_x;
      e = SelectNeq(std::move(e), attr(which, pairs[p].first),
                    attr(which, pairs[p].second));
    }
    guards.push_back(Guard(std::move(e)));
  }
  return UnionAll(std::move(guards));
}

Result<std::unique_ptr<AlgebraicUpdateMethod>> MakeConditionalDeleteMethod(
    const PairSchema& s) {
  // a := (if #Ca ≥ 2) · π_a(self ⋈_{self=C} Ca ⋈_{a≠arg1} arg1)
  // (Proposition 5.14, first counterexample; positive).
  SETREC_ASSIGN_OR_RETURN(ExprPtr ge2, GuardAtLeastTuples("Ca", "C", "a", 2));
  ExprPtr core = Project(
      SelectNeq(Product(JoinEq(Rel("self"), Rel("Ca"), "self", "C"),
                        Rel("arg1")),
                "a", "arg1"),
      {"a"});
  return AlgebraicUpdateMethod::Make(
      &s.schema, MethodSignature({s.c, s.c}), "conditional_delete",
      {UpdateStatement{s.a, Product(std::move(core), std::move(ge2))}});
}

Result<ExprPtr> MakeProp514Query(const PairSchema& s) {
  (void)s;
  SETREC_ASSIGN_OR_RETURN(ExprPtr ge3, GuardAtLeastTuples("Ca", "C", "a", 3));
  return Product(Rel("Cb"), std::move(ge3));
}

Result<std::unique_ptr<AlgebraicUpdateMethod>> MakeCopyExtendMethod(
    const PairSchema& s) {
  // a := π_b(self ⋈_{self=C} Cb);
  // b := π_b(self ⋈_{self=C} Cb) ∪ arg1 (Proposition 5.14, second
  // counterexample; arg2 is deliberately unused).
  ExprPtr own_b = Project(JoinEq(Rel("self"), Rel("Cb"), "self", "C"), {"b"});
  ExprPtr to_a = Rename(own_b, "b", "a");
  ExprPtr to_b = Union(own_b, Rename(Rel("arg1"), "arg1", "b"));
  return AlgebraicUpdateMethod::Make(
      &s.schema, MethodSignature({s.c, s.c, s.c}), "copy_extend",
      {UpdateStatement{s.a, std::move(to_a)},
       UpdateStatement{s.b, std::move(to_b)}});
}

Result<std::unique_ptr<AlgebraicUpdateMethod>> MakeParityMethod(
    const PairSchema& s) {
  // Unmatched objects: U = (C − π_C(Ca)) − ρ_{a→C}(π_a(Ca)).
  ExprPtr unmatched = Diff(Diff(Rel("C"), Project(Rel("Ca"), {"C"})),
                           Rename(Project(Rel("Ca"), {"a"}), "a", "C"));
  ExprPtr self_u = Guard(SelectEq(Product(Rel("self"), unmatched), "self", "C"));
  ExprPtr arg_u = Guard(SelectEq(Product(Rel("arg1"), unmatched), "arg1", "C"));
  ExprPtr differ =
      Guard(SelectNeq(Product(Rel("self"), Rel("arg1")), "self", "arg1"));
  ExprPtr cond = Product(Product(self_u, arg_u), differ);
  ExprPtr not_cond = Diff(Guard(Rel("self")), cond);
  ExprPtr keep = Project(JoinEq(Rel("self"), Rel("Ca"), "self", "C"), {"a"});
  ExprPtr e = Union(Product(Rename(Rel("arg1"), "arg1", "a"), cond),
                    Product(std::move(keep), std::move(not_cond)));
  return AlgebraicUpdateMethod::Make(
      &s.schema, MethodSignature({s.c, s.c}), "parity_match",
      {UpdateStatement{s.a, std::move(e)}});
}

Result<PayrollSchema> MakePayrollSchema() {
  PayrollSchema s;
  SETREC_ASSIGN_OR_RETURN(s.emp, s.schema.AddClass("Emp"));
  SETREC_ASSIGN_OR_RETURN(s.val, s.schema.AddClass("Val"));
  SETREC_ASSIGN_OR_RETURN(s.ns, s.schema.AddClass("NS"));
  SETREC_ASSIGN_OR_RETURN(s.fire, s.schema.AddClass("Fire"));
  SETREC_ASSIGN_OR_RETURN(s.salary, s.schema.AddProperty("Salary", s.emp, s.val));
  SETREC_ASSIGN_OR_RETURN(s.manager,
                          s.schema.AddProperty("Manager", s.emp, s.emp));
  SETREC_ASSIGN_OR_RETURN(s.old_amt, s.schema.AddProperty("Old", s.ns, s.val));
  SETREC_ASSIGN_OR_RETURN(s.new_amt, s.schema.AddProperty("New", s.ns, s.val));
  SETREC_ASSIGN_OR_RETURN(s.fire_amt,
                          s.schema.AddProperty("Amt", s.fire, s.val));
  return s;
}

namespace {
/// NewSal as the natural join of NSOld(NS, Old) and NSNew(NS, New),
/// projected to (Old, New).
ExprPtr NewSalJoin() {
  return Project(JoinEq(Rel("NSOld"), Rename(Rel("NSNew"), "NS", "NS2"), "NS",
                        "NS2"),
                 {"Old", "New"});
}
}  // namespace

Result<std::unique_ptr<AlgebraicUpdateMethod>> MakeSalaryFromNewSal(
    const PayrollSchema& s) {
  // (B'): Salary := π_New(arg1 ⋈_{arg1=Old} NewSal).
  ExprPtr e =
      Project(JoinEq(Rel("arg1"), NewSalJoin(), "arg1", "Old"), {"New"});
  return AlgebraicUpdateMethod::Make(
      &s.schema, MethodSignature({s.emp, s.val}), "set_salary",
      {UpdateStatement{s.salary, std::move(e)}});
}

Result<std::unique_ptr<AlgebraicUpdateMethod>> MakeSalaryFromManagersNewSal(
    const PayrollSchema& s) {
  // (C'): Salary := π_New(self ⋈_{self=Emp} EmpManager ⋈_{Manager=Emp2}
  //                 ρ_{Emp→Emp2,Salary→Sal2}(EmpSalary) ⋈_{Sal2=Old} NewSal).
  ExprPtr mgr = JoinEq(Rel("self"), Rel("EmpManager"), "self", "Emp");
  ExprPtr mgr_sal =
      JoinEq(std::move(mgr),
             Rename(Rename(Rel("EmpSalary"), "Emp", "Emp2"), "Salary", "Sal2"),
             "Manager", "Emp2");
  ExprPtr e = Project(JoinEq(std::move(mgr_sal), NewSalJoin(), "Sal2", "Old"),
                      {"New"});
  return AlgebraicUpdateMethod::Make(
      &s.schema, MethodSignature({s.emp}), "set_salary_from_manager",
      {UpdateStatement{s.salary, std::move(e)}});
}

Result<std::vector<Receiver>> ReceiversFromQuery(
    const ExprPtr& query, const Instance& instance,
    const MethodSignature& signature, ExecContext& ctx) {
  SETREC_ASSIGN_OR_RETURN(
      Database db, EncodeInstance(instance, ReferencedRelations(*query)));
  SETREC_ASSIGN_OR_RETURN(Relation result,
                          Evaluate(query, db, {.ctx = &ctx}));
  return ReceiversFromRelation(result, signature);
}

}  // namespace setrec
