#ifndef SETREC_ALGEBRAIC_METHOD_LIBRARY_H_
#define SETREC_ALGEBRAIC_METHOD_LIBRARY_H_

#include <memory>

#include "algebraic/algebraic_method.h"
#include "core/exec_context.h"

namespace setrec {

/// Every named schema and method from the paper, ready to instantiate. The
/// schemas own their Schema objects; methods hold pointers into them, so a
/// schema struct must outlive the methods created from it.

// ---------------------------------------------------------------------------
// Ullman's drinkers schema (Examples 2.3, 2.7, 3.2, 4.15, 5.5, 5.9, 5.11),
// with the paper's Section 5 abbreviations: classes D, Ba, Be and properties
// f(requents): D→Ba, l(ikes): D→Be, s(erves): Ba→Be.
// ---------------------------------------------------------------------------
struct DrinkersSchema {
  Schema schema;
  ClassId drinker = 0, bar = 0, beer = 0;
  PropertyId frequents = 0, likes = 0, serves = 0;
};
Result<DrinkersSchema> MakeDrinkersSchema();

/// add_bar [D, Ba] (Examples 2.7/5.5): f := π_f(self ⋈_{self=D} Df) ∪ arg1.
/// Order independent, but violates the Proposition 5.8 condition
/// (Example 5.9).
Result<std::unique_ptr<AlgebraicUpdateMethod>> MakeAddBar(
    const DrinkersSchema& s);

/// favorite_bar [D, Ba] (Examples 2.7/5.5): f := arg1. Key-order independent
/// but not order independent (Example 3.2).
Result<std::unique_ptr<AlgebraicUpdateMethod>> MakeFavoriteBar(
    const DrinkersSchema& s);

/// delete_bar [D, Ba] (Example 5.11): f := π_f(self ⋈_{self=D} Df ⋈_{f≠arg1}
/// arg1) — positive methods can still delete information.
Result<std::unique_ptr<AlgebraicUpdateMethod>> MakeDeleteBar(
    const DrinkersSchema& s);

/// The Example 4.15 method [D]: adds to the frequented bars all bars serving
/// a beer the receiving drinker likes. Inflationary; minimal coloring is
/// simple; order independent.
Result<std::unique_ptr<AlgebraicUpdateMethod>> MakeLikesServesBar(
    const DrinkersSchema& s);

/// clear_bars [D]: f := ∅ (an unsatisfiable selection; constant-free).
/// Trivially order independent: each receiver clears only its own row.
Result<std::unique_ptr<AlgebraicUpdateMethod>> MakeClearBars(
    const DrinkersSchema& s);

/// all_bars [D]: f := ρ_{Ba→f}(Ba) — frequent every bar. Order independent;
/// satisfies the Proposition 5.8 condition (it reads only the class
/// relation Ba, never Df).
Result<std::unique_ptr<AlgebraicUpdateMethod>> MakeAllBars(
    const DrinkersSchema& s);

// ---------------------------------------------------------------------------
// One class C with properties e, tc : C→C (Example 6.4).
// ---------------------------------------------------------------------------
struct TcSchema {
  Schema schema;
  ClassId c = 0;
  PropertyId e = 0, tc = 0;
};
Result<TcSchema> MakeTcSchema();

/// The Example 6.4 method [C, C]:
///   tc := π_e(self ⋈_{self=C} Ce)
///       ∪ π_e(self ⋈_{self=C} Ctc ⋈_{tc=C'} ρ_{C→C'}(Ce)).
/// Sequential application over C × C computes transitive closure in tc;
/// parallel application merely duplicates each e-edge as a tc-edge.
Result<std::unique_ptr<AlgebraicUpdateMethod>> MakeTransitiveClosureMethod(
    const TcSchema& s);

// ---------------------------------------------------------------------------
// One class C with properties a, b : C→C (Theorem 5.6 and Proposition 5.14).
// ---------------------------------------------------------------------------
struct PairSchema {
  Schema schema;
  ClassId c = 0;
  PropertyId a = 0, b = 0;
};
Result<PairSchema> MakePairSchema();

/// A nullary guard that is {()} iff the binary relation `relation` (with
/// attribute names `attr_x`, `attr_y`) holds at least `n` tuples, for
/// n ∈ {1, 2, 3}. Positive — implements the paper's "#Ca ≥ k" trick from the
/// proof of Proposition 5.14 by unioning over all ways two tuples can
/// differ.
Result<ExprPtr> GuardAtLeastTuples(const std::string& relation,
                                   const std::string& attr_x,
                                   const std::string& attr_y, int n);

/// Proposition 5.14's first method M [C, C] (positive):
///   a := if #Ca ≥ 2 then π_a(self ⋈_{self=C} Ca ⋈_{a≠arg1} arg1) else ∅.
Result<std::unique_ptr<AlgebraicUpdateMethod>> MakeConditionalDeleteMethod(
    const PairSchema& s);

/// Proposition 5.14's query Q := if #Ca ≥ 3 then Cb else ∅, with result
/// scheme (C, b) — a set of [C, C] receivers.
Result<ExprPtr> MakeProp514Query(const PairSchema& s);

/// Proposition 5.14's second method M [C, C, C] (positive):
///   a := π_b(self ⋈_{self=C} Cb);
///   b := π_b(self ⋈_{self=C} Cb) ∪ arg1.
Result<std::unique_ptr<AlgebraicUpdateMethod>> MakeCopyExtendMethod(
    const PairSchema& s);

/// The parity gadget (footnote 8) [C, C], non-positive: on receiver (x, y),
/// if x ≠ y and both are unmatched (no incident a-edge), set a(x) := {y};
/// otherwise keep a(x). Sequential application over C × C greedily builds a
/// maximal matching of the complete graph on C, so afterwards an unmatched
/// object exists iff |C| is odd — sequential application expresses parity,
/// which the relational algebra (hence parallel application) cannot.
Result<std::unique_ptr<AlgebraicUpdateMethod>> MakeParityMethod(
    const PairSchema& s);

// ---------------------------------------------------------------------------
// The Section 7 payroll schema: employees with Salary : Emp→Val and
// Manager : Emp→Emp; NewSal rows NS with Old, New : NS→Val; a Fire list
// Fire with Amt : Fire→Val. Val is the shared domain of amounts.
// ---------------------------------------------------------------------------
struct PayrollSchema {
  Schema schema;
  ClassId emp = 0, val = 0, ns = 0, fire = 0;
  PropertyId salary = 0, manager = 0, old_amt = 0, new_amt = 0, fire_amt = 0;
};
Result<PayrollSchema> MakePayrollSchema();

/// Section 7 statement (B') [Emp, Val]:
///   Salary := π_New(arg1 ⋈_{arg1=Old} NewSal)
/// where NewSal is the natural join of NSOld and NSNew. Applied to the key
/// set {[e, salary(e)]}, this is the cursor-based update (B); it satisfies
/// the Proposition 5.8 condition, hence is key-order independent.
Result<std::unique_ptr<AlgebraicUpdateMethod>> MakeSalaryFromNewSal(
    const PayrollSchema& s);

/// Section 7 statement (C') [Emp]:
///   Salary := π_New(self ⋈_{self=Emp} EmpManager ⋈_{Manager=Emp2}
///                   ρ(EmpSalary) ⋈_{Salary=Old} NewSal)
/// — give each employee the new salary of their *manager*. Order dependent
/// (it reads EmpSalary, which it also updates).
Result<std::unique_ptr<AlgebraicUpdateMethod>> MakeSalaryFromManagersNewSal(
    const PayrollSchema& s);

/// Evaluates a receiver-producing query over an instance: the expression
/// must produce a relation whose scheme matches `signature` positionally;
/// each tuple becomes a receiver (ReceiversFromRelation). Used for
/// query-order independence (Definition 3.1(3), Proposition 5.14) and for
/// the Section 7 set-oriented semantics (compute the receiver set first,
/// then update).
Result<std::vector<Receiver>> ReceiversFromQuery(const ExprPtr& query,
                                                 const Instance& instance,
                                                 const MethodSignature&
                                                     signature,
                                                 ExecContext& ctx);

}  // namespace setrec

#endif  // SETREC_ALGEBRAIC_METHOD_LIBRARY_H_
