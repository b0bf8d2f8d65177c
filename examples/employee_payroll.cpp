// Section 7 end to end: the Employee / Fire / NewSal scenarios.
//
//  1. delete-where-salary-in-Fire: cursor and set-oriented forms agree
//     (simple deflationary coloring ⇒ order independent, Theorem 4.23);
//  2. delete-where-manager-fired: the cursor form is order dependent and
//     wrong; the two-phase set-oriented form is correct;
//  3. update (B) (salary from NewSal): key-order independent cursor program;
//  4. update (C) (salary from the manager's NewSal row): order dependent;
//  5. the Theorem 6.5 code improvement: derive the set-oriented statement
//     equivalent to cursor program (B) automatically.

#include <cstdio>
#include <cstdlib>

#include "algebraic/order_independence.h"
#include "relational/builder.h"
#include "sql/engine.h"
#include "sql/improve.h"
#include "sql/table.h"

namespace {

using namespace setrec;  // NOLINT: example brevity

template <typename T>
T Unwrap(Result<T> result, const char* what) {
  if (!result.ok()) {
    std::fprintf(stderr, "%s failed: %s\n", what,
                 result.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(result).value();
}

void PrintSalaries(const PayrollSchema& ps, const Instance& db,
                   const char* title) {
  std::printf("%s\n", title);
  for (auto [id, salary] : Unwrap(ReadSalaries(ps, db), "read")) {
    std::printf("  employee %u: salary %u\n", id, salary);
  }
}

}  // namespace

int main() {
  ExecContext ctx;  // permissive: governs every statement below
  PayrollSchema ps = Unwrap(MakePayrollSchema(), "schema");

  // --- Scenario 1: simple delete --------------------------------------------
  std::printf("== delete from Employee where Salary in table Fire ==\n");
  {
    std::vector<EmployeeRow> employees = {
        {1, 100, {}}, {2, 200, {}}, {3, 100, {}}, {4, 300, {}}};
    Instance db = Unwrap(
        BuildPayrollInstance(ps, employees, {{100, 300}}, {}), "build");
    auto report = Unwrap(
        TestCursorDeleteOrders(db, ps.emp, SalaryInFire(ps), 6, ctx), "orders");
    std::printf("cursor order independent: %s (all 4! visit orders agree)\n",
                report.order_independent ? "yes" : "no");
    Instance set_based =
        Unwrap(SetOrientedDelete(db, ps.emp, SalaryInFire(ps), ctx), "delete");
    std::printf("survivors: ");
    for (std::uint32_t id : EmployeeIds(ps, set_based)) {
      std::printf("%u ", id);
    }
    std::printf("(expected: 2)\n\n");
  }

  // --- Scenario 2: manager-based delete --------------------------------------
  std::printf("== delete employees whose manager's salary is in Fire ==\n");
  {
    std::vector<EmployeeRow> employees = {{1, 100, {}}, {2, 200, 1},
                                          {3, 300, 2}};
    Instance db = Unwrap(
        BuildPayrollInstance(ps, employees, {{100, 200}}, {}), "build");
    auto report = Unwrap(
        TestCursorDeleteOrders(db, ps.emp, ManagerSalaryInFire(ps), 6, ctx),
        "orders");
    std::printf(
        "cursor order independent: %s  (Employee is colored both d and u: "
        "Theorem 4.23 no longer applies)\n",
        report.order_independent ? "yes" : "no");
    Instance set_based = Unwrap(
        SetOrientedDelete(db, ps.emp, ManagerSalaryInFire(ps), ctx),
        "delete");
    std::printf("set-oriented survivors: ");
    for (std::uint32_t id : EmployeeIds(ps, set_based)) {
      std::printf("%u ", id);
    }
    std::printf("(expected: 1)\n\n");
  }

  // --- Scenarios 3-5: updates -------------------------------------------------
  std::vector<EmployeeRow> employees = {{1, 100, 2}, {2, 200, 1},
                                        {3, 100, 1}};
  std::vector<NewSalRow> raises = {{100, 150}, {200, 250}, {150, 175},
                                   {250, 275}};
  Instance db = Unwrap(BuildPayrollInstance(ps, employees, {}, raises),
                       "build");
  PrintSalaries(ps, db, "== initial salaries ==");

  auto update_b = Unwrap(MakeSalaryFromNewSal(ps), "B'");
  auto update_c = Unwrap(MakeSalaryFromManagersNewSal(ps), "C'");
  std::printf(
      "\nupdate (B'): Prop 5.8 condition %s; decision procedure: key-order "
      "independent %s\n",
      SatisfiesUpdateIsolationCondition(*update_b) ? "holds" : "fails",
      Unwrap(DecideOrderIndependence(*update_b,
                                     OrderIndependenceKind::kKeyOrder),
             "decide")
          ? "yes"
          : "no");
  std::printf(
      "update (C'): Prop 5.8 condition %s; decision procedure: key-order "
      "independent %s\n\n",
      SatisfiesUpdateIsolationCondition(*update_c) ? "holds" : "fails",
      Unwrap(DecideOrderIndependence(*update_c,
                                     OrderIndependenceKind::kKeyOrder),
             "decide")
          ? "yes"
          : "no");

  // Cursor update (B) over the key set {[e, Salary(e)]}.
  std::vector<Receiver> receivers;
  for (auto [id, salary] : Unwrap(ReadSalaries(ps, db), "read")) {
    receivers.push_back(Receiver::Unchecked(
        {ObjectId(ps.emp, id), ObjectId(ps.val, salary)}));
  }
  Instance after_b =
      Unwrap(CursorUpdate(*update_b, db, receivers, ctx), "B");
  PrintSalaries(ps, after_b, "== after cursor update (B) ==");

  // The Theorem 6.5 improvement: emit the set-oriented statement.
  ExprPtr rec_source = ra::Rename(
      ra::Rename(ra::Rel("EmpSalary"), "Emp", "self"), "Salary", "arg1");
  ImprovedUpdate improved =
      Unwrap(ImproveCursorUpdate(*update_b, rec_source), "improve");
  std::printf(
      "\n== Theorem 6.5 code improvement ==\nreceiver-set query (the "
      "\"select EmpId, New from Employee, NewSal where Salary = Old\" "
      "equivalent):\n  %s\n",
      ExprToString(*improved.receiver_query).c_str());
  Instance via_improved =
      Unwrap(ApplyImprovedUpdate(improved, db), "apply improved");
  std::printf("improved form equals the cursor program: %s\n",
              via_improved == after_b ? "yes" : "no");

  // Update (C): the cursor form depends on the visit order.
  Receiver e1 = Receiver::Unchecked({ObjectId(ps.emp, 1)});
  Receiver e2 = Receiver::Unchecked({ObjectId(ps.emp, 2)});
  Receiver e3 = Receiver::Unchecked({ObjectId(ps.emp, 3)});
  Instance c_fwd =
      Unwrap(CursorUpdate(*update_c, db, std::vector<Receiver>{e1, e2, e3},
                          ctx),
             "C fwd");
  Instance c_rev =
      Unwrap(CursorUpdate(*update_c, db, std::vector<Receiver>{e3, e2, e1},
                          ctx),
             "C rev");
  PrintSalaries(ps, c_fwd, "\n== cursor update (C), order 1-2-3 ==");
  PrintSalaries(ps, c_rev, "== cursor update (C), order 3-2-1 ==");
  std::printf("orders agree: %s (the cursor form of (C) is wrong)\n",
              c_fwd == c_rev ? "yes" : "no");
  return 0;
}
