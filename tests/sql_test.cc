// Section 7 end to end: cursor-based vs set-oriented DELETE and UPDATE over
// the Employee/Fire/NewSal tables, the coloring explanation of which cursor
// programs are safe, and the Theorem 6.5 code-improvement tool.

#include <gtest/gtest.h>

#include "algebraic/order_independence.h"
#include "relational/builder.h"
#include "algebraic/parallel.h"
#include "coloring/inference.h"
#include "coloring/soundness.h"
#include "sql/engine.h"
#include "sql/improve.h"
#include "sql/table.h"

namespace setrec {
namespace {

class PayrollFixture : public ::testing::Test {
 protected:
  void SetUp() override { ps_ = std::move(MakePayrollSchema()).value(); }

  PayrollSchema ps_;
};

TEST_F(PayrollFixture, BuildAndReadBack) {
  std::vector<EmployeeRow> employees = {
      {1, 100, std::nullopt}, {2, 200, 1}, {3, 100, 1}};
  std::vector<std::uint32_t> fire = {200};
  std::vector<NewSalRow> raises = {{100, 150}};
  Instance db = std::move(BuildPayrollInstance(ps_, employees, fire, raises))
                    .value();
  auto salaries = std::move(ReadSalaries(ps_, db)).value();
  EXPECT_EQ(salaries,
            (std::vector<std::pair<std::uint32_t, std::uint32_t>>{
                {1, 100}, {2, 200}, {3, 100}}));
  EXPECT_EQ(EmployeeIds(ps_, db).size(), 3u);
  // Bad manager reference is rejected.
  std::vector<EmployeeRow> broken = {{1, 100, 42}};
  EXPECT_FALSE(BuildPayrollInstance(ps_, broken, {}, {}).ok());
}

TEST_F(PayrollFixture, SimpleDeleteIsOrderIndependent) {
  ExecContext ctx;
  // "delete from Employee where Salary in table Fire": the cursor form is
  // order independent (Employee is only deleted, never used — a simple
  // deflationary coloring, Theorem 4.23), and agrees with the set-oriented
  // two-phase form.
  std::vector<EmployeeRow> employees = {
      {1, 100, std::nullopt}, {2, 200, std::nullopt}, {3, 100, std::nullopt},
      {4, 300, std::nullopt}};
  Instance db =
      std::move(BuildPayrollInstance(ps_, employees, {{100, 300}}, {}))
          .value();
  RowPredicate pred = SalaryInFire(ps_);
  auto report =
      std::move(TestCursorDeleteOrders(db, ps_.emp, pred, 6, ctx)).value();
  EXPECT_TRUE(report.order_independent);
  Instance set_oriented =
      std::move(SetOrientedDelete(db, ps_.emp, pred, ctx)).value();
  ASSERT_TRUE(report.first.has_value());
  EXPECT_EQ(*report.first, set_oriented);
  EXPECT_EQ(EmployeeIds(ps_, set_oriented),
            (std::vector<std::uint32_t>{2}));
}

TEST_F(PayrollFixture, ManagerDeleteCursorIsWrong) {
  ExecContext ctx;
  // "delete employees whose manager's salary is in Fire": the cursor form
  // is order dependent — an employee survives when their manager was
  // deleted before being inspected. The set-oriented form stays correct.
  // Chain: 3 -> 2 -> 1, with 1's and 2's salaries in Fire.
  std::vector<EmployeeRow> employees = {
      {1, 100, std::nullopt}, {2, 200, 1}, {3, 300, 2}};
  Instance db =
      std::move(BuildPayrollInstance(ps_, employees, {{100, 200}}, {}))
          .value();
  RowPredicate pred = ManagerSalaryInFire(ps_);
  auto report =
      std::move(TestCursorDeleteOrders(db, ps_.emp, pred, 6, ctx)).value();
  EXPECT_FALSE(report.order_independent);

  Instance set_oriented =
      std::move(SetOrientedDelete(db, ps_.emp, pred, ctx)).value();
  // Both 2 (manager 1, salary 100 ∈ Fire) and 3 (manager 2, salary 200 ∈
  // Fire) are identified against the input and deleted; employee 1 stays.
  EXPECT_EQ(EmployeeIds(ps_, set_oriented),
            (std::vector<std::uint32_t>{1}));
  // Some cursor order disagrees: visiting 2 before 3 removes 2, after
  // which 3's manager no longer exists and 3 survives.
  ASSERT_TRUE(report.disagreement.has_value());
  EXPECT_FALSE(*report.first == *report.disagreement);
}

TEST_F(PayrollFixture, UpdateBViaCursorMatchesSetOrientedA) {
  ExecContext ctx;
  // Updates (A)/(B): set each salary per NewSal. (B') is key-order
  // independent (Prop 5.8: it reads only NewSal), so cursor order does not
  // matter and the result matches the improved set-oriented form.
  std::vector<EmployeeRow> employees = {
      {1, 100, std::nullopt}, {2, 200, std::nullopt}, {3, 100, std::nullopt}};
  std::vector<NewSalRow> raises = {{100, 150}, {200, 250}};
  Instance db = std::move(BuildPayrollInstance(ps_, employees, {}, raises))
                    .value();
  auto method = std::move(MakeSalaryFromNewSal(ps_)).value();
  EXPECT_TRUE(SatisfiesUpdateIsolationCondition(*method));
  EXPECT_TRUE(std::move(DecideOrderIndependence(
                            *method, OrderIndependenceKind::kKeyOrder))
                  .value());

  // The cursor's key set: {[e, Salary(e)]}.
  std::vector<Receiver> receivers;
  const auto current_salaries = std::move(ReadSalaries(ps_, db)).value();
  for (auto [id, salary] : current_salaries) {
    receivers.push_back(Receiver::Unchecked(
        {ObjectId(ps_.emp, id), ObjectId(ps_.val, salary)}));
  }
  ASSERT_TRUE(IsKeySet(receivers));
  Instance cursor =
      std::move(CursorUpdate(*method, db, receivers, ctx)).value();
  auto expected = std::vector<std::pair<std::uint32_t, std::uint32_t>>{
      {1, 150}, {2, 250}, {3, 150}};
  EXPECT_EQ(std::move(ReadSalaries(ps_, cursor)).value(), expected);

  // Reversed order gives the same outcome (key-order independence).
  std::vector<Receiver> reversed(receivers.rbegin(), receivers.rend());
  Instance cursor_rev =
      std::move(CursorUpdate(*method, db, reversed, ctx)).value();
  EXPECT_EQ(cursor, cursor_rev);

  // Theorem 6.5: parallel application coincides on the key set.
  Instance parallel = std::move(ParallelApply(*method, db, receivers))
                          .value();
  EXPECT_EQ(parallel, cursor);
}

TEST_F(PayrollFixture, UpdateCManagerVariantIsOrderDependent) {
  ExecContext ctx;
  // Update (C): give each employee the manager's new salary. Reads
  // EmpSalary which it updates: order dependent, caught both by Prop 5.8
  // and by the decision procedure, and demonstrated semantically.
  auto method = std::move(MakeSalaryFromManagersNewSal(ps_)).value();
  EXPECT_FALSE(SatisfiesUpdateIsolationCondition(*method));
  ASSERT_TRUE(method->IsPositiveMethod());
  EXPECT_FALSE(std::move(DecideOrderIndependence(
                             *method, OrderIndependenceKind::kKeyOrder))
                   .value());

  // Chain 2 -> 1 (2's manager is 1): updating 1 first changes what 2 sees.
  std::vector<EmployeeRow> employees = {{1, 100, 2}, {2, 200, 1}};
  std::vector<NewSalRow> raises = {{100, 150}, {200, 250}, {150, 175},
                                   {250, 275}};
  Instance db = std::move(BuildPayrollInstance(ps_, employees, {}, raises))
                    .value();
  Receiver e1 = Receiver::Unchecked({ObjectId(ps_.emp, 1)});
  Receiver e2 = Receiver::Unchecked({ObjectId(ps_.emp, 2)});
  std::vector<Receiver> ab = {e1, e2}, ba = {e2, e1};
  Instance iab = std::move(CursorUpdate(*method, db, ab, ctx)).value();
  Instance iba = std::move(CursorUpdate(*method, db, ba, ctx)).value();
  EXPECT_FALSE(iab == iba);

  // The correct two-phase form: compute (EmpId, New) pairs first, then
  // assign — the set-oriented statement (C'')'s semantics.
  ExprPtr mgr_new = std::move(ImproveCursorUpdate(*method,
                                                  /*rec_source=*/
                                                  ra::Rename(
                                                      ra::Project(
                                                          ra::Rel("Emp"),
                                                          {"Emp"}),
                                                      "Emp", "self"),
                                                  /*verify=*/false))
                        .value()
                        .receiver_query;
  Instance two_phase =
      std::move(SetOrientedUpdate(db, ps_.salary, mgr_new)).value();
  auto salaries = std::move(ReadSalaries(ps_, two_phase)).value();
  // Both computed against the input: 1's manager (2, salary 200) → 250;
  // 2's manager (1, salary 100) → 150.
  EXPECT_EQ(salaries, (std::vector<std::pair<std::uint32_t, std::uint32_t>>{
                          {1, 250}, {2, 150}}));
}

TEST_F(PayrollFixture, ImproveCursorUpdateEmitsTheSetOrientedForm) {
  ExecContext ctx;
  // The end-of-Section-7 derivation: improving cursor update (B) emits a
  // query equivalent to "select EmpId, New from Employee, NewSal where
  // Salary = Old", and executing it equals the cursor program.
  std::vector<EmployeeRow> employees = {
      {1, 100, std::nullopt}, {2, 200, std::nullopt}, {3, 100, std::nullopt}};
  std::vector<NewSalRow> raises = {{100, 150}, {200, 250}};
  Instance db = std::move(BuildPayrollInstance(ps_, employees, {}, raises))
                    .value();
  auto method = std::move(MakeSalaryFromNewSal(ps_)).value();

  // rec = Employee keyed by salary: ρ(EmpSalary) with (self, arg1) names.
  ExprPtr rec_source = ra::Rename(
      ra::Rename(ra::Rel("EmpSalary"), "Emp", "self"), "Salary", "arg1");
  ImprovedUpdate improved =
      std::move(ImproveCursorUpdate(*method, rec_source, /*verify=*/true))
          .value();
  Instance via_improved =
      std::move(ApplyImprovedUpdate(improved, db)).value();

  std::vector<Receiver> receivers;
  const auto current_salaries = std::move(ReadSalaries(ps_, db)).value();
  for (auto [id, salary] : current_salaries) {
    receivers.push_back(Receiver::Unchecked(
        {ObjectId(ps_.emp, id), ObjectId(ps_.val, salary)}));
  }
  Instance via_cursor =
      std::move(CursorUpdate(*method, db, receivers, ctx)).value();
  EXPECT_EQ(via_improved, via_cursor);

  // Improvement refuses order-dependent cursor programs.
  auto manager_method =
      std::move(MakeSalaryFromManagersNewSal(ps_)).value();
  ExprPtr emp_rec =
      ra::Rename(ra::Project(ra::Rel("Emp"), {"Emp"}), "Emp", "self");
  EXPECT_EQ(ImproveCursorUpdate(*manager_method, emp_rec, /*verify=*/true)
                .status()
                .code(),
            StatusCode::kFailedPrecondition);
}

TEST_F(PayrollFixture, SetOrientedUpdateRejectsNonKeyQueries) {
  std::vector<EmployeeRow> employees = {{1, 100, std::nullopt}};
  std::vector<NewSalRow> raises = {{100, 150}, {100, 175}};
  Instance db = std::move(BuildPayrollInstance(ps_, employees, {}, raises))
                    .value();
  // Employee 1 matches two new salaries: not a key set.
  ExprPtr query = ra::Project(
      ra::JoinEq(ra::Rel("EmpSalary"),
                 ra::Project(ra::JoinEq(ra::Rel("NSOld"),
                                        ra::Rename(ra::Rel("NSNew"), "NS",
                                                   "NS2"),
                                        "NS", "NS2"),
                             {"Old", "New"}),
                 "Salary", "Old"),
      {"Emp", "New"});
  EXPECT_EQ(SetOrientedUpdate(db, ps_.salary, query).status().code(),
            StatusCode::kFailedPrecondition);
}

}  // namespace
}  // namespace setrec
