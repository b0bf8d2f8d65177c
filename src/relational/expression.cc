#include "relational/expression.h"

#include <algorithm>
#include <set>
#include <sstream>

namespace setrec {

ExprPtr Expr::Relation(std::string name) {
  auto node = std::shared_ptr<Expr>(new Expr(Op::kRelation));
  node->relation_name_ = std::move(name);
  return node;
}

ExprPtr Expr::Union(ExprPtr left, ExprPtr right) {
  auto node = std::shared_ptr<Expr>(new Expr(Op::kUnion));
  node->left_ = std::move(left);
  node->right_ = std::move(right);
  return node;
}

ExprPtr Expr::Difference(ExprPtr left, ExprPtr right) {
  auto node = std::shared_ptr<Expr>(new Expr(Op::kDifference));
  node->left_ = std::move(left);
  node->right_ = std::move(right);
  return node;
}

ExprPtr Expr::Product(ExprPtr left, ExprPtr right) {
  auto node = std::shared_ptr<Expr>(new Expr(Op::kProduct));
  node->left_ = std::move(left);
  node->right_ = std::move(right);
  return node;
}

ExprPtr Expr::SelectEq(ExprPtr child, std::string a, std::string b) {
  auto node = std::shared_ptr<Expr>(new Expr(Op::kSelectEq));
  node->left_ = std::move(child);
  node->attr_a_ = std::move(a);
  node->attr_b_ = std::move(b);
  return node;
}

ExprPtr Expr::SelectNeq(ExprPtr child, std::string a, std::string b) {
  auto node = std::shared_ptr<Expr>(new Expr(Op::kSelectNeq));
  node->left_ = std::move(child);
  node->attr_a_ = std::move(a);
  node->attr_b_ = std::move(b);
  return node;
}

ExprPtr Expr::Project(ExprPtr child, std::vector<std::string> attrs) {
  auto node = std::shared_ptr<Expr>(new Expr(Op::kProject));
  node->left_ = std::move(child);
  node->projection_ = std::move(attrs);
  return node;
}

ExprPtr Expr::Rename(ExprPtr child, std::string from, std::string to) {
  auto node = std::shared_ptr<Expr>(new Expr(Op::kRename));
  node->left_ = std::move(child);
  node->attr_a_ = std::move(from);
  node->attr_b_ = std::move(to);
  return node;
}

bool IsPositive(const Expr& expr) {
  if (expr.op() == Expr::Op::kDifference) return false;
  if (expr.left() && !IsPositive(*expr.left())) return false;
  if (expr.right() && !IsPositive(*expr.right())) return false;
  return true;
}

namespace {
void CollectRelations(const Expr& expr, std::set<std::string>& out) {
  if (expr.op() == Expr::Op::kRelation) {
    out.insert(expr.relation_name());
    return;
  }
  if (expr.left()) CollectRelations(*expr.left(), out);
  if (expr.right()) CollectRelations(*expr.right(), out);
}
}  // namespace

std::vector<std::string> ReferencedRelations(const Expr& expr) {
  std::set<std::string> names;
  CollectRelations(expr, names);
  return {names.begin(), names.end()};
}

ExprPtr SubstituteRelation(const ExprPtr& expr, const std::string& name,
                           const ExprPtr& replacement) {
  switch (expr->op()) {
    case Expr::Op::kRelation:
      return expr->relation_name() == name ? replacement : expr;
    case Expr::Op::kUnion:
    case Expr::Op::kDifference:
    case Expr::Op::kProduct: {
      ExprPtr l = SubstituteRelation(expr->left(), name, replacement);
      ExprPtr r = SubstituteRelation(expr->right(), name, replacement);
      if (l == expr->left() && r == expr->right()) return expr;
      switch (expr->op()) {
        case Expr::Op::kUnion:
          return Expr::Union(std::move(l), std::move(r));
        case Expr::Op::kDifference:
          return Expr::Difference(std::move(l), std::move(r));
        default:
          return Expr::Product(std::move(l), std::move(r));
      }
    }
    case Expr::Op::kSelectEq:
    case Expr::Op::kSelectNeq: {
      ExprPtr c = SubstituteRelation(expr->child(), name, replacement);
      if (c == expr->child()) return expr;
      return expr->op() == Expr::Op::kSelectEq
                 ? Expr::SelectEq(std::move(c), expr->attr_a(), expr->attr_b())
                 : Expr::SelectNeq(std::move(c), expr->attr_a(),
                                   expr->attr_b());
    }
    case Expr::Op::kProject: {
      ExprPtr c = SubstituteRelation(expr->child(), name, replacement);
      if (c == expr->child()) return expr;
      return Expr::Project(std::move(c), expr->projection());
    }
    case Expr::Op::kRename: {
      ExprPtr c = SubstituteRelation(expr->child(), name, replacement);
      if (c == expr->child()) return expr;
      return Expr::Rename(std::move(c), expr->rename_from(),
                          expr->rename_to());
    }
  }
  return expr;
}

namespace {
void Print(const Expr& expr, std::ostringstream& out) {
  switch (expr.op()) {
    case Expr::Op::kRelation:
      out << expr.relation_name();
      return;
    case Expr::Op::kUnion:
      out << "(";
      Print(*expr.left(), out);
      out << " ∪ ";
      Print(*expr.right(), out);
      out << ")";
      return;
    case Expr::Op::kDifference:
      out << "(";
      Print(*expr.left(), out);
      out << " − ";
      Print(*expr.right(), out);
      out << ")";
      return;
    case Expr::Op::kProduct:
      out << "(";
      Print(*expr.left(), out);
      out << " × ";
      Print(*expr.right(), out);
      out << ")";
      return;
    case Expr::Op::kSelectEq:
    case Expr::Op::kSelectNeq:
      out << "σ[" << expr.attr_a()
          << (expr.op() == Expr::Op::kSelectEq ? "=" : "≠") << expr.attr_b()
          << "](";
      Print(*expr.child(), out);
      out << ")";
      return;
    case Expr::Op::kProject: {
      out << "π[";
      bool first = true;
      for (const std::string& a : expr.projection()) {
        if (!first) out << ",";
        out << a;
        first = false;
      }
      out << "](";
      Print(*expr.child(), out);
      out << ")";
      return;
    }
    case Expr::Op::kRename:
      out << "ρ[" << expr.rename_from() << "→" << expr.rename_to() << "](";
      Print(*expr.child(), out);
      out << ")";
      return;
  }
}
}  // namespace

std::string ExprToString(const Expr& expr) {
  std::ostringstream out;
  Print(expr, out);
  return out.str();
}

}  // namespace setrec
