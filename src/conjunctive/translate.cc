#include "conjunctive/translate.h"

#include <algorithm>
#include <utility>

#include "relational/plan.h"

namespace setrec {

namespace {

/// Recursive worker: returns the disjunct list. Schemes come from the
/// lowered plan, memoized per node; the recursion re-derives summaries
/// positionally, which is enough.
Result<std::vector<ConjunctiveQuery>> Translate(const ExprPtr& expr,
                                                PhysicalPlan& plan) {
  switch (expr->op()) {
    case Expr::Op::kRelation: {
      SETREC_ASSIGN_OR_RETURN(const PhysicalNode* scan, plan.Lower(*expr));
      ConjunctiveQuery q;
      std::vector<VarId> vars;
      vars.reserve(scan->scheme->arity());
      for (const Attribute& a : scan->scheme->attributes()) {
        vars.push_back(q.NewVar(a.domain));
      }
      q.AddConjunct(expr->relation_name(), vars);
      q.set_summary(std::move(vars));
      return std::vector<ConjunctiveQuery>{std::move(q)};
    }
    case Expr::Op::kDifference:
      return Status::InvalidArgument(
          "difference is not part of the positive algebra (Definition 5.2)");
    case Expr::Op::kUnion: {
      SETREC_ASSIGN_OR_RETURN(std::vector<ConjunctiveQuery> l,
                              Translate(expr->left(), plan));
      SETREC_ASSIGN_OR_RETURN(std::vector<ConjunctiveQuery> r,
                              Translate(expr->right(), plan));
      for (ConjunctiveQuery& q : r) l.push_back(std::move(q));
      return l;
    }
    case Expr::Op::kProduct: {
      SETREC_ASSIGN_OR_RETURN(std::vector<ConjunctiveQuery> l,
                              Translate(expr->left(), plan));
      SETREC_ASSIGN_OR_RETURN(std::vector<ConjunctiveQuery> r,
                              Translate(expr->right(), plan));
      std::vector<ConjunctiveQuery> out;
      out.reserve(l.size() * r.size());
      for (const ConjunctiveQuery& ql : l) {
        for (const ConjunctiveQuery& qr : r) {
          ConjunctiveQuery q = ql;
          q.Absorb(qr);  // concatenates summaries
          if (!q.trivially_false()) out.push_back(std::move(q));
        }
      }
      return out;
    }
    case Expr::Op::kSelectEq:
    case Expr::Op::kSelectNeq: {
      SETREC_ASSIGN_OR_RETURN(std::vector<ConjunctiveQuery> children,
                              Translate(expr->child(), plan));
      SETREC_ASSIGN_OR_RETURN(const PhysicalNode* child,
                              plan.Lower(*expr->child()));
      SETREC_ASSIGN_OR_RETURN(std::size_t ia,
                              child->scheme->IndexOf(expr->attr_a()));
      SETREC_ASSIGN_OR_RETURN(std::size_t ib,
                              child->scheme->IndexOf(expr->attr_b()));
      std::vector<ConjunctiveQuery> out;
      for (ConjunctiveQuery& q : children) {
        const VarId va = q.summary()[ia];
        const VarId vb = q.summary()[ib];
        if (expr->op() == Expr::Op::kSelectEq) {
          q.SubstituteVar(std::max(va, vb), std::min(va, vb));
        } else {
          q.AddNonEquality(va, vb);
        }
        if (!q.trivially_false()) out.push_back(std::move(q));
      }
      return out;
    }
    case Expr::Op::kProject: {
      SETREC_ASSIGN_OR_RETURN(std::vector<ConjunctiveQuery> children,
                              Translate(expr->child(), plan));
      SETREC_ASSIGN_OR_RETURN(const PhysicalNode* project, plan.Lower(*expr));
      for (ConjunctiveQuery& q : children) {
        std::vector<VarId> new_summary;
        new_summary.reserve(project->cols.size());
        for (std::uint32_t i : project->cols) {
          new_summary.push_back(q.summary()[i]);
        }
        q.set_summary(std::move(new_summary));
      }
      return children;
    }
    case Expr::Op::kRename:
      // Renaming does not change variables, only the output attribute name,
      // which lives in the scheme computed at the top level.
      return Translate(expr->child(), plan);
  }
  return Status::Internal("unknown expression operator");
}

}  // namespace

Result<PositiveQuery> TranslateToPositiveQuery(const ExprPtr& expr,
                                               const Catalog& catalog) {
  PhysicalPlan plan(catalog);
  SETREC_ASSIGN_OR_RETURN(const PhysicalNode* root, plan.Lower(*expr));
  SETREC_ASSIGN_OR_RETURN(std::vector<ConjunctiveQuery> disjuncts,
                          Translate(expr, plan));
  for (ConjunctiveQuery& q : disjuncts) q.Compact();
  return PositiveQuery{*root->scheme, std::move(disjuncts)};
}

}  // namespace setrec
