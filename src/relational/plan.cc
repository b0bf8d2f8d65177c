#include "relational/plan.h"

#include <utility>

namespace setrec {

namespace {

bool IsSelection(const Expr& e) {
  return e.op() == Expr::Op::kSelectEq || e.op() == Expr::Op::kSelectNeq;
}

bool IsGuard(const Expr& e) {
  return e.op() == Expr::Op::kProject && e.projection().empty();
}

/// σ's typing rule: both attributes present, with one domain.
Result<std::pair<std::size_t, std::size_t>> ResolveSelection(
    const RelationScheme& scheme, std::string_view a, std::string_view b) {
  SETREC_ASSIGN_OR_RETURN(std::size_t ia, scheme.IndexOf(a));
  SETREC_ASSIGN_OR_RETURN(std::size_t ib, scheme.IndexOf(b));
  if (scheme.attribute(ia).domain != scheme.attribute(ib).domain) {
    return Status::InvalidArgument(
        "selection compares attributes of different domains: " +
        std::string(a) + " vs " + std::string(b));
  }
  return std::pair{ia, ib};
}

/// ×'s typing rule: disjoint attribute names.
Result<RelationScheme> ProductScheme(const RelationScheme& l,
                                     const RelationScheme& r) {
  std::vector<Attribute> attrs = l.attributes();
  for (const Attribute& a : r.attributes()) {
    if (l.HasAttribute(a.name)) {
      return Status::InvalidArgument("product operands share attribute name " +
                                     a.name + "; rename first");
    }
    attrs.push_back(a);
  }
  return RelationScheme::Make(std::move(attrs));
}

/// Marks `join` as an index build when its right operand is a scan of a
/// relation bound in `database`, seen through any ρs, and one of its keys
/// binds that relation's first column.
void MarkIndexBuild(const Database& database, PhysicalNode& join) {
  const PhysicalNode* scan = join.right;
  while (scan->kind == PhysicalNode::Kind::kRename) scan = scan->left;
  if (scan->kind != PhysicalNode::Kind::kScan) return;
  const BoundRelation* bound =
      database.FindBound(scan->expr->relation_name());
  if (bound == nullptr) return;
  for (std::size_t k = 0; k < join.right_key.size(); ++k) {
    if (join.right_key[k] == 0) {
      join.index = bound;
      join.index_key = static_cast<std::uint32_t>(k);
      return;
    }
  }
}

}  // namespace

Result<const RelationScheme*> PhysicalPlan::FindScheme(
    std::string_view name) const {
  if (catalog_ != nullptr) return catalog_->Find(name);
  return database_->FindScheme(name);
}

Result<const PhysicalNode*> PhysicalPlan::Lower(const Expr& expr) {
  auto memo_it = memo_.find(&expr);
  if (memo_it != memo_.end()) return memo_it->second;

  using Kind = PhysicalNode::Kind;
  PhysicalNode node;
  node.expr = &expr;
  switch (expr.op()) {
    case Expr::Op::kRelation: {
      SETREC_ASSIGN_OR_RETURN(node.scheme, FindScheme(expr.relation_name()));
      node.kind = Kind::kScan;
      break;
    }
    case Expr::Op::kUnion:
    case Expr::Op::kDifference: {
      SETREC_ASSIGN_OR_RETURN(node.left, Lower(*expr.left()));
      SETREC_ASSIGN_OR_RETURN(node.right, Lower(*expr.right()));
      if (!(*node.left->scheme == *node.right->scheme)) {
        return Status::InvalidArgument(
            "union/difference operands must have identical schemes");
      }
      node.kind =
          expr.op() == Expr::Op::kUnion ? Kind::kUnion : Kind::kDifference;
      node.scheme = node.left->scheme;
      break;
    }
    case Expr::Op::kProduct: {
      SETREC_ASSIGN_OR_RETURN(node.left, Lower(*expr.left()));
      SETREC_ASSIGN_OR_RETURN(node.right, Lower(*expr.right()));
      SETREC_ASSIGN_OR_RETURN(
          RelationScheme scheme,
          ProductScheme(*node.left->scheme, *node.right->scheme));
      node.kind = Kind::kProduct;
      node.scheme = Own(std::move(scheme));
      node.guard = IsGuard(*expr.left())    ? PhysicalNode::Guard::kLeft
                   : IsGuard(*expr.right()) ? PhysicalNode::Guard::kRight
                                            : PhysicalNode::Guard::kNone;
      break;
    }
    case Expr::Op::kSelectEq:
    case Expr::Op::kSelectNeq: {
      const Expr* bottom = &expr;
      while (IsSelection(*bottom)) bottom = bottom->child().get();
      if (bottom->op() == Expr::Op::kProduct) {
        SETREC_RETURN_IF_ERROR(LowerJoin(*bottom, node));
        break;
      }
      SETREC_ASSIGN_OR_RETURN(node.left, Lower(*expr.child()));
      SETREC_ASSIGN_OR_RETURN(
          auto columns,
          ResolveSelection(*node.left->scheme, expr.attr_a(), expr.attr_b()));
      node.kind = Kind::kSelect;
      node.scheme = node.left->scheme;
      node.equal = expr.op() == Expr::Op::kSelectEq;
      node.ia = static_cast<std::uint32_t>(columns.first);
      node.ib = static_cast<std::uint32_t>(columns.second);
      break;
    }
    case Expr::Op::kProject: {
      SETREC_ASSIGN_OR_RETURN(node.left, Lower(*expr.child()));
      const RelationScheme& child = *node.left->scheme;
      std::vector<Attribute> attrs;
      attrs.reserve(expr.projection().size());
      for (const std::string& name : expr.projection()) {
        SETREC_ASSIGN_OR_RETURN(std::size_t i, child.IndexOf(name));
        for (const std::uint32_t seen : node.cols) {
          if (seen == i) {
            return Status::InvalidArgument("duplicate projection attribute " +
                                           name);
          }
        }
        node.cols.push_back(static_cast<std::uint32_t>(i));
        attrs.push_back(child.attribute(i));
      }
      SETREC_ASSIGN_OR_RETURN(RelationScheme scheme,
                              RelationScheme::Make(std::move(attrs)));
      node.kind = Kind::kProject;
      node.scheme = Own(std::move(scheme));
      break;
    }
    case Expr::Op::kRename: {
      SETREC_ASSIGN_OR_RETURN(node.left, Lower(*expr.child()));
      const RelationScheme& child = *node.left->scheme;
      SETREC_ASSIGN_OR_RETURN(std::size_t i, child.IndexOf(expr.rename_from()));
      if (child.HasAttribute(expr.rename_to())) {
        return Status::InvalidArgument("rename target attribute " +
                                       expr.rename_to() + " already present");
      }
      std::vector<Attribute> attrs = child.attributes();
      attrs[i].name = expr.rename_to();
      SETREC_ASSIGN_OR_RETURN(RelationScheme scheme,
                              RelationScheme::Make(std::move(attrs)));
      node.kind = Kind::kRename;
      node.scheme = Own(std::move(scheme));
      break;
    }
  }
  const PhysicalNode* lowered = &nodes_.emplace_back(std::move(node));
  memo_.emplace(&expr, lowered);
  return lowered;
}

Result<const PhysicalNode*> PhysicalPlan::LowerRoot(const ExprPtr& root) {
  if (!memo_.contains(root.get())) roots_.push_back(root);
  return Lower(*root);
}

Status PhysicalPlan::LowerJoin(const Expr& bottom, PhysicalNode& node) {
  SETREC_ASSIGN_OR_RETURN(node.left, Lower(*bottom.left()));
  SETREC_ASSIGN_OR_RETURN(node.right, Lower(*bottom.right()));
  SETREC_ASSIGN_OR_RETURN(
      RelationScheme scheme,
      ProductScheme(*node.left->scheme, *node.right->scheme));
  node.kind = PhysicalNode::Kind::kJoin;
  for (const Expr* s = node.expr; s != &bottom; s = s->child().get()) {
    JoinCond c;
    c.equal = s->op() == Expr::Op::kSelectEq;
    c.a = s->attr_a();
    c.b = s->attr_b();
    node.conds.push_back(c);
  }
  // Typed innermost σ first, as the unfused chain would be.
  const std::size_t lw = node.left->scheme->arity();
  for (auto c = node.conds.rbegin(); c != node.conds.rend(); ++c) {
    SETREC_ASSIGN_OR_RETURN(auto columns, ResolveSelection(scheme, c->a, c->b));
    c->a_left = columns.first < lw;
    c->b_left = columns.second < lw;
    c->ia = static_cast<std::uint32_t>(c->a_left ? columns.first
                                                 : columns.first - lw);
    c->ib = static_cast<std::uint32_t>(c->b_left ? columns.second
                                                 : columns.second - lw);
    if (c->a_left == c->b_left) {
      c->role = c->a_left ? JoinCond::Role::kProbeFilter
                          : JoinCond::Role::kBuildFilter;
    } else {
      c->role = c->equal ? JoinCond::Role::kKey : JoinCond::Role::kResidual;
    }
  }
  for (const JoinCond& c : node.conds) {
    if (c.role != JoinCond::Role::kKey) continue;
    node.left_key.push_back(c.a_left ? c.ia : c.ib);
    node.right_key.push_back(c.a_left ? c.ib : c.ia);
  }
  node.scheme = Own(std::move(scheme));
  if (database_ != nullptr) MarkIndexBuild(*database_, node);
  return Status::OK();
}

Result<RelationScheme> InferScheme(const Expr& expr, const Catalog& catalog) {
  PhysicalPlan plan(catalog);
  SETREC_ASSIGN_OR_RETURN(const PhysicalNode* root, plan.Lower(expr));
  return *root->scheme;
}

}  // namespace setrec
