#include "obs/explain.h"

#include <chrono>
#include <cstdio>
#include <sstream>
#include <unordered_map>
#include <utility>

#include "algebraic/method_library.h"
#include "algebraic/parallel.h"
#include "core/sequential.h"
#include "obs/json_escape.h"
#include "objrel/encoding.h"
#include "relational/evaluator.h"
#include "sql/engine.h"

namespace setrec {

namespace {

std::string RenderScheme(const RelationScheme& scheme) {
  std::string out = "(";
  for (std::size_t i = 0; i < scheme.arity(); ++i) {
    if (i > 0) out += ", ";
    out += scheme.attribute(i).name;
  }
  out += ")";
  return out;
}

/// Copies the evaluator's per-node statistics (keyed by the expression node
/// the evaluator memoized under) onto a plan node.
void AttachStats(
    PlanNode& node, const Expr* key,
    const std::unordered_map<const Expr*, EvalNodeStats>* stats) {
  if (stats == nullptr) return;
  auto it = stats->find(key);
  if (it == stats->end()) return;  // never evaluated (guard short-circuit)
  node.analyzed = true;
  node.actual_rows = it->second.rows;
  node.build_rows = it->second.build_rows;
  node.probe_rows = it->second.probe_rows;
  node.cache_hits = it->second.cache_hits;
  node.wall_ns = it->second.wall_ns;
  node.backend = it->second.backend;
}

/// True when the node is a σ-chain whose bottom is a Cartesian product —
/// exactly the shape the evaluator fuses into a hash join.
bool IsJoinChain(const Expr& expr) {
  if (expr.op() != Expr::Op::kSelectEq && expr.op() != Expr::Op::kSelectNeq) {
    return false;
  }
  const Expr* node = &expr;
  while (node->op() == Expr::Op::kSelectEq ||
         node->op() == Expr::Op::kSelectNeq) {
    node = node->child().get();
  }
  return node->op() == Expr::Op::kProduct;
}

Result<PlanNode> BuildPlan(
    const ExprPtr& expr, const Catalog& catalog,
    const std::unordered_map<const Expr*, EvalNodeStats>* stats);

/// Renders the fused hash join for a σ-chain over a product, classifying
/// the chain's conditions exactly as the evaluator does: cross equalities
/// are hash keys, per-side conditions are build/probe filters, and cross
/// non-equalities are residual filters applied per match.
Result<PlanNode> BuildJoinPlan(
    const ExprPtr& top, const Catalog& catalog,
    const std::unordered_map<const Expr*, EvalNodeStats>* stats) {
  struct Condition {
    bool equal;
    std::string a, b;
  };
  std::vector<Condition> conditions;
  const Expr* node = top.get();
  while (node->op() == Expr::Op::kSelectEq ||
         node->op() == Expr::Op::kSelectNeq) {
    conditions.push_back(Condition{node->op() == Expr::Op::kSelectEq,
                                   node->attr_a(), node->attr_b()});
    node = node->child().get();
  }
  SETREC_ASSIGN_OR_RETURN(RelationScheme left_scheme,
                          InferScheme(*node->left(), catalog));
  SETREC_ASSIGN_OR_RETURN(RelationScheme scheme, InferScheme(*top, catalog));

  std::string keys, left_filters, right_filters, residual;
  auto append = [](std::string& to, const Condition& c) {
    if (!to.empty()) to += ", ";
    to += c.a + (c.equal ? "=" : "≠") + c.b;
  };
  for (const Condition& c : conditions) {
    const bool a_left = left_scheme.HasAttribute(c.a);
    const bool b_left = left_scheme.HasAttribute(c.b);
    if (a_left && b_left) {
      append(left_filters, c);
    } else if (!a_left && !b_left) {
      append(right_filters, c);
    } else if (c.equal) {
      append(keys, c);
    } else {
      append(residual, c);
    }
  }

  PlanNode join;
  join.op = "HashJoin";
  join.detail = "keys: " + (keys.empty() ? std::string("none (cross)") : keys);
  if (!left_filters.empty()) join.detail += "; probe filter: " + left_filters;
  if (!right_filters.empty()) join.detail += "; build filter: " + right_filters;
  if (!residual.empty()) join.detail += "; residual: " + residual;
  join.scheme = RenderScheme(scheme);
  // The evaluator records the whole chain's stats under the chain's top
  // node; the collapsed operators in between never evaluate separately.
  AttachStats(join, top.get(), stats);
  SETREC_ASSIGN_OR_RETURN(PlanNode left, BuildPlan(node->left(), catalog, stats));
  SETREC_ASSIGN_OR_RETURN(PlanNode right,
                          BuildPlan(node->right(), catalog, stats));
  join.children.push_back(std::move(left));
  join.children.push_back(std::move(right));
  return join;
}

Result<PlanNode> BuildPlan(
    const ExprPtr& expr, const Catalog& catalog,
    const std::unordered_map<const Expr*, EvalNodeStats>* stats) {
  if (IsJoinChain(*expr)) return BuildJoinPlan(expr, catalog, stats);

  PlanNode node;
  SETREC_ASSIGN_OR_RETURN(RelationScheme scheme, InferScheme(*expr, catalog));
  node.scheme = RenderScheme(scheme);
  AttachStats(node, expr.get(), stats);
  switch (expr->op()) {
    case Expr::Op::kRelation:
      node.op = "Scan " + expr->relation_name();
      return node;
    case Expr::Op::kUnion:
      node.op = "Union";
      break;
    case Expr::Op::kDifference:
      node.op = "Difference";
      break;
    case Expr::Op::kProduct: {
      node.op = "Product";
      for (const ExprPtr& side : {expr->left(), expr->right()}) {
        if (side->op() == Expr::Op::kProject && side->projection().empty()) {
          node.detail = "π∅-guarded";  // evaluator skips the other side
          break;                       // when the guard side is empty
        }
      }
      break;
    }
    case Expr::Op::kSelectEq:
    case Expr::Op::kSelectNeq: {
      node.op = "Select";
      node.detail = expr->attr_a() +
                    (expr->op() == Expr::Op::kSelectEq ? "=" : "≠") +
                    expr->attr_b();
      break;
    }
    case Expr::Op::kProject: {
      node.op = "Project";
      if (expr->projection().empty()) {
        node.detail = "∅";
      } else {
        for (const std::string& a : expr->projection()) {
          if (!node.detail.empty()) node.detail += ", ";
          node.detail += a;
        }
      }
      break;
    }
    case Expr::Op::kRename:
      node.op = "Rename";
      node.detail = expr->rename_from() + "→" + expr->rename_to();
      break;
  }
  if (expr->op() == Expr::Op::kUnion || expr->op() == Expr::Op::kDifference ||
      expr->op() == Expr::Op::kProduct) {
    SETREC_ASSIGN_OR_RETURN(PlanNode left,
                            BuildPlan(expr->left(), catalog, stats));
    SETREC_ASSIGN_OR_RETURN(PlanNode right,
                            BuildPlan(expr->right(), catalog, stats));
    node.children.push_back(std::move(left));
    node.children.push_back(std::move(right));
  } else {
    SETREC_ASSIGN_OR_RETURN(PlanNode child,
                            BuildPlan(expr->child(), catalog, stats));
    node.children.push_back(std::move(child));
  }
  return node;
}

std::string FormatNs(std::uint64_t ns) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3fms",
                static_cast<double>(ns) / 1e6);
  return buf;
}

void RenderNode(const PlanNode& node, const std::string& indent, bool root,
                std::string& out) {
  out += indent;
  if (!root) out += "-> ";
  out += node.op;
  if (!node.detail.empty()) out += " [" + node.detail + "]";
  out += " :: " + node.scheme;
  if (node.analyzed) {
    out += " (rows=" + std::to_string(node.actual_rows);
    if (node.build_rows > 0 || node.probe_rows > 0) {
      out += " build=" + std::to_string(node.build_rows) +
             " probes=" + std::to_string(node.probe_rows);
    }
    if (node.cache_hits > 0) {
      out += " hits=" + std::to_string(node.cache_hits);
    }
    if (!node.backend.empty()) {
      out += " backend=" + node.backend;
    }
    out += " time=" + FormatNs(node.wall_ns) + ")";
  }
  out += "\n";
  const std::string child_indent = indent + (root ? "  " : "   ");
  for (const PlanNode& child : node.children) {
    RenderNode(child, child_indent, false, out);
  }
}

void NodeToJson(const PlanNode& node, std::ostream& out) {
  out << "{\"op\":" << JsonQuoted(node.op) << ",\"detail\":"
      << JsonQuoted(node.detail) << ",\"scheme\":" << JsonQuoted(node.scheme);
  if (node.analyzed) {
    out << ",\"rows\":" << node.actual_rows << ",\"build\":" << node.build_rows
        << ",\"probes\":" << node.probe_rows << ",\"cache_hits\":"
        << node.cache_hits << ",\"wall_ns\":" << node.wall_ns
        << ",\"backend\":" << JsonQuoted(node.backend);
  }
  out << ",\"children\":[";
  for (std::size_t i = 0; i < node.children.size(); ++i) {
    if (i > 0) out << ",";
    NodeToJson(node.children[i], out);
  }
  out << "]}";
}

/// A catalog over the database's actual relations (ANALYZE type-checks
/// against the data it ran on, not a separate schema).
Catalog DatabaseCatalog(const Database& database) {
  Catalog catalog;
  for (const std::string& name : database.Names()) {
    Result<const Relation*> rel = database.Find(name);
    if (rel.ok()) (void)catalog.AddRelation(name, (*rel)->scheme());
  }
  return catalog;
}

std::uint64_t ElapsedNs(std::chrono::steady_clock::time_point since) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - since)
          .count());
}

}  // namespace

std::string ExplainPlan::ToText() const {
  std::string out = title + "\n";
  for (const PlanNode& root : roots) RenderNode(root, "", true, out);
  if (!counters.empty()) {
    out += "logical counters:\n";
    for (const auto& [name, value] : counters) {
      out += "  " + name + " = " + std::to_string(value) + "\n";
    }
  }
  return out;
}

std::string ExplainPlan::ToJson() const {
  std::ostringstream out;
  out << "{\"title\":" << JsonQuoted(title) << ",\"analyzed\":"
      << (analyzed ? "true" : "false") << ",\"roots\":[";
  for (std::size_t i = 0; i < roots.size(); ++i) {
    if (i > 0) out << ",";
    NodeToJson(roots[i], out);
  }
  out << "],\"counters\":{";
  bool first = true;
  for (const auto& [name, value] : counters) {
    if (!first) out << ",";
    first = false;
    out << JsonQuoted(name) << ":" << value;
  }
  out << "}}";
  return out.str();
}

const std::vector<std::string>& LogicalCounterNames() {
  static const std::vector<std::string>* names = new std::vector<std::string>{
      "apply.edges",
      "chase.fd_merges",
      "chase.ind_additions",
      "chase.rounds",
      "containment.tests",
      "evaluator.join_build_rows",
      "evaluator.join_probes",
      "evaluator.rows",
      "homomorphism.candidates",
      "homomorphism.pruned",
      "sequential.receivers",
  };
  return *names;
}

std::map<std::string, std::uint64_t> LogicalCounters(
    const MetricsRegistry& metrics) {
  const MetricsRegistry::Snapshot snap = metrics.TakeSnapshot();
  std::map<std::string, std::uint64_t> out;
  for (const std::string& name : LogicalCounterNames()) {
    auto it = snap.counters.find(name);
    out[name] = it == snap.counters.end() ? 0 : it->second;
  }
  return out;
}

Result<ExplainPlan> ExplainExpression(const ExprPtr& expr,
                                      const Catalog& catalog) {
  ExplainPlan plan;
  plan.title = "EXPLAIN: " + ExprToString(*expr);
  SETREC_ASSIGN_OR_RETURN(PlanNode root, BuildPlan(expr, catalog, nullptr));
  plan.roots.push_back(std::move(root));
  return plan;
}

Result<ExplainPlan> ExplainExpressionAnalyze(const ExprPtr& expr,
                                             const Database& database,
                                             const ExecOptions& options) {
  MetricsRegistry local_metrics;
  ExecOptions opts = options;
  if (opts.metrics == nullptr) opts.metrics = &local_metrics;
  ExecScope scope(opts);
  Evaluator evaluator(&database, scope.ctx(), opts.pool);
  evaluator.set_backend(opts.backend);
  std::unordered_map<const Expr*, EvalNodeStats> stats;
  evaluator.set_node_stats(&stats);
  SETREC_RETURN_IF_ERROR(evaluator.Eval(expr).status());

  const Catalog catalog = DatabaseCatalog(database);
  ExplainPlan plan;
  plan.title = "EXPLAIN ANALYZE: " + ExprToString(*expr);
  plan.analyzed = true;
  SETREC_ASSIGN_OR_RETURN(PlanNode root, BuildPlan(expr, catalog, &stats));
  plan.roots.push_back(std::move(root));
  plan.counters = LogicalCounters(*scope.ctx().metrics());
  return plan;
}

Result<ExplainPlan> ExplainSetOrientedUpdate(const Instance& instance,
                                             PropertyId property,
                                             const ExprPtr& receiver_query,
                                             bool analyze,
                                             const ExecOptions& options) {
  const Schema& schema = instance.schema();
  SETREC_ASSIGN_OR_RETURN(std::unique_ptr<AlgebraicUpdateMethod> assign,
                          MakeAssignArgMethod(&schema, property));
  SETREC_ASSIGN_OR_RETURN(Catalog catalog, EncodeCatalog(schema));
  const std::string& prop_name = schema.property(property).name;

  ExplainPlan plan;
  plan.title = std::string(analyze ? "EXPLAIN ANALYZE" : "EXPLAIN") +
               ": set-oriented UPDATE " + prop_name;
  plan.analyzed = analyze;

  std::unordered_map<const Expr*, EvalNodeStats> stats;
  PlanNode apply;
  apply.op = "Apply";
  apply.detail = prop_name + " := arg1 over the receiver key set";

  if (analyze) {
    MetricsRegistry local_metrics;
    ExecOptions opts = options;
    if (opts.metrics == nullptr) opts.metrics = &local_metrics;
    ExecScope scope(opts);
    ExecContext& ctx = scope.ctx();

    // Phase one: evaluate the receiver query against the encoded input
    // state, collecting per-node statistics.
    SETREC_ASSIGN_OR_RETURN(Database db, EncodeInstance(instance));
    Evaluator evaluator(&db, ctx, opts.pool);
    evaluator.set_backend(opts.backend);
    evaluator.set_node_stats(&stats);
    SETREC_ASSIGN_OR_RETURN(Relation rows, evaluator.Eval(receiver_query));
    if (rows.scheme().arity() != assign->signature().size()) {
      return Status::InvalidArgument(
          "receiver query scheme does not match the update signature");
    }
    std::vector<Receiver> receivers;
    receivers.reserve(rows.size());
    for (const Tuple* t : rows.SortedTuples()) {
      SETREC_ASSIGN_OR_RETURN(
          Receiver r,
          Receiver::Make(assign->signature(), t->values(), instance));
      receivers.push_back(std::move(r));
    }
    if (!IsKeySet(receivers)) {
      return Status::FailedPrecondition(
          "set-oriented update would assign two values to one row; the "
          "receiver query must produce a key set");
    }

    // Phase two: apply to a scratch copy so the caller's instance is
    // untouched; the metrics registry picks up apply.edges and
    // sequential.receivers.
    const auto start = std::chrono::steady_clock::now();
    SETREC_RETURN_IF_ERROR(
        ApplySequence(*assign, instance, receivers, ctx).status());
    apply.analyzed = true;
    apply.actual_rows = receivers.size();
    apply.wall_ns = ElapsedNs(start);
    plan.counters = LogicalCounters(*ctx.metrics());
  }

  PlanNode phase1;
  phase1.op = "ReceiverQuery";
  phase1.detail = "phase 1: evaluated against the pre-statement state";
  SETREC_ASSIGN_OR_RETURN(
      PlanNode query_plan,
      BuildPlan(receiver_query, catalog, analyze ? &stats : nullptr));
  phase1.scheme = query_plan.scheme;
  if (analyze) {
    phase1.analyzed = query_plan.analyzed;
    phase1.actual_rows = query_plan.actual_rows;
    phase1.wall_ns = query_plan.wall_ns;
  }
  phase1.children.push_back(std::move(query_plan));
  apply.scheme = phase1.scheme;
  plan.roots.push_back(std::move(phase1));
  plan.roots.push_back(std::move(apply));
  return plan;
}

Result<ExplainPlan> ExplainParallelApply(const AlgebraicUpdateMethod& method,
                                         const Instance& instance,
                                         std::span<const Receiver> receivers,
                                         bool analyze,
                                         const ExecOptions& options) {
  const MethodContext& mctx = method.context();
  SETREC_ASSIGN_OR_RETURN(Catalog catalog, ParCatalog(mctx));

  ExplainPlan plan;
  plan.title = std::string(analyze ? "EXPLAIN ANALYZE" : "EXPLAIN") +
               ": parallel application of " +
               (method.name().empty() ? "method" : method.name());
  plan.analyzed = analyze;

  // One par(E) pipeline per statement. ANALYZE prepares and runs them the
  // way ParallelApply does — same receiver checks, same database, same
  // backend — and renders the nodes it evaluated.
  std::vector<ExprPtr> pipelines;
  std::unordered_map<const Expr*, EvalNodeStats> stats;
  if (analyze) {
    MetricsRegistry local_metrics;
    ExecOptions opts = options;
    if (opts.metrics == nullptr) opts.metrics = &local_metrics;
    ExecScope scope(opts);
    SETREC_ASSIGN_OR_RETURN(
        ParallelPlan par,
        PrepareParallelApply(method, instance, receivers, scope.ctx()));
    SETREC_RETURN_IF_ERROR(
        RunParallelApply(method, instance, par, opts.backend, scope.ctx(),
                         &stats)
            .status());
    pipelines = std::move(par.statements);
    plan.counters = LogicalCounters(*scope.ctx().metrics());
  } else {
    for (const UpdateStatement& stmt : method.statements()) {
      SETREC_ASSIGN_OR_RETURN(ExprPtr par_expr,
                              ParTransform(stmt.expression, mctx));
      pipelines.push_back(std::move(par_expr));
    }
  }

  for (std::size_t i = 0; i < pipelines.size(); ++i) {
    PlanNode root;
    root.op = "ParStatement";
    root.detail =
        mctx.schema->property(method.statements()[i].property).name +
        " := par(E)";
    SETREC_ASSIGN_OR_RETURN(
        PlanNode body,
        BuildPlan(pipelines[i], catalog, analyze ? &stats : nullptr));
    root.scheme = body.scheme;
    if (analyze) {
      root.analyzed = body.analyzed;
      root.actual_rows = body.actual_rows;
      root.wall_ns = body.wall_ns;
    }
    root.children.push_back(std::move(body));
    plan.roots.push_back(std::move(root));
  }
  return plan;
}

}  // namespace setrec
