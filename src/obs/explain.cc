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
#include "relational/plan.h"
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

/// Renders one plan node and its operands. The tree is the lowered plan the
/// engines execute, not the raw syntax tree: a σ-chain over a product
/// renders as its single HashJoin, each condition in the role the lowering
/// gave it — cross equalities are hash keys, per-side conditions are
/// build/probe filters, and cross non-equalities are residual filters. An
/// index build names the bound relation and column its table is read by.
PlanNode BuildPlan(
    const PhysicalNode& n,
    const std::unordered_map<const Expr*, EvalNodeStats>* stats) {
  using Kind = PhysicalNode::Kind;
  PlanNode node;
  node.scheme = RenderScheme(*n.scheme);
  // A fused join's stats are recorded under the chain's top node; the
  // collapsed operators in between never evaluate separately.
  AttachStats(node, n.expr, stats);
  switch (n.kind) {
    case Kind::kScan:
      node.op = "Scan " + n.expr->relation_name();
      break;
    case Kind::kUnion:
      node.op = "Union";
      break;
    case Kind::kDifference:
      node.op = "Difference";
      break;
    case Kind::kProduct:
      node.op = "Product";
      // The engines skip the other side when the guard side is empty.
      if (n.guard != PhysicalNode::Guard::kNone) node.detail = "π∅-guarded";
      break;
    case Kind::kSelect:
      node.op = "Select";
      node.detail =
          n.expr->attr_a() + (n.equal ? "=" : "≠") + n.expr->attr_b();
      break;
    case Kind::kProject:
      node.op = "Project";
      for (const std::string& a : n.expr->projection()) {
        if (!node.detail.empty()) node.detail += ", ";
        node.detail += a;
      }
      if (node.detail.empty()) node.detail = "∅";
      break;
    case Kind::kRename:
      node.op = "Rename";
      node.detail = n.expr->rename_from() + "→" + n.expr->rename_to();
      break;
    case Kind::kJoin: {
      std::string keys, probe_filters, build_filters, residual;
      for (const JoinCond& c : n.conds) {
        std::string& to = c.role == JoinCond::Role::kKey ? keys
                          : c.role == JoinCond::Role::kProbeFilter
                              ? probe_filters
                          : c.role == JoinCond::Role::kBuildFilter
                              ? build_filters
                              : residual;
        if (!to.empty()) to += ", ";
        to += std::string(c.a) + (c.equal ? "=" : "≠") + std::string(c.b);
      }
      node.op = "HashJoin";
      node.detail =
          "keys: " + (keys.empty() ? std::string("none (cross)") : keys);
      if (!probe_filters.empty()) {
        node.detail += "; probe filter: " + probe_filters;
      }
      if (!build_filters.empty()) {
        node.detail += "; build filter: " + build_filters;
      }
      if (!residual.empty()) node.detail += "; residual: " + residual;
      if (n.index != nullptr) {
        const PhysicalNode* scan = n.right;
        while (scan->kind == Kind::kRename) scan = scan->left;
        node.detail += "; build: index " + scan->expr->relation_name() + "." +
                       scan->scheme->attribute(0).name;
      }
      break;
    }
  }
  if (n.left != nullptr) node.children.push_back(BuildPlan(*n.left, stats));
  if (n.right != nullptr) node.children.push_back(BuildPlan(*n.right, stats));
  return node;
}

/// Lowers `expr` (type errors surface here) and renders the result.
Result<PlanNode> RenderExpr(
    PhysicalPlan& lowering, const Expr& expr,
    const std::unordered_map<const Expr*, EvalNodeStats>* stats) {
  SETREC_ASSIGN_OR_RETURN(const PhysicalNode* root, lowering.Lower(expr));
  return BuildPlan(*root, stats);
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
  PhysicalPlan lowering(catalog);
  SETREC_ASSIGN_OR_RETURN(PlanNode root, RenderExpr(lowering, *expr, nullptr));
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
  Evaluator evaluator(&database, scope.ctx());
  evaluator.set_backend(opts.backend);
  std::unordered_map<const Expr*, EvalNodeStats> stats;
  evaluator.set_node_stats(&stats);
  SETREC_RETURN_IF_ERROR(evaluator.Eval(expr).status());

  // ANALYZE types the plan against the data it ran on.
  PhysicalPlan lowering(database);
  ExplainPlan plan;
  plan.title = "EXPLAIN ANALYZE: " + ExprToString(*expr);
  plan.analyzed = true;
  SETREC_ASSIGN_OR_RETURN(PlanNode root, RenderExpr(lowering, *expr, &stats));
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
    // state (the relations it reads), collecting per-node statistics.
    SETREC_ASSIGN_OR_RETURN(
        Database db,
        EncodeInstance(instance, ReferencedRelations(*receiver_query)));
    Evaluator evaluator(&db, ctx);
    evaluator.set_backend(opts.backend);
    evaluator.set_node_stats(&stats);
    SETREC_ASSIGN_OR_RETURN(Relation rows, evaluator.Eval(receiver_query));
    SETREC_ASSIGN_OR_RETURN(std::vector<Receiver> receivers,
                            ReceiversFromRelation(rows, assign->signature()));
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
  PhysicalPlan lowering(catalog);
  SETREC_ASSIGN_OR_RETURN(
      PlanNode query_plan,
      RenderExpr(lowering, *receiver_query, analyze ? &stats : nullptr));
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

  PhysicalPlan lowering(catalog);
  for (std::size_t i = 0; i < pipelines.size(); ++i) {
    PlanNode root;
    root.op = "ParStatement";
    root.detail =
        mctx.schema->property(method.statements()[i].property).name +
        " := par(E)";
    SETREC_ASSIGN_OR_RETURN(
        PlanNode body,
        RenderExpr(lowering, *pipelines[i], analyze ? &stats : nullptr));
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
