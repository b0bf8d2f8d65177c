#include "sql/engine.h"

#include <algorithm>
#include <numeric>

#include "core/sequential.h"
#include "incremental/view_cache.h"

namespace setrec {

Result<Instance> CursorDelete(const Instance& instance, ClassId cls,
                              const RowPredicate& pred,
                              std::span<const ObjectId> order,
                              ExecContext& ctx) {
  Instance current = instance;
  SETREC_RETURN_IF_ERROR(CursorDeleteInPlace(current, cls, pred, order, ctx));
  return current;
}

Status CursorDeleteInPlace(Instance& instance, ClassId cls,
                           const RowPredicate& pred,
                           std::span<const ObjectId> order, ExecContext& ctx) {
  TraceSpan span = StartSpan(ctx, "sql/cursor-delete");
  std::vector<ObjectId> rows(order.begin(), order.end());
  if (rows.empty()) {
    rows.assign(instance.objects(cls).begin(), instance.objects(cls).end());
  }
  for (ObjectId row : rows) {
    SETREC_RETURN_IF_ERROR(ctx.CheckPoint("sql/cursor-delete/row"));
    if (!instance.HasObject(row)) continue;  // already deleted by a cascade
    SETREC_ASSIGN_OR_RETURN(bool doomed, pred(instance, row));
    if (doomed) SETREC_RETURN_IF_ERROR(instance.RemoveObject(row));
  }
  return Status::OK();
}

Result<Instance> SetOrientedDelete(const Instance& instance, ClassId cls,
                                   const RowPredicate& pred,
                                   ExecContext& ctx) {
  Instance out = instance;
  SETREC_RETURN_IF_ERROR(
      SetOrientedDeleteInPlace(out, cls, pred, {.ctx = &ctx}));
  return out;
}

Status SetOrientedDeleteInPlace(Instance& instance, ClassId cls,
                                const RowPredicate& pred,
                                const ExecOptions& options) {
  ExecScope scope(options);
  ExecContext& ctx = scope.ctx();
  TraceSpan span = StartSpan(ctx, "sql/set-delete");
  // Phase one: identify every doomed row against the input state. No
  // mutation has happened yet, so errors here need no rollback.
  std::vector<ObjectId> doomed;
  for (ObjectId row : instance.objects(cls)) {
    SETREC_RETURN_IF_ERROR(ctx.CheckPoint("sql/delete/scan"));
    SETREC_ASSIGN_OR_RETURN(bool d, pred(instance, row));
    if (d) doomed.push_back(row);
  }
  // Phase two: remove them all together, all-or-nothing. The commit hook is
  // part of the statement: a veto (e.g. a WAL write failure) unwinds exactly
  // like an in-memory fault.
  auto remove = [&]() -> Status {
    for (ObjectId row : doomed) {
      SETREC_RETURN_IF_ERROR(ctx.CheckPoint("sql/delete/row"));
      SETREC_RETURN_IF_ERROR(instance.RemoveObject(row));
    }
    return Status::OK();
  };
  InstanceDelta delta;
  SETREC_RETURN_IF_ERROR(
      RunJournaled(instance, remove, options.commit_hook, &delta));
  // Deletes have no receiver-query phase to serve from the cache, but their
  // effects must still reach it or dependent views go permanently stale.
  // A caller that passed a commit hook owns the commit and publishes once
  // it is durable; otherwise this is the commit. Advisory: the sink fails
  // closed on its own when it cannot absorb the delta.
  if (options.view_cache != nullptr && !options.commit_hook) {
    (void)options.view_cache->ApplyDelta(delta);
  }
  return Status::OK();
}

Result<CursorOrderReport> TestCursorDeleteOrders(const Instance& instance,
                                                 ClassId cls,
                                                 const RowPredicate& pred,
                                                 std::size_t max_rows,
                                                 ExecContext& ctx) {
  std::vector<ObjectId> rows(instance.objects(cls).begin(),
                             instance.objects(cls).end());
  if (rows.size() > max_rows) {
    return Status::InvalidArgument(
        "too many rows for an exhaustive permutation test");
  }
  CursorOrderReport report;
  std::vector<std::size_t> perm(rows.size());
  std::iota(perm.begin(), perm.end(), 0);
  do {
    SETREC_RETURN_IF_ERROR(ctx.CheckPoint("sql/cursor-delete/permutation"));
    std::vector<ObjectId> order;
    order.reserve(rows.size());
    for (std::size_t i : perm) order.push_back(rows[i]);
    SETREC_ASSIGN_OR_RETURN(Instance outcome,
                            CursorDelete(instance, cls, pred, order, ctx));
    if (!report.first.has_value()) {
      report.first = std::move(outcome);
    } else if (!(*report.first == outcome)) {
      report.order_independent = false;
      report.disagreement = std::move(outcome);
      return report;
    }
  } while (std::next_permutation(perm.begin(), perm.end()));
  report.order_independent = true;
  return report;
}

RowPredicate SalaryInFire(const PayrollSchema& schema) {
  return [&schema](const Instance& db, ObjectId row) -> Result<bool> {
    for (ObjectId salary : db.Targets(row, schema.salary)) {
      for (const auto& [fire_row, amount] : db.edges(schema.fire_amt)) {
        if (amount == salary && db.HasObject(fire_row)) return true;
      }
    }
    return false;
  };
}

RowPredicate ManagerSalaryInFire(const PayrollSchema& schema) {
  RowPredicate direct = SalaryInFire(schema);
  return [&schema, direct](const Instance& db, ObjectId row) -> Result<bool> {
    for (ObjectId manager : db.Targets(row, schema.manager)) {
      if (!db.HasObject(manager)) continue;
      SETREC_ASSIGN_OR_RETURN(bool fired, direct(db, manager));
      if (fired) return true;
    }
    return false;
  };
}

Result<Instance> CursorUpdate(const AlgebraicUpdateMethod& method,
                              const Instance& instance,
                              std::span<const Receiver> order,
                              ExecContext& ctx) {
  Instance current = instance;
  SETREC_RETURN_IF_ERROR(CursorUpdateInPlace(method, current, order, ctx));
  return current;
}

Status CursorUpdateInPlace(const AlgebraicUpdateMethod& method,
                           Instance& instance, std::span<const Receiver> order,
                           ExecContext& ctx) {
  TraceSpan span = StartSpan(ctx, "sql/cursor-update");
  return ApplySequenceInPlace(method, instance, order, ctx);
}

Result<std::unique_ptr<AlgebraicUpdateMethod>> MakeAssignArgMethod(
    const Schema* schema, PropertyId property) {
  if (!schema->HasProperty(property)) {
    return Status::InvalidArgument("unknown property");
  }
  const Schema::PropertyDef& def = schema->property(property);
  return AlgebraicUpdateMethod::Make(
      schema, MethodSignature({def.source, def.target}),
      "assign_" + def.name,
      {UpdateStatement{property, Expr::Relation("arg1")}});
}

Status SetOrientedUpdateInPlace(Instance& instance, PropertyId property,
                                const ExprPtr& receiver_query,
                                const ExecOptions& options) {
  ExecScope scope(options);
  ExecContext& ctx = scope.ctx();
  DeltaSink* sink = options.view_cache;
  TraceSpan span = StartSpan(ctx, "sql/set-update");
  const Schema* schema = &instance.schema();
  SETREC_ASSIGN_OR_RETURN(std::unique_ptr<AlgebraicUpdateMethod> assign,
                          MakeAssignArgMethod(schema, property));
  // Phase one: compute the receiver key set against the input state. No
  // mutation has happened yet, so errors here need no rollback. A cached
  // receiver set is only as fresh as the deltas the caller fed the cache:
  // the per-row validity check below still rejects receivers that do not
  // exist in the instance, but cannot detect a stale-but-valid set.
  std::vector<Receiver> receivers;
  bool from_cache = false;
  if (ViewCache* cache = sink != nullptr ? sink->AsViewCache() : nullptr) {
    Result<std::vector<Receiver>> cached =
        ReceiversFromView(*cache, receiver_query, assign->signature(), &ctx);
    if (cached.ok()) {
      receivers = std::move(cached).value();
      from_cache = true;
    } else if (IsGovernanceError(cached.status())) {
      // A deadline/budget/cancellation stop is not a cache miss: the answer
      // was not computed and a from-scratch retry would blow the same
      // budget. Propagate, exactly like the uncached path would.
      return cached.status();
    }
  }
  if (!from_cache) {
    SETREC_ASSIGN_OR_RETURN(
        receivers, ReceiversFromQuery(receiver_query, instance,
                                      assign->signature(), ctx));
  }
  if (!IsKeySet(receivers)) {
    return Status::FailedPrecondition(
        "set-oriented update would assign two values to one row; the "
        "receiver query must produce a key set");
  }
  // Phase two: rewrite the a-edges row by row, all-or-nothing. Because the
  // receiver set is a key set, "a := arg1" amounts to replacing each
  // receiving row's a-edges by the single queried target.
  auto rewrite = [&]() -> Status {
    for (const Receiver& t : receivers) {
      SETREC_RETURN_IF_ERROR(ctx.CheckPoint("sql/update/receiver"));
      if (!t.IsValidOver(assign->signature(), instance)) {
        return Status::FailedPrecondition(
            "receiver not valid over the instance");
      }
      const ObjectId row = t.receiving_object();
      SETREC_RETURN_IF_ERROR(instance.ClearEdgesFrom(row, property));
      SETREC_RETURN_IF_ERROR(ctx.CheckPoint("sql/update/edge"));
      SETREC_RETURN_IF_ERROR(instance.AddEdge(row, property, t.object_at(1)));
    }
    return Status::OK();
  };
  InstanceDelta delta;
  SETREC_RETURN_IF_ERROR(
      RunJournaled(instance, rewrite, options.commit_hook, &delta));
  if (sink != nullptr && !options.commit_hook) {
    // Unhooked, this is the commit; a hook's owner publishes once the
    // commit is durable. Advisory: the sink fails closed on its own when it
    // cannot absorb the delta.
    (void)sink->ApplyDelta(delta);
  }
  return Status::OK();
}

Result<Instance> SetOrientedUpdate(const Instance& instance,
                                   PropertyId property,
                                   const ExprPtr& receiver_query,
                                   const ExecOptions& options) {
  Instance out = instance;
  SETREC_RETURN_IF_ERROR(
      SetOrientedUpdateInPlace(out, property, receiver_query, options));
  return out;
}

}  // namespace setrec
