#include "algebraic/algebraic_method.h"

#include <memory>
#include <set>
#include <sstream>

#include "relational/evaluator.h"

namespace setrec {

AlgebraicUpdateMethod::AlgebraicUpdateMethod(
    MethodContext context, std::string name,
    std::vector<UpdateStatement> statements)
    : UpdateMethod(context.signature, std::move(name)),
      context_(std::move(context)),
      statements_(std::move(statements)) {}

Result<std::unique_ptr<AlgebraicUpdateMethod>> AlgebraicUpdateMethod::Make(
    const Schema* schema, MethodSignature signature, std::string name,
    std::vector<UpdateStatement> statements) {
  SETREC_ASSIGN_OR_RETURN(MethodContext context,
                          BuildMethodContext(schema, signature));
  std::set<PropertyId> seen;
  for (const UpdateStatement& s : statements) {
    if (!seen.insert(s.property).second) {
      return Status::InvalidArgument(
          "at most one update per property (Definition 5.4(4)): " +
          schema->property(s.property).name);
    }
    SETREC_RETURN_IF_ERROR(
        ValidateUpdateExpression(context, s.property, s.expression));
  }
  return std::unique_ptr<AlgebraicUpdateMethod>(new AlgebraicUpdateMethod(
      std::move(context), std::move(name), std::move(statements)));
}

Status AlgebraicUpdateMethod::ApplyInPlace(Instance& instance,
                                           const Receiver& receiver,
                                           ExecContext& ctx) const {
  SETREC_RETURN_IF_ERROR(CheckReceiver(instance, receiver));

  // Evaluate every right-hand side against the *pre-update* instance first
  // (all statements of one method application see the same snapshot), then
  // splice the results in. The database borrows the instance's edge sets,
  // so it and its evaluator end before the splice mutates them.
  std::vector<std::shared_ptr<const Relation>> results;
  results.reserve(statements_.size());
  {
    SETREC_ASSIGN_OR_RETURN(
        Database db,
        BindInstance(instance, context_.catalog, ReadRelations()));
    SETREC_RETURN_IF_ERROR(
        InstallReceiverRelations(db, context_, receiver, /*primed=*/false));
    Evaluator evaluator(&db, ctx);
    for (const UpdateStatement& s : statements_) {
      SETREC_ASSIGN_OR_RETURN(std::shared_ptr<const Relation> r,
                              evaluator.EvalShared(s.expression));
      results.push_back(std::move(r));
    }
  }

  const ObjectId receiving = receiver.receiving_object();
  for (std::size_t i = 0; i < statements_.size(); ++i) {
    SETREC_RETURN_IF_ERROR(
        instance.ClearEdgesFrom(receiving, statements_[i].property));
    for (const Tuple& t : *results[i]) {
      // Typing guarantees E(I,t) ⊆ B(I) (see ValidateUpdateExpression), so
      // AddEdge cannot fail on a missing endpoint.
      SETREC_RETURN_IF_ERROR(
          instance.AddEdge(receiving, statements_[i].property, t.at(0)));
    }
  }
  return Status::OK();
}

bool AlgebraicUpdateMethod::IsPositiveMethod() const {
  for (const UpdateStatement& s : statements_) {
    if (!IsPositive(*s.expression)) return false;
  }
  return true;
}

std::vector<std::string> AlgebraicUpdateMethod::ReadRelations() const {
  std::set<std::string> names;
  for (const UpdateStatement& s : statements_) {
    for (std::string& name : ReferencedRelations(*s.expression)) {
      names.insert(std::move(name));
    }
  }
  return {names.begin(), names.end()};
}

std::vector<PropertyId> AlgebraicUpdateMethod::UpdatedProperties() const {
  std::vector<PropertyId> out;
  out.reserve(statements_.size());
  for (const UpdateStatement& s : statements_) out.push_back(s.property);
  return out;
}

std::string AlgebraicUpdateMethod::ToString() const {
  std::ostringstream out;
  out << (name().empty() ? "<anonymous>" : name()) << "[";
  for (std::size_t i = 0; i < signature().size(); ++i) {
    if (i > 0) out << ", ";
    out << context_.schema->class_name(signature().class_at(i));
  }
  out << "] {";
  for (const UpdateStatement& s : statements_) {
    out << " " << context_.schema->property(s.property).name << " := "
        << ExprToString(*s.expression) << ";";
  }
  out << " }";
  return out.str();
}

}  // namespace setrec
