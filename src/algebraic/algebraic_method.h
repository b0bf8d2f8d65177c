#ifndef SETREC_ALGEBRAIC_ALGEBRAIC_METHOD_H_
#define SETREC_ALGEBRAIC_ALGEBRAIC_METHOD_H_

#include <memory>
#include <string>
#include <vector>

#include "algebraic/update_expression.h"
#include "core/update_method.h"

namespace setrec {

/// One algebraic update statement `a := E` (Definition 5.4(3)).
struct UpdateStatement {
  PropertyId property;
  ExprPtr expression;
};

/// An algebraic update method (Definition 5.4(4)): a set of update
/// statements over distinct properties of the receiving class. Applying it
/// to (I, t) replaces, for each statement a := E, all a-edges leaving the
/// receiving object by edges to the elements of E(I, t) (Definition
/// 5.4(5)). Such methods never create or remove objects — only properties of
/// the receiving object change.
class AlgebraicUpdateMethod final : public UpdateMethod {
 public:
  /// Validates all statements (properties of the receiving class, unary
  /// expressions of the right domain, at most one statement per property).
  static Result<std::unique_ptr<AlgebraicUpdateMethod>> Make(
      const Schema* schema, MethodSignature signature, std::string name,
      std::vector<UpdateStatement> statements);

  /// Evaluates every statement's right-hand side against the pre-update
  /// instance under `ctx`, over the relations the statements read bound to
  /// the instance (BindInstance), and only then splices the result edges
  /// in. A join keyed on a property relation's source column reads only
  /// the rows its probe keys select, so M(I, t) costs the receiver's
  /// neighbourhood. A failure leaves `instance` untouched.
  Status ApplyInPlace(Instance& instance, const Receiver& receiver,
                      ExecContext& ctx) const override;

  const std::vector<UpdateStatement>& statements() const {
    return statements_;
  }
  const MethodContext& context() const { return context_; }

  /// The encoded relations the statements read: the union of their
  /// ReferencedRelations, sorted.
  std::vector<std::string> ReadRelations() const;

  /// True when all update expressions are positive (Definition 5.10).
  bool IsPositiveMethod() const;

  /// The set of property ids this method updates (the paper's set A).
  std::vector<PropertyId> UpdatedProperties() const;

  /// Renders as "name[σ] { a := E; ... }".
  std::string ToString() const;

 private:
  AlgebraicUpdateMethod(MethodContext context, std::string name,
                        std::vector<UpdateStatement> statements);

  MethodContext context_;
  std::vector<UpdateStatement> statements_;
};

}  // namespace setrec

#endif  // SETREC_ALGEBRAIC_ALGEBRAIC_METHOD_H_
