#ifndef SETREC_CORE_UPDATE_METHOD_H_
#define SETREC_CORE_UPDATE_METHOD_H_

#include <functional>
#include <memory>
#include <string>
#include <utility>

#include "core/exec_context.h"
#include "core/exec_options.h"
#include "core/instance.h"
#include "core/receiver.h"
#include "core/status.h"

namespace setrec {

/// An update method of some signature σ (Definition 2.6): a computable
/// function that maps an instance I and a receiver t over I of type σ to a
/// new instance M(I, t) of the same schema.
///
/// An application may return a non-OK status to model partiality:
/// `Diverges` plays the role of non-termination in the witness
/// constructions of Proposition 4.13, and other errors signal contract
/// violations (e.g. a receiver that is not valid over the given instance).
///
/// Every application runs under the caller's ExecContext, so the budget,
/// deadline, cancellation flag, fault injector and observability sinks that
/// govern a set-level operation (M_seq, a cursor update, a certified
/// transaction) also govern each M(I, t) it is built from.
class UpdateMethod {
 public:
  explicit UpdateMethod(MethodSignature signature, std::string name = "")
      : signature_(std::move(signature)), name_(std::move(name)) {}
  virtual ~UpdateMethod() = default;

  UpdateMethod(const UpdateMethod&) = delete;
  UpdateMethod& operator=(const UpdateMethod&) = delete;

  const MethodSignature& signature() const { return signature_; }
  /// Optional human-readable name, used by printers and error messages.
  const std::string& name() const { return name_; }

  /// Computes M(instance, receiver) on a copy of `instance`, under the
  /// context `options` resolves to (ExecScope).
  Result<Instance> Apply(const Instance& instance, const Receiver& receiver,
                         const ExecOptions& options = {}) const;

  /// Replaces `instance` by M(instance, receiver), governed by `ctx`.
  /// Implementations may assume the receiver has the signature's arity but
  /// must tolerate (and report) receivers that are not valid over
  /// `instance`. On failure the instance may hold part of the update;
  /// callers that need all-or-nothing run it under a journal (RunJournaled)
  /// and roll back.
  virtual Status ApplyInPlace(Instance& instance, const Receiver& receiver,
                              ExecContext& ctx) const = 0;

 protected:
  /// Standard guard shared by implementations: fails unless `receiver` is a
  /// receiver over `instance` of this method's type.
  Status CheckReceiver(const Instance& instance,
                       const Receiver& receiver) const;

 private:
  MethodSignature signature_;
  std::string name_;
};

/// Wraps an arbitrary callable as an update method. This realizes the
/// paper's most general notion of update method ("some computable function",
/// Definition 2.6) and is the form used by the coloring witnesses, the
/// counterexample families, and ad-hoc tests. A body does no governed work,
/// so it takes no context.
class FunctionalUpdateMethod final : public UpdateMethod {
 public:
  using Body =
      std::function<Result<Instance>(const Instance&, const Receiver&)>;

  FunctionalUpdateMethod(MethodSignature signature, std::string name,
                         Body body)
      : UpdateMethod(std::move(signature), std::move(name)),
        body_(std::move(body)) {}

  Status ApplyInPlace(Instance& instance, const Receiver& receiver,
                      ExecContext& ctx) const override;

 private:
  Body body_;
};

/// Convenience factory for FunctionalUpdateMethod.
std::unique_ptr<UpdateMethod> MakeMethod(MethodSignature signature,
                                         std::string name,
                                         FunctionalUpdateMethod::Body body);

}  // namespace setrec

#endif  // SETREC_CORE_UPDATE_METHOD_H_
