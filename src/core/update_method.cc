#include "core/update_method.h"

namespace setrec {

Status UpdateMethod::CheckReceiver(const Instance& instance,
                                   const Receiver& receiver) const {
  if (!receiver.IsValidOver(signature_, instance)) {
    return Status::FailedPrecondition(
        "receiver is not valid over the instance for method " +
        (name_.empty() ? std::string("<anonymous>") : name_));
  }
  return Status::OK();
}

Result<Instance> UpdateMethod::Apply(const Instance& instance,
                                     const Receiver& receiver,
                                     const ExecOptions& options) const {
  Instance out = instance;
  ExecScope scope(options);
  SETREC_RETURN_IF_ERROR(ApplyInPlace(out, receiver, scope.ctx()));
  return out;
}

Status FunctionalUpdateMethod::ApplyInPlace(Instance& instance,
                                            const Receiver& receiver,
                                            ExecContext&) const {
  SETREC_RETURN_IF_ERROR(CheckReceiver(instance, receiver));
  SETREC_ASSIGN_OR_RETURN(Instance out, body_(instance, receiver));
  instance = std::move(out);
  return Status::OK();
}

std::unique_ptr<UpdateMethod> MakeMethod(MethodSignature signature,
                                         std::string name,
                                         FunctionalUpdateMethod::Body body) {
  return std::make_unique<FunctionalUpdateMethod>(
      std::move(signature), std::move(name), std::move(body));
}

}  // namespace setrec
