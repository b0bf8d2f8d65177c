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

Status UpdateMethod::ApplyInPlace(Instance& instance,
                                  const Receiver& receiver) const {
  SETREC_ASSIGN_OR_RETURN(Instance out, Apply(instance, receiver));
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
