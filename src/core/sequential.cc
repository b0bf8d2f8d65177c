#include "core/sequential.h"

#include <algorithm>
#include <numeric>

namespace setrec {

namespace {

/// Runs one enumeration; nullopt encodes "undefined" (footnote 2). Errors
/// from the governance layer are not "undefined" — they mean the outcome was
/// not computed — and propagate instead.
Result<std::optional<Instance>> RunEnumeration(
    const UpdateMethod& method, const Instance& instance,
    std::span<const Receiver> sequence, ExecContext& ctx) {
  Result<Instance> r = ApplySequence(method, instance, sequence, ctx);
  if (!r.ok()) {
    if (IsGovernanceError(r.status())) return r.status();
    return std::optional<Instance>();
  }
  return std::optional<Instance>(std::move(r).value());
}

bool SameOutcome(const std::optional<Instance>& a,
                 const std::optional<Instance>& b) {
  if (a.has_value() != b.has_value()) return false;
  return !a.has_value() || *a == *b;
}

}  // namespace

Result<Instance> ApplySequence(const UpdateMethod& method,
                               const Instance& instance,
                               std::span<const Receiver> sequence,
                               ExecContext& ctx) {
  Instance current = instance;
  SETREC_RETURN_IF_ERROR(ApplySequenceInPlace(method, current, sequence, ctx));
  return current;
}

Status ApplySequenceInPlace(const UpdateMethod& method, Instance& instance,
                            std::span<const Receiver> sequence,
                            ExecContext& ctx) {
  TraceSpan span = StartSpan(ctx, "sequential/apply");
  MetricsRegistry* metrics = ctx.metrics();
  for (const Receiver& t : sequence) {
    SETREC_RETURN_IF_ERROR(ctx.CheckPoint("sequential/receiver"));
    if (metrics != nullptr) metrics->engine.sequential_receivers.Add(1);
    if (!t.IsValidOver(method.signature(), instance)) {
      return Status::FailedPrecondition(
          "sequence is undefined: receiver not valid over intermediate "
          "instance");
    }
    SETREC_RETURN_IF_ERROR(method.ApplyInPlace(instance, t, ctx));
  }
  return Status::OK();
}

std::vector<Receiver> CanonicalReceiverSet(
    std::span<const Receiver> receivers) {
  std::vector<Receiver> out(receivers.begin(), receivers.end());
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

Result<OrderIndependenceOutcome> OrderIndependentOn(
    const UpdateMethod& method, const Instance& instance,
    std::span<const Receiver> receivers, ExecContext& ctx,
    std::size_t max_set_size) {
  std::vector<Receiver> set = CanonicalReceiverSet(receivers);
  if (set.size() > max_set_size && !ctx.has_step_budget() &&
      !ctx.has_deadline()) {
    return Status::ResourceExhausted(
        "receiver set of size " + std::to_string(set.size()) +
        " exceeds the exhaustive permutation guard (" +
        std::to_string(max_set_size) +
        "); pass an ExecContext with a step budget or deadline to attempt "
        "it anyway");
  }

  TraceSpan span = StartSpan(ctx, "sequential/permutation-test");
  OrderIndependenceOutcome outcome;
  std::vector<std::size_t> perm(set.size());
  std::iota(perm.begin(), perm.end(), 0);

  std::optional<Instance> first;
  std::vector<Receiver> first_order;
  bool have_first = false;
  do {
    SETREC_RETURN_IF_ERROR(ctx.CheckPoint("sequential/permutation"));
    std::vector<Receiver> order;
    order.reserve(set.size());
    for (std::size_t i : perm) order.push_back(set[i]);
    SETREC_ASSIGN_OR_RETURN(std::optional<Instance> result,
                            RunEnumeration(method, instance, order, ctx));
    if (!have_first) {
      first = result;
      first_order = order;
      have_first = true;
    } else if (!SameOutcome(first, result)) {
      outcome.order_independent = false;
      outcome.witness_a = first_order;
      outcome.witness_b = order;
      outcome.result_a = first;
      outcome.result_b = result;
      return outcome;
    }
  } while (std::next_permutation(perm.begin(), perm.end()));

  outcome.order_independent = true;
  if (first.has_value()) outcome.result = std::move(first);
  return outcome;
}

Result<OrderIndependenceOutcome> PairwiseOrderIndependentOn(
    const UpdateMethod& method, const Instance& instance,
    std::span<const Receiver> receivers, ExecContext& ctx) {
  std::vector<Receiver> set = CanonicalReceiverSet(receivers);
  OrderIndependenceOutcome outcome;
  for (std::size_t i = 0; i < set.size(); ++i) {
    for (std::size_t j = i + 1; j < set.size(); ++j) {
      SETREC_RETURN_IF_ERROR(ctx.CheckPoint("sequential/pair"));
      std::vector<Receiver> ab = {set[i], set[j]};
      std::vector<Receiver> ba = {set[j], set[i]};
      SETREC_ASSIGN_OR_RETURN(std::optional<Instance> rab,
                              RunEnumeration(method, instance, ab, ctx));
      SETREC_ASSIGN_OR_RETURN(std::optional<Instance> rba,
                              RunEnumeration(method, instance, ba, ctx));
      if (!SameOutcome(rab, rba)) {
        outcome.order_independent = false;
        outcome.witness_a = std::move(ab);
        outcome.witness_b = std::move(ba);
        outcome.result_a = std::move(rab);
        outcome.result_b = std::move(rba);
        return outcome;
      }
    }
  }
  outcome.order_independent = true;
  return outcome;
}

Result<Instance> SequentialApply(const UpdateMethod& method,
                                 const Instance& instance,
                                 std::span<const Receiver> receivers,
                                 const ExecOptions& options,
                                 bool verify_order_independence) {
  ExecScope scope(options);
  ExecContext& ctx = scope.ctx();
  DeltaSink* sink = options.view_cache;
  std::vector<Receiver> set = CanonicalReceiverSet(receivers);
  if (verify_order_independence) {
    SETREC_ASSIGN_OR_RETURN(OrderIndependenceOutcome outcome,
                            OrderIndependentOn(method, instance, set, ctx));
    if (!outcome.order_independent) {
      return Status::FailedPrecondition(
          "method is not order independent on this receiver set; "
          "M_seq is ill-defined");
    }
  }
  Instance result = instance;
  if (sink != nullptr) result.BeginJournal();
  SETREC_RETURN_IF_ERROR(ApplySequenceInPlace(method, result, set, ctx));
  if (sink != nullptr) {
    // The apply itself succeeded; the cache is advisory and fails closed on
    // its own when it cannot absorb a delta, so publication errors do not
    // fail the call.
    (void)sink->ApplyDelta(result.JournalDelta());
    result.EndJournal();
  }
  return result;
}

}  // namespace setrec
