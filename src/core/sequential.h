#ifndef SETREC_CORE_SEQUENTIAL_H_
#define SETREC_CORE_SEQUENTIAL_H_

#include <optional>
#include <span>
#include <vector>

#include "core/exec_context.h"
#include "core/exec_options.h"
#include "core/instance.h"
#include "core/receiver.h"
#include "core/status.h"
#include "core/update_method.h"

namespace setrec {

/// Applies M to a *sequence* of distinct receivers: M(I, t1 ... tn) =
/// M(M(I, t1), t2, ..., tn) (Section 3). The value is undefined (an error
/// status is returned) as soon as some ti is not a receiver over the evolving
/// instance or M itself fails. `ctx` governs the per-receiver loop and
/// every application in it.
Result<Instance> ApplySequence(const UpdateMethod& method,
                               const Instance& instance,
                               std::span<const Receiver> sequence,
                               ExecContext& ctx);

/// In-place form of ApplySequence: each receiver's update is applied
/// directly to `instance` (UpdateMethod::ApplyInPlace), so the sequence
/// copies nothing. On failure `instance` holds the state reached so far;
/// callers that need all-or-nothing run it under RunJournaled.
Status ApplySequenceInPlace(const UpdateMethod& method, Instance& instance,
                            std::span<const Receiver> sequence,
                            ExecContext& ctx);

/// Outcome of testing Definition 3.1 on a concrete pair (I, T).
struct OrderIndependenceOutcome {
  /// True when every enumeration of T yields the same result — where, per
  /// footnote 2 of the paper, "same" includes the case that all enumerations
  /// are undefined.
  bool order_independent = false;
  /// Set iff order_independent and the common value is defined: this is the
  /// sequential application M_seq(I, T).
  std::optional<Instance> result;

  /// When !order_independent: two enumerations witnessing the disagreement,
  /// with their outcomes (std::nullopt encodes "undefined").
  std::vector<Receiver> witness_a;
  std::vector<Receiver> witness_b;
  std::optional<Instance> result_a;
  std::optional<Instance> result_b;
};

/// Tests whether `method` is order independent on (instance, receivers) by
/// exhaustively enumerating all |T|! orders (Definition 3.1). Receivers are
/// de-duplicated first (T is a set).
///
/// The |T|! enumeration is governed by `ctx`: every enumerated order is a
/// checkpoint, so a step budget or deadline turns a runaway test into a
/// clean kResourceExhausted / kDeadlineExceeded. `max_set_size` is the
/// fallback guard for permissive contexts — when |T| exceeds it and `ctx`
/// carries neither a step budget nor a deadline, the test refuses up front
/// with kResourceExhausted (the uniform "needs a bigger budget" signal)
/// instead of hanging; with a limited context, sets of any size are
/// attempted and the context decides how far they get.
Result<OrderIndependenceOutcome> OrderIndependentOn(
    const UpdateMethod& method, const Instance& instance,
    std::span<const Receiver> receivers, ExecContext& ctx,
    std::size_t max_set_size = 7);

/// The Lemma 3.3 test: checks M(M(I,t),t') = M(M(I,t'),t) for every
/// unordered pair {t, t'} from `receivers`. For testing *global* order
/// independence this is equivalent to the full-permutation test (the lemma),
/// but on a *fixed* (I, T) it is only necessary, not sufficient, so the
/// full test above remains the ground truth for a single pair (I, T).
Result<OrderIndependenceOutcome> PairwiseOrderIndependentOn(
    const UpdateMethod& method, const Instance& instance,
    std::span<const Receiver> receivers, ExecContext& ctx);

/// Sequential application M_seq(I, T) (Definition 3.1): picks an arbitrary
/// (here: sorted) enumeration of T. When `verify_order_independence` is set,
/// first runs the exhaustive test and fails with FailedPrecondition if M is
/// not order independent on (I, T). Every application runs under the
/// context `options` resolves to; its view cache, when set, receives the
/// result's delta.
Result<Instance> SequentialApply(const UpdateMethod& method,
                                 const Instance& instance,
                                 std::span<const Receiver> receivers,
                                 const ExecOptions& options = {},
                                 bool verify_order_independence = false);

/// Deduplicates and sorts a receiver list into a canonical set enumeration.
std::vector<Receiver> CanonicalReceiverSet(std::span<const Receiver> receivers);

}  // namespace setrec

#endif  // SETREC_CORE_SEQUENTIAL_H_
