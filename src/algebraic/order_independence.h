#ifndef SETREC_ALGEBRAIC_ORDER_INDEPENDENCE_H_
#define SETREC_ALGEBRAIC_ORDER_INDEPENDENCE_H_

#include <cstdint>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "algebraic/algebraic_method.h"
#include "core/exec_context.h"
#include "core/exec_options.h"
#include "core/instance_generator.h"
#include "core/sequential.h"

namespace setrec {

/// Which notion of Section 3 is being decided. Query-order independence is
/// not decidable by the Lemma 3.3 pair reduction (Proposition 5.14), so it
/// has no entry here; see tests/query_order_test for its counterexamples.
enum class OrderIndependenceKind { kAbsolute, kKeyOrder };

/// The pair of expressions the Theorem 5.6 reduction produces for one
/// updated property a: E_a[tt'] and E_a[t't] describe the contents of the
/// relation Ca after applying the method to two symbolic receivers in the
/// two orders, multiplied by the validity guard (receivers present,
/// singleton, and distinct — with argument distinctness omitted for the
/// key-order variant, where only the receiving objects must differ).
struct ReductionExpressions {
  PropertyId property;
  ExprPtr e_tt;  // E_a[t t'] · guard
  ExprPtr e_ts;  // E_a[t' t] · guard
};

/// Builds the Theorem 5.6 reduction for every statement of `method`. Works
/// for arbitrary (also non-positive) algebraic methods — the reduction
/// itself is syntactic; only the *decision* step needs positivity.
Result<std::vector<ReductionExpressions>> BuildOrderIndependenceReduction(
    const AlgebraicUpdateMethod& method, OrderIndependenceKind kind);

/// Decides (key-)order independence of a *positive* algebraic method
/// (Theorem 5.12): builds the reduction, translates both sides of every
/// property's pair into positive queries, and tests equivalence under the
/// functional, inclusion and disjointness dependencies of the method
/// context (Lemma 5.13). Fails with InvalidArgument on non-positive methods
/// — the problem is undecidable there (Corollary 5.7); use
/// SearchOrderDependenceWitness for refutation instead.
///
/// The underlying containment tests run under the context `options`
/// resolves to; with a step budget or deadline the call returns
/// kResourceExhausted / kDeadlineExceeded. Use
/// DecideOrderIndependenceBounded for the three-valued wrapper that turns
/// those into a sound kUnknown verdict.
Result<bool> DecideOrderIndependence(const AlgebraicUpdateMethod& method,
                                     OrderIndependenceKind kind,
                                     const ExecOptions& options = {});

/// Three-valued verdict for the bounded decision procedure. kUnknown means
/// "not decided within the budget" — it is sound to treat such a method as
/// potentially order dependent, never as independent.
enum class OrderIndependenceVerdict { kIndependent, kDependent, kUnknown };

/// Runs DecideOrderIndependence under `options` and degrades retryable
/// governance failures (step budget, deadline, row/memory caps) to
/// kUnknown instead of an error. Cancellation and genuine errors still
/// propagate: a cancelled run decided nothing and should not be reported as
/// a verdict.
Result<OrderIndependenceVerdict> DecideOrderIndependenceBounded(
    const AlgebraicUpdateMethod& method, OrderIndependenceKind kind,
    const ExecOptions& options = {});

/// A detailed account of one decision run: per updated property, the union
/// widths of the two reduction sides before and after disjunct-subsumption
/// pruning, and the equivalence verdict. The widths are the decision
/// procedure's dominant cost driver (bench_decision charts them).
struct DecisionReport {
  bool order_independent = false;
  struct PropertyDetail {
    PropertyId property = 0;
    std::size_t raw_disjuncts_tt = 0;
    std::size_t raw_disjuncts_ts = 0;
    std::size_t pruned_disjuncts_tt = 0;
    std::size_t pruned_disjuncts_ts = 0;
    bool equivalent = false;
  };
  std::vector<PropertyDetail> properties;
};

/// Like DecideOrderIndependence but evaluates every property (no early
/// exit) and reports the reduction statistics.
Result<DecisionReport> DecideOrderIndependenceDetailed(
    const AlgebraicUpdateMethod& method, OrderIndependenceKind kind,
    const ExecOptions& options = {});

/// Provenance of one containment test the decision procedure attempted: the
/// direction, the verdict, the budget it spent (context steps plus the
/// logical engine counters the chase/homomorphism machinery charged), and —
/// when containment fails — the refuting canonical database and witness
/// tuple, rendered deterministically.
struct ContainmentCertificate {
  PropertyId property = 0;
  std::string property_name;
  std::string direction;  // "tt⊆ts" or "ts⊆tt"
  bool contained = false;
  /// ExecContext steps charged by this test alone (delta).
  std::uint64_t steps = 0;
  /// Logical counter deltas for this test alone.
  std::uint64_t containment_tests = 0;
  std::uint64_t chase_rounds = 0;
  std::uint64_t hom_candidates = 0;
  /// Rendered refutation (empty when contained): the canonical database on
  /// which the left query produces the witness tuple but the right query
  /// does not.
  std::string counterexample;
};

/// A decision run with its full audit trail: the Detailed report's disjunct
/// statistics plus one ContainmentCertificate per containment direction
/// attempted. Every test is recorded — including the ones after a failure —
/// so a "not order independent" verdict always names the refuted direction
/// and its counterexample.
struct DecisionCertificate {
  bool order_independent = false;
  OrderIndependenceKind kind = OrderIndependenceKind::kAbsolute;
  std::string method_name;
  DecisionReport report;
  std::vector<ContainmentCertificate> tests;
};

/// Like DecideOrderIndependenceDetailed, but runs the two containment
/// directions of every property separately and records a certificate for
/// each. When the effective context has no metrics registry, a private one
/// captures the per-test counter deltas, so certificates are always
/// populated.
Result<DecisionCertificate> DecideOrderIndependenceCertified(
    const AlgebraicUpdateMethod& method, OrderIndependenceKind kind,
    const ExecOptions& options = {});

/// Machine-readable JSONL: one header object (verdict, method, kind), then
/// one object per containment test. Strings are escaped per
/// obs/json_escape.h; the output is deterministic for a deterministic run
/// except for nothing — no timestamps are recorded.
void WriteCertificateJsonl(const DecisionCertificate& certificate,
                           std::ostream& out);

/// Human-readable rendering of the same record.
std::string CertificateToText(const DecisionCertificate& certificate);

/// Proposition 5.8's sufficient syntactic condition for key-order
/// independence: no update expression of the method accesses any relation Ca
/// corresponding to a property the method updates. (Sufficient only: add_bar
/// violates it yet is order independent, Example 5.9.)
bool SatisfiesUpdateIsolationCondition(const AlgebraicUpdateMethod& method);

/// A concrete refutation of order independence: an instance and two
/// receivers whose two application orders disagree.
struct OrderDependenceWitness {
  Instance instance;
  Receiver first;
  Receiver second;
};

/// Randomized refuter for the general, undecidable case (Corollary 5.7):
/// samples `trials` random instances and tests all receiver pairs (by Lemma
/// 3.3, pairs suffice for the global property). Returns a witness if order
/// dependence is detected; nullopt is *not* a proof of independence. With
/// `key_pairs_only`, only pairs with distinct receiving objects are tried
/// (refuting key-order independence).
Result<std::optional<OrderDependenceWitness>> SearchOrderDependenceWitness(
    const UpdateMethod& method, const Schema& schema, std::uint64_t seed,
    int trials, const InstanceGenerator::Options& options,
    bool key_pairs_only, ExecContext& ctx);

/// A refutation of Q-order independence: an instance whose full receiver
/// set Q(I) admits two disagreeing enumerations (witnessed inside
/// `outcome`). Lemma 3.3 fails for query-order independence (Proposition
/// 5.14), so the search enumerates whole receiver sets, not pairs.
struct QueryOrderDependenceWitness {
  Instance instance;
  OrderIndependenceOutcome outcome;
};

/// Randomized refuter for Q-order independence (the decidability of which
/// is the paper's open problem): samples instances, computes T = Q(I) with
/// `query` (result scheme must match the method signature), and runs the
/// exhaustive permutation test on T whenever |T| ≤ max_set_size (larger
/// sets are skipped). nullopt refutes nothing.
Result<std::optional<QueryOrderDependenceWitness>>
SearchQueryOrderDependenceWitness(const UpdateMethod& method,
                                  const ExprPtr& query, const Schema& schema,
                                  std::uint64_t seed, int trials,
                                  const InstanceGenerator::Options& options,
                                  std::size_t max_set_size,
                                  ExecContext& ctx);

}  // namespace setrec

#endif  // SETREC_ALGEBRAIC_ORDER_INDEPENDENCE_H_
