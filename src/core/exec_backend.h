#ifndef SETREC_CORE_EXEC_BACKEND_H_
#define SETREC_CORE_EXEC_BACKEND_H_

#include <cstdint>

namespace setrec {

/// Which execution backend evaluates relational algebra expressions. The
/// two backends are observationally identical on everything *logical* —
/// results, error statuses, EvalNodeStats (rows/build/probe/hits) and the
/// LogicalCounterNames() engine counters — so the choice is purely a
/// performance knob; the differential test suite pins the equivalence.
enum class ExecBackend : std::uint8_t {
  /// Cost-based selection, latched once per Evaluator so a DAG of
  /// expressions sharing subtrees is served by one memo: the vectorized
  /// engine when the referenced relations are large enough to amortize
  /// batching, the interpreter otherwise.
  kAuto,
  /// The tuple-at-a-time tree-walking interpreter — the differential
  /// oracle all other backends are tested against.
  kInterpreter,
  /// Columnar batch execution: the same lowered plan, walked with each
  /// operator run over structure-of-arrays tuple batches
  /// (relational/vectorized/).
  kVectorized,
};

/// Stable lowercase name, e.g. for logs and plan renderings.
inline constexpr const char* ExecBackendName(ExecBackend backend) {
  switch (backend) {
    case ExecBackend::kAuto:
      return "auto";
    case ExecBackend::kInterpreter:
      return "interpreter";
    case ExecBackend::kVectorized:
      return "vectorized";
  }
  return "auto";
}

}  // namespace setrec

#endif  // SETREC_CORE_EXEC_BACKEND_H_
