// The random method corpus of the decision-procedure suites: positive
// single-statement methods over the drinkers schema, shared by
// decision_crossvalidation_test (verdicts against sampled semantics) and
// containment_test (the compiled containment test against a reference).

#ifndef SETREC_TESTS_DECISION_CORPUS_H_
#define SETREC_TESTS_DECISION_CORPUS_H_

#include <cstdint>

#include "core/instance_generator.h"
#include "relational/builder.h"

namespace setrec {

/// Generates a random positive unary expression of domain Ba (output
/// attribute "f") over the drinkers method context [D, Ba], from a small
/// grammar of leaves and combinators that covers reads of own rows, other
/// rows, class relations and guards.
class ExpressionGenerator {
 public:
  explicit ExpressionGenerator(std::uint64_t seed) : rng_(seed) {}

  ExprPtr Generate(int depth) {
    if (depth <= 0 || rng_.UniformInt(3) == 0) return Leaf();
    switch (rng_.UniformInt(3)) {
      case 0:
        return ra::Union(Generate(depth - 1), Generate(depth - 1));
      case 1:
        // Conditioning on a guard over some relation.
        return ra::Product(Generate(depth - 1), ra::Guard(GuardSource()));
      default:
        // "except the argument bar": π_f(σ_{f≠arg1}(e × arg1)).
        return ra::Project(
            ra::SelectNeq(ra::Product(Generate(depth - 1), ra::Rel("arg1")),
                          "f", "arg1"),
            {"f"});
    }
  }

 private:
  ExprPtr Leaf() {
    switch (rng_.UniformInt(4)) {
      case 0:
        return ra::Rename(ra::Rel("arg1"), "arg1", "f");
      case 1:
        return ra::Rename(ra::Rel("Ba"), "Ba", "f");  // every bar
      case 2:
        // The receiving drinker's own bars.
        return ra::Project(
            ra::JoinEq(ra::Rel("self"), ra::Rel("Df"), "self", "D"), {"f"});
      default:
        return ra::Project(ra::Rel("Df"), {"f"});  // anyone's bars
    }
  }

  ExprPtr GuardSource() {
    switch (rng_.UniformInt(4)) {
      case 0:
        return ra::Rel("Dl");
      case 1:
        return ra::Rel("Bas");
      case 2:
        return ra::Rel("Df");
      default:
        return ra::Rel("Be");
    }
  }

  SplitMix64 rng_;
};

/// The corpus seeds are 1 .. kCorpusEnd - 1.
inline constexpr std::uint64_t kCorpusEnd = 25;

/// The right-hand side of corpus method `seed`, which updates f of the
/// drinkers method context [D, Ba].
inline ExprPtr CorpusExpression(std::uint64_t seed) {
  return ExpressionGenerator(seed * 7919).Generate(2);
}

}  // namespace setrec

#endif  // SETREC_TESTS_DECISION_CORPUS_H_
