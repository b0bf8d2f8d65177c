// Example 6.4: sequential application of an algebraic update method can
// compute transitive closure, while parallel application — confined to the
// power of the relational algebra — merely copies each e-edge to a tc-edge.
//
// Builds a directed cycle-with-chords graph, runs the tc_step method under
// both strategies, and reports the number of derived tc-edges per round.

#include <cstdio>
#include <cstdlib>

#include "algebraic/method_library.h"
#include "algebraic/parallel.h"
#include "core/instance_generator.h"
#include "core/sequential.h"

namespace {

using namespace setrec;  // NOLINT: example brevity

template <typename T>
T Unwrap(Result<T> result, const char* what) {
  if (!result.ok()) {
    std::fprintf(stderr, "%s failed: %s\n", what,
                 result.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(result).value();
}

}  // namespace

int main() {
  TcSchema tc = Unwrap(MakeTcSchema(), "schema");
  auto method = Unwrap(MakeTransitiveClosureMethod(tc), "method");
  std::printf("method: %s\n\n", method->ToString().c_str());

  constexpr std::uint32_t kN = 8;
  Instance graph(&tc.schema);
  for (std::uint32_t i = 0; i < kN; ++i) {
    (void)graph.AddObject(ObjectId(tc.c, i));
  }
  // A path 0→1→...→7 plus a chord 2→6.
  for (std::uint32_t i = 0; i + 1 < kN; ++i) {
    (void)graph.AddEdge(ObjectId(tc.c, i), tc.e, ObjectId(tc.c, i + 1));
  }
  (void)graph.AddEdge(ObjectId(tc.c, 2), tc.e, ObjectId(tc.c, 6));
  std::printf("input: %u vertices, %zu e-edges (path plus one chord)\n", kN,
              graph.edges(tc.e).size());

  std::vector<Receiver> all =
      InstanceGenerator::AllReceivers(graph, MethodSignature({tc.c, tc.c}));

  // Parallel: one shot, algebra-bounded.
  Instance parallel = Unwrap(ParallelApply(*method, graph, all), "parallel");
  std::printf("parallel application:   %zu tc-edges (e duplicated, no "
              "closure)\n",
              parallel.edges(tc.tc).size());

  // Sequential: iterate passes to the fixpoint.
  Instance current = graph;
  ExecContext ctx;
  for (int round = 1; round <= static_cast<int>(kN); ++round) {
    Instance next = Unwrap(ApplySequence(*method, current, all, ctx), "pass");
    std::printf("sequential pass %d:      %zu tc-edges\n", round,
                next.edges(tc.tc).size());
    if (next == current) break;
    current = std::move(next);
  }

  // Ground truth: reachability closure of the input graph.
  std::size_t expected = 0;
  for (std::uint32_t s = 0; s < kN; ++s) {
    std::vector<bool> seen(kN, false);
    std::vector<std::uint32_t> stack = {s};
    while (!stack.empty()) {
      std::uint32_t v = stack.back();
      stack.pop_back();
      for (ObjectId w : current.Targets(ObjectId(tc.c, v), tc.e)) {
        if (!seen[w.index()]) {
          seen[w.index()] = true;
          stack.push_back(w.index());
        }
      }
    }
    for (std::uint32_t v = 0; v < kN; ++v) {
      if (seen[v]) ++expected;
    }
  }
  std::printf("reachability ground truth: %zu pairs; sequential fixpoint "
              "matches: %s\n",
              expected,
              current.edges(tc.tc).size() == expected ? "yes" : "no");
  std::printf(
      "\nConclusion (Section 6): sequential application exceeds the\n"
      "relational algebra, so no parallel method M' can simulate every\n"
      "order-independent sequential method.\n");
  return 0;
}
