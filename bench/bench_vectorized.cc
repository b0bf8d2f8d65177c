// Backend comparison on join shapes, |R| = 2^6..2^14: the tuple-at-a-time
// interpreter versus the vectorized backend, each through one-shot Evaluate
// (lowering plus evaluation; the vectorized side also transposes its
// inputs into columns and its result back into rows).
//
// Three families with different cost centers:
//  - SelJoin:     σ_{a=c}(σ_{b=b2}(R×S)) — both conditions fuse into join
//                 keys, the output is a handful of rows, so hashing and
//                 probing |R| tuples is the whole cost (eval-heavy).
//  - ProjectJoin: π_a of a 2x-fan-out join — the columnar dedup does the
//                 work, the output is |R| single-column rows (eval-heavy).
//  - WideJoin:    the same join materializing all 2|R| four-column rows —
//                 output tuple construction dominates either backend, the
//                 honest bound on what batching can buy.
// The schema gate (tools/check_bench_schema.py) pins the acceptance
// property: vectorized beats the interpreter at the two largest sizes of
// both eval-heavy families.

#include <benchmark/benchmark.h>

#include <cstdint>
#include <memory>
#include <utility>

#include "bench_obs.h"
#include "core/exec_backend.h"
#include "relational/builder.h"
#include "relational/evaluator.h"
#include "relational/relation.h"

namespace setrec {
namespace {

constexpr ClassId kP = 0;

ObjectId P(std::uint64_t i) {
  return ObjectId(kP, static_cast<std::uint32_t>(i));
}

/// R(a, b) and S(b2, c), |R| = |S| = n. Joining on b = b2 gives every key
/// two matches per side (2n output pairs); the extra a = c key then keeps
/// only the ~2 rows where 2k or 2k+1 equals n-2k or n-2k-1.
Database JoinWorkload(std::int64_t rows) {
  Database db;
  const auto n = static_cast<std::uint64_t>(rows);
  RelationScheme r_scheme =
      std::move(RelationScheme::Make({{"a", kP}, {"b", kP}})).value();
  RelationScheme s_scheme =
      std::move(RelationScheme::Make({{"b2", kP}, {"c", kP}})).value();
  Relation r(r_scheme);
  Relation s(s_scheme);
  r.Reserve(n);
  s.Reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    r.InsertValidated(Tuple{P(i), P(i / 2)});
    s.InsertValidated(Tuple{P(i / 2), P(n - i)});
  }
  db.Put("R", std::move(r));
  db.Put("S", std::move(s));
  return db;
}

ExprPtr SelJoinQuery() {
  return ra::SelectEq(
      ra::SelectEq(ra::Product(ra::Rel("R"), ra::Rel("S")), "b", "b2"), "a",
      "c");
}

ExprPtr WideJoinQuery() {
  return ra::SelectNeq(
      ra::SelectEq(ra::Product(ra::Rel("R"), ra::Rel("S")), "b", "b2"), "a",
      "c");
}

ExprPtr ProjectJoinQuery() { return ra::Project(WideJoinQuery(), {"a"}); }

void RunBackend(benchmark::State& state, const ExprPtr& expr,
                ExecBackend backend) {
  Database db = JoinWorkload(state.range(0));
  ExecOptions options = benchobs::ObsOptions();
  options.backend = backend;
  std::uint64_t rows = 0;
  for (auto _ : state) {
    Result<Relation> out = Evaluate(expr, db, options);
    if (!out.ok()) {
      state.SkipWithError(out.status().message().c_str());
      return;
    }
    rows = out.value().size();
    benchmark::DoNotOptimize(out);
  }
  state.counters["rows"] = static_cast<double>(rows);
  state.SetItemsProcessed(state.iterations() * state.range(0));
}

void BM_SelJoinInterpreter(benchmark::State& state) {
  RunBackend(state, SelJoinQuery(), ExecBackend::kInterpreter);
}
BENCHMARK(BM_SelJoinInterpreter)
    ->RangeMultiplier(2)
    ->Range(64, 16384)
    ->Unit(benchmark::kMicrosecond);

void BM_SelJoinVectorized(benchmark::State& state) {
  RunBackend(state, SelJoinQuery(), ExecBackend::kVectorized);
}
BENCHMARK(BM_SelJoinVectorized)
    ->RangeMultiplier(2)
    ->Range(64, 16384)
    ->Unit(benchmark::kMicrosecond);

void BM_ProjectJoinInterpreter(benchmark::State& state) {
  RunBackend(state, ProjectJoinQuery(), ExecBackend::kInterpreter);
}
BENCHMARK(BM_ProjectJoinInterpreter)
    ->RangeMultiplier(2)
    ->Range(64, 16384)
    ->Unit(benchmark::kMicrosecond);

void BM_ProjectJoinVectorized(benchmark::State& state) {
  RunBackend(state, ProjectJoinQuery(), ExecBackend::kVectorized);
}
BENCHMARK(BM_ProjectJoinVectorized)
    ->RangeMultiplier(2)
    ->Range(64, 16384)
    ->Unit(benchmark::kMicrosecond);

void BM_WideJoinInterpreter(benchmark::State& state) {
  RunBackend(state, WideJoinQuery(), ExecBackend::kInterpreter);
}
BENCHMARK(BM_WideJoinInterpreter)
    ->RangeMultiplier(2)
    ->Range(64, 16384)
    ->Unit(benchmark::kMicrosecond);

void BM_WideJoinVectorized(benchmark::State& state) {
  RunBackend(state, WideJoinQuery(), ExecBackend::kVectorized);
}
BENCHMARK(BM_WideJoinVectorized)
    ->RangeMultiplier(2)
    ->Range(64, 16384)
    ->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace setrec
