#ifndef SETREC_RELATIONAL_VECTORIZED_ENGINE_H_
#define SETREC_RELATIONAL_VECTORIZED_ENGINE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/exec_context.h"
#include "relational/evaluator.h"
#include "relational/expression.h"
#include "relational/plan.h"
#include "relational/relation.h"
#include "relational/vectorized/batch.h"

namespace setrec::vectorized {

/// Sum of the sizes of the distinct base relations the plan below `root`
/// loads: every scan counts, except one reached only as the right operand
/// of index builds, whose rows the join fetches by key. Sizes come from
/// `database` without materializing a bound relation. The kAuto backend
/// policy compares this against a threshold: transposing inputs into
/// columns is a per-evaluation cost that only pays off once the batched
/// kernels have enough rows to chew through.
std::size_t EstimatedInputRows(const PhysicalNode& root,
                               const Database& database);

/// One flat-bytecode instruction. A node's block is
///   kMemoCheck (hit: load result, count a cache hit, jump past the block)
///   ...child blocks...
///   one materializing instruction (finishes the node: stores the memo
///   entry, records EvalNodeStats, leaves the result in `dst`)
/// so the program replays exactly the interpreter's memoized DFS, including
/// its cache-hit counts, while the per-operator work runs columnwise.
struct Insn {
  enum class Op : std::uint8_t {
    kMemoCheck,   // if memo[node]: dst = it, ++hits, jump `target`
    kMemoLoad,    // dst = memo[node] (must exist), ++hits
    kJump,        // pc = target
    kJumpIfEmpty, // if regs[a] has no rows: pc = target (π_∅ guards)
    kLoad,        // dst = columnar form of the scanned base relation
    kUnion,       // dst = regs[a] ∪ regs[b]
    kDifference,  // dst = regs[a] − regs[b]
    kProduct,     // dst = regs[a] × regs[b] (row-budget charged)
    kSelect,      // dst = σ_{ia θ ib}(regs[a])
    kProject,     // dst = π_{cols}(regs[a]), deduplicated
    kRename,      // dst = regs[a] under the node's scheme
    kHashJoin,    // dst = fused σ-chain over regs[a] × regs[b]
    kMakeEmpty,   // dst = empty table over the node's scheme (guard)
  };

  Op op;
  /// The plan node this instruction belongs to (null for jumps). Its
  /// expression is the memo and statistics key; it carries the operator
  /// payload: output scheme, columns, join conditions.
  const PhysicalNode* node = nullptr;
  std::uint32_t dst = 0, a = 0, b = 0;
  std::uint32_t target = 0;  // jump destination (instruction index)
};

/// A compiled expression: flat code plus the register budget. The engine's
/// plan keeps the root expression, and so every node the code points into,
/// alive.
struct Program {
  const Expr* root = nullptr;
  std::vector<Insn> code;
  std::uint32_t num_regs = 0;
};

/// The compiled vectorized backend. An Engine is bound to one Database
/// snapshot and one ExecContext, exactly like the Evaluator that owns it,
/// and replays the interpreter's observable contract: identical results,
/// identical error statuses (type errors come from the same lowering, before
/// any charging), identical logical metrics (evaluator.rows / join_probes /
/// join_build_rows), identical memo cache-hit counts and EvalNodeStats shape.
///
/// Three caches with different lifetimes:
///  - programs_: per root node, survives ClearResultMemo (compile once),
///  - loads_:    transposed base relations by name, survives too,
///  - memo_:     per-node results — the analogue of the interpreter's memo;
///               ClearResultMemo drops it, forcing pure bytecode re-execution
///               (the "bytecode" mode of the differential tests and bench).
class Engine {
 public:
  Engine(const Database* database, ExecContext* ctx)
      : database_(database), ctx_(ctx), plan_(*database) {}

  /// Lowers and compiles `root` (cached) and runs it. `stats` may be null;
  /// when given it receives the same per-node statistics the interpreter
  /// records.
  Result<std::shared_ptr<const Relation>> Execute(
      const ExprPtr& root,
      std::unordered_map<const Expr*, EvalNodeStats>* stats);

  /// Drops per-node results but keeps compiled programs and transposed base
  /// relations, so the next Execute measures pure batch execution.
  void ClearResultMemo() { memo_.clear(); }

 private:
  struct MemoEntry {
    std::shared_ptr<const ColumnTable> table;
    // Row form, materialized lazily (only the root of an Execute needs it;
    // interior results stay columnar). Leaf entries alias the Database's
    // shared storage, exactly like the interpreter's leaf memo.
    std::shared_ptr<const Relation> rel;
  };

  Result<ColumnTable> RunOp(
      const Insn& in,
      const std::vector<std::shared_ptr<const ColumnTable>>& regs);
  Result<ColumnTable> RunHashJoin(
      const Insn& in,
      const std::vector<std::shared_ptr<const ColumnTable>>& regs);

  const Database* database_;
  ExecContext* ctx_;
  PhysicalPlan plan_;  // the nodes programs_ point into
  // Stats sink of the Execute in flight (kHashJoin tallies build/probe rows
  // mid-operator, before its node finishes); null when stats are detached.
  std::unordered_map<const Expr*, EvalNodeStats>* join_stats_ = nullptr;
  std::unordered_map<const Expr*, Program> programs_;
  std::unordered_map<const Expr*, MemoEntry> memo_;
  std::unordered_map<std::string, std::shared_ptr<const ColumnTable>> loads_;
};

}  // namespace setrec::vectorized

#endif  // SETREC_RELATIONAL_VECTORIZED_ENGINE_H_
