#ifndef SETREC_RELATIONAL_PLAN_H_
#define SETREC_RELATIONAL_PLAN_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory_resource>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/status.h"
#include "relational/expression.h"
#include "relational/relation.h"
#include "relational/schema.h"

namespace setrec {

/// One σ condition of a fused join, resolved against the product's two
/// operands. Every engine builds its hash index on the right operand and
/// probes it with the left one, so the role follows from where the two
/// attributes live.
struct JoinCond {
  enum class Role : std::uint8_t {
    kKey,          // cross-side equality: a hash key
    kProbeFilter,  // both attributes on the left (probe) side
    kBuildFilter,  // both attributes on the right (build) side
    kResidual,     // cross-side non-equality, checked per key match
  };
  Role role = Role::kKey;
  bool equal = true;              // σ= (true) or σ≠ (false)
  bool a_left = true, b_left = true;  // which operand holds each attribute
  std::uint32_t ia = 0, ib = 0;   // column indices local to that operand
  std::string_view a, b;          // attribute names as written in the σ
};

/// One operator of a lowered expression: its resolved output scheme, its
/// children and its operator payload. The interpreter, the vectorized
/// engine, EXPLAIN and the view cache all read these nodes, so the typing
/// rules and the join classification exist once.
struct PhysicalNode {
  enum class Kind : std::uint8_t {
    kScan,        // base relation expr->relation_name()
    kUnion,       // left ∪ right
    kDifference,  // left − right
    kProduct,     // left × right (a bare product: no σ above it fuses)
    kSelect,      // σ over a non-product child
    kProject,     // π (cols may be empty: the π_∅ guard)
    kRename,      // ρ (tuples pass through; only the scheme changes)
    kJoin,        // σ-chain over a product, fused into one hash join
  };
  /// The factor of a product that is a π_∅ guard. When it evaluates empty
  /// the other factor is skipped (the paper's if-then-else encoding).
  enum class Guard : std::uint8_t { kNone, kLeft, kRight };

  Kind kind = Kind::kScan;
  /// The expression node computed here, and so the memo and statistics key.
  /// For kJoin it is the top σ of the chain; the σs below it and the
  /// product are folded in.
  const Expr* expr = nullptr;
  /// The output scheme: the scanned relation's own, an operand's when the
  /// operator keeps it, or one the plan owns.
  const RelationScheme* scheme = nullptr;
  const PhysicalNode* left = nullptr;  // the child of unary operators
  const PhysicalNode* right = nullptr;

  bool equal = false;                   // kSelect: σ= or σ≠
  std::uint32_t ia = 0, ib = 0;         // kSelect: the compared columns
  std::vector<std::uint32_t> cols;      // kProject: source column per output
  Guard guard = Guard::kNone;           // kProduct
  std::vector<JoinCond> conds;          // kJoin: chain order, top σ first
  std::vector<std::uint32_t> left_key;  // kJoin: kKey columns, chain order
  std::vector<std::uint32_t> right_key;
  /// kJoin, lowered against a Database only: an index build. `right` is a
  /// scan of this bound relation through any ρs (which keep its tuples and
  /// column order), and key `index_key` binds its first column, so the
  /// engines never evaluate `right`: they build the join's table from the
  /// relation's rows for each distinct value of left_key[index_key] among
  /// the probe rows that pass the probe filters.
  const BoundRelation* index = nullptr;
  std::uint32_t index_key = 0;
};

/// The lowering of the Section 5.1 algebra: expression DAG → typed plan.
/// Schemes of base relations are read by name from a Catalog or straight
/// from a Database. Lowering is memoized per expression node, exactly like
/// the evaluator's result memo: a shared subexpression becomes one shared
/// plan node, and a σ-chain interior gets a node of its own only when it
/// is lowered from somewhere other than the chain above it.
///
/// Lowered against a Database, a join whose build side is a bound relation
/// keyed on its first column is marked as an index build (see
/// PhysicalNode::index); scheme lookups never materialize a bound relation.
/// Lowered against a Catalog, no join is.
///
/// Type errors surface here and only here, found left operand first, with
/// one message per typing rule. The scheme source, and every expression
/// given to Lower, must outlive the plan (LowerRoot keeps its root alive);
/// nodes are stable once returned.
class PhysicalPlan {
 public:
  explicit PhysicalPlan(const Catalog& catalog) : catalog_(&catalog) {}
  explicit PhysicalPlan(const Database& database) : database_(&database) {}

  PhysicalPlan(const PhysicalPlan&) = delete;
  PhysicalPlan& operator=(const PhysicalPlan&) = delete;

  /// The node computing `expr`, lowering it (and every node below it not
  /// lowered before) on first use.
  Result<const PhysicalNode*> Lower(const Expr& expr);

  /// Lower(*root) for long-lived plans: the plan keeps `root` alive, so
  /// its memo never meets a recycled expression address, not even after a
  /// lowering that failed part way.
  Result<const PhysicalNode*> LowerRoot(const ExprPtr& root);

 private:
  Result<const RelationScheme*> FindScheme(std::string_view name) const;
  Status LowerJoin(const Expr& bottom, PhysicalNode& node);
  const RelationScheme* Own(RelationScheme scheme) {
    return &schemes_.emplace_back(std::move(scheme));
  }

  const Catalog* catalog_ = nullptr;
  const Database* database_ = nullptr;
  // Nodes, new schemes and memo entries come from an inline arena, so
  // lowering a statement-sized expression costs few heap allocations: the
  // attribute lists of new schemes and the operator payloads.
  alignas(std::max_align_t) std::byte inline_[4096];
  std::pmr::monotonic_buffer_resource arena_{inline_, sizeof(inline_)};
  std::pmr::deque<PhysicalNode> nodes_{&arena_};
  std::pmr::deque<RelationScheme> schemes_{&arena_};
  std::pmr::unordered_map<const Expr*, const PhysicalNode*> memo_{&arena_};
  std::pmr::vector<ExprPtr> roots_{&arena_};
};

}  // namespace setrec

#endif  // SETREC_RELATIONAL_PLAN_H_
