#ifndef SETREC_RELATIONAL_RELATION_H_
#define SETREC_RELATIONAL_RELATION_H_

#include <map>
#include <memory>
#include <mutex>
#include <ranges>
#include <string>
#include <string_view>
#include <unordered_set>
#include <utility>
#include <vector>

#include "core/chunked_set.h"
#include "relational/schema.h"
#include "relational/tuple.h"

namespace setrec {

/// A finite relation: a scheme plus a set of tuples over it. Insertions are
/// domain-checked (each value's class must equal the attribute's domain), so
/// a Relation is typed by construction.
///
/// Storage is a hash set (O(1) insert/lookup — relations are the hot-path
/// containers of the evaluator), so iteration order is unspecified.
/// Equality is content equality regardless of order. Consumers that need a
/// canonical order (deterministic enumeration, result reporting) go through
/// SortedTuples().
class Relation {
 public:
  using TupleSet = std::unordered_set<Tuple, TupleHash>;

  Relation() = default;
  explicit Relation(RelationScheme scheme) : scheme_(std::move(scheme)) {}

  // The sorted-view cache borrows pointers into tuples_, so it must never
  // travel with a copy (it would point into the *source*'s tuple set) and
  // is conservatively dropped on move too.
  Relation(const Relation& other)
      : scheme_(other.scheme_), tuples_(other.tuples_) {}
  Relation& operator=(const Relation& other) {
    if (this != &other) {
      scheme_ = other.scheme_;
      tuples_ = other.tuples_;
      InvalidateSortedCache();
    }
    return *this;
  }
  Relation(Relation&& other) noexcept
      : scheme_(std::move(other.scheme_)), tuples_(std::move(other.tuples_)) {}
  Relation& operator=(Relation&& other) noexcept {
    if (this != &other) {
      scheme_ = std::move(other.scheme_);
      tuples_ = std::move(other.tuples_);
      InvalidateSortedCache();
    }
    return *this;
  }

  const RelationScheme& scheme() const { return scheme_; }

  /// Inserts a tuple; fails on arity or domain mismatch. Duplicate inserts
  /// are OK no-ops (relations are sets).
  Status Insert(Tuple tuple);

  /// Inserts a tuple whose conformance to the scheme the caller has already
  /// proven (e.g. the evaluator: operator outputs are built from tuples of
  /// already-checked operands, so re-checking every domain in the inner
  /// join/product loops is pure overhead).
  void InsertValidated(Tuple tuple) {
    tuples_.insert(std::move(tuple));
    InvalidateSortedCache();
  }

  /// Bulk form of InsertValidated: consumes a whole batch of already-checked
  /// tuples and invalidates the sorted-view memo once per batch instead of
  /// once per tuple. The vectorized engine materializes operator outputs in
  /// kBatchWidth-row batches (relational/vectorized/batch.h), so per-tuple
  /// invalidation would touch the memo state rows-many times per result.
  /// The batch is left empty (tuples are moved out).
  void InsertValidatedBatch(std::vector<Tuple>& batch) {
    if (batch.empty()) return;
    tuples_.reserve(tuples_.size() + batch.size());
    for (Tuple& t : batch) tuples_.insert(std::move(t));
    batch.clear();
    InvalidateSortedCache();
  }

  /// How many times the sorted-view memo has been invalidated over this
  /// relation's lifetime — a diagnostic counter that makes the bulk-insert
  /// contract testable (one invalidation per InsertValidatedBatch call, one
  /// per single-tuple mutation). Copies and moved-to relations restart the
  /// count from their own first invalidation.
  std::uint64_t sorted_cache_invalidations() const {
    return sorted_invalidations_;
  }

  /// Removes a tuple; returns whether it was present. Like InsertValidated,
  /// no scheme check — a tuple of the wrong shape is simply absent.
  bool Erase(const Tuple& tuple) {
    bool erased = tuples_.erase(tuple) > 0;
    if (erased) InvalidateSortedCache();
    return erased;
  }

  /// Pre-sizes the hash table for `n` tuples.
  void Reserve(std::size_t n) { tuples_.reserve(n); }

  bool Contains(const Tuple& tuple) const { return tuples_.contains(tuple); }
  std::size_t size() const { return tuples_.size(); }
  bool empty() const { return tuples_.empty(); }

  const TupleSet& tuples() const { return tuples_; }
  auto begin() const { return tuples_.begin(); }
  auto end() const { return tuples_.end(); }

  /// Canonical (lexicographic) view of the tuples; the pointers borrow from
  /// this relation and are invalidated by any insert. The view is memoized:
  /// the first call after a mutation sorts, later calls copy the cached
  /// pointer vector. Memoization is thread-safe for concurrent const use
  /// (a Database's relations are shared read-only across threads).
  std::vector<const Tuple*> SortedTuples() const;

  friend bool operator==(const Relation& a, const Relation& b) {
    return a.scheme_ == b.scheme_ && a.tuples_ == b.tuples_;
  }

 private:
  void InvalidateSortedCache() {
    // Mutators run exclusively (they take `this` non-const), so no lock:
    // a concurrent SortedTuples() call would already be a data race on
    // tuples_ itself.
    sorted_valid_ = false;
    sorted_.clear();
    ++sorted_invalidations_;
  }

  RelationScheme scheme_;
  TupleSet tuples_;
  mutable std::mutex sorted_mu_;
  mutable std::vector<const Tuple*> sorted_;
  mutable bool sorted_valid_ = false;
  std::uint64_t sorted_invalidations_ = 0;
};

class Counter;

/// The rows of a binary relation kept outside the relational layer, as
/// sorted (first, second) pairs: an index on the first column.
/// Instance::edges(p) has this type.
using SortedPairs = ChunkedSet<std::pair<ObjectId, ObjectId>>;

/// A binary relation borrowed from a SortedPairs without copying it
/// (Database::Bind). Reading the rows of one first-column value costs the
/// rows read; a whole read builds the Relation once, exactly as inserting
/// the pairs in order would, and adds its size to `materialized_rows`. The
/// pairs must outlive the view and stay unchanged while anything reads it;
/// they must conform to the scheme (the binder's typing guarantees it).
class BoundRelation {
 public:
  using Rows = std::ranges::subrange<SortedPairs::const_iterator>;

  BoundRelation(RelationScheme scheme, const SortedPairs* pairs,
                Counter* materialized_rows)
      : scheme_(std::move(scheme)),
        pairs_(pairs),
        materialized_rows_(materialized_rows) {}

  const RelationScheme& scheme() const { return scheme_; }
  std::size_t size() const { return pairs_->size(); }

  /// The rows whose first value is `key`, in sorted order.
  Rows RowsWithFirst(ObjectId key) const;

  /// The whole relation, built on the first call (thread-safe).
  const std::shared_ptr<const Relation>& Materialized() const;

 private:
  RelationScheme scheme_;
  const SortedPairs* pairs_;
  Counter* materialized_rows_;  // may be null
  mutable std::once_flag once_;
  mutable std::shared_ptr<const Relation> materialized_;
};

/// A relational database instance: named relations. The object-relational
/// encoding produces one; update expressions are evaluated against one.
///
/// Relations are held behind shared immutable storage, so copying a
/// Database is O(#relations) regardless of data size: copies that differ in
/// a few relations share the storage of all the others. Put never mutates a
/// stored relation in place, which is what makes the sharing thread-safe.
///
/// A relation may also be bound (Bind): borrowed from sorted pairs held
/// elsewhere. Find and FindShared are whole reads and materialize it, once;
/// FindScheme, FindSize and FindBound never do, and the lowering reads a
/// bound relation keyed on its first column by index (relational/plan.h).
class Database {
 public:
  /// Installs (or replaces) a relation under `name`.
  void Put(std::string name, Relation relation);

  /// Installs a relation that is already behind shared storage. Callers that
  /// assemble databases from relations they hold as shared_ptrs (the
  /// incremental view cache, the evaluator's memo) use this to avoid a deep
  /// copy; `relation` must not be null.
  void PutShared(std::string name, std::shared_ptr<const Relation> relation);

  /// Installs (or replaces) a relation of the binary `scheme` under `name`
  /// as a borrowed view of `pairs` (see BoundRelation); copies share it.
  /// Fails on a scheme that is not binary.
  Status Bind(std::string name, RelationScheme scheme,
              const SortedPairs* pairs, Counter* materialized_rows = nullptr);

  bool Has(std::string_view name) const;
  Result<const Relation*> Find(std::string_view name) const;

  /// Like Find, but returns the shared handle, so callers can keep the
  /// relation alive independently of this Database (the evaluator's memo
  /// cache holds results this way, making cache hits O(1)).
  Result<std::shared_ptr<const Relation>> FindShared(
      std::string_view name) const;

  /// The scheme and the row count of `name`, without materializing it.
  Result<const RelationScheme*> FindScheme(std::string_view name) const;
  Result<std::size_t> FindSize(std::string_view name) const;

  /// The relation bound under `name`, or null when `name` is absent or
  /// holds an ordinary relation.
  const BoundRelation* FindBound(std::string_view name) const;

  /// Names in deterministic (sorted) order.
  std::vector<std::string> Names() const;

  /// Deep content equality (shared storage is an implementation detail).
  friend bool operator==(const Database& a, const Database& b);

 private:
  /// Exactly one of the two is set.
  struct Slot {
    std::shared_ptr<const Relation> relation;
    std::shared_ptr<const BoundRelation> bound;

    const std::shared_ptr<const Relation>& Whole() const {
      return bound != nullptr ? bound->Materialized() : relation;
    }
  };

  Result<const Slot*> FindSlot(std::string_view name) const;

  std::map<std::string, Slot, std::less<>> relations_;
};

}  // namespace setrec

#endif  // SETREC_RELATIONAL_RELATION_H_
