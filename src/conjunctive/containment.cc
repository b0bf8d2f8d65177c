#include "conjunctive/containment.h"

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "conjunctive/chase.h"
#include "conjunctive/homomorphism.h"

namespace setrec {

PositiveQuery SimplifyPositiveQuery(PositiveQuery query, ExecContext& ctx) {
  std::vector<ConjunctiveQuery> live;
  for (ConjunctiveQuery& q : query.disjuncts) {
    if (!q.trivially_false()) live.push_back(std::move(q));
  }
  std::vector<bool> alive(live.size(), true);
  for (std::size_t j = 0; j < live.size(); ++j) {
    for (std::size_t i = 0; i < live.size() && alive[j]; ++i) {
      if (i == j || !alive[i]) continue;
      // A failed (or governance-interrupted) subsumption test just leaves
      // the disjunct unpruned — conservative and sound.
      Result<bool> hom = HasHomomorphism(live[i], live[j],
                                         /*strict_neq=*/true, ctx);
      if (hom.ok() && *hom) alive[j] = false;
    }
  }
  PositiveQuery out{std::move(query.scheme), {}};
  for (std::size_t i = 0; i < live.size(); ++i) {
    if (alive[i]) out.disjuncts.push_back(std::move(live[i]));
  }
  return out;
}

namespace {

/// The catalog's relations addressed by slot — the position of the name in
/// Catalog::Names() order — so the per-valuation work indexes arrays instead
/// of looking names up.
class CatalogSlots {
 public:
  explicit CatalogSlots(const Catalog& catalog)
      : catalog_(catalog), names_(catalog.Names()) {}

  const Catalog& catalog() const { return catalog_; }
  std::size_t size() const { return names_.size(); }

  /// The slot and scheme of `name`, or the catalog's NotFound.
  Result<std::pair<std::uint32_t, const RelationScheme*>> Resolve(
      const std::string& name) const {
    SETREC_ASSIGN_OR_RETURN(const RelationScheme* scheme, catalog_.Find(name));
    const auto it = std::lower_bound(names_.begin(), names_.end(), name);
    return std::pair(static_cast<std::uint32_t>(it - names_.begin()), scheme);
  }

 private:
  const Catalog& catalog_;
  std::vector<std::string> names_;
};

/// A functional dependency resolved to its slot and attribute positions.
struct CompiledFd {
  std::uint32_t slot = 0;
  std::vector<std::size_t> lhs;
  std::size_t rhs = 0;
};

/// Resolves `fd` as Satisfies(Database, fd) does, failing with its errors.
Result<CompiledFd> CompileFd(const FunctionalDependency& fd,
                             const CatalogSlots& slots) {
  SETREC_ASSIGN_OR_RETURN(auto slot, slots.Resolve(fd.relation));
  CompiledFd out;
  out.slot = slot.first;
  for (const std::string& a : fd.lhs) {
    SETREC_ASSIGN_OR_RETURN(std::size_t i, slot.second->IndexOf(a));
    out.lhs.push_back(i);
  }
  SETREC_ASSIGN_OR_RETURN(out.rhs, slot.second->IndexOf(fd.rhs));
  return out;
}

/// True when no two rows agree on the FD's left-hand side but differ on its
/// right-hand side.
bool Holds(const CompiledFd& fd, const FactRows& rows) {
  for (std::size_t i = 0; i < rows.size(); ++i) {
    for (std::size_t j = i + 1; j < rows.size(); ++j) {
      if (rows[i][fd.rhs] == rows[j][fd.rhs]) continue;
      if (std::all_of(fd.lhs.begin(), fd.lhs.end(), [&](std::size_t k) {
            return rows[i][k] == rows[j][k];
          })) {
        return false;
      }
    }
  }
  return true;
}

/// θ(c(q)) for one representative valuation of a chased disjunct q, as a
/// fact view: per catalog slot, the sorted distinct images of q's conjuncts
/// on that relation — the tuples BuildCanonicalInstance would put there.
class ImageFacts {
 public:
  explicit ImageFacts(std::size_t num_slots) : rows_(num_slots) {}

  /// Lays out one row per conjunct of `query`, failing as
  /// BuildCanonicalInstance would for it.
  Status Layout(const ConjunctiveQuery& query, const CatalogSlots& slots) {
    for (const auto& [slot, arity] : touched_) rows_[slot].clear();
    conjuncts_.clear();
    touched_.clear();
    query_ = &query;
    SETREC_RETURN_IF_ERROR(CheckCanonicalInstance(query, slots.catalog()));
    std::size_t offset = 0;
    for (const Conjunct& c : query.conjuncts()) {
      SETREC_ASSIGN_OR_RETURN(auto slot, slots.Resolve(c.relation));
      conjuncts_.push_back({&c, slot.first, offset});
      offset += c.vars.size();
      if (std::none_of(touched_.begin(), touched_.end(),
                       [&](const auto& t) { return t.first == slot.first; })) {
        touched_.emplace_back(slot.first, c.vars.size());
      }
    }
    values_.assign(offset, ObjectId(0, 0));
    return Status::OK();
  }

  /// Recomputes the rows for the partition `block_of`.
  void Fill(const std::vector<VarId>& block_of) {
    for (const auto& [slot, arity] : touched_) rows_[slot].clear();
    for (const Image& image : conjuncts_) {
      ObjectId* row = values_.data() + image.offset;
      const std::vector<VarId>& vars = image.conjunct->vars;
      for (std::size_t k = 0; k < vars.size(); ++k) {
        row[k] = CanonicalValue(*query_, block_of, vars[k]);
      }
      rows_[image.slot].push_back(row);
    }
    for (const auto& [slot, arity] : touched_) {
      FactRows& rows = rows_[slot];
      if (rows.size() < 2) continue;
      const std::size_t n = arity;
      std::sort(rows.begin(), rows.end(),
                [n](const ObjectId* a, const ObjectId* b) {
                  return std::lexicographical_compare(a, a + n, b, b + n);
                });
      rows.erase(std::unique(rows.begin(), rows.end(),
                             [n](const ObjectId* a, const ObjectId* b) {
                               return std::equal(a, a + n, b);
                             }),
                 rows.end());
    }
  }

  std::span<const FactRows> view() const { return rows_; }

 private:
  struct Image {
    const Conjunct* conjunct;
    std::uint32_t slot;
    std::size_t offset;  // of the row in values_
  };

  const ConjunctiveQuery* query_ = nullptr;
  std::vector<Image> conjuncts_;
  std::vector<std::pair<std::uint32_t, std::size_t>> touched_;  // slot, arity
  std::vector<ObjectId> values_;
  std::vector<FactRows> rows_;
};

/// One CheckContainment call, compiled: q2's disjuncts and Σ's FDs are
/// resolved to catalog slots once, so a representative valuation of a
/// chased q1 disjunct costs its image facts, the FD filter and the
/// membership search — no Database, name lookup or span. Resolution errors
/// are kept and reported at the point where evaluating on the canonical
/// Database would have hit them, so verdicts, errors and counters agree
/// with that evaluation. A chased disjunct that some disjunct of q2 covers
/// (see Refute) is settled without enumerating the rest of its valuations.
class CompiledContainment {
 public:
  CompiledContainment(const PositiveQuery& q2, const DependencySet& deps,
                      const Catalog& catalog)
      : slots_(catalog), facts_(slots_.size()) {
    const ResolveRelation resolve = [this](const std::string& name) {
      return slots_.Resolve(name);
    };
    for (const ConjunctiveQuery& q : q2.disjuncts) {
      members_.push_back(Member{&q, BindQuery(q, /*summary_bound=*/true,
                                              resolve),
                                std::vector<std::optional<ObjectId>>(
                                    q.num_vars())});
    }
    for (const FunctionalDependency& fd : deps.fds) {
      fds_.push_back(CompileFd(fd, slots_));
    }
  }

  /// Tests every representative valuation of `chased` whose image satisfies
  /// the FDs for membership of its summary in q2. Returns true, with the
  /// canonical counterexample in `result`, at the first valuation refuting
  /// containment.
  ///
  /// After the first valuation found to be a member, the cover is tried
  /// once: when a strict homomorphism maps some disjunct of q2 into
  /// `chased`, it composes with every representative valuation into a
  /// membership witness, so no valuation can refute and the enumeration
  /// stops. The first valuation is tested first because the enumeration
  /// visits the coarsest partition first, where refutations usually show.
  Result<bool> Refute(const ConjunctiveQuery& chased, ContainmentResult& result,
                      ExecContext& ctx) {
    const Status layout = facts_.Layout(chased, slots_);
    TraceSpan span = StartSpan(ctx, "homomorphism/membership");
    SearchCounters counters;
    std::uint64_t valuations = 0;
    bool try_cover = Coverable(chased);
    bool covered = false;
    Status inner = Status::OK();
    bool refuted = false;
    const Status enumerated = ForEachRepresentativeValuation(
        chased,
        [&](const std::vector<VarId>& block_of) {
          ++valuations;
          if (!layout.ok()) {
            inner = layout;
            return false;
          }
          facts_.Fill(block_of);
          // Skip canonical instances violating the FDs: they denote no legal
          // database (see header comment). INDs and disjointness hold by
          // construction.
          for (const Result<CompiledFd>& fd : fds_) {
            if (!fd.ok()) {
              inner = fd.status();
              return false;
            }
            if (!Holds(*fd, facts_.view()[fd->slot])) return true;
          }
          Result<bool> member = IsMember(chased, block_of, counters, ctx);
          if (!member.ok()) {
            inner = member.status();
            return false;
          }
          if (*member) {
            if (!try_cover) return true;
            try_cover = false;
            Result<bool> cover = Covers(chased, ctx);
            if (!cover.ok()) {
              inner = cover.status();
              return false;
            }
            covered = *cover;
            return !covered;
          }
          Result<CanonicalInstance> canon =
              BuildCanonicalInstance(chased, block_of, slots_.catalog());
          if (!canon.ok()) {
            inner = canon.status();
            return false;
          }
          result.counterexample = std::move(canon->database);
          result.counterexample_tuple = std::move(canon->summary);
          refuted = true;
          return false;
        },
        ctx);
    counters.Flush(ctx.metrics());
    if (MetricsRegistry* metrics = ctx.metrics(); metrics != nullptr) {
      metrics->engine.containment_valuations.Add(valuations);
      if (covered) metrics->engine.containment_covered.Add(1);
    }
    SETREC_RETURN_IF_ERROR(enumerated);
    SETREC_RETURN_IF_ERROR(inner);
    return refuted;
  }

 private:
  /// A disjunct of q2 with its binding, reset after every test.
  struct Member {
    const ConjunctiveQuery* query;
    Result<BoundQuery> bound;
    std::vector<std::optional<ObjectId>> binding;
  };

  /// May the cover settle `chased`? Only when no valuation it skips could
  /// have failed: IsMember reaches a later disjunct of q2 only on a later
  /// valuation, so every satisfiable disjunct must be bound and match the
  /// summary's arity. (Every FD has compiled by the time a valuation is
  /// found a member, and a layout error stops the first valuation.)
  bool Coverable(const ConjunctiveQuery& chased) const {
    return std::all_of(members_.begin(), members_.end(), [&](const Member& m) {
      return m.query->trivially_false() ||
             (m.bound.ok() &&
              m.query->summary().size() == chased.summary().size());
    });
  }

  /// Does a strict homomorphism map some satisfiable disjunct of q2 into
  /// `chased`? A ⊥ disjunct maps anywhere vacuously but witnesses nothing,
  /// so it is skipped. A governance stop is returned, never read as "no".
  Result<bool> Covers(const ConjunctiveQuery& chased, ExecContext& ctx) {
    for (const Member& m : members_) {
      if (m.query->trivially_false()) continue;
      SETREC_ASSIGN_OR_RETURN(
          bool hom,
          HasHomomorphism(*m.query, chased, /*strict_neq=*/true, ctx));
      if (hom) return true;
    }
    return false;
  }

  /// Is the image of `chased`'s summary produced by some disjunct of q2 on
  /// the current image facts? Mirrors TupleInPositiveQuery on the canonical
  /// instance, disjunct by disjunct.
  Result<bool> IsMember(const ConjunctiveQuery& chased,
                        const std::vector<VarId>& block_of,
                        SearchCounters& counters, ExecContext& ctx) {
    const std::vector<VarId>& summary = chased.summary();
    for (Member& m : members_) {
      const ConjunctiveQuery& q = *m.query;
      if (q.trivially_false()) continue;
      if (summary.size() != q.summary().size()) {
        return Status::InvalidArgument("tuple arity does not match summary");
      }
      bool bindable = true;
      for (std::size_t i = 0; i < summary.size() && bindable; ++i) {
        const VarId v = q.summary()[i];
        const ObjectId s = CanonicalValue(chased, block_of, summary[i]);
        bindable = s.class_id() == q.var_domain(v) &&
                   (!m.binding[v].has_value() || *m.binding[v] == s);
        m.binding[v] = s;
      }
      found_ = false;
      Status searched = Status::OK();
      if (bindable) {
        searched = m.bound.ok()
                       ? SearchValuations(*m.bound, facts_.view(), m.binding,
                                          stop_at_witness_, counters, ctx)
                       : m.bound.status();
      }
      for (VarId v : q.summary()) m.binding[v] = std::nullopt;
      SETREC_RETURN_IF_ERROR(searched);
      if (found_) return true;
    }
    return false;
  }

  CatalogSlots slots_;
  ImageFacts facts_;
  std::vector<Member> members_;
  std::vector<Result<CompiledFd>> fds_;
  bool found_ = false;
  const OnSolution stop_at_witness_ = [this](const auto&) {
    found_ = true;
    return false;
  };
};

}  // namespace

Result<ContainmentResult> CheckContainment(const PositiveQuery& q1_in,
                                           const PositiveQuery& q2_in,
                                           const DependencySet& deps,
                                           const Catalog& catalog,
                                           bool simplify, ExecContext& ctx) {
  if (!(q1_in.scheme == q2_in.scheme)) {
    return Status::InvalidArgument(
        "containment requires identical result schemes");
  }
  TraceSpan span = StartSpan(ctx, "containment/check");
  if (ctx.metrics() != nullptr) {
    ctx.metrics()->engine.containment_tests.Add(1);
  }
  const PositiveQuery q1 =
      simplify ? SimplifyPositiveQuery(q1_in, ctx) : q1_in;
  const PositiveQuery q2 =
      simplify ? SimplifyPositiveQuery(q2_in, ctx) : q2_in;
  CompiledContainment compiled(q2, deps, catalog);
  ContainmentResult result;
  for (const ConjunctiveQuery& disjunct : q1.disjuncts) {
    SETREC_ASSIGN_OR_RETURN(ConjunctiveQuery chased,
                            ChaseQuery(disjunct, deps, catalog, ctx));
    if (chased.trivially_false()) continue;  // unsatisfiable under Σ
    SETREC_ASSIGN_OR_RETURN(bool refuted, compiled.Refute(chased, result, ctx));
    if (refuted) {
      result.contained = false;
      return result;
    }
  }
  result.contained = true;
  return result;
}

Result<bool> ContainedUnder(const PositiveQuery& q1, const PositiveQuery& q2,
                            const DependencySet& deps, const Catalog& catalog,
                            ExecContext& ctx) {
  SETREC_ASSIGN_OR_RETURN(
      ContainmentResult r,
      CheckContainment(q1, q2, deps, catalog, /*simplify=*/true, ctx));
  return r.contained;
}

Result<bool> EquivalentUnder(const PositiveQuery& q1, const PositiveQuery& q2,
                             const DependencySet& deps,
                             const Catalog& catalog, ExecContext& ctx) {
  SETREC_ASSIGN_OR_RETURN(bool a, ContainedUnder(q1, q2, deps, catalog, ctx));
  if (!a) return false;
  return ContainedUnder(q2, q1, deps, catalog, ctx);
}

}  // namespace setrec
