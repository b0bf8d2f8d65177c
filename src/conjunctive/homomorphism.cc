#include "conjunctive/homomorphism.h"

#include <algorithm>
#include <functional>

namespace setrec {

namespace {

/// One run of the kernel. Variables bound while trying a row go on a trail,
/// so backtracking unbinds exactly them without allocating per row.
class ValuationSearch {
 public:
  ValuationSearch(const BoundQuery& bound, std::span<const FactRows> facts,
                  std::vector<std::optional<ObjectId>>& binding,
                  const OnSolution& on_solution, SearchCounters& counters,
                  ExecContext& ctx)
      : bound_(bound),
        query_(*bound.query),
        facts_(facts),
        binding_(binding),
        on_solution_(on_solution),
        counters_(counters),
        ctx_(ctx) {
    trail_.reserve(binding.size());
  }

  Status Run() {
    Visit(0);
    return governed_;
  }

 private:
  /// Binds the conjunct's unbound variables to `row`; false on a domain or
  /// value clash. Every variable bound here is pushed on the trail.
  bool Unify(const Conjunct& c, const ObjectId* row) {
    for (std::size_t k = 0; k < c.vars.size(); ++k) {
      const VarId v = c.vars[k];
      const ObjectId val = row[k];
      if (val.class_id() != query_.var_domain(v)) return false;
      if (binding_[v].has_value()) {
        if (!(*binding_[v] == val)) return false;
      } else {
        binding_[v] = val;
        trail_.push_back(v);
      }
    }
    return true;
  }

  bool NonEqualitiesHold() const {
    for (const auto& [x, y] : bound_.non_equalities) {
      if (binding_[x].has_value() && binding_[y].has_value() &&
          *binding_[x] == *binding_[y]) {
        return false;
      }
    }
    return true;
  }

  void Visit(std::size_t i) {
    governed_ = ctx_.CheckPoint("homomorphism/valuation-node");
    if (!governed_.ok()) {
      keep_going_ = false;
      return;
    }
    if (i == bound_.conjuncts.size()) {
      keep_going_ = on_solution_(binding_);
      return;
    }
    const Conjunct& c = *bound_.conjuncts[i];
    for (const ObjectId* row : facts_[bound_.slots[i]]) {
      ++counters_.candidates;
      const std::size_t mark = trail_.size();
      if (Unify(c, row) && NonEqualitiesHold()) {
        Visit(i + 1);
      } else {
        ++counters_.pruned;
      }
      while (trail_.size() > mark) {
        binding_[trail_.back()] = std::nullopt;
        trail_.pop_back();
      }
      if (!keep_going_) return;
    }
  }

  const BoundQuery& bound_;
  const ConjunctiveQuery& query_;
  std::span<const FactRows> facts_;
  std::vector<std::optional<ObjectId>>& binding_;
  const OnSolution& on_solution_;
  SearchCounters& counters_;
  ExecContext& ctx_;
  std::vector<VarId> trail_;
  bool keep_going_ = true;
  Status governed_ = Status::OK();
};

/// Runs the kernel over `database`: every conjunct reads its relation's
/// SortedTuples() (relations iterate in hash order, but which valuation is
/// found first must not depend on it — witnesses and counterexamples are
/// reported to users and asserted by tests).
Status SearchDatabase(const ConjunctiveQuery& query, const Database& database,
                      bool summary_bound,
                      std::vector<std::optional<ObjectId>>& binding,
                      const OnSolution& on_solution, ExecContext& ctx) {
  std::vector<FactRows> facts;
  SETREC_ASSIGN_OR_RETURN(
      BoundQuery bound,
      BindQuery(query, summary_bound,
                [&](const std::string& name)
                    -> Result<std::pair<std::uint32_t, const RelationScheme*>> {
                  SETREC_ASSIGN_OR_RETURN(const Relation* rel,
                                          database.Find(name));
                  FactRows& rows = facts.emplace_back();
                  for (const Tuple* t : rel->SortedTuples()) {
                    rows.push_back(t->values().data());
                  }
                  return std::pair(static_cast<std::uint32_t>(facts.size() - 1),
                                   &rel->scheme());
                }));
  SearchCounters counters;
  Status searched =
      SearchValuations(bound, facts, binding, on_solution, counters, ctx);
  counters.Flush(ctx.metrics());
  return searched;
}

}  // namespace

Result<BoundQuery> BindQuery(const ConjunctiveQuery& query, bool summary_bound,
                             const ResolveRelation& resolve) {
  BoundQuery bound;
  bound.query = &query;
  std::vector<bool> covered(query.num_vars(), false);
  for (const Conjunct& c : query.conjuncts()) {
    SETREC_ASSIGN_OR_RETURN(auto slot, resolve(c.relation));
    if (slot.second->arity() != c.vars.size()) {
      return Status::InvalidArgument("conjunct arity mismatch for relation " +
                                     c.relation);
    }
    bound.conjuncts.push_back(&c);
    bound.slots.push_back(slot.first);
    for (VarId v : c.vars) covered[v] = true;
  }
  if (summary_bound) {
    for (VarId v : query.summary()) covered[v] = true;
  }
  bound.non_equalities.assign(query.non_equalities().begin(),
                              query.non_equalities().end());
  for (VarId v = 0; v < query.num_vars(); ++v) {
    if (!covered[v]) {
      return Status::InvalidArgument(
          "unsafe conjunctive query: variable occurs in no conjunct");
    }
  }
  return bound;
}

void SearchCounters::Flush(MetricsRegistry* metrics) {
  if (metrics != nullptr) {
    if (candidates != 0) metrics->engine.hom_candidates.Add(candidates);
    if (pruned != 0) metrics->engine.hom_pruned.Add(pruned);
  }
  candidates = 0;
  pruned = 0;
}

Status SearchValuations(const BoundQuery& bound, std::span<const FactRows> facts,
                        std::vector<std::optional<ObjectId>>& binding,
                        const OnSolution& on_solution,
                        SearchCounters& counters, ExecContext& ctx) {
  return ValuationSearch(bound, facts, binding, on_solution, counters, ctx)
      .Run();
}

Result<Relation> EvaluateConjunctiveQuery(const ConjunctiveQuery& query,
                                          const RelationScheme& scheme,
                                          const Database& database,
                                          ExecContext& ctx) {
  Relation out(scheme);
  if (query.trivially_false()) return out;
  if (scheme.arity() != query.summary().size()) {
    return Status::InvalidArgument("scheme arity does not match summary");
  }
  TraceSpan span = StartSpan(ctx, "homomorphism/evaluate-cq");
  Status collect_status = Status::OK();
  std::vector<std::optional<ObjectId>> binding(query.num_vars());
  Status s = SearchDatabase(
      query, database, /*summary_bound=*/false, binding,
      [&](const std::vector<std::optional<ObjectId>>& b) {
        std::vector<ObjectId> values;
        values.reserve(query.summary().size());
        for (VarId v : query.summary()) values.push_back(*b[v]);
        Status insert = out.Insert(Tuple(std::move(values)));
        if (!insert.ok()) {
          collect_status = insert;
          return false;
        }
        return true;
      },
      ctx);
  SETREC_RETURN_IF_ERROR(s);
  SETREC_RETURN_IF_ERROR(collect_status);
  return out;
}

Result<bool> TupleInConjunctiveQuery(const ConjunctiveQuery& query,
                                     const Tuple& s,
                                     const Database& database,
                                     ExecContext& ctx) {
  if (query.trivially_false()) return false;
  if (s.arity() != query.summary().size()) {
    return Status::InvalidArgument("tuple arity does not match summary");
  }
  TraceSpan span = StartSpan(ctx, "homomorphism/membership");
  std::vector<std::optional<ObjectId>> binding(query.num_vars());
  for (std::size_t i = 0; i < s.arity(); ++i) {
    const VarId v = query.summary()[i];
    if (s.at(i).class_id() != query.var_domain(v)) return false;
    if (binding[v].has_value() && !(*binding[v] == s.at(i))) return false;
    binding[v] = s.at(i);
  }
  bool found = false;
  SETREC_RETURN_IF_ERROR(SearchDatabase(
      query, database, /*summary_bound=*/true, binding,
      [&](const std::vector<std::optional<ObjectId>>&) {
        found = true;
        return false;  // stop at first witness
      },
      ctx));
  return found;
}

Result<bool> TupleInPositiveQuery(const PositiveQuery& query, const Tuple& s,
                                  const Database& database, ExecContext& ctx) {
  for (const ConjunctiveQuery& q : query.disjuncts) {
    SETREC_ASSIGN_OR_RETURN(bool in,
                            TupleInConjunctiveQuery(q, s, database, ctx));
    if (in) return true;
  }
  return false;
}

Result<Relation> EvaluatePositiveQuery(const PositiveQuery& query,
                                       const Database& database,
                                       ExecContext& ctx) {
  Relation out(query.scheme);
  for (const ConjunctiveQuery& q : query.disjuncts) {
    SETREC_ASSIGN_OR_RETURN(Relation r,
                            EvaluateConjunctiveQuery(q, query.scheme,
                                                     database, ctx));
    for (const Tuple& t : r) SETREC_RETURN_IF_ERROR(out.Insert(t));
  }
  return out;
}

Result<bool> HasHomomorphism(const ConjunctiveQuery& from,
                             const ConjunctiveQuery& to, bool strict_neq,
                             ExecContext& ctx) {
  if (from.trivially_false()) return true;  // ⊥ maps anywhere vacuously
  if (to.trivially_false()) return false;
  if (from.summary().size() != to.summary().size()) {
    return Status::InvalidArgument("summary arities differ");
  }
  TraceSpan span = StartSpan(ctx, "homomorphism/search");
  MetricsRegistry* metrics = ctx.metrics();
  // ψ maps from-vars to to-vars; pin the summary.
  constexpr VarId kUnbound = static_cast<VarId>(-1);
  std::vector<VarId> psi(from.num_vars(), kUnbound);
  for (std::size_t i = 0; i < from.summary().size(); ++i) {
    const VarId f = from.summary()[i];
    const VarId t = to.summary()[i];
    if (from.var_domain(f) != to.var_domain(t)) return false;
    if (psi[f] != kUnbound && psi[f] != t) return false;
    psi[f] = t;
  }
  std::vector<const Conjunct*> fc;
  for (const Conjunct& c : from.conjuncts()) fc.push_back(&c);

  auto neq_ok = [&]() {
    for (const auto& [a, b] : from.non_equalities()) {
      if (psi[a] == kUnbound || psi[b] == kUnbound) continue;
      if (psi[a] == psi[b]) return false;
      if (strict_neq) {
        auto lo = std::min(psi[a], psi[b]);
        auto hi = std::max(psi[a], psi[b]);
        if (!to.non_equalities().contains({lo, hi})) return false;
      }
    }
    return true;
  };

  Status governed = Status::OK();
  std::function<bool(std::size_t)> recurse = [&](std::size_t i) -> bool {
    governed = ctx.CheckPoint("homomorphism/map-node");
    if (!governed.ok()) return false;
    if (i == fc.size()) return neq_ok();
    const Conjunct& c = *fc[i];
    for (const Conjunct& target : to.conjuncts()) {
      if (target.relation != c.relation ||
          target.vars.size() != c.vars.size()) {
        continue;
      }
      if (metrics != nullptr) metrics->engine.hom_candidates.Add(1);
      std::vector<VarId> touched;
      bool ok = true;
      for (std::size_t k = 0; k < c.vars.size(); ++k) {
        const VarId f = c.vars[k];
        const VarId t = target.vars[k];
        if (psi[f] == kUnbound) {
          if (from.var_domain(f) != to.var_domain(t)) {
            ok = false;
            break;
          }
          psi[f] = t;
          touched.push_back(f);
        } else if (psi[f] != t) {
          ok = false;
          break;
        }
      }
      if (ok && neq_ok() && recurse(i + 1)) return true;
      if (!governed.ok()) return false;
      if (metrics != nullptr) metrics->engine.hom_pruned.Add(1);
      for (VarId f : touched) psi[f] = kUnbound;
    }
    return false;
  };
  const bool found = recurse(0);
  SETREC_RETURN_IF_ERROR(governed);
  return found;
}

}  // namespace setrec
