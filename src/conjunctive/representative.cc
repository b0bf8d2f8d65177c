#include "conjunctive/representative.h"

#include <algorithm>
#include <string>
#include <vector>

namespace setrec {

Status ForEachRepresentativeValuation(
    const ConjunctiveQuery& query,
    const std::function<bool(const std::vector<VarId>& block_of)>& fn,
    ExecContext& ctx) {
  const std::size_t n = query.num_vars();
  std::vector<VarId> block_of(n, 0);
  // The domain of block i, for blocks created so far.
  std::vector<ClassId> block_domain;

  // Variables are placed in id order, so v conflicts with a block when one
  // of its ≠-partners with a smaller id already sits there.
  std::vector<std::vector<VarId>> earlier_neq(n);
  for (const auto& [lo, hi] : query.non_equalities()) {
    earlier_neq[std::max(lo, hi)].push_back(std::min(lo, hi));
  }
  auto conflicts = [&](VarId v, std::size_t block) {
    for (VarId u : earlier_neq[v]) {
      if (block_of[u] == block) return true;
    }
    return false;
  };

  bool keep_going = true;
  Status governed = Status::OK();
  std::function<void(VarId)> recurse = [&](VarId v) {
    if (!keep_going) return;
    governed = ctx.CheckPoint("representative/valuation");
    if (!governed.ok()) {
      keep_going = false;
      return;
    }
    if (v == n) {
      keep_going = fn(block_of);
      return;
    }
    const ClassId domain = query.var_domain(v);
    // Join an existing compatible block...
    for (std::size_t b = 0; b < block_domain.size(); ++b) {
      if (block_domain[b] != domain || conflicts(v, b)) continue;
      block_of[v] = static_cast<VarId>(b);
      recurse(v + 1);
      if (!keep_going) return;
    }
    // ...or open a fresh block.
    block_of[v] = static_cast<VarId>(block_domain.size());
    block_domain.push_back(domain);
    recurse(v + 1);
    block_domain.pop_back();
  };
  recurse(0);
  return governed;
}

std::size_t CountRepresentativeValuations(const ConjunctiveQuery& query) {
  std::size_t count = 0;
  // A permissive context never fires, so the Status is always OK.
  ExecContext ctx;
  Status s = ForEachRepresentativeValuation(
      query,
      [&](const std::vector<VarId>&) {
        ++count;
        return true;
      },
      ctx);
  (void)s;
  return count;
}

Status CheckCanonicalInstance(const ConjunctiveQuery& query,
                              const Catalog& catalog) {
  for (const Conjunct& c : query.conjuncts()) {
    SETREC_ASSIGN_OR_RETURN(const RelationScheme* scheme,
                            catalog.Find(c.relation));
    if (scheme->arity() != c.vars.size()) {
      return Status::InvalidArgument("tuple arity does not match scheme");
    }
    for (std::size_t i = 0; i < c.vars.size(); ++i) {
      if (query.var_domain(c.vars[i]) != scheme->attribute(i).domain) {
        return Status::InvalidArgument(
            "tuple value violates attribute domain at position " +
            std::to_string(i) + " (attribute " + scheme->attribute(i).name +
            ")");
      }
    }
  }
  return Status::OK();
}

Result<CanonicalInstance> BuildCanonicalInstance(
    const ConjunctiveQuery& query, const std::vector<VarId>& block_of,
    const Catalog& catalog) {
  SETREC_RETURN_IF_ERROR(CheckCanonicalInstance(query, catalog));
  Database db;
  for (const std::string& name : catalog.Names()) {
    SETREC_ASSIGN_OR_RETURN(const RelationScheme* scheme, catalog.Find(name));
    db.Put(name, Relation(*scheme));
  }
  for (const Conjunct& c : query.conjuncts()) {
    SETREC_ASSIGN_OR_RETURN(const Relation* existing, db.Find(c.relation));
    Relation rel = *existing;
    std::vector<ObjectId> values;
    values.reserve(c.vars.size());
    for (VarId v : c.vars) values.push_back(CanonicalValue(query, block_of, v));
    SETREC_RETURN_IF_ERROR(rel.Insert(Tuple(std::move(values))));
    db.Put(c.relation, std::move(rel));
  }
  std::vector<ObjectId> summary_values;
  summary_values.reserve(query.summary().size());
  for (VarId v : query.summary()) {
    summary_values.push_back(CanonicalValue(query, block_of, v));
  }
  return CanonicalInstance{std::move(db), Tuple(std::move(summary_values))};
}

}  // namespace setrec
