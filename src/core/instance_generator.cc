#include "core/instance_generator.h"

#include <algorithm>
#include <cassert>
#include <set>

namespace setrec {

Instance InstanceGenerator::RandomInstance(const Options& options) {
  Instance instance(schema_);
  const std::uint32_t lo = options.min_objects_per_class;
  const std::uint32_t hi = std::max(options.max_objects_per_class, lo);
  for (ClassId c = 0; c < schema_->num_classes(); ++c) {
    std::uint32_t n =
        lo + static_cast<std::uint32_t>(rng_.UniformInt(hi - lo + 1));
    for (std::uint32_t i = 0; i < n; ++i) {
      Status s = instance.AddObject(ObjectId(c, i));
      assert(s.ok());
      (void)s;
    }
  }
  for (PropertyId p = 0; p < schema_->num_properties(); ++p) {
    const Schema::PropertyDef& def = schema_->property(p);
    for (ObjectId src : instance.objects(def.source)) {
      for (ObjectId dst : instance.objects(def.target)) {
        if (rng_.Bernoulli(options.edge_probability)) {
          Status s = instance.AddEdge(src, p, dst);
          assert(s.ok());
          (void)s;
        }
      }
    }
  }
  return instance;
}

std::vector<Receiver> InstanceGenerator::AllReceivers(
    const Instance& instance, const MethodSignature& signature) {
  std::vector<Receiver> out;
  std::vector<ObjectId> current;
  // Iterative Cartesian product over the signature's class populations.
  std::vector<std::vector<ObjectId>> pools;
  pools.reserve(signature.size());
  for (std::size_t i = 0; i < signature.size(); ++i) {
    const auto& objs = instance.objects(signature.class_at(i));
    if (objs.empty()) return out;  // no receivers at all
    pools.emplace_back(objs.begin(), objs.end());
  }
  std::vector<std::size_t> idx(signature.size(), 0);
  while (true) {
    current.clear();
    for (std::size_t i = 0; i < signature.size(); ++i) {
      current.push_back(pools[i][idx[i]]);
    }
    out.push_back(Receiver::Unchecked(current));
    std::size_t pos = signature.size();
    while (pos > 0) {
      --pos;
      if (++idx[pos] < pools[pos].size()) break;
      idx[pos] = 0;
      if (pos == 0) return out;
    }
  }
}

std::vector<Receiver> InstanceGenerator::RandomReceiverSet(
    const Instance& instance, const MethodSignature& signature,
    std::size_t count) {
  std::vector<Receiver> all = AllReceivers(instance, signature);
  // Fisher–Yates prefix shuffle of the desired size.
  const std::size_t take = std::min(count, all.size());
  for (std::size_t i = 0; i < take; ++i) {
    std::size_t j = i + rng_.UniformInt(all.size() - i);
    std::swap(all[i], all[j]);
  }
  all.erase(all.begin() + static_cast<std::ptrdiff_t>(take), all.end());
  std::sort(all.begin(), all.end());
  return all;
}

std::vector<Receiver> InstanceGenerator::RandomKeySet(
    const Instance& instance, const MethodSignature& signature,
    std::size_t count) {
  std::vector<Receiver> candidates = AllReceivers(instance, signature);
  // Shuffle, then greedily keep receivers with fresh receiving objects.
  for (std::size_t i = 0; i + 1 < candidates.size(); ++i) {
    std::size_t j = i + rng_.UniformInt(candidates.size() - i);
    std::swap(candidates[i], candidates[j]);
  }
  std::vector<Receiver> out;
  std::set<ObjectId> used;
  for (const Receiver& r : candidates) {
    if (out.size() >= count) break;
    if (used.insert(r.receiving_object()).second) out.push_back(r);
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace setrec
