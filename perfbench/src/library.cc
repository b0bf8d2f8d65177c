#include <algorithm>

#include "bench.h"

namespace perfbench {

using setrec::OrderIndependenceKind;

MethodLibrary::MethodLibrary()
    : drinkers_(std::make_unique<setrec::DrinkersSchema>(
          Must(setrec::MakeDrinkersSchema(), "drinkers schema"))),
      pairs_(std::make_unique<setrec::PairSchema>(
          Must(setrec::MakePairSchema(), "pair schema"))),
      payroll_(std::make_unique<setrec::PayrollSchema>(
          Must(setrec::MakePayrollSchema(), "payroll schema"))) {
  auto add = [this](std::unique_ptr<setrec::AlgebraicUpdateMethod> method) {
    methods_.push_back(std::move(method));
    return methods_.back().get();
  };
  const auto* add_bar = add(Must(setrec::MakeAddBar(*drinkers_), "add_bar"));
  const auto* favorite_bar =
      add(Must(setrec::MakeFavoriteBar(*drinkers_), "favorite_bar"));
  const auto* delete_bar =
      add(Must(setrec::MakeDeleteBar(*drinkers_), "delete_bar"));
  const auto* likes_serves =
      add(Must(setrec::MakeLikesServesBar(*drinkers_), "likes_serves"));
  const auto* copy_extend =
      add(Must(setrec::MakeCopyExtendMethod(*pairs_), "copy_extend"));
  const auto* payroll_b =
      add(Must(setrec::MakeSalaryFromNewSal(*payroll_), "payroll B'"));
  const auto* payroll_c =
      add(Must(setrec::MakeSalaryFromManagersNewSal(*payroll_), "payroll C'"));
  constexpr auto kAbs = OrderIndependenceKind::kAbsolute;
  constexpr auto kKey = OrderIndependenceKind::kKeyOrder;
  // EXPERIMENTS.md E13: add_bar, delete_bar and likes_serves are order
  // independent; favorite_bar and copy_extend only key-order independent;
  // payroll (B') is key-order independent and (C') is not.
  cases_ = {
      {"add_bar.absolute", add_bar, kAbs, true, false},
      {"add_bar.key_order", add_bar, kKey, true, false},
      {"favorite_bar.absolute", favorite_bar, kAbs, false, false},
      {"favorite_bar.key_order", favorite_bar, kKey, true, false},
      {"delete_bar.absolute", delete_bar, kAbs, true, false},
      {"likes_serves.absolute", likes_serves, kAbs, true, false},
      {"copy_extend.absolute", copy_extend, kAbs, false, true},
      {"copy_extend.key_order", copy_extend, kKey, true, true},
      {"payroll_b.key_order", payroll_b, kKey, true, false},
      {"payroll_c.key_order", payroll_c, kKey, false, false},
  };
}

SweepResult RunSweep(const MethodLibrary& library,
                     const std::vector<std::size_t>& order,
                     setrec::MetricsRegistry* metrics, SpanTracer* tracer) {
  const auto& cases = library.cases();
  SweepResult result;
  result.case_ms.assign(cases.size(), 0.0);
  for (std::size_t index : order) {
    const MethodLibrary::Case& c = cases[index];
    setrec::ExecOptions options;
    options.metrics = metrics;
    const Clock::time_point start = Clock::now();
    setrec::Result<setrec::DecisionCertificate> certificate = [&] {
      Span span(tracer, "algebraic.decide");
      return setrec::DecideOrderIndependenceCertified(*c.method, c.kind,
                                                      options);
    }();
    result.case_ms[index] = MsSince(start);
    if (!certificate.ok()) {
      result.verdicts_ok = false;
      result.mismatch = c.name + ": " + certificate.status().ToString();
      continue;
    }
    if (certificate->order_independent != c.expected) {
      result.verdicts_ok = false;
      result.mismatch = c.name + ": verdict differs from E13";
    }
    for (const auto& detail : certificate->report.properties) {
      result.raw_branches += detail.raw_disjuncts_tt + detail.raw_disjuncts_ts;
      result.pruned_branches +=
          detail.pruned_disjuncts_tt + detail.pruned_disjuncts_ts;
    }
  }
  return result;
}

setrec::Instance GenerateDrinkers(const setrec::DrinkersSchema& ds,
                                  const DrinkersSizes& sizes, std::uint64_t seed,
                                  std::vector<setrec::ObjectId>* hot) {
  using setrec::Instance;
  using setrec::ObjectId;
  Rng rng(seed);
  Instance instance(&ds.schema);
  auto add_object = [&](ObjectId o) { Must(instance.AddObject(o), "object"); };
  auto add_edge = [&](ObjectId s, setrec::PropertyId p, ObjectId t) {
    Must(instance.AddEdge(s, p, t), "edge");
  };
  for (std::uint32_t i = 0; i < sizes.drinkers; ++i) {
    add_object(ObjectId(ds.drinker, i));
  }
  for (std::uint32_t i = 0; i < sizes.bars; ++i) add_object(ObjectId(ds.bar, i));
  for (std::uint32_t i = 0; i < sizes.beers; ++i) {
    add_object(ObjectId(ds.beer, i));
  }
  // Common beers are [0, beers - hot); the last `hot` beers are rare, each
  // liked by one hot drinker and served by one bar.
  const std::uint32_t common = sizes.beers - sizes.hot;
  std::vector<std::uint32_t> rare_bar(sizes.hot);
  for (std::uint32_t h = 0; h < sizes.hot; ++h) {
    rare_bar[h] = h * (sizes.bars / sizes.hot) + rng.Below(sizes.bars / sizes.hot);
  }
  for (std::uint32_t b = 0, h = 0; b < sizes.bars; ++b) {
    const bool serves_rare = h < sizes.hot && rare_bar[h] == b;
    const std::uint32_t beer = serves_rare ? common + h++ : rng.Below(common);
    add_edge(ObjectId(ds.bar, b), ds.serves, ObjectId(ds.beer, beer));
  }
  for (std::uint32_t d = 0; d < sizes.drinkers; ++d) {
    for (int k = 0; k < 2; ++k) {
      add_edge(ObjectId(ds.drinker, d), ds.frequents,
               ObjectId(ds.bar, rng.Below(sizes.bars)));
    }
  }
  for (std::uint32_t h = 0; h < sizes.hot; ++h) {
    const ObjectId drinker(ds.drinker, h * (sizes.drinkers / sizes.hot) +
                                           rng.Below(sizes.drinkers / sizes.hot));
    hot->push_back(drinker);
    add_edge(drinker, ds.likes, ObjectId(ds.beer, common + h));
  }
  return instance;
}

ProbeInputs DrinkersProbeInputs(const setrec::DrinkersSchema& ds,
                                const setrec::Instance& instance,
                                const setrec::AlgebraicUpdateMethod& add_bar,
                                std::string query_text, std::uint64_t seed) {
  using setrec::ObjectId;
  const auto drinkers =
      static_cast<std::uint32_t>(instance.objects(ds.drinker).size());
  const auto bars = static_cast<std::uint32_t>(instance.objects(ds.bar).size());
  ProbeInputs in;
  in.schema = &ds.schema;
  in.instance = &instance;
  in.method = &add_bar;
  in.query_text = std::move(query_text);
  Rng rng(seed);
  for (std::uint32_t d = 0; d < drinkers; d += std::max(1u, drinkers / 32)) {
    in.receivers.push_back(setrec::Receiver::Unchecked(
        {ObjectId(ds.drinker, d), ObjectId(ds.bar, rng.Below(bars))}));
  }
  in.seq_receivers.assign(in.receivers.begin(), in.receivers.begin() + 3);
  const ObjectId drinker(ds.drinker, 1);
  for (std::uint32_t b = 0;; ++b) {
    if (!instance.HasEdge(drinker, ds.frequents, ObjectId(ds.bar, b))) {
      in.delta.added_edges = {{drinker, ds.frequents, ObjectId(ds.bar, b)}};
      break;
    }
  }
  in.inverse = Invert(in.delta);
  return in;
}

}  // namespace perfbench
