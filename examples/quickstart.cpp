// Quickstart: the paper's running example end to end.
//
// Builds Ullman's drinkers schema (Example 2.3), reconstructs the instance I
// of Figure 2, applies add_bar and favorite_bar (Example 2.7, Figures 3-4),
// demonstrates order (in)dependence on a two-receiver set (Example 3.2,
// Figure 5), and runs the Theorem 5.12 decision procedure on both methods.

#include <cstdio>
#include <cstdlib>

#include "algebraic/method_library.h"
#include "algebraic/order_independence.h"
#include "core/printer.h"
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
  ExecContext ctx;  // permissive: governs every application below
  DrinkersSchema ds = Unwrap(MakeDrinkersSchema(), "schema");
  std::printf("== Schema (Example 2.3, abbreviated names) ==\n%s\n\n",
              SchemaToString(ds.schema).c_str());

  // Figure 2: Drinker_1 frequents Bar_1 and Bar_2; Bar_3 exists unfrequented.
  Instance figure2(&ds.schema);
  const ObjectId drinker1(ds.drinker, 1);
  const ObjectId bar1(ds.bar, 1), bar2(ds.bar, 2), bar3(ds.bar, 3);
  for (ObjectId o : {drinker1}) (void)figure2.AddObject(o);
  for (ObjectId o : {bar1, bar2, bar3}) (void)figure2.AddObject(o);
  (void)figure2.AddEdge(drinker1, ds.frequents, bar1);
  (void)figure2.AddEdge(drinker1, ds.frequents, bar2);
  std::printf("== Instance I (Figure 2) ==\n%s\n\n",
              InstanceToString(figure2).c_str());

  auto add_bar = Unwrap(MakeAddBar(ds), "add_bar");
  auto favorite_bar = Unwrap(MakeFavoriteBar(ds), "favorite_bar");

  const Receiver r3 = Receiver::Unchecked({drinker1, bar3});
  const Receiver r1 = Receiver::Unchecked({drinker1, bar1});

  Instance figure3 = Unwrap(add_bar->Apply(figure2, r3), "add_bar apply");
  std::printf("== add_bar(I, [Drinker_1, Bar_3]) (Figure 3) ==\n%s\n\n",
              InstanceToString(figure3).c_str());

  Instance figure4 =
      Unwrap(favorite_bar->Apply(figure2, r1), "favorite_bar apply");
  std::printf("== favorite_bar(I, [Drinker_1, Bar_1]) (Figure 4) ==\n%s\n\n",
              InstanceToString(figure4).c_str());

  // Example 3.2 / Figure 5: the two orders of applying favorite_bar to
  // {[D1,Ba1], [D1,Ba3]} disagree.
  std::vector<Receiver> receivers = {r1, Receiver::Unchecked({drinker1, bar3})};
  Instance fig5 = Unwrap(
      ApplySequence(*favorite_bar, figure2, receivers, ctx), "sequence r1,r3");
  std::printf(
      "== favorite_bar(I, [D1,Ba1], [D1,Ba3]) (Figure 5) ==\n%s\n\n",
      InstanceToString(fig5).c_str());

  OrderIndependenceOutcome fav_outcome = Unwrap(
      OrderIndependentOn(*favorite_bar, figure2, receivers, ctx), "OI test");
  OrderIndependenceOutcome add_outcome =
      Unwrap(OrderIndependentOn(*add_bar, figure2, receivers, ctx), "OI test");
  std::printf("favorite_bar order independent on (I, T): %s\n",
              fav_outcome.order_independent ? "yes" : "no");
  std::printf("add_bar      order independent on (I, T): %s\n\n",
              add_outcome.order_independent ? "yes" : "no");

  // Theorem 5.12: decide (key-)order independence statically.
  for (const AlgebraicUpdateMethod* m : {add_bar.get(), favorite_bar.get()}) {
    bool oi = Unwrap(
        DecideOrderIndependence(*m, OrderIndependenceKind::kAbsolute),
        "decision");
    bool koi = Unwrap(
        DecideOrderIndependence(*m, OrderIndependenceKind::kKeyOrder),
        "decision");
    std::printf("%-14s order independent: %-3s  key-order independent: %s\n",
                m->name().c_str(), oi ? "yes" : "no", koi ? "yes" : "no");
  }
  std::printf(
      "\n(Expected per Examples 3.2/5.9: add_bar yes/yes, favorite_bar "
      "no/yes.)\n");
  return 0;
}
