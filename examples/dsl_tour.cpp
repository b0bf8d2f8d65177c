// Tour of the text front-end: define a schema, an instance and two update
// methods entirely as text, then run the paper's machinery on them —
// apply, test order (in)dependence dynamically, decide it statically, and
// print everything back out in parseable form.

#include <cstdio>
#include <cstdlib>

#include "algebraic/order_independence.h"
#include "core/printer.h"
#include "core/sequential.h"
#include "text/parser.h"
#include "text/printer.h"

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

constexpr const char kSchemaText[] = R"(
schema {
  // A tiny task tracker: workers claim tasks; tasks can block each other.
  class Worker;
  class Task;
  property claims : Worker -> Task;
  property blocks : Task -> Task;
}
)";

constexpr const char kInstanceText[] = R"(
instance {
  object Worker(0); object Worker(1);
  object Task(0); object Task(1); object Task(2);
  edge Worker(0) claims Task(0);
  edge Task(0) blocks Task(1);
  edge Task(1) blocks Task(2);
}
)";

// claim_all_unblocked: the receiving worker claims every task that blocks
// nothing further — reads `blocks`, writes `claims` (Prop 5.8 applies).
constexpr const char kClaimMethodText[] = R"(
method claim_ready [Worker] {
  claims := diff(rename[Task -> claims](Task),
                 rename[Task -> claims](project[Task](Taskblocks)));
}
)";

// steal: the receiving worker claims exactly the argument task — the
// favorite_bar shape: key-order independent only.
constexpr const char kStealMethodText[] = R"(
method steal [Worker, Task] {
  claims := rename[arg1 -> claims](arg1);
}
)";

}  // namespace

int main() {
  auto schema = Unwrap(ParseSchema(kSchemaText), "schema");
  std::printf("== parsed schema ==\n%s\n", SchemaToText(*schema).c_str());

  Instance instance =
      Unwrap(ParseInstance(kInstanceText, schema.get()), "instance");
  std::printf("== parsed instance ==\n%s\n",
              InstanceToString(instance).c_str());

  auto claim = Unwrap(ParseMethod(kClaimMethodText, schema.get()), "claim");
  auto steal = Unwrap(ParseMethod(kStealMethodText, schema.get()), "steal");

  // claim_ready uses difference, so it is non-positive and only the
  // refuter applies to it; steal is positive and fully decidable.
  std::printf("claim_ready positive: %s; steal positive: %s\n\n",
              claim->IsPositiveMethod() ? "yes" : "no",
              steal->IsPositiveMethod() ? "yes" : "no");

  const ClassId worker = Unwrap(schema->FindClass("Worker"), "class");
  const ClassId task = Unwrap(schema->FindClass("Task"), "class");
  const PropertyId claims = Unwrap(schema->FindProperty("claims"), "prop");

  // Apply claim_ready for worker 0: Task(2) blocks nothing, so it is the
  // only "ready" task.
  Receiver w0 = Receiver::Unchecked({ObjectId(worker, 0)});
  Instance after = Unwrap(claim->Apply(instance, w0), "apply");
  std::printf("after claim_ready(Worker(0)): claims =");
  for (ObjectId t : after.Targets(ObjectId(worker, 0), claims)) {
    std::printf(" Task(%u)", t.index());
  }
  std::printf("  (expected: Task(2))\n\n");

  // Static verdicts for steal.
  bool oi = Unwrap(
      DecideOrderIndependence(*steal, OrderIndependenceKind::kAbsolute),
      "decide");
  bool koi = Unwrap(
      DecideOrderIndependence(*steal, OrderIndependenceKind::kKeyOrder),
      "decide");
  std::printf("steal: order independent %s, key-order independent %s\n",
              oi ? "yes" : "no", koi ? "yes" : "no");

  // And the dynamic confirmation on two conflicting steals.
  std::vector<Receiver> conflict = {
      Receiver::Unchecked({ObjectId(worker, 0), ObjectId(task, 1)}),
      Receiver::Unchecked({ObjectId(worker, 0), ObjectId(task, 2)})};
  ExecContext ctx;
  auto outcome =
      Unwrap(OrderIndependentOn(*steal, instance, conflict, ctx), "outcome");
  std::printf("two steals by the same worker agree across orders: %s\n\n",
              outcome.order_independent ? "yes" : "no");

  // Round trip: print the parsed methods back out in parseable form.
  std::printf("== methods, printed back ==\n%s\n%s",
              MethodToText(*claim).c_str(), MethodToText(*steal).c_str());
  return 0;
}
