// Tests for the incremental view-maintenance subsystem (incremental/): the
// delta-driven materialized receiver views with demand-driven invalidation.
// The acceptance core is differential: every ViewCache read must be
// bit-identical to from-scratch Evaluate(expr, EncodeInstance(instance)) —
// the oracle — over a 16-seed corpus of randomized delta trains, at every
// worker count, and the crash matrix must prove the cache never serves a
// view ahead of what the durable store acknowledged.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <iterator>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "algebraic/method_library.h"
#include "algebraic/parallel.h"
#include "core/exec_context.h"
#include "core/exec_options.h"
#include "core/fault_injection.h"
#include "core/ids.h"
#include "core/instance.h"
#include "core/instance_generator.h"
#include "core/receiver.h"
#include "core/schema.h"
#include "core/sequential.h"
#include "core/status.h"
#include "incremental/view_cache.h"
#include "objrel/encoding.h"
#include "relational/builder.h"
#include "relational/evaluator.h"
#include "relational/expression.h"
#include "relational/relation.h"
#include "sql/engine.h"
#include "store/durable_store.h"
#include "text/printer.h"

namespace setrec {
namespace {

// -- Helpers -----------------------------------------------------------------

/// The differential-testing oracle: from-scratch evaluation over the
/// relational encoding of the current instance.
Relation Oracle(const ExprPtr& expr, const Instance& instance) {
  Database db = std::move(EncodeInstance(instance)).value();
  return std::move(Evaluate(expr, db)).value();
}

/// A fresh, empty directory unique to the running test (and `tag`).
std::string MakeTempDir(const std::string& tag) {
  const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "setrec_incremental_test" /
      (std::string(info->test_suite_name()) + "." + info->name() + "." + tag);
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir.string();
}

/// Applies `ops` random schema-respecting mutations (add/remove object,
/// add/remove edge) to `instance` and returns the canonical delta. Removals
/// cascade through RemoveObject, so the delta is closed the way
/// DiffInstances produces it — exactly what ApplyDelta requires.
InstanceDelta MutateRandomly(Instance& instance, const Schema& schema,
                             SplitMix64& rng, std::size_t ops) {
  const Instance before = instance;
  for (std::size_t i = 0; i < ops; ++i) {
    switch (rng.UniformInt(4)) {
      case 0: {
        const ClassId c =
            static_cast<ClassId>(rng.UniformInt(schema.num_classes()));
        const ObjectId fresh(c, static_cast<std::uint32_t>(rng.UniformInt(32)));
        (void)(instance.AddObject(fresh));
        break;
      }
      case 1: {
        const ClassId c =
            static_cast<ClassId>(rng.UniformInt(schema.num_classes()));
        const auto& objs = instance.objects(c);
        if (objs.empty()) break;
        auto it = objs.begin();
        std::advance(it, static_cast<std::ptrdiff_t>(
                             rng.UniformInt(objs.size())));
        (void)(instance.RemoveObject(*it));
        break;
      }
      case 2: {
        const PropertyId p =
            static_cast<PropertyId>(rng.UniformInt(schema.num_properties()));
        const Schema::PropertyDef& def = schema.property(p);
        const auto& src = instance.objects(def.source);
        const auto& dst = instance.objects(def.target);
        if (src.empty() || dst.empty()) break;
        auto sit = src.begin();
        std::advance(sit, static_cast<std::ptrdiff_t>(
                              rng.UniformInt(src.size())));
        auto dit = dst.begin();
        std::advance(dit, static_cast<std::ptrdiff_t>(
                              rng.UniformInt(dst.size())));
        (void)(instance.AddEdge(*sit, p, *dit));
        break;
      }
      default: {
        const PropertyId p =
            static_cast<PropertyId>(rng.UniformInt(schema.num_properties()));
        const auto& edges = instance.edges(p);
        if (edges.empty()) break;
        auto it = edges.begin();
        std::advance(it, static_cast<std::ptrdiff_t>(
                             rng.UniformInt(edges.size())));
        (void)(instance.RemoveEdge(it->first, p, it->second));
        break;
      }
    }
  }
  return DiffInstances(before, instance);
}

struct NamedView {
  std::string name;
  ExprPtr expr;
};

/// One view per operator family over the drinkers encoding (relations D,
/// Ba, Be, Df, Dl, Bas): base, union, difference, project-with-support,
/// equi-join chain with rename, and a residual (≠) join.
std::vector<NamedView> MakeTestViews() {
  std::vector<NamedView> v;
  // Base relation behind the identity wrapper.
  v.push_back({"frequents", ra::Rel("Df")});
  // Union of two projections onto one scheme: drinkers with any edge.
  v.push_back({"reaches", ra::Union(ra::Project(ra::Rel("Df"), {"D"}),
                                    ra::Project(ra::Rel("Dl"), {"D"}))});
  // Difference: drinkers frequenting a bar but liking no beer.
  v.push_back({"f_not_l", ra::Diff(ra::Project(ra::Rel("Df"), {"D"}),
                                   ra::Project(ra::Rel("Dl"), {"D"}))});
  // Projection with support counts: drinkers frequenting >= 1 bar.
  v.push_back({"patrons", ra::Project(ra::Rel("Df"), {"D"})});
  // Drinkers frequenting a bar that serves a beer they like: a two-level
  // equi-join chain (sigma-fused products) plus renames and a projection.
  v.push_back(
      {"happy",
       ra::Project(
           ra::SelectEq(
               ra::SelectEq(
                   ra::Product(
                       ra::JoinEq(ra::Rel("Df"), ra::Rel("Bas"), "f", "Ba"),
                       ra::Rename(ra::Rename(ra::Rel("Dl"), "D", "D2"), "l",
                                  "l2")),
                   "D", "D2"),
               "s", "l2"),
           {"D"})});
  // Residual-condition join (no equi key): drinker pairs frequenting
  // different bars.
  v.push_back(
      {"rivals",
       ra::Project(
           ra::SelectNeq(
               ra::Product(ra::Rel("Df"),
                           ra::Rename(ra::Rename(ra::Rel("Df"), "D", "E"),
                                      "f", "g")),
               "f", "g"),
           {"D", "E"})});
  return v;
}

/// A DurableStore statement adding one edge, honoring the statement
/// contract: commit the journaled delta exactly once on success, roll back
/// to the pre-state on veto.
DurableStore::Statement AddEdgeStatement(Edge e) {
  return [e](Instance& instance, ExecContext&, const CommitHook& commit) {
    return RunJournaled(instance, [&] { return instance.AddEdge(e); }, commit);
  };
}

// -- Fixture -----------------------------------------------------------------

class ViewCacheTest : public ::testing::Test {
 protected:
  void SetUp() override { ds_ = std::move(MakeDrinkersSchema()).value(); }

  Instance Generate(std::uint64_t seed, std::uint32_t objects_per_class = 8,
                    double edge_probability = 0.35) {
    InstanceGenerator gen(&ds_.schema, seed);
    InstanceGenerator::Options options;
    options.min_objects_per_class = objects_per_class;
    options.max_objects_per_class = objects_per_class;
    options.edge_probability = edge_probability;
    return gen.RandomInstance(options);
  }

  /// A tiny hand-built instance: drinkers d0..d2, one bar, one beer, with
  /// f: d0->b0, l: d1->e0, s: b0->e0. One bar makes "D x Ba" a key set.
  Instance TinyInstance() const {
    Instance inst(&ds_.schema);
    for (std::uint32_t i = 0; i < 3; ++i) {
      EXPECT_TRUE(inst.AddObject(ObjectId(ds_.drinker, i)).ok());
    }
    EXPECT_TRUE(inst.AddObject(ObjectId(ds_.bar, 0)).ok());
    EXPECT_TRUE(inst.AddObject(ObjectId(ds_.beer, 0)).ok());
    EXPECT_TRUE(inst.AddEdge(ObjectId(ds_.drinker, 0), ds_.frequents,
                             ObjectId(ds_.bar, 0))
                    .ok());
    EXPECT_TRUE(inst.AddEdge(ObjectId(ds_.drinker, 1), ds_.likes,
                             ObjectId(ds_.beer, 0))
                    .ok());
    EXPECT_TRUE(
        inst.AddEdge(ObjectId(ds_.bar, 0), ds_.serves, ObjectId(ds_.beer, 0))
            .ok());
    return inst;
  }

  DrinkersSchema ds_;
};

// -- Cold reads and the oracle ----------------------------------------------

TEST_F(ViewCacheTest, ColdReadsMatchFromScratchEvaluation) {
  const Instance instance = Generate(1);
  ViewCache cache(&ds_.schema);
  ASSERT_TRUE(cache.Prime(instance).ok());
  EXPECT_TRUE(cache.primed());

  const std::vector<NamedView> views = MakeTestViews();
  for (const NamedView& v : views) {
    ASSERT_TRUE(cache.Register(v.name, v.expr).ok()) << v.name;
  }
  for (const NamedView& v : views) {
    auto read = cache.Read(v.name);
    ASSERT_TRUE(read.ok()) << v.name;
    EXPECT_TRUE(**read == Oracle(v.expr, instance))
        << "cold read of " << v.name << " diverges from the oracle";
  }
  EXPECT_EQ(cache.stats().rebuilds, views.size());

  // A second round of reads with nothing pending is all hits.
  for (const NamedView& v : views) {
    ASSERT_TRUE(cache.Read(v.name).ok()) << v.name;
  }
  EXPECT_EQ(cache.stats().hits, views.size());
}

// -- The 16-seed corpus of randomized delta trains ---------------------------

TEST_F(ViewCacheTest, SixteenSeedDeltaTrainsMatchTheOracleAtEveryStep) {
  const std::vector<NamedView> views = MakeTestViews();
  std::uint64_t total_refreshes = 0;
  std::uint64_t total_delta_rows = 0;
  for (std::uint64_t seed = 0; seed < 16; ++seed) {
    Instance instance = Generate(seed);
    ViewCache cache(&ds_.schema);
    ASSERT_TRUE(cache.Prime(instance).ok()) << "seed " << seed;
    for (const NamedView& v : views) {
      ASSERT_TRUE(cache.Register(v.name, v.expr).ok()) << v.name;
    }
    SplitMix64 rng(seed * 7919 + 1);
    for (int step = 0; step < 8; ++step) {
      // Two deltas between reads, so refresh must coalesce the pending
      // suffix, not just absorb single entries.
      for (int d = 0; d < 2; ++d) {
        const InstanceDelta delta =
            MutateRandomly(instance, ds_.schema, rng, 5);
        ASSERT_TRUE(cache.ApplyDelta(delta).ok())
            << "seed " << seed << " step " << step;
      }
      for (const NamedView& v : views) {
        auto read = cache.Read(v.name);
        ASSERT_TRUE(read.ok()) << v.name;
        EXPECT_TRUE(**read == Oracle(v.expr, instance))
            << "seed " << seed << " step " << step << " view " << v.name
            << " diverges from the oracle";
      }
    }
    total_refreshes += cache.stats().refreshes;
    total_delta_rows += cache.stats().delta_rows;
  }
  // The corpus must actually exercise delta propagation, not coast on
  // rebuilds and hits.
  EXPECT_GT(total_refreshes, 0u);
  EXPECT_GT(total_delta_rows, 0u);
}

// -- Method-driven trains at every worker count ------------------------------

TEST_F(ViewCacheTest, MethodTrainsAreBitIdenticalAcrossWorkerCounts) {
  const std::vector<NamedView> views = MakeTestViews();
  const auto add_bar = std::move(MakeAddBar(ds_)).value();
  const auto likes_serves = std::move(MakeLikesServesBar(ds_)).value();

  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    const Instance start = Generate(seed, 8, 0.3);
    std::vector<std::string> finals;
    std::vector<Instance> final_instances;
    for (const std::size_t workers : {std::size_t{1}, std::size_t{2},
                                      std::size_t{8}}) {
      Instance current = start;
      ViewCache cache(&ds_.schema);
      ASSERT_TRUE(cache.Prime(current).ok());
      for (const NamedView& v : views) {
        ASSERT_TRUE(cache.Register(v.name, v.expr).ok()) << v.name;
      }
      // Same generator seed per run: the receiver draws replay identically
      // because the instance states they draw from are identical.
      InstanceGenerator gen(&ds_.schema, seed + 101);
      for (int round = 0; round < 3; ++round) {
        ExecOptions options;
        options.num_workers = workers;
        options.view_cache = &cache;
        const std::vector<Receiver> add_recv =
            gen.RandomKeySet(current, add_bar->signature(), 6);
        Result<Instance> applied = round == 0
                ? SequentialApply(*add_bar, current, add_recv, options)
                : ParallelApply(*add_bar, current, add_recv, options);
        ASSERT_TRUE(applied.ok()) << "seed " << seed << " round " << round;
        current = std::move(applied).value();

        const std::vector<Receiver> ls_recv =
            gen.RandomKeySet(current, likes_serves->signature(), 6);
        Result<Instance> applied2 =
            ParallelApply(*likes_serves, current, ls_recv, options);
        ASSERT_TRUE(applied2.ok()) << "seed " << seed << " round " << round;
        current = std::move(applied2).value();

        for (const NamedView& v : views) {
          auto read = cache.Read(v.name);
          ASSERT_TRUE(read.ok()) << v.name;
          EXPECT_TRUE(**read == Oracle(v.expr, current))
              << "seed " << seed << " workers " << workers << " round "
              << round << " view " << v.name;
        }
      }
      finals.push_back(InstanceToText(current));
      final_instances.push_back(current);
    }
    // Worker count must not change the final instance: equal as graphs and
    // byte-identical in the canonical text form.
    for (std::size_t i = 1; i < finals.size(); ++i) {
      EXPECT_TRUE(final_instances[0] == final_instances[i])
          << "seed " << seed << ": worker-count run " << i << " diverged";
      EXPECT_EQ(finals[0], finals[i]) << "seed " << seed;
    }
  }
}

// -- Publication discipline --------------------------------------------------

TEST_F(ViewCacheTest, RefeedingAPublishedDeltaIsAHarmlessNoOp) {
  Instance instance = Generate(3);
  ViewCache cache(&ds_.schema);
  ASSERT_TRUE(cache.Prime(instance).ok());
  ASSERT_TRUE(cache.Register("frequents", ra::Rel("Df")).ok());

  SplitMix64 rng(42);
  InstanceDelta delta;
  do {
    delta = MutateRandomly(instance, ds_.schema, rng, 4);
  } while (delta.empty());
  ASSERT_TRUE(cache.ApplyDelta(delta).ok());
  const std::uint64_t epoch_after_first = cache.epoch();

  // Stacked commit paths (store hook + txn layer) may publish the same
  // delta twice; normalization must cancel the second feed exactly.
  ASSERT_TRUE(cache.ApplyDelta(delta).ok());
  EXPECT_EQ(cache.epoch(), epoch_after_first);

  auto read = cache.Read("frequents");
  ASSERT_TRUE(read.ok());
  EXPECT_TRUE(**read == Oracle(ra::Rel("Df"), instance));
}

TEST_F(ViewCacheTest, ApiEdgesFailCleanly) {
  ViewCache cache(&ds_.schema);
  ASSERT_TRUE(cache.Register("frequents", ra::Rel("Df")).ok());

  // Reads and delta feeds before Prime have no base state to work from.
  EXPECT_EQ(cache.Read("frequents").status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(cache.ApplyDelta(InstanceDelta{}).code(),
            StatusCode::kFailedPrecondition);

  const Instance instance = Generate(5);
  ASSERT_TRUE(cache.Prime(instance).ok());
  const std::uint64_t epoch = cache.epoch();

  // Empty deltas are absorbed without an epoch bump.
  EXPECT_TRUE(cache.ApplyDelta(InstanceDelta{}).ok());
  EXPECT_EQ(cache.epoch(), epoch);

  // Unknown relations fail at registration, leaving callers their
  // from-scratch fallback.
  EXPECT_FALSE(cache.Register("bad", ra::Rel("Nope")).ok());
  EXPECT_EQ(cache.Read("unregistered").status().code(), StatusCode::kNotFound);

  // Same name: idempotent for the same expression, refused for another.
  EXPECT_TRUE(cache.Register("frequents", ra::Rel("Df")).ok());
  EXPECT_EQ(cache.Register("frequents", ra::Rel("Dl")).code(),
            StatusCode::kAlreadyExists);
}

TEST_F(ViewCacheTest, OverBudgetRefreshFallsBackToFullRebuild) {
  Instance instance = Generate(7);
  ViewCacheOptions options;
  options.max_delta_rows_per_refresh = 1;
  ViewCache cache(&ds_.schema, options);
  ASSERT_TRUE(cache.Prime(instance).ok());
  const ExprPtr expr = ra::Union(ra::Project(ra::Rel("Df"), {"D"}),
                                 ra::Project(ra::Rel("Dl"), {"D"}));
  ASSERT_TRUE(cache.Register("reaches", expr).ok());
  ASSERT_TRUE(cache.Read("reaches").ok());
  ASSERT_EQ(cache.stats().rebuilds, 1u);

  // A delta wider than the budget must abandon propagation mid-flight and
  // rematerialize — and the read still answers from fresh state. Three new
  // drinkers frequenting an existing bar is three Df rows against a
  // one-row budget.
  InstanceDelta delta;
  for (std::uint32_t i = 20; i < 23; ++i) {
    delta.added_objects.push_back(ObjectId(ds_.drinker, i));
    delta.added_edges.push_back(Edge{ObjectId(ds_.drinker, i), ds_.frequents,
                                     ObjectId(ds_.bar, 0)});
  }
  ASSERT_TRUE(cache.ApplyDelta(delta).ok());
  ASSERT_TRUE(ApplyDelta(instance, delta).ok());
  auto read = cache.Read("reaches");
  ASSERT_TRUE(read.ok());
  EXPECT_TRUE(**read == Oracle(expr, instance));
  EXPECT_EQ(cache.stats().fallbacks, 1u);
  EXPECT_EQ(cache.stats().rebuilds, 2u);
  EXPECT_EQ(cache.stats().refreshes, 0u);
}

TEST_F(ViewCacheTest, InvalidationIsDemandDrivenAndSkipsUntouchedViews) {
  const Instance instance = TinyInstance();
  ViewCache cache(&ds_.schema);
  ASSERT_TRUE(cache.Prime(instance).ok());
  ASSERT_TRUE(cache.Register("serves", ra::Rel("Bas")).ok());
  ASSERT_TRUE(cache.Read("serves").ok());

  // A delta to an unrelated relation (class D) must not even mark the view
  // stale; the next read is a pure hit.
  InstanceDelta unrelated;
  unrelated.added_objects.push_back(ObjectId(ds_.drinker, 9));
  ASSERT_TRUE(cache.ApplyDelta(unrelated).ok());
  EXPECT_EQ(cache.stats().invalidations, 0u);
  ASSERT_TRUE(cache.Read("serves").ok());
  EXPECT_EQ(cache.stats().hits, 1u);

  // A delta touching Bas marks the view stale but does no node work until
  // the next read demands it.
  InstanceDelta relevant;
  relevant.added_objects.push_back(ObjectId(ds_.bar, 1));
  relevant.added_edges.push_back(
      Edge{ObjectId(ds_.bar, 1), ds_.serves, ObjectId(ds_.beer, 0)});
  ASSERT_TRUE(cache.ApplyDelta(relevant).ok());
  EXPECT_EQ(cache.stats().invalidations, 1u);
  EXPECT_EQ(cache.stats().refreshes, 0u);

  Instance after = instance;
  ASSERT_TRUE(after.AddObject(ObjectId(ds_.bar, 1)).ok());
  ASSERT_TRUE(after
                  .AddEdge(ObjectId(ds_.bar, 1), ds_.serves,
                           ObjectId(ds_.beer, 0))
                  .ok());
  auto read = cache.Read("serves");
  ASSERT_TRUE(read.ok());
  EXPECT_TRUE(**read == Oracle(ra::Rel("Bas"), after));
  EXPECT_EQ(cache.stats().refreshes, 1u);
}

TEST_F(ViewCacheTest, QueryEvictsTheLeastRecentlyReadViewAtCapacity) {
  const Instance instance = TinyInstance();
  ViewCacheOptions options;
  options.max_views = 2;
  ViewCache cache(&ds_.schema, options);
  ASSERT_TRUE(cache.Prime(instance).ok());

  ASSERT_TRUE(cache.Query(ra::Rel("D")).ok());
  ASSERT_TRUE(cache.Query(ra::Rel("Ba")).ok());
  // Explicit registrations are pinned by intent: at capacity they refuse
  // rather than evict.
  EXPECT_EQ(cache.Register("pinned", ra::Rel("Be")).code(),
            StatusCode::kResourceExhausted);
  // Ad-hoc queries make room by dropping the least recently read view.
  ASSERT_TRUE(cache.Query(ra::Rel("Be")).ok());
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.stats().registered_views, 2u);
  const std::vector<std::string> names = cache.ViewNames();
  EXPECT_EQ(names.size(), 2u);
  for (const std::string& name : names) {
    EXPECT_NE(name, ExprToString(*ra::Rel("D")))
        << "the oldest view survived the eviction";
  }
}

// -- Governance --------------------------------------------------------------

TEST_F(ViewCacheTest, GovernedReadStopsEarlyAndTheViewRecovers) {
  // Big enough that the rivals self-join blows a 50-step budget in the
  // rebuild loops.
  const Instance instance = Generate(11, 20, 0.5);
  ViewCache cache(&ds_.schema);
  ASSERT_TRUE(cache.Prime(instance).ok());
  const ExprPtr rivals = MakeTestViews().back().expr;
  ASSERT_TRUE(cache.Register("rivals", rivals).ok());

  ExecContext tight(ExecContext::StepBudget(50));
  const Status stopped = cache.Read("rivals", &tight).status();
  ASSERT_FALSE(stopped.ok());
  EXPECT_EQ(stopped.code(), StatusCode::kResourceExhausted);
  EXPECT_TRUE(IsGovernanceError(stopped));

  // The interrupted rebuild left no torn state behind: an ungoverned read
  // rematerializes and matches the oracle.
  auto read = cache.Read("rivals");
  ASSERT_TRUE(read.ok());
  EXPECT_TRUE(**read == Oracle(rivals, instance));

  // A governed read with room to spare succeeds under the same machinery.
  ExecContext roomy(ExecContext::StepBudget(1u << 24));
  EXPECT_TRUE(cache.Read("rivals", &roomy).ok());
}

// -- Fail-closed -------------------------------------------------------------

TEST_F(ViewCacheTest, InvalidDeltaFailsClosedUntilReprime) {
  const Instance instance = Generate(13);
  ViewCache cache(&ds_.schema);
  ASSERT_TRUE(cache.Prime(instance).ok());
  ASSERT_TRUE(cache.Register("frequents", ra::Rel("Df")).ok());
  ASSERT_TRUE(cache.Read("frequents").ok());

  // A delta the cache cannot absorb means the publisher's state has moved
  // past anything the mirror can represent: serving reads would silently
  // diverge, so the cache must refuse until re-primed.
  InstanceDelta bad;
  bad.added_objects.push_back(ObjectId(99, 0));
  EXPECT_EQ(cache.ApplyDelta(bad).code(), StatusCode::kInvalidArgument);
  EXPECT_FALSE(cache.primed());
  EXPECT_EQ(cache.Read("frequents").status().code(),
            StatusCode::kFailedPrecondition);

  ASSERT_TRUE(cache.Prime(instance).ok());
  auto read = cache.Read("frequents");
  ASSERT_TRUE(read.ok());
  EXPECT_TRUE(**read == Oracle(ra::Rel("Df"), instance));
}

// -- The SQL engine's receiver-view path -------------------------------------

TEST_F(ViewCacheTest, SetOrientedUpdateThroughTheCacheMatchesThePlainPath) {
  const Instance start = TinyInstance();
  const ExprPtr query = ra::Product(ra::Rel("D"), ra::Rel("Ba"));

  // Plain path: no cache anywhere.
  Instance plain = start;
  ExecContext plain_ctx;
  ASSERT_TRUE(SetOrientedUpdateInPlace(plain, ds_.frequents, query,
                                       {.ctx = &plain_ctx})
                  .ok());

  // Cached path: the receiver set comes out of the view cache and the
  // commit publishes its delta back into it.
  Instance cached = start;
  ViewCache cache(&ds_.schema);
  ASSERT_TRUE(cache.Prime(cached).ok());
  ASSERT_TRUE(cache.Register("frequents", ra::Rel("Df")).ok());
  ExecOptions options;
  options.view_cache = &cache;
  ASSERT_TRUE(
      SetOrientedUpdateInPlace(cached, ds_.frequents, query, options).ok());

  EXPECT_TRUE(plain == cached);
  // The ad-hoc receiver view is now registered alongside the pinned one.
  EXPECT_GE(cache.stats().registered_views, 2u);
  // The published commit delta reaches dependent views.
  auto read = cache.Read("frequents");
  ASSERT_TRUE(read.ok());
  EXPECT_TRUE(**read == Oracle(ra::Rel("Df"), cached));

  // A second identical update serves its receiver set from the cache (a
  // hit or an incremental refresh — never another cold rebuild of it).
  const std::uint64_t rebuilds_before = cache.stats().rebuilds;
  ASSERT_TRUE(
      SetOrientedUpdateInPlace(cached, ds_.frequents, query, options).ok());
  EXPECT_EQ(cache.stats().rebuilds, rebuilds_before);
  EXPECT_TRUE(plain == cached);  // idempotent update, still in lockstep

  // ReceiversFromView agrees with the from-scratch phase one.
  const auto assign =
      std::move(MakeAssignArgMethod(&ds_.schema, ds_.frequents)).value();
  ExecContext ctx;
  const auto from_query = std::move(
      ReceiversFromQuery(query, cached, assign->signature(), ctx)).value();
  const auto from_view = std::move(
      ReceiversFromView(cache, query, assign->signature())).value();
  EXPECT_EQ(from_query, from_view);
}

TEST_F(ViewCacheTest, SetOrientedDeletePublishesThroughTheCommitHook) {
  Instance instance = TinyInstance();
  ViewCache cache(&ds_.schema);
  ASSERT_TRUE(cache.Prime(instance).ok());
  ASSERT_TRUE(cache.Register("frequents", ra::Rel("Df")).ok());
  ASSERT_TRUE(cache.Read("frequents").ok());

  // Delete every bar: the cascade removes the f- and s-edges too, and the
  // cache must see the whole closed delta through the wrapped hook.
  ExecOptions options;
  options.view_cache = &cache;
  const RowPredicate all = [](const Instance&, ObjectId) -> Result<bool> {
    return true;
  };
  ASSERT_TRUE(SetOrientedDeleteInPlace(instance, ds_.bar, all, options).ok());
  EXPECT_TRUE(instance.objects(ds_.bar).empty());

  auto read = cache.Read("frequents");
  ASSERT_TRUE(read.ok());
  EXPECT_EQ((*read)->size(), 0u);
  EXPECT_TRUE(**read == Oracle(ra::Rel("Df"), instance));
}

/// A delta sink that only counts its publications.
class CountingSink : public DeltaSink {
 public:
  Status ApplyDelta(const InstanceDelta&) override {
    ++calls;
    return Status::OK();
  }
  int calls = 0;
};

TEST_F(ViewCacheTest, HookedStatementsLeavePublicationToTheHooksOwner) {
  // A caller that passes a commit hook owns the commit, and so publishes
  // only once the commit is durable: the statement itself must not. (The
  // unhooked statements' publication is pinned by the two tests above.)
  const ExprPtr query = ra::Product(ra::Rel("D"), ra::Rel("Ba"));
  const RowPredicate all = [](const Instance&, ObjectId) -> Result<bool> {
    return true;
  };
  int hook_calls = 0;
  CountingSink hooked_sink;
  ExecOptions hooked;
  hooked.commit_hook = [&hook_calls](const InstanceDelta&) {
    ++hook_calls;
    return Status::OK();
  };
  hooked.view_cache = &hooked_sink;
  Instance instance = TinyInstance();
  ASSERT_TRUE(
      SetOrientedUpdateInPlace(instance, ds_.frequents, query, hooked).ok());
  EXPECT_EQ(hook_calls, 1);
  EXPECT_EQ(hooked_sink.calls, 0) << "update published under a hook";
  ASSERT_TRUE(SetOrientedDeleteInPlace(instance, ds_.bar, all, hooked).ok());
  EXPECT_EQ(hook_calls, 2);
  EXPECT_EQ(hooked_sink.calls, 0) << "delete published under a hook";
}

// -- The crash-during-commit matrix ------------------------------------------

class DurableCacheTest : public ViewCacheTest {
 protected:
  /// Registers the standard views and returns the ones the store tests
  /// read back.
  void RegisterViews(ViewCache& cache) {
    for (const NamedView& v : MakeTestViews()) {
      ASSERT_TRUE(cache.Register(v.name, v.expr).ok()) << v.name;
    }
  }

  void ExpectViewsMatch(ViewCache& cache, const Instance& instance,
                        const std::string& label) {
    for (const NamedView& v : MakeTestViews()) {
      auto read = cache.Read(v.name);
      ASSERT_TRUE(read.ok()) << label << ": " << v.name;
      EXPECT_TRUE(**read == Oracle(v.expr, instance))
          << label << ": view " << v.name
          << " is not in lockstep with the durable state";
    }
  }

  Status Seed(DurableStore& store) const {
    const Instance db = TinyInstance();
    return store.Mutate([&db](Instance& inst, ExecContext&) {
      inst = db;
      return Status::OK();
    });
  }
};

TEST_F(DurableCacheTest, CommitsPublishAfterFsyncAndReopenReprimes) {
  const std::string dir = MakeTempDir("clean");
  ViewCache cache(&ds_.schema);
  RegisterViews(cache);
  DurableStoreOptions options;
  options.view_cache = &cache;
  Instance committed(&ds_.schema);
  {
    auto store =
        std::move(DurableStore::Open(dir, &ds_.schema, options)).value();
    ASSERT_TRUE(Seed(*store).ok());
    ExpectViewsMatch(cache, store->instance(), "after seed");
    // Every drinker starts frequenting the one bar.
    ASSERT_TRUE(store
                    ->Update(ds_.frequents,
                             ra::Product(ra::Rel("D"), ra::Rel("Ba")))
                    .ok());
    committed = store->SnapshotState();
    ExpectViewsMatch(cache, committed, "after update");
  }
  // Reopening with the same cache re-primes it from the recovered state.
  auto reopened =
      std::move(DurableStore::Open(dir, &ds_.schema, options)).value();
  EXPECT_TRUE(reopened->instance() == committed);
  ExpectViewsMatch(cache, reopened->instance(), "after recovery");
}

TEST_F(DurableCacheTest, TornCommitNeverReachesTheCache) {
  // Seed = storage ops 1 (append) and 2 (sync); the update's append is op 3.
  const std::string dir = MakeTempDir("torn");
  ViewCache cache(&ds_.schema);
  RegisterViews(cache);
  FaultInjector inj = FaultInjector::TornWriteAt(3, 5);
  DurableStoreOptions options;
  options.view_cache = &cache;
  options.injector = &inj;
  Instance seeded(&ds_.schema);
  {
    auto store =
        std::move(DurableStore::Open(dir, &ds_.schema, options)).value();
    ASSERT_TRUE(Seed(*store).ok());
    seeded = store->SnapshotState();
    const Status s = store->Update(ds_.frequents,
                                   ra::Product(ra::Rel("D"), ra::Rel("Ba")));
    ASSERT_FALSE(s.ok());
    EXPECT_TRUE(store->broken());
    EXPECT_TRUE(store->instance() == seeded);
    // The never-ahead invariant: the unacknowledged commit is invisible
    // through every view.
    ExpectViewsMatch(cache, seeded, "after torn commit");
  }
  DurableStoreOptions clean;
  clean.view_cache = &cache;
  auto reopened =
      std::move(DurableStore::Open(dir, &ds_.schema, clean)).value();
  EXPECT_TRUE(reopened->instance() == seeded);
  ExpectViewsMatch(cache, reopened->instance(), "after recovery");
  // The statement still works after recovery, and the cache follows.
  ASSERT_TRUE(reopened
                  ->Update(ds_.frequents,
                           ra::Product(ra::Rel("D"), ra::Rel("Ba")))
                  .ok());
  ExpectViewsMatch(cache, reopened->instance(), "after retry");
}

TEST_F(DurableCacheTest, PartialFsyncNeverReachesTheCache) {
  // The update's append is op 3 and succeeds; its covering fsync (op 4)
  // fails — publication must not have happened in between.
  const std::string dir = MakeTempDir("fsync");
  ViewCache cache(&ds_.schema);
  RegisterViews(cache);
  FaultInjector inj = FaultInjector::PartialFsyncAt(4);
  DurableStoreOptions options;
  options.view_cache = &cache;
  options.injector = &inj;
  Instance seeded(&ds_.schema);
  {
    auto store =
        std::move(DurableStore::Open(dir, &ds_.schema, options)).value();
    ASSERT_TRUE(Seed(*store).ok());
    seeded = store->SnapshotState();
    ASSERT_FALSE(store
                     ->Update(ds_.frequents,
                              ra::Product(ra::Rel("D"), ra::Rel("Ba")))
                     .ok());
    EXPECT_TRUE(store->broken());
    ExpectViewsMatch(cache, seeded, "after failed fsync");
  }
  DurableStoreOptions clean;
  clean.view_cache = &cache;
  auto reopened =
      std::move(DurableStore::Open(dir, &ds_.schema, clean)).value();
  EXPECT_TRUE(reopened->instance() == seeded);
  ExpectViewsMatch(cache, reopened->instance(), "after recovery");
}

TEST_F(DurableCacheTest, HookedUpdateNeverPublishesAnUnsyncedDelta) {
  // The server's update shape: the statement gets the store's hook *and*
  // the store's cache (which serves its receiver set). Its append is op 3
  // and succeeds; the covering fsync (op 4) fails. The statement returned
  // before that fsync, so had it published, the cache would be ahead of
  // the durable state.
  const std::string dir = MakeTempDir("hooked");
  ViewCache cache(&ds_.schema);
  RegisterViews(cache);
  FaultInjector inj = FaultInjector::PartialFsyncAt(4);
  DurableStoreOptions options;
  options.view_cache = &cache;
  options.injector = &inj;
  auto store =
      std::move(DurableStore::Open(dir, &ds_.schema, options)).value();
  ASSERT_TRUE(Seed(*store).ok());
  const Instance seeded = store->SnapshotState();
  std::vector<std::shared_ptr<const Relation>> before;
  for (const NamedView& v : MakeTestViews()) {
    before.push_back(std::move(cache.Read(v.name)).value());
  }
  const std::uint64_t epoch = cache.epoch();

  const ExprPtr query = ra::Product(ra::Rel("D"), ra::Rel("Ba"));
  const Status s = store->Commit(
      [&](Instance& instance, ExecContext& ctx, const CommitHook& hook) {
        return SetOrientedUpdateInPlace(
            instance, ds_.frequents, query,
            {.ctx = &ctx, .commit_hook = hook, .view_cache = &cache});
      });
  ASSERT_FALSE(s.ok());
  EXPECT_TRUE(store->broken());
  EXPECT_TRUE(store->instance() == seeded);
  EXPECT_EQ(cache.epoch(), epoch);
  const std::vector<NamedView> views = MakeTestViews();
  for (std::size_t i = 0; i < views.size(); ++i) {
    auto read = cache.Read(views[i].name);
    ASSERT_TRUE(read.ok()) << views[i].name;
    EXPECT_TRUE(**read == *before[i])
        << "view " << views[i].name << " saw an unsynced delta";
  }
}

TEST_F(DurableCacheTest, BatchFaultRollsBackWithNothingPublished) {
  const std::string dir = MakeTempDir("batch");
  ViewCache cache(&ds_.schema);
  RegisterViews(cache);
  // Seed consumes ops 1-2; the batch appends at 3 and 4 — tear the second.
  FaultInjector inj = FaultInjector::TornWriteAt(4, 3);
  DurableStoreOptions options;
  options.view_cache = &cache;
  options.injector = &inj;
  auto store =
      std::move(DurableStore::Open(dir, &ds_.schema, options)).value();
  ASSERT_TRUE(Seed(*store).ok());
  const Instance seeded = store->SnapshotState();

  const std::vector<DurableStore::Statement> statements = {
      AddEdgeStatement(Edge{ObjectId(ds_.drinker, 1), ds_.frequents,
                            ObjectId(ds_.bar, 0)}),
      AddEdgeStatement(Edge{ObjectId(ds_.drinker, 2), ds_.frequents,
                            ObjectId(ds_.bar, 0)}),
  };
  ASSERT_FALSE(store->CommitBatch(statements).ok());
  EXPECT_TRUE(store->instance() == seeded);
  // Neither statement's staged delta leaked into the cache — not even the
  // first, whose append succeeded before the tear.
  ExpectViewsMatch(cache, seeded, "after torn batch");
}

TEST_F(DurableCacheTest, SuccessfulBatchPublishesEveryStagedDelta) {
  const std::string dir = MakeTempDir("batchok");
  ViewCache cache(&ds_.schema);
  RegisterViews(cache);
  DurableStoreOptions options;
  options.view_cache = &cache;
  auto store =
      std::move(DurableStore::Open(dir, &ds_.schema, options)).value();
  ASSERT_TRUE(Seed(*store).ok());

  const std::vector<DurableStore::Statement> statements = {
      AddEdgeStatement(Edge{ObjectId(ds_.drinker, 1), ds_.frequents,
                            ObjectId(ds_.bar, 0)}),
      AddEdgeStatement(Edge{ObjectId(ds_.drinker, 2), ds_.frequents,
                            ObjectId(ds_.bar, 0)}),
  };
  ASSERT_TRUE(store->CommitBatch(statements).ok());
  ExpectViewsMatch(cache, store->instance(), "after batch");
}

// -- Concurrency -------------------------------------------------------------

TEST_F(ViewCacheTest, ConcurrentReadsDuringDeltaFeedsStayWellFormed) {
  Instance instance = Generate(17);
  ViewCache cache(&ds_.schema);
  ASSERT_TRUE(cache.Prime(instance).ok());
  ASSERT_TRUE(cache.Register("frequents", ra::Rel("Df")).ok());
  ASSERT_TRUE(cache.Register("patrons",
                             ra::Project(ra::Rel("Df"), {"D"})).ok());

  std::atomic<bool> done{false};
  std::thread writer([&] {
    SplitMix64 rng(23);
    for (int i = 0; i < 60; ++i) {
      const InstanceDelta delta = MutateRandomly(instance, ds_.schema, rng, 3);
      ASSERT_TRUE(cache.ApplyDelta(delta).ok());
    }
    done.store(true);
  });
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&, r] {
      while (!done.load()) {
        auto read = cache.Read(r % 2 == 0 ? "frequents" : "patrons");
        ASSERT_TRUE(read.ok());
        // Copy-on-write: the snapshot stays valid and internally
        // consistent while refreshes proceed underneath it.
        for (const Tuple* t : (*read)->SortedTuples()) {
          ASSERT_EQ(t->arity(), (*read)->scheme().arity());
        }
      }
    });
  }
  writer.join();
  for (std::thread& t : readers) t.join();

  auto read = cache.Read("frequents");
  ASSERT_TRUE(read.ok());
  EXPECT_TRUE(**read == Oracle(ra::Rel("Df"), instance));
}

}  // namespace
}  // namespace setrec
