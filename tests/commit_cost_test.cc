// Exact per-commit counts of the work whose cost grows with the whole
// instance (InstanceCosts: full Instance copies, DiffInstances calls, full
// EncodeInstance calls). A commit pays for its delta through the mutation
// journal: no commit path diffs two instances, and none copies one except
// the MVCC snapshot that snapshot isolation is made of. Timing cannot move
// these counts, so the pins are exact; a full copy or diff creeping back
// into a commit path fails here.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "algebraic/method_library.h"
#include "algebraic/parallel.h"
#include "core/exec_options.h"
#include "core/instance.h"
#include "core/instance_generator.h"
#include "core/receiver.h"
#include "core/sequential.h"
#include "incremental/view_cache.h"
#include "net/client.h"
#include "net/server.h"
#include "net/transport.h"
#include "relational/builder.h"
#include "sql/engine.h"
#include "store/durable_store.h"
#include "txn/commutativity_cache.h"
#include "txn/txn_manager.h"

namespace setrec {
namespace {

/// The InstanceCosts counts one call added.
struct Costs {
  std::uint64_t copies = 0;
  std::uint64_t diffs = 0;
  std::uint64_t encodes = 0;
};

template <typename Fn>
Costs Measure(Fn&& fn) {
  InstanceCostCounters& c = InstanceCosts();
  const std::uint64_t copies = c.copies.value();
  const std::uint64_t diffs = c.diffs.value();
  const std::uint64_t encodes = c.encodes.value();
  fn();
  return Costs{c.copies.value() - copies, c.diffs.value() - diffs,
               c.encodes.value() - encodes};
}

std::string MakeTempDir(const std::string& tag) {
  const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "setrec_commit_cost_test" /
      (std::string(info->test_suite_name()) + "." + info->name() + "." + tag);
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir.string();
}

class CommitCostTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ds_ = std::move(MakeDrinkersSchema()).value();
    // Twelve of each class; every other drinker likes one beer, and each
    // beer is served by one bar, so the update query below yields a key set.
    for (std::uint32_t i = 0; i < 12; ++i) {
      for (ClassId c : {ds_.drinker, ds_.bar, ds_.beer}) {
        EXPECT_TRUE(seed_.AddObject(ObjectId(c, i)).ok());
      }
    }
    for (std::uint32_t i = 0; i < 12; ++i) {
      EXPECT_TRUE(seed_.AddEdge(ObjectId(ds_.bar, i), ds_.serves,
                                ObjectId(ds_.beer, i)).ok());
      EXPECT_TRUE(seed_.AddEdge(ObjectId(ds_.drinker, i), ds_.frequents,
                                ObjectId(ds_.bar, (i + 1) % 12)).ok());
      if (i % 2 == 0) {
        EXPECT_TRUE(seed_.AddEdge(ObjectId(ds_.drinker, i), ds_.likes,
                                  ObjectId(ds_.beer, i)).ok());
      }
    }
    add_bar_ = std::move(MakeAddBar(ds_)).value();
    // The narrow §7 update of the benchmark: drinkers paired with the bars
    // serving a beer they like.
    query_ = ra::Project(ra::JoinEq(ra::Rel("Dl"), ra::Rel("Bas"), "l", "s"),
                         {"D", "Ba"});
  }

  std::unique_ptr<DurableStore> OpenStore(const std::string& tag) {
    auto store =
        std::move(DurableStore::Open(MakeTempDir(tag), &ds_.schema)).value();
    const Instance& seed = seed_;
    EXPECT_TRUE(store
                    ->Mutate([&](Instance& instance, ExecContext&) {
                      instance = seed;
                      return Status::OK();
                    })
                    .ok());
    return store;
  }

  /// A one-edge statement toggling drinker `d`'s visit to bar `b`.
  std::function<Status(Instance&, ExecContext&)> Toggle(std::uint32_t d,
                                                        std::uint32_t b) const {
    const ObjectId drinker(ds_.drinker, d);
    const ObjectId bar(ds_.bar, b);
    const PropertyId f = ds_.frequents;
    return [drinker, bar, f](Instance& instance, ExecContext&) {
      return instance.HasEdge(drinker, f, bar)
                 ? instance.RemoveEdge(drinker, f, bar)
                 : instance.AddEdge(drinker, f, bar);
    };
  }

  DrinkersSchema ds_;
  Instance seed_{&ds_.schema};
  std::unique_ptr<AlgebraicUpdateMethod> add_bar_;
  ExprPtr query_;
};

TEST_F(CommitCostTest, LoadingByAssignmentCostsOneCopyAndOneDiff) {
  auto store = std::move(
      DurableStore::Open(MakeTempDir("load"), &ds_.schema)).value();
  const Costs c = Measure([&] {
    ASSERT_TRUE(store
                    ->Mutate([&](Instance& instance, ExecContext&) {
                      instance = seed_;
                      return Status::OK();
                    })
                    .ok());
  });
  EXPECT_EQ(c.copies, 1u);
  EXPECT_EQ(c.diffs, 1u);
  EXPECT_TRUE(store->instance() == seed_);
}

TEST_F(CommitCostTest, DurableStoreStatementsCopyAndDiffNothing) {
  auto store = OpenStore("store");
  const std::vector<Receiver> receivers = {
      Receiver::Unchecked({ObjectId(ds_.drinker, 1), ObjectId(ds_.bar, 5)}),
      Receiver::Unchecked({ObjectId(ds_.drinker, 3), ObjectId(ds_.bar, 7)})};
  const std::uint64_t before = store->last_sequence();

  Costs c = Measure([&] { ASSERT_TRUE(store->Mutate(Toggle(1, 1)).ok()); });
  EXPECT_EQ(c.copies, 0u) << "Mutate";
  EXPECT_EQ(c.diffs, 0u) << "Mutate";

  c = Measure([&] { ASSERT_TRUE(store->Update(ds_.frequents, query_).ok()); });
  EXPECT_EQ(c.copies, 0u) << "Update";
  EXPECT_EQ(c.diffs, 0u) << "Update";
  EXPECT_EQ(c.encodes, 0u) << "Update encodes only what its query reads";

  c = Measure([&] {
    ASSERT_TRUE(store->ApplyCursorUpdate(*add_bar_, receivers).ok());
  });
  EXPECT_EQ(c.copies, 0u) << "ApplyCursorUpdate";
  EXPECT_EQ(c.diffs, 0u) << "ApplyCursorUpdate";
  EXPECT_EQ(c.encodes, 0u) << "ApplyCursorUpdate";

  const ObjectId doomed(ds_.drinker, 5);
  const RowPredicate pred = [doomed](const Instance&, ObjectId row) {
    return Result<bool>(row == doomed);
  };
  c = Measure([&] { ASSERT_TRUE(store->Delete(ds_.drinker, pred).ok()); });
  EXPECT_EQ(c.copies, 0u) << "Delete";
  EXPECT_EQ(c.diffs, 0u) << "Delete";

  const ObjectId cursor_doomed(ds_.drinker, 6);
  const RowPredicate cursor_pred = [cursor_doomed](const Instance&,
                                                   ObjectId row) {
    return Result<bool>(row == cursor_doomed);
  };
  c = Measure([&] {
    ASSERT_TRUE(store->ApplyCursorDelete(ds_.drinker, cursor_pred).ok());
  });
  EXPECT_EQ(c.copies, 0u) << "ApplyCursorDelete";
  EXPECT_EQ(c.diffs, 0u) << "ApplyCursorDelete";

  // Each statement above changed the instance, so each logged a record.
  EXPECT_EQ(store->last_sequence(), before + 5);
}

TEST_F(CommitCostTest, CommitBatchCopiesAndDiffsNothing) {
  auto store = OpenStore("batch");
  std::vector<DurableStore::Statement> statements;
  for (std::uint32_t d = 0; d < 3; ++d) {
    auto body = Toggle(d, d + 1);
    statements.push_back([body](Instance& instance, ExecContext& ctx,
                                const CommitHook& commit) {
      return RunJournaled(
          instance, [&] { return body(instance, ctx); }, commit);
    });
  }
  std::vector<Status> results;
  const Costs c = Measure(
      [&] { ASSERT_TRUE(store->CommitBatch(statements, &results).ok()); });
  for (const Status& s : results) EXPECT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(c.copies, 0u);
  EXPECT_EQ(c.diffs, 0u);
}

TEST_F(CommitCostTest, TransactionsCopyOnlyTheMvccSnapshot) {
  auto store = OpenStore("txn");
  CommutativityCache cache;
  TxnManager txn(store.get(), &cache);
  auto receivers = [&](std::uint32_t d) {
    return std::vector<Receiver>{Receiver::Unchecked(
        {ObjectId(ds_.drinker, d), ObjectId(ds_.bar, d)})};
  };
  // The first certified Apply pays for the Theorem 5.12 certificate.
  ASSERT_TRUE(txn.Apply(*add_bar_, receivers(0)).ok());
  ASSERT_EQ(txn.stats().commutative_admissions, 1u);

  Costs c = Measure([&] { ASSERT_TRUE(txn.Apply(*add_bar_, receivers(1)).ok()); });
  EXPECT_EQ(txn.stats().commutative_admissions, 2u);
  EXPECT_EQ(c.copies, 0u) << "certified Apply";
  EXPECT_EQ(c.diffs, 0u) << "certified Apply";
  EXPECT_EQ(c.encodes, 0u) << "certified Apply";

  c = Measure([&] { ASSERT_TRUE(txn.Mutate(Toggle(2, 3)).ok()); });
  EXPECT_EQ(c.copies, 1u) << "Mutate copies only its snapshot";
  EXPECT_EQ(c.diffs, 0u) << "Mutate";

  c = Measure([&] { ASSERT_TRUE(txn.Update(ds_.frequents, query_).ok()); });
  EXPECT_EQ(c.copies, 1u) << "Update copies only its snapshot";
  EXPECT_EQ(c.diffs, 0u) << "Update";
  EXPECT_EQ(c.encodes, 0u) << "Update";

  // favorite_bar is only key-order independent, so its Apply runs under
  // MVCC; the first call pays for the (negative) certificate.
  const auto favorite_bar = std::move(MakeFavoriteBar(ds_)).value();
  ASSERT_TRUE(txn.Apply(*favorite_bar, receivers(4)).ok());
  c = Measure([&] { ASSERT_TRUE(txn.Apply(*favorite_bar, receivers(5)).ok()); });
  EXPECT_EQ(txn.stats().mvcc_admissions, 4u);
  EXPECT_EQ(c.copies, 1u) << "MVCC Apply copies only its snapshot";
  EXPECT_EQ(c.diffs, 0u) << "MVCC Apply";
  EXPECT_EQ(c.encodes, 0u) << "MVCC Apply";
}

/// The items a call cloned from chunks that a copy shared
/// (InstanceCosts().cloned_items).
template <typename Fn>
std::uint64_t ClonedItems(Fn&& fn) {
  const Counter& cloned = InstanceCosts().cloned_items;
  const std::uint64_t before = cloned.value();
  fn();
  return cloned.value() - before;
}

/// An MVCC snapshot shares the store's chunks, so a commit clones what its
/// writes touch, not the store: the same bounds hold at 1,000 and at
/// 100,000 objects.
TEST_F(CommitCostTest, MvccCommitsCloneOnlyTheChunksTheyWrite) {
  for (const std::uint32_t objects : {1000u, 100000u}) {
    SCOPED_TRACE(std::to_string(objects) + " objects");
    const std::uint32_t n = objects / 3;
    auto store = std::move(DurableStore::Open(
                               MakeTempDir(std::to_string(objects)),
                               &ds_.schema))
                     .value();
    // Every drinker frequents its own bar and every bar serves its own
    // beer; eight drinkers like the next bar's beer, so the §7 update moves
    // each of them to that bar: eight receivers.
    std::vector<std::uint32_t> movers;
    for (std::uint32_t k = 0; k < 8; ++k) movers.push_back(k * (n / 8));
    {
      Instance load(&ds_.schema);
      for (std::uint32_t i = 0; i < n; ++i) {
        for (ClassId c : {ds_.drinker, ds_.bar, ds_.beer}) {
          ASSERT_TRUE(load.AddObject(ObjectId(c, i)).ok());
        }
      }
      for (std::uint32_t i = 0; i < n; ++i) {
        ASSERT_TRUE(load.AddEdge(ObjectId(ds_.drinker, i), ds_.frequents,
                                 ObjectId(ds_.bar, i)).ok());
        ASSERT_TRUE(load.AddEdge(ObjectId(ds_.bar, i), ds_.serves,
                                 ObjectId(ds_.beer, i)).ok());
      }
      for (std::uint32_t i : movers) {
        ASSERT_TRUE(load.AddEdge(ObjectId(ds_.drinker, i), ds_.likes,
                                 ObjectId(ds_.beer, i + 1)).ok());
      }
      // Moved in, so no copy shares the store's chunks afterwards.
      ASSERT_TRUE(store
                      ->Mutate([&](Instance& instance, ExecContext&) {
                        instance = std::move(load);
                        return Status::OK();
                      })
                      .ok());
    }
    CommutativityCache cache;
    TxnManager txn(store.get(), &cache);
    auto receivers = [&](std::uint32_t d) {
      return std::vector<Receiver>{Receiver::Unchecked(
          {ObjectId(ds_.drinker, d), ObjectId(ds_.bar, d + 3)})};
    };
    // The first certified Apply pays for the Theorem 5.12 certificate.
    ASSERT_TRUE(txn.Apply(*add_bar_, receivers(1)).ok());
    EXPECT_EQ(ClonedItems([&] {
                ASSERT_TRUE(txn.Apply(*add_bar_, receivers(2)).ok());
              }),
              0u)
        << "certified Apply on a store no copy shares";
    ASSERT_EQ(txn.stats().commutative_admissions, 2u);

    const std::uint64_t copies = InstanceCosts().copies.value();
    EXPECT_EQ(ClonedItems([&] { (void)store->SnapshotState(); }), 0u)
        << "SnapshotState";
    EXPECT_EQ(InstanceCosts().copies.value() - copies, 1u);

    // The snapshot shared the chunk its write touched, so it cloned it.
    const std::uint64_t mutate = ClonedItems(
        [&] { ASSERT_TRUE(txn.Mutate(Toggle(n / 2, n / 2 + 1)).ok()); });
    EXPECT_GT(mutate, 0u) << "one-edge MVCC Mutate";
    EXPECT_LE(mutate, 2 * kChunkCapacity) << "one-edge MVCC Mutate";
    EXPECT_LE(ClonedItems([&] {
                ASSERT_TRUE(txn.Mutate(Toggle(n / 2, n / 2 + 1)).ok());
              }),
              2 * kChunkCapacity)
        << "one-edge MVCC Mutate, undone";

    EXPECT_LE(ClonedItems([&] {
                ASSERT_TRUE(txn.Update(ds_.frequents, query_).ok());
              }),
              2 * kChunkCapacity * movers.size())
        << "MVCC Update of " << movers.size() << " receivers";
    for (std::uint32_t i : movers) {
      EXPECT_EQ(store->instance().Targets(ObjectId(ds_.drinker, i),
                                          ds_.frequents),
                std::vector<ObjectId>{ObjectId(ds_.bar, i + 1)});
    }
    EXPECT_EQ(txn.stats().commits, 5u);
  }
}

/// M(I, t) binds the instance instead of encoding it: add_bar reads Df only
/// by its receiver's key, so applying it materializes no row of the
/// instance, on either commit path. A query that reads whole relations
/// still encodes them, and is counted.
TEST_F(CommitCostTest, MethodApplicationsEncodeNoRows) {
  const Counter& rows = InstanceCosts().encoded_rows;
  auto receivers = [&](std::uint32_t d) {
    return std::vector<Receiver>{
        Receiver::Unchecked({ObjectId(ds_.drinker, d), ObjectId(ds_.bar, d)}),
        Receiver::Unchecked(
            {ObjectId(ds_.drinker, d + 1), ObjectId(ds_.bar, d)})};
  };

  auto txn_store = OpenStore("txn_rows");
  CommutativityCache cache;
  TxnManager txn(txn_store.get(), &cache);
  // The first certified Apply pays for the Theorem 5.12 certificate.
  ASSERT_TRUE(txn.Apply(*add_bar_, receivers(0)).ok());
  std::uint64_t before = rows.value();
  ASSERT_TRUE(txn.Apply(*add_bar_, receivers(2)).ok());
  EXPECT_EQ(txn.stats().commutative_admissions, 2u);
  EXPECT_EQ(rows.value() - before, 0u) << "certified Apply";

  // The §7 Update's receiver query joins Dl with Bas: 6 + 12 rows.
  before = rows.value();
  ASSERT_TRUE(txn.Update(ds_.frequents, query_).ok());
  EXPECT_EQ(rows.value() - before, 18u) << "Update";

  auto store = OpenStore("cursor_rows");
  before = rows.value();
  ASSERT_TRUE(store->ApplyCursorUpdate(*add_bar_, receivers(4)).ok());
  EXPECT_EQ(rows.value() - before, 0u) << "ApplyCursorUpdate";
}

TEST_F(CommitCostTest, ViewCachePublicationsDiffNothing) {
  ViewCache views(&ds_.schema);
  ASSERT_TRUE(views.Prime(seed_).ok());
  ExecOptions options;
  options.view_cache = &views;
  InstanceGenerator gen(&ds_.schema, 5);
  const std::vector<Receiver> receivers =
      gen.RandomReceiverSet(seed_, add_bar_->signature(), 4);

  Instance after(&ds_.schema);
  Costs c = Measure([&] {
    after = std::move(SequentialApply(*add_bar_, seed_, receivers, options))
                .value();
  });
  EXPECT_EQ(c.copies, 1u) << "SequentialApply copies once, for its result";
  EXPECT_EQ(c.diffs, 0u) << "SequentialApply";
  EXPECT_EQ(c.encodes, 0u) << "SequentialApply";

  ASSERT_TRUE(views.Prime(seed_).ok());
  c = Measure([&] {
    after = std::move(ParallelApply(*add_bar_, seed_, receivers, options))
                .value();
  });
  EXPECT_EQ(c.copies, 1u) << "ParallelApply copies once, for its result";
  EXPECT_EQ(c.diffs, 0u) << "ParallelApply";
  EXPECT_EQ(c.encodes, 0u) << "ParallelApply";
}

TEST_F(CommitCostTest, ServerDeltaOpCopiesAndDiffsNothing) {
  ServerOptions options;
  options.data_dir = MakeTempDir("server");
  options.schema = &ds_.schema;
  TenantConfig tenant;
  tenant.name = "acme";
  auto server = std::move(Server::Create(std::move(options), {tenant})).value();
  Client::Options client_options;
  client_options.tenant = "acme";
  Server* raw = server.get();
  client_options.dial = [raw]() -> Result<ConnectionPtr> {
    auto [client_end, server_end] = CreateInProcessPair();
    raw->Serve(std::move(server_end));
    return std::move(client_end);
  };
  Client client(std::move(client_options));
  // Connects the session and seeds the objects the measured delta links.
  Result<Response> seeded =
      client.ApplyDelta("delta { add object D(1); add object Ba(1); }");
  ASSERT_TRUE(seeded.ok() && seeded->code == StatusCode::kOk);

  const Costs c = Measure([&] {
    Result<Response> r = client.ApplyDelta("delta { add edge D(1) f Ba(1); }");
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r->code, StatusCode::kOk) << r->message;
  });
  EXPECT_EQ(c.copies, 0u);
  EXPECT_EQ(c.diffs, 0u);
  EXPECT_TRUE(server->store("acme")->instance().HasEdge(
      ObjectId(ds_.drinker, 1), ds_.frequents, ObjectId(ds_.bar, 1)));
}

}  // namespace
}  // namespace setrec
