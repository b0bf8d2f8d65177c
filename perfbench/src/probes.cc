// Layer probes: each probe times calls into one layer's public functions on
// the workload's own inputs, and counts that layer's engine counters for one
// operation with a private MetricsRegistry. Probes run single-threaded on
// fixed inputs, so their counts repeat exactly for a given seed.

#include <filesystem>

#include "algebraic/parallel.h"
#include "bench.h"
#include "core/sequential.h"
#include "core/thread_pool.h"
#include "incremental/view_cache.h"
#include "net/client.h"
#include "net/replica.h"
#include "net/server.h"
#include "net/transport.h"
#include "objrel/encoding.h"
#include "relational/evaluator.h"
#include "store/durable_store.h"
#include "store/wal.h"
#include "text/parser.h"
#include "text/printer.h"
#include "txn/commutativity_cache.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using setrec::ExecOptions;
using setrec::Instance;
using setrec::InstanceDelta;
using setrec::MetricsRegistry;

constexpr int kFastReps = 64;  // µs-scale probes
constexpr int kSlowReps = 5;   // ms-scale probes

void ProbeCoreAndText(const ProbeInputs& in, SpanTracer& tracer,
                      Report& report) {
  Instance after = *in.instance;
  Must(setrec::ApplyDelta(after, in.delta), "probe delta");
  report.Set("core.instance_copy_ms", MedianMs(kSlowReps, [&] {
               Span span(&tracer, "core.instance_copy");
               Instance copy = *in.instance;
               (void)copy;
             }),
             "ms");
  report.Set("core.diff_ms", MedianMs(kSlowReps, [&] {
               Span span(&tracer, "core.diff");
               InstanceDelta d = setrec::DiffInstances(*in.instance, after);
               (void)d;
             }),
             "ms");
  Instance work = *in.instance;
  Samples apply;
  for (int i = 0; i < kFastReps; ++i) {
    const Clock::time_point start = Clock::now();
    {
      Span span(&tracer, "core.apply_delta");
      Must(setrec::ApplyDelta(work, in.delta), "apply delta");
    }
    apply.Add(MsSince(start));
    Must(setrec::ApplyDelta(work, in.inverse), "apply inverse");
  }
  report.Set("core.apply_delta_us", apply.Median() * 1000.0, "us");
  report.Check(work == *in.instance, "core: delta then inverse is identity");

  const std::string text = setrec::DeltaToText(in.delta, *in.schema);
  report.Set("text.delta_print_us", 1000.0 * MedianMs(kFastReps, [&] {
               Span span(&tracer, "text.delta_print");
               std::string t = setrec::DeltaToText(in.delta, *in.schema);
               (void)t;
             }),
             "us");
  bool parsed_ok = true;
  report.Set("text.delta_parse_us", 1000.0 * MedianMs(kFastReps, [&] {
               Span span(&tracer, "text.delta_parse");
               auto d = setrec::ParseDelta(text, in.schema);
               parsed_ok = parsed_ok && d.ok() && *d == in.delta;
             }),
             "us");
  report.Set("text.expr_parse_us", 1000.0 * MedianMs(kFastReps, [&] {
               Span span(&tracer, "text.expr_parse");
               auto e = setrec::ParseExpression(in.query_text);
               parsed_ok = parsed_ok && e.ok();
             }),
             "us");
  report.Check(parsed_ok, "text: delta round trip and query parse");
}

void ProbeRelational(const ProbeInputs& in, SpanTracer& tracer,
                     Report& report) {
  setrec::Database db = Must(setrec::EncodeInstance(*in.instance), "encode");
  report.Set("objrel.encode_ms", MedianMs(kSlowReps, [&] {
               Span span(&tracer, "objrel.encode");
               auto d = setrec::EncodeInstance(*in.instance);
               (void)d;
             }),
             "ms");
  const setrec::ExprPtr query =
      Must(setrec::ParseExpression(in.query_text), "probe query");
  std::string interpreted;
  std::string vectorized;
  auto eval = [&](setrec::ExecBackend backend, const char* span_name,
                  std::string* rendered) {
    ExecOptions options;
    options.backend = backend;
    return MedianMs(kSlowReps, [&] {
      Span span(&tracer, span_name);
      auto r = setrec::Evaluate(query, db, options);
      *rendered = r.ok() ? RenderRelation(*r, *in.schema)
                         : "error: " + r.status().ToString();
    });
  };
  report.Set("relational.eval_ms",
             eval(setrec::ExecBackend::kInterpreter, "relational.eval",
                  &interpreted),
             "ms");
  report.Set("vectorized.eval_ms",
             eval(setrec::ExecBackend::kVectorized, "vectorized.eval",
                  &vectorized),
             "ms");
  report.Check(interpreted == vectorized && interpreted.rfind("error", 0) != 0,
               "relational: interpreter equals vectorized on the query");

  MetricsRegistry metrics;
  ExecOptions counted;
  counted.backend = setrec::ExecBackend::kInterpreter;
  counted.metrics = &metrics;
  (void)setrec::Evaluate(query, db, counted);
  report.Set("evaluator.rows",
             static_cast<double>(metrics.engine.eval_rows.value()), "count");
  report.Set("evaluator.join_probes",
             static_cast<double>(metrics.engine.eval_join_probes.value()),
             "count");
  report.Set("evaluator.join_build_rows",
             static_cast<double>(metrics.engine.eval_join_build_rows.value()),
             "count");
}

void ProbeAlgebraic(const ProbeInputs& in, SpanTracer& tracer,
                    Report& report) {
  const setrec::AlgebraicUpdateMethod& method = *in.method;
  report.Set("algebraic.apply_us", 1000.0 * MedianMs(kSlowReps, [&] {
               Span span(&tracer, "algebraic.apply");
               auto r = method.Apply(*in.instance, in.seq_receivers.front());
               (void)r;
             }),
             "us");
  setrec::ThreadPool pool(HostThreads());
  Instance one(in.schema);
  Instance many(in.schema);
  auto par = [&](std::size_t workers, Instance* out) {
    ExecOptions options;
    options.num_workers = workers;
    options.pool = workers > 1 ? &pool : nullptr;
    return MedianMs(3, [&] {
      Span span(&tracer, "algebraic.parallel_apply");
      *out = Must(setrec::ParallelApply(method, *in.instance, in.receivers,
                                        options),
                  "parallel apply");
    });
  };
  const double one_ms = par(1, &one);
  const double many_ms = par(HostThreads(), &many);
  report.Set("algebraic.par_speedup", many_ms > 0.0 ? one_ms / many_ms : 0.0,
             "x");
  report.Check(one == many, "algebraic: result independent of worker count");

  MetricsRegistry metrics;
  ExecOptions counted;
  counted.metrics = &metrics;
  (void)setrec::ParallelApply(method, *in.instance, in.receivers, counted);
  report.Set("apply.edges",
             static_cast<double>(metrics.engine.apply_edges.value()), "count");
  MetricsRegistry seq_metrics;
  ExecOptions seq_counted;
  seq_counted.metrics = &seq_metrics;
  (void)setrec::SequentialApply(method, *in.instance, in.seq_receivers,
                                seq_counted);
  report.Set(
      "sequential.receivers",
      static_cast<double>(seq_metrics.engine.sequential_receivers.value()),
      "count");
}

void ProbeDecisions(const ProbeInputs& in, SpanTracer& tracer,
                    Report& report) {
  report.Set("txn.certify_ms", MedianMs(3, [&] {
               Span span(&tracer, "txn.certify");
               setrec::CommutativityCache cache;
               (void)cache.Commutes(*in.method, *in.method);
             }),
             "ms");
  MethodLibrary library;
  std::vector<std::size_t> order(library.cases().size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  MetricsRegistry metrics;
  const SweepResult sweep = RunSweep(library, order, &metrics, &tracer);
  report.Check(sweep.verdicts_ok, "decide: verdicts match E13 " +
                                      sweep.mismatch);
  for (std::size_t i = 0; i < order.size(); ++i) {
    report.Set("algebraic.decide_ms." + library.cases()[i].name,
               sweep.case_ms[i], "ms");
  }
  const auto& e = metrics.engine;
  report.Set("containment.tests",
             static_cast<double>(e.containment_tests.value()), "count");
  report.Set("chase.rounds", static_cast<double>(e.chase_rounds.value()),
             "count");
  report.Set("homomorphism.candidates",
             static_cast<double>(e.hom_candidates.value()), "count");
  report.Set("homomorphism.pruned", static_cast<double>(e.hom_pruned.value()),
             "count");
  report.Set("decide.union_branches", static_cast<double>(sweep.raw_branches),
             "count");
  report.Set("conjunctive.prune_ratio",
             sweep.raw_branches == 0
                 ? 0.0
                 : 1.0 - static_cast<double>(sweep.pruned_branches) /
                             static_cast<double>(sweep.raw_branches),
             "ratio");
}

std::uint64_t NewestSnapshotBytes(const fs::path& dir) {
  std::uint64_t bytes = 0;
  std::string newest;
  for (const auto& entry : fs::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("snapshot-", 0) == 0 && name > newest) {
      newest = name;
      bytes = entry.file_size();
    }
  }
  return bytes;
}

void ProbeStore(const RunOptions& options, const ProbeInputs& in,
                SpanTracer& tracer, Report& report) {
  const fs::path dir = fs::path(options.data_dir) / "probe_store";
  fs::remove_all(dir);
  const std::string delta_text = setrec::DeltaToText(in.delta, *in.schema);
  const std::string inverse_text = setrec::DeltaToText(in.inverse, *in.schema);
  {
    auto wal = Must(setrec::WalWriter::Open((dir.string() + ".wal"), 0, 1),
                    "probe wal");
    Samples appends;
    for (int i = 0; i < 32; ++i) {
      const Clock::time_point start = Clock::now();
      Span span(&tracer, "store.append_fsync");
      Must(wal.Append(i % 2 == 0 ? delta_text : inverse_text).status(),
           "wal append");
      Must(wal.Sync(), "wal sync");
      appends.Add(MsSince(start));
    }
    report.Set("store.append_fsync_us", appends.Median() * 1000.0, "us");
  }
  fs::remove(dir.string() + ".wal");

  constexpr std::uint64_t kCadence = 16;
  constexpr int kMutations = 2 * kCadence;
  MetricsRegistry metrics;
  setrec::DurableStoreOptions store_options;
  store_options.snapshot_every_n_commits = kCadence;
  store_options.metrics = &metrics;
  {
    auto store = Must(
        setrec::DurableStore::Open(dir.string(), in.schema, store_options),
        "probe store");
    Must(store->Mutate([&](Instance& instance, setrec::ExecContext&) {
           instance = *in.instance;
           return setrec::Status::OK();
         }),
         "probe store load");
    const std::uint64_t wal_bytes0 = metrics.engine.wal_bytes.value();
    const std::uint64_t fsyncs0 = metrics.engine.wal_fsyncs.value();
    const std::uint64_t checkpoints0 = metrics.engine.store_checkpoints.value();
    std::uint64_t delta_bytes = 0;
    Samples mutates;
    for (int i = 0; i < kMutations; ++i) {
      const InstanceDelta& d = i % 2 == 0 ? in.delta : in.inverse;
      delta_bytes += (i % 2 == 0 ? delta_text : inverse_text).size();
      const Clock::time_point start = Clock::now();
      Span span(&tracer, "store.mutate");
      Must(store->Mutate([&](Instance& instance, setrec::ExecContext&) {
             return setrec::ApplyDelta(instance, d);
           }),
           "probe mutate");
      mutates.Add(MsSince(start));
    }
    report.Set("store.mutate_ms", mutates.Median(), "ms");
    const double written =
        static_cast<double>(metrics.engine.wal_bytes.value() - wal_bytes0) +
        static_cast<double>(metrics.engine.store_checkpoints.value() -
                            checkpoints0) *
            static_cast<double>(NewestSnapshotBytes(dir));
    report.Set("store.write_amp",
               written / static_cast<double>(delta_bytes), "ratio");
    report.Set("wal.fsyncs_per_commit",
               static_cast<double>(metrics.engine.wal_fsyncs.value() -
                                   fsyncs0) /
                   kMutations,
               "ratio");
  }
  setrec::RecoveryReport recovery;
  auto reopened = Must(setrec::DurableStore::Open(dir.string(), in.schema, {},
                                                  &recovery),
                       "probe reopen");
  // An even number of toggles leaves the store at the loaded instance.
  report.Check(reopened->instance() == *in.instance,
               "store: reopened probe store equals acknowledged state");
  report.Set("store.replayed_records",
             static_cast<double>(recovery.replayed_records), "count");
  report.Set("store.checkpoint_ms", MedianMs(3, [&] {
               Span span(&tracer, "store.checkpoint");
               Must(reopened->Checkpoint(), "probe checkpoint");
             }),
             "ms");
  reopened.reset();
  fs::remove_all(dir);
}

void ProbeIncremental(const ProbeInputs& in, SpanTracer& tracer,
                      Report& report) {
  setrec::ViewCache cache(in.schema);
  Must(cache.Prime(*in.instance), "view prime");
  const setrec::ExprPtr query =
      Must(setrec::ParseExpression(in.query_text), "probe query");
  (void)Must(cache.Query(query), "view warm read");
  Samples absorb;
  Samples reads;
  for (int i = 0; i < kFastReps; ++i) {
    Clock::time_point start = Clock::now();
    {
      Span span(&tracer, "incremental.apply_delta");
      Must(cache.ApplyDelta(in.delta), "view delta");
    }
    absorb.Add(MsSince(start));
    start = Clock::now();
    {
      Span span(&tracer, "incremental.query");
      (void)Must(cache.Query(query), "view read");
    }
    reads.Add(MsSince(start));
    Must(cache.ApplyDelta(in.inverse), "view inverse");
    (void)Must(cache.Query(query), "view read back");
  }
  report.Set("incremental.apply_delta_us", absorb.Median() * 1000.0, "us");
  report.Set("incremental.query_us", reads.Median() * 1000.0, "us");
  const auto stats = cache.stats();
  const auto reads_total =
      stats.hits + stats.refreshes + stats.rebuilds + stats.fallbacks;
  report.Set("incremental.hit_ratio",
             reads_total == 0 ? 0.0
                              : static_cast<double>(stats.hits) /
                                    static_cast<double>(reads_total),
             "ratio");
  const setrec::Database db =
      Must(setrec::EncodeInstance(*in.instance), "encode");
  const auto cached = Must(cache.Query(query), "view final read");
  const auto scratch = Must(setrec::Evaluate(query, db), "scratch eval");
  report.Check(RenderRelation(*cached, *in.schema) ==
                   RenderRelation(scratch, *in.schema),
               "incremental: view equals from-scratch evaluation");
}

void ProbeNet(const RunOptions& options, const ProbeInputs& in,
              SpanTracer& tracer, Report& report) {
  const fs::path dir = fs::path(options.data_dir) / "probe_net";
  fs::remove_all(dir);
  MetricsRegistry metrics;
  setrec::ServerOptions server_options;
  server_options.data_dir = dir.string();
  server_options.schema = in.schema;
  server_options.metrics = &metrics;
  setrec::TenantConfig tenant;
  tenant.name = "probe";
  auto server = Must(setrec::Server::Create(server_options, {tenant}),
                     "probe server");
  setrec::DurableStore* store = server->store("probe");
  Must(store->Mutate([&](Instance& instance, setrec::ExecContext&) {
         instance = *in.instance;
         return setrec::Status::OK();
       }),
       "probe server load");
  {
    setrec::FollowerReplica::Options follower_options;
    follower_options.tenant = "probe";
    follower_options.dial = DialerFor(server.get());
    follower_options.schema = in.schema;
    auto follower =
        Must(setrec::FollowerReplica::Create(std::move(follower_options)),
             "probe follower");
    auto catch_up = [&] {
      for (int round = 0; round < 1000; ++round) {
        if (!follower->TailOnce().ok()) return false;
        if (follower->applied_sequence() == store->last_sequence()) {
          return true;
        }
      }
      return false;
    };
    report.Check(catch_up(), "net: probe follower caught up after load");

    setrec::Client::Options client_options;
    client_options.tenant = "probe";
    client_options.dial = DialerFor(server.get());
    client_options.metrics = &metrics;
    setrec::Client client(std::move(client_options));
    bool pings_ok = true;
    report.Set("net.ping_us", 1000.0 * MedianMs(kFastReps, [&] {
                 Span span(&tracer, "net.ping");
                 auto r = client.Ping();
                 pings_ok = pings_ok && r.ok() && r->code == setrec::StatusCode::kOk;
               }),
               "us");
    report.Check(pings_ok, "net: probe pings answered");
    constexpr int kDeltas = 16;
    const std::string texts[2] = {setrec::DeltaToText(in.delta, *in.schema),
                                  setrec::DeltaToText(in.inverse, *in.schema)};
    bool writes_ok = true;
    for (int i = 0; i < kDeltas; ++i) {
      auto r = client.ApplyDelta(texts[i % 2]);
      writes_ok = writes_ok && r.ok() && r->code == setrec::StatusCode::kOk;
    }
    report.Check(writes_ok, "net: probe deltas committed", kDeltas);
    const Clock::time_point start = Clock::now();
    bool caught_up = false;
    {
      Span span(&tracer, "replica.catchup");
      caught_up = catch_up();
    }
    const double catchup_ms = MsSince(start);
    report.Check(caught_up, "net: probe follower caught up after deltas");
    report.Set("replica.catchup_ms", catchup_ms, "ms");
    report.Set("replica.apply_delta_us", 1000.0 * catchup_ms / kDeltas, "us");
    report.Check(follower->Read() == store->SnapshotState(),
                 "net: probe follower equals leader");
    const setrec::Histogram& wait =
        metrics.HistogramLabeled("tenant.queue_wait_ns", "tenant", "probe");
    report.Set("net.queue_wait_us",
               wait.count() == 0 ? 0.0
                                 : static_cast<double>(wait.sum()) /
                                       static_cast<double>(wait.count()) /
                                       1000.0,
               "us");
    report.Set("net.shed",
               static_cast<double>(metrics.CounterNamed("net.shed").value()),
               "events");
    report.Set("net.client.retries",
               static_cast<double>(
                   metrics.CounterNamed("net.client.retries").value()),
               "events");
  }
  server->Drain();
  server.reset();
  fs::remove_all(dir);
}

}  // namespace

setrec::Dialer DialerFor(setrec::Server* server) {
  return [server]() -> setrec::Result<setrec::ConnectionPtr> {
    auto [client_end, server_end] = setrec::CreateInProcessPair();
    server->Serve(std::move(server_end));
    return std::move(client_end);
  };
}

void SealForRecovery(setrec::DurableStore& store, const setrec::Edge& edge) {
  Must(store.Checkpoint(), "final checkpoint");
  for (int i = 0; i < 32; ++i) {
    Must(store.Mutate([&](Instance& instance, setrec::ExecContext&) {
           return instance.HasEdge(edge.source, edge.property, edge.target)
                      ? instance.RemoveEdge(edge.source, edge.property,
                                            edge.target)
                      : instance.AddEdge(edge);
         }),
         "recovery tail commit");
  }
}

void RunLayerProbes(const RunOptions& options, const ProbeInputs& inputs,
                    SpanTracer& tracer, Report& report) {
  ProbeCoreAndText(inputs, tracer, report);
  ProbeRelational(inputs, tracer, report);
  ProbeAlgebraic(inputs, tracer, report);
  ProbeDecisions(inputs, tracer, report);
  ProbeStore(options, inputs, tracer, report);
  ProbeIncremental(inputs, tracer, report);
  ProbeNet(options, inputs, tracer, report);
  // Layers a workload's load does not drive read as idle; workloads whose
  // load drives them overwrite these afterwards.
  report.Set("txn.group_size", 0.0, "ratio");
  report.Set("txn.commutative_share", 0.0, "ratio");
  report.Set("txn.conflict_ratio", 0.0, "ratio");
  report.Set("txn.retries", 0.0, "ratio");
}

}  // namespace perfbench
