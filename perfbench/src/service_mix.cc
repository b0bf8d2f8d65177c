// service_mix: the multi-tenant service over the in-process transport. Two
// tenants with incremental views, plus a FollowerReplica of the first one
// mounted read-only with ServeReplica. One closed-loop load thread waits for
// each reply and cycles over three Clients: on one tenant's leader it reads
// receiver queries served by the ViewCache (primary) twice and writes a
// small delta or §7 update (secondary); then it reads from the follower,
// where every read encodes and evaluates from scratch (tertiary); the next
// cycle goes to the other tenant. Each request wakes a server session
// thread, and the follower's tailing thread applies the writes meanwhile:
// requests from more load threads would mostly measure how the host
// schedules those threads.

#include <cstdio>
#include <filesystem>

#include "bench.h"
#include "net/client.h"
#include "net/replica.h"
#include "net/server.h"
#include "objrel/encoding.h"
#include "relational/evaluator.h"
#include "store/durable_store.h"
#include "text/parser.h"
#include "text/printer.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using setrec::Instance;
using setrec::ObjectId;

// Read queries. The first reads only Dl and Bas, which writes never touch,
// so its view is a cache hit; the second joins the frequents relation the
// writes change, so its view refreshes incrementally.
const char* const kQueries[] = {
    kHotPairsQuery,
    "project[D, f](join[f = Ba](Df, rename[D -> D2](project[D, Ba](join[l = "
    "s](Dl, Bas)))))",
};
constexpr const char* kTenants[] = {"t0", "t1"};
constexpr const char kFollowerTenant[] = "t0-follower";
// Clients: one per tenant, then one on the follower.
constexpr std::size_t kClients = 3;

struct Sizes {
  DrinkersSizes drinkers;
  std::uint64_t checkpoint_every;
};

Sizes SizesFor(const RunOptions& options) {
  if (options.smoke) return {{100, 100, 50, 4}, 16};
  return {{1000, 1000, 500, 8}, 64};
}

struct Service {
  setrec::DrinkersSchema ds;
  fs::path dir;
  // Declared so that clients go first, then the server, then the follower
  // the server borrows.
  std::unique_ptr<setrec::FollowerReplica> follower;
  std::unique_ptr<setrec::Server> server;
  std::vector<std::unique_ptr<setrec::Client>> clients;
  // The load's place in its cycle of requests, kept across rounds.
  std::uint64_t next_op = 0;

  ~Service() {
    clients.clear();
    if (follower != nullptr) follower->StopTailing();
    if (server != nullptr) server->Drain();
  }

  setrec::DurableStore& leader() { return *server->store(kTenants[0]); }

  /// Tails the follower until it has applied the leader's last commit.
  bool CatchUp() {
    for (int round = 0; round < 10000; ++round) {
      if (follower->TailOnce().ok() &&
          follower->applied_sequence() == leader().last_sequence()) {
        return true;
      }
    }
    return false;
  }
};

std::unique_ptr<Service> SetUp(const RunOptions& options, int index,
                               setrec::MetricsRegistry* metrics) {
  const Sizes sizes = SizesFor(options);
  auto s = std::make_unique<Service>();
  s->ds = Must(setrec::MakeDrinkersSchema(), "drinkers schema");
  s->dir = fs::path(options.data_dir) / ("service_mix-" + std::to_string(index));
  fs::remove_all(s->dir);
  setrec::ServerOptions server_options;
  server_options.data_dir = s->dir.string();
  server_options.schema = &s->ds.schema;
  server_options.metrics = metrics;
  // One session per client plus the replication link.
  server_options.own_pool_workers = kClients + 1;
  std::vector<setrec::TenantConfig> tenants;
  for (const char* name : kTenants) {
    setrec::TenantConfig tenant;
    tenant.name = name;
    // Admission gates sit above the client count: shedding is an anomaly.
    tenant.max_concurrency = kClients;
    tenant.max_queue = 4 * kClients;
    tenant.store_options.snapshot_every_n_commits = sizes.checkpoint_every;
    // Deadlines are not under test; a stall of the shared host must not
    // fail requests.
    tenant.default_deadline = std::chrono::seconds(10);
    tenants.push_back(tenant);
  }
  s->server = Must(setrec::Server::Create(server_options, tenants), "server");
  for (std::size_t t = 0; t < 2; ++t) {
    std::vector<ObjectId> hot;
    const Instance initial =
        GenerateDrinkers(s->ds, sizes.drinkers, options.seed + t, &hot);
    Must(s->server->store(kTenants[t])
             ->Mutate([&](Instance& instance, setrec::ExecContext&) {
               instance = initial;
               return setrec::Status::OK();
             }),
         "load tenant");
  }
  setrec::FollowerReplica::Options follower_options;
  follower_options.tenant = kTenants[0];
  follower_options.dial = DialerFor(s->server.get());
  follower_options.schema = &s->ds.schema;
  follower_options.metrics = metrics;
  s->follower = Must(setrec::FollowerReplica::Create(std::move(follower_options)),
                     "follower");
  if (!s->CatchUp()) throw std::runtime_error("follower did not catch up");
  Must(s->server->ServeReplica(kFollowerTenant, s->follower.get()),
       "serve replica");
  s->follower->StartTailing(std::chrono::milliseconds(10));
  for (std::size_t c = 0; c < kClients; ++c) {
    setrec::Client::Options client_options;
    const bool reads_follower = c + 1 == kClients;
    client_options.tenant = reads_follower ? kFollowerTenant : kTenants[c % 2];
    client_options.dial = DialerFor(s->server.get());
    client_options.retry.max_attempts = 8;
    client_options.retry.base_delay = std::chrono::microseconds(200);
    client_options.default_deadline = std::chrono::seconds(10);
    client_options.recv_timeout = std::chrono::seconds(10);
    client_options.metrics = metrics;
    s->clients.push_back(
        std::make_unique<setrec::Client>(std::move(client_options)));
  }
  // Register every view with one read per query and tenant.
  for (std::size_t c = 0; c < s->clients.size(); ++c) {
    for (const char* query : kQueries) {
      auto reply = s->clients[c]->Query(query);
      if (!reply.ok() || reply->code != setrec::StatusCode::kOk) {
        throw std::runtime_error(std::string("warm-up read failed: ") + query);
      }
    }
  }
  return s;
}

struct Phase {
  Samples reads, writes, replica_reads;
  Completions answered;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  Clock::time_point start;

  void Merge(const Phase& other) {
    reads.Merge(other.reads);
    writes.Merge(other.writes);
    replica_reads.Merge(other.replica_reads);
    answered.Merge(other.answered);
    attempted += other.attempted;
    failed += other.failed;
  }
};

/// One load round; `round` picks the round's own stream of inputs.
Phase RunLoad(const RunOptions& options, Service& s, int round, double seconds,
              SpanTracer* tracer) {
  const Sizes sizes = SizesFor(options);
  Phase phase;
  phase.start = Clock::now();
  const auto deadline = phase.start + std::chrono::duration_cast<Clock::duration>(
                                          std::chrono::duration<double>(seconds));
  Rng rng(options.seed * 7919u + static_cast<std::uint64_t>(round));
  std::uint64_t& i = s.next_op;
  for (bool first = true; first || Clock::now() < deadline;
       first = false, ++i) {
    setrec::Result<setrec::Response> reply =
        setrec::Status::Internal("not sent");
    // Cycles of read, read, write on one tenant's leader, then a follower
    // read; cycles alternate tenants, and writes alternate between deltas
    // and updates.
    const std::uint64_t step = i % 4;
    setrec::Client& client =
        *s.clients[step == 3 ? kClients - 1 : (i / 4) % 2];
    const Clock::time_point op_start = Clock::now();
    if (step == 3) {
      Span op(tracer, "op.replica_read");
      Span span(tracer, "net.client.query");
      reply = client.Query(kQueries[(i / 4) % 2]);
      phase.replica_reads.Add(MsSince(op_start));
    } else if (step < 2) {
      Span op(tracer, "op.read");
      Span span(tracer, "net.client.query");
      // Seven in eight leader reads, on either tenant, join the relation
      // writes change.
      reply = client.Query(kQueries[i % 32 == 0 || i % 32 == 4 ? 0 : 1]);
      phase.reads.Add(MsSince(op_start));
    } else if ((i / 8) % 2 == 0) {
      const std::string delta =
          std::string("delta { ") + ((i / 16) % 2 == 0 ? "add" : "del") +
          " edge D(" + std::to_string(rng.Below(sizes.drinkers.drinkers)) +
          ") f Ba(" + std::to_string(rng.Below(sizes.drinkers.bars)) + "); }";
      Span op(tracer, "op.write");
      Span span(tracer, "net.client.delta");
      reply = client.ApplyDelta(delta);
      phase.writes.Add(MsSince(op_start));
    } else {
      Span op(tracer, "op.write");
      Span span(tracer, "net.client.update");
      reply = client.Update("f", kHotPairsQuery);
      phase.writes.Add(MsSince(op_start));
    }
    ++phase.attempted;
    if (!reply.ok() || reply->code != setrec::StatusCode::kOk) {
      ++phase.failed;
    } else {
      phase.answered.Add();
    }
  }
  return phase;
}

/// Recovery of the first tenant's store as the load left it: the store is
/// sealed (see SealForRecovery) between load rounds, its directory copied,
/// and DurableStore::Open timed on the copy, checking the recovered state.
class Recovery {
 public:
  Recovery(Service& s, const RunOptions& options)
      : s_(s), copy_(fs::path(options.data_dir) / "recovery-copy") {}
  ~Recovery() { fs::remove_all(copy_); }

  void Seal() {
    SealForRecovery(s_.leader(), {ObjectId(s_.ds.drinker, 1), s_.ds.frequents,
                                  ObjectId(s_.ds.bar, 1)});
    acknowledged_ = s_.leader().SnapshotState();
  }

  void Reopen() {
    fs::remove_all(copy_);
    fs::copy(s_.dir / kTenants[0], copy_, fs::copy_options::recursive);
    const Clock::time_point start = Clock::now();
    auto store = setrec::DurableStore::Open(copy_.string(), &s_.ds.schema);
    times_.Add(MsSince(start));
    equal_ = equal_ && store.ok() && (*store)->instance() == acknowledged_;
  }

  const Samples& times() const { return times_; }

  void Check(Report& report) const {
    report.Check(equal_, "service_mix: reopened tenant store equals leader state",
                 times_.size());
  }

 private:
  Service& s_;
  fs::path copy_;
  Instance acknowledged_{nullptr};
  Samples times_;
  bool equal_ = true;
};

// The untraced run alternates kRounds load rounds with recovery rounds,
// which take kRecoveryShare of the run.
constexpr int kRounds = 10;
constexpr double kRecoveryShare = 0.1;

/// After the load: the follower catches up and equals the leader, and
/// every query read through the service equals a from-scratch Evaluate on
/// the store snapshot. Returns the catch-up time in milliseconds.
double CheckService(Service& s, const Phase& phase, Report& report) {
  report.attempted += phase.attempted;
  report.failed += phase.failed;
  if (phase.failed != 0) {
    report.correct = false;
    report.Note("CHECK FAILED: " + std::to_string(phase.failed) +
                " requests failed");
  }
  s.follower->StopTailing();
  const Clock::time_point start = Clock::now();
  const bool caught_up = s.CatchUp();
  const double catchup_ms = MsSince(start);
  report.Check(caught_up, "service_mix: follower reaches the leader tip");
  report.Check(s.follower->Read() == s.leader().SnapshotState(),
               "service_mix: follower equals leader after catch-up");
  bool reads_ok = true;
  for (std::size_t c = 0; c < s.clients.size(); ++c) {
    const bool reads_follower = c + 1 == s.clients.size();
    const Instance state =
        reads_follower ? s.follower->Read()
                       : s.server->store(kTenants[c % 2])->SnapshotState();
    const setrec::Database db = Must(setrec::EncodeInstance(state), "encode");
    for (const char* query : kQueries) {
      const auto expr = Must(setrec::ParseExpression(query), "query");
      const auto scratch = Must(setrec::Evaluate(expr, db), "evaluate");
      auto reply = s.clients[c]->Query(query);
      reads_ok = reads_ok && reply.ok() &&
                 reply->code == setrec::StatusCode::kOk &&
                 reply->body == RenderRelation(scratch, s.ds.schema);
    }
  }
  report.Check(reads_ok,
               "service_mix: sampled reads equal from-scratch evaluation",
               s.clients.size() * 2);
  return catchup_ms;
}

}  // namespace

void RunServiceMix(const RunOptions& options, Report& report) {
  const Sizes sizes = SizesFor(options);
  char line[220];
  std::snprintf(line, sizeof line,
                "service_mix: 2 tenants of %u drinkers/%u bars/%u beers, 1 "
                "closed-loop load thread over %zu clients (1 on the "
                "follower), fsync per write, checkpoint every %llu commits",
                sizes.drinkers.drinkers, sizes.drinkers.bars,
                sizes.drinkers.beers, kClients,
                static_cast<unsigned long long>(sizes.checkpoint_every));
  report.Note(line);

  if (!options.trace) {
    std::unique_ptr<Service> s;
    int setups = 0;
    const double setup_s = TimeSetups([&] {
      if (s != nullptr) {
        const fs::path old = s->dir;
        s.reset();
        fs::remove_all(old);
      }
      s = SetUp(options, setups++, nullptr);
    });
    Phase total;
    Samples rates;
    Recovery recovery(*s, options);
    int round = 0;
    bool sealed = false;
    Interleave(
        kRounds, options.seconds * (1.0 - kRecoveryShare),
        options.seconds * kRecoveryShare,
        [&](double seconds) {
          const Phase phase = RunLoad(options, *s, round++, seconds, nullptr);
          phase.answered.SliceRates(phase.start, 4, rates);
          total.Merge(phase);
          sealed = false;
        },
        [&] {
          if (!sealed) recovery.Seal();
          sealed = true;
          RotateCpu();
          recovery.Reopen();
          Unpin();
        });
    (void)CheckService(*s, total, report);
    recovery.Check(report);
    report.Set("setup_s", setup_s, "s");
    SetLatencyMetrics(report, "primary", "leader read (view cache)",
                      total.reads);
    SetLatencyMetrics(report, "secondary", "write (delta or update)",
                      total.writes);
    SetLatencyMetrics(report, "tertiary", "follower read (from scratch)",
                      total.replica_reads);
    report.Set("ops_s", rates.Median(), "1/s");
    std::snprintf(line, sizeof line, "service_mix: %zu reads, %zu writes, %zu "
                  "follower reads",
                  total.reads.size(), total.writes.size(),
                  total.replica_reads.size());
    report.Note(line);
    report.Set("recovery_ms", recovery.times().Median(), "ms");
    report.Set("peak_rss_mb", PeakRssMb(), "MB");
    return;
  }

  double untraced_p50 = 0.0;
  {
    std::unique_ptr<Service> s = SetUp(options, 0, nullptr);
    const Phase phase = RunLoad(options, *s, 0, options.seconds / 2, nullptr);
    (void)CheckService(*s, phase, report);
    untraced_p50 = phase.reads.Median();
  }
  SpanTracer tracer;
  setrec::MetricsRegistry metrics;
  std::unique_ptr<Service> s = SetUp(options, 1, &metrics);
  const auto& e = metrics.engine;
  const std::uint64_t hits0 = e.incremental_hits.value();
  const std::uint64_t refreshes0 = e.incremental_refreshes.value();
  const std::uint64_t fallbacks0 = e.incremental_fallbacks.value();
  const std::uint64_t fsyncs0 = e.wal_fsyncs.value();
  const std::uint64_t commits0 = e.store_commits.value();
  const Phase phase = RunLoad(options, *s, 0, options.seconds / 2, &tracer);
  const double catchup_ms = CheckService(*s, phase, report);
  SetObsMetrics(report, untraced_p50, phase.reads.Median(), tracer);
  const double hits = static_cast<double>(e.incremental_hits.value() - hits0);
  const double reads =
      hits + static_cast<double>(e.incremental_refreshes.value() - refreshes0) +
      static_cast<double>(e.incremental_fallbacks.value() - fallbacks0);
  const double fsyncs_per_commit =
      static_cast<double>(e.wal_fsyncs.value() - fsyncs0) /
      static_cast<double>(
          std::max<std::uint64_t>(1, e.store_commits.value() - commits0));
  double wait_ns = 0.0;
  double waits = 0.0;
  for (const char* tenant : kTenants) {
    const setrec::Histogram& h =
        metrics.HistogramLabeled("tenant.queue_wait_ns", "tenant", tenant);
    wait_ns += static_cast<double>(h.sum());
    waits += static_cast<double>(h.count());
  }
  const double shed =
      static_cast<double>(metrics.CounterNamed("net.shed").value());
  const double retries =
      static_cast<double>(metrics.CounterNamed("net.client.retries").value());

  // Probes run on the first tenant's generated instance, so their counts
  // repeat exactly.
  std::vector<ObjectId> hot;
  const Instance initial =
      GenerateDrinkers(s->ds, sizes.drinkers, options.seed, &hot);
  const auto add_bar = Must(setrec::MakeAddBar(s->ds), "add_bar");
  const ProbeInputs in = DrinkersProbeInputs(s->ds, initial, *add_bar,
                                             kQueries[1], options.seed + 29);
  RunLayerProbes(options, in, tracer, report);

  report.Set("incremental.hit_ratio", reads == 0.0 ? 0.0 : hits / reads,
             "ratio");
  report.Set("wal.fsyncs_per_commit", fsyncs_per_commit, "ratio");
  report.Set("net.queue_wait_us", waits == 0.0 ? 0.0 : wait_ns / waits / 1000.0,
             "us");
  report.Set("net.shed", shed, "events");
  report.Set("net.client.retries", retries, "events");
  report.Set("replica.catchup_ms", catchup_ms, "ms");
  tracer.WriteTable(report, "service_mix");
}

}  // namespace perfbench
