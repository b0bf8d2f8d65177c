#ifndef SETREC_NET_SERVER_H_
#define SETREC_NET_SERVER_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/thread_pool.h"
#include "net/frame.h"
#include "net/message.h"
#include "net/replica.h"
#include "net/slowlog.h"
#include "net/transport.h"
#include "obs/trace.h"
#include "store/durable_store.h"

namespace setrec {

/// Per-tenant service configuration. Each tenant gets its own DurableStore
/// (in a subdirectory of the server's data dir) and its own admission gate,
/// so one tenant's burst cannot starve another's commits or exhaust shared
/// memory: isolation is structural, not cooperative.
struct TenantConfig {
  std::string name;
  /// Statements admitted concurrently (the store serializes commits on its
  /// own mutex anyway; >1 mainly overlaps read-side work).
  std::size_t max_concurrency = 1;
  /// Requests allowed to *wait* for admission beyond the concurrency
  /// limit. Arrivals past this are shed immediately with a retryable
  /// kResourceExhausted response carrying a server-suggested backoff — the
  /// explicit backpressure contract, in place of an unbounded queue.
  std::size_t max_queue = 16;
  /// Deadline applied when a request does not carry its own.
  std::chrono::milliseconds default_deadline{1000};
  /// Store configuration (durability cadence, per-attempt limits, retry
  /// policy, fault injector, sinks). Used verbatim — tests wire their
  /// injectors and private recorders here — except that when
  /// `incremental_views` is on the server installs the tenant's own
  /// ViewCache as `store_options.view_cache` (the field must be left null).
  DurableStoreOptions store_options;
  /// Maintain a per-tenant incremental ViewCache: the store primes it at
  /// recovery and feeds it every durable commit, queries are served from
  /// incrementally-maintained views (falling back to from-scratch
  /// evaluation on any cache error), and updates derive their receiver sets
  /// through it. Replica-backed tenants have no cache either way — they
  /// re-evaluate against the replicated state.
  bool incremental_views = true;
  /// Slow-request capture: an update/delta/query whose total service time
  /// (admission wait + execution) reaches this threshold is appended to the
  /// tenant's bounded slowlog.jsonl (net/slowlog.h) with its trace id, an
  /// EXPLAIN ANALYZE plan and a redacted flight-recorder slice. Zero (the
  /// default) disables capture.
  std::chrono::nanoseconds slow_request_threshold{0};
  /// Byte budget of the tenant's slowlog.jsonl (0 = SlowRequestLog's 1 MiB
  /// default). The log wraps; it never grows past this.
  std::uint64_t slowlog_max_bytes = 0;
};

struct ServerOptions {
  /// Parent directory; tenant stores live in <data_dir>/<tenant>/.
  std::string data_dir;
  const Schema* schema = nullptr;
  /// Base of the backoff hint attached to shed responses; the hint grows
  /// with the queue depth at shed time, so a deeper pile-up pushes clients
  /// further away.
  std::uint64_t suggested_backoff_ms = 5;
  /// Session read timeout: also the drain latency bound — a draining
  /// session notices within one timeout.
  std::chrono::milliseconds recv_timeout{50};
  /// Network-plane fault injector for the server's endpoints (may be null;
  /// distinct from the storage injectors inside TenantConfig).
  FaultInjector* injector = nullptr;
  Tracer* tracer = nullptr;
  MetricsRegistry* metrics = nullptr;
  FlightRecorder* recorder = &FlightRecorder::Global();
  /// Sessions run on this pool (borrowed); null = the server owns a
  /// private pool of `own_pool_workers`.
  ThreadPool* pool = nullptr;
  std::size_t own_pool_workers = 4;
};

/// A blocking-I/O multi-tenant service over the durable store: each
/// accepted connection becomes a session task on the thread pool, reading
/// framed requests and answering them in order. One session serves one
/// client loop; concurrency comes from many sessions, bounded per tenant by
/// the admission gate.
///
/// Request ids within a session must be strictly increasing. The session
/// remembers its last id and the response it sent: a re-sent id (a client
/// retrying after a lost response) gets the *cached* response, not a second
/// execution — at-most-once per connection. Across reconnects the protocol
/// is at-least-once; writes that must survive that are idempotent by
/// construction (set-oriented updates converge under re-application).
///
/// Ops served: ping, update, delta, query, explain, stats on any tenant
/// (writes refused on replica-backed tenants); pull and snapshot are the
/// replication feed (net/replica.h consumes them).
class Server {
 public:
  static Result<std::unique_ptr<Server>> Create(
      ServerOptions options, std::vector<TenantConfig> tenants);
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Adopts `conn` as a new session (posted to the pool). During or after
  /// Drain() the connection is closed immediately instead.
  void Serve(ConnectionPtr conn);

  /// Registers a read-only tenant served from a follower replica instead
  /// of a local store (queries/explains run against the replicated state
  /// and report its lag; writes get kFailedPrecondition). The replica is
  /// borrowed and must outlive the server.
  Status ServeReplica(const std::string& tenant, FollowerReplica* replica);

  /// Graceful shutdown: stop accepting, shed every queued request, let
  /// in-flight statements finish, send each session a goodbye, and return
  /// once every session has exited. Idempotent.
  void Drain();

  /// The tenant's store (null for unknown or replica-backed tenants) —
  /// test and embedding access.
  DurableStore* store(const std::string& tenant);

  std::size_t active_sessions() const;
  bool draining() const;

 private:
  struct Tenant;

  Server(ServerOptions options, std::unique_ptr<ThreadPool> owned_pool);

  void SessionLoop(ConnectionPtr conn);
  /// Serves one decoded request, returning the response to send. WAL-record
  /// streaming ops (pull) write their stream through `framed` before the
  /// returned trailer is sent. `trace` is the request's family with
  /// parent_span repurposed as the *local* net/request span id — the origin
  /// recorded against commits so replication pulls can continue the family.
  Response Dispatch(const Request& request, FramedConnection& framed,
                    const TraceContext& trace);

  Response HandlePing(Tenant& tenant);
  /// The write path of update and delta: refuses replica-backed tenants,
  /// commits `statement` under RequestLimits with the request's trace id on
  /// each attempt's context, and answers with the committed sequence,
  /// recorded as that commit's trace origin.
  Response CommitWrite(Tenant& tenant, const DurableStore::Statement& statement,
                       std::chrono::steady_clock::time_point deadline,
                       const TraceContext& trace);
  Response HandleUpdate(Tenant& tenant, const Request& request,
                        std::chrono::steady_clock::time_point deadline,
                        const TraceContext& trace);
  Response HandleDelta(Tenant& tenant, const Request& request,
                       std::chrono::steady_clock::time_point deadline,
                       const TraceContext& trace);
  Response HandleQuery(Tenant& tenant, const Request& request,
                       std::chrono::steady_clock::time_point deadline,
                       const TraceContext& trace);
  Response HandleExplain(Tenant& tenant, const Request& request);
  Response HandlePull(Tenant& tenant, const Request& request,
                      FramedConnection& framed);
  Response HandleSnapshot(Tenant& tenant);
  /// Metrics export: the registry's WriteText by default, or the Prometheus
  /// exposition when the request carries `format=prometheus` — the same
  /// bytes a scrape endpoint would serve.
  Response HandleStats(const Request& request);

  /// Slow-request capture (TenantConfig::slow_request_threshold): appends
  /// one JSON line — op, trace id, latency, an EXPLAIN ANALYZE plan, the
  /// request's span subtree and a redacted flight-recorder slice — to the
  /// tenant's slowlog.
  void CaptureSlowRequest(Tenant& tenant, const Request& request,
                          const TraceContext& trace,
                          std::chrono::nanoseconds latency);

  /// Blocks until the tenant admits one more request or sheds it; OK means
  /// admitted and the caller must call Release(). The deadline bounds the
  /// queue wait.
  Response Admit(Tenant& tenant,
                 std::chrono::steady_clock::time_point deadline,
                 bool* admitted);
  void Release(Tenant& tenant);

  Tenant* FindTenant(const std::string& name);
  /// Statement limits for this request: the tenant's per-attempt budget
  /// with the timeout clamped to the request deadline's remaining time.
  ExecContext::Limits RequestLimits(
      const Tenant& tenant,
      std::chrono::steady_clock::time_point deadline) const;

  ServerOptions options_;
  std::unique_ptr<ThreadPool> owned_pool_;
  ThreadPool* pool_;

  mutable std::mutex tenants_mu_;
  std::map<std::string, std::unique_ptr<Tenant>> tenants_;

  mutable std::mutex sessions_mu_;
  std::condition_variable sessions_cv_;
  std::size_t active_sessions_ = 0;
  bool draining_ = false;
};

}  // namespace setrec

#endif  // SETREC_NET_SERVER_H_
