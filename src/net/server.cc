#include "net/server.h"

#include <algorithm>
#include <filesystem>
#include <sstream>
#include <utility>

#include "incremental/view_cache.h"
#include "obs/explain.h"
#include "obs/json_escape.h"
#include "objrel/encoding.h"
#include "relational/evaluator.h"
#include "sql/engine.h"
#include "store/wal.h"
#include "text/parser.h"
#include "text/printer.h"

namespace setrec {

namespace {

Response ErrorResponse(const Status& status) {
  Response response;
  response.code = status.code();
  response.message = SanitizeHeaderValue(status.message());
  return response;
}

Response OkResponse() { return Response{}; }

/// Renders a query result deterministically: one line per tuple in sorted
/// order, values as ClassName(index) — the same object-literal spelling the
/// text format uses, so results are directly comparable across servers.
std::string RenderRelation(const Relation& relation, const Schema& schema) {
  std::string out;
  for (const Tuple* tuple : relation.SortedTuples()) {
    for (std::size_t i = 0; i < tuple->arity(); ++i) {
      if (i != 0) out.push_back(' ');
      const ObjectId o = tuple->at(i);
      out.append(schema.class_name(o.class_id()));
      out.push_back('(');
      out.append(std::to_string(o.index()));
      out.push_back(')');
    }
    out.push_back('\n');
  }
  return out;
}

Result<std::uint64_t> ParamU64(const Request& request, const char* name,
                               std::uint64_t fallback) {
  const auto it = request.params.find(name);
  if (it == request.params.end()) return fallback;
  std::uint64_t value = 0;
  if (it->second.empty()) {
    return Status::InvalidArgument(std::string("param ") + name +
                                   ": empty number");
  }
  for (char c : it->second) {
    if (c < '0' || c > '9' || value > (~std::uint64_t{0} - 9) / 10) {
      return Status::InvalidArgument(std::string("param ") + name +
                                     ": bad number");
    }
    value = value * 10 + static_cast<std::uint64_t>(c - '0');
  }
  return value;
}

}  // namespace

/// One tenant: its store (or replica), and the admission gate. The gate is
/// the tenant's *only* shared mutable state, so the lock never nests with
/// the store's own mutex.
struct Server::Tenant {
  TenantConfig config;
  /// Created before the store so DurableStore::Open can prime it; fed by
  /// the store's post-fsync publication from then on. Null when
  /// incremental_views is off or the tenant is replica-backed.
  std::unique_ptr<ViewCache> view_cache;
  std::unique_ptr<DurableStore> store;
  FollowerReplica* replica = nullptr;

  std::mutex mu;
  std::condition_variable cv;
  std::size_t active = 0;   // guarded by mu
  std::size_t waiting = 0;  // guarded by mu

  /// Per-tenant instruments, resolved once at tenant creation (labeled
  /// series of the shared registry — see MetricsRegistry::*Labeled); all
  /// null when the server runs without metrics.
  struct Telemetry {
    Histogram* update_ns = nullptr;      // tenant.update_ns{tenant=...}
    Histogram* delta_ns = nullptr;       // tenant.delta_ns{tenant=...}
    Histogram* query_ns = nullptr;       // tenant.query_ns{tenant=...}
    Histogram* queue_wait_ns = nullptr;  // tenant.queue_wait_ns{tenant=...}
    Counter* shed = nullptr;             // tenant.shed{tenant=...}
    Counter* deadline_miss = nullptr;    // tenant.deadline_miss{tenant=...}
    Gauge* queue_depth = nullptr;        // tenant.queue_depth{tenant=...}
    Gauge* active_gauge = nullptr;       // tenant.active{tenant=...}
    /// Leader-side replication lag: newest local sequence minus the last
    /// sequence the most recent pull shipped (tenant.replication.
    /// follower_lag{tenant=...}).
    Gauge* follower_lag = nullptr;
  } telemetry;

  /// Origin of each durable commit: sequence → the request family that
  /// produced it, so HandlePull can stamp shipped WAL records with the
  /// trace that wrote them and a follower's replay joins the same family.
  /// Bounded (kCommitTraceCap, oldest evicted): replication of a
  /// checkpointed-away or evicted sequence simply ships untraced.
  struct CommitTrace {
    std::uint64_t trace_id = 0;
    std::uint64_t origin_span = 0;
  };
  std::mutex trace_mu;
  std::map<std::uint64_t, CommitTrace> commit_traces;  // guarded by trace_mu

  /// Bounded slow-request capture; null when the threshold is zero or the
  /// tenant has no local directory (replica-backed).
  std::unique_ptr<SlowRequestLog> slowlog;

  /// Stamps `response` with the (applied, leader) sequences: a replica's
  /// applied position and its leader's, or a store's last sequence as both.
  /// A replica's applied sequence is read first: its leader sequence is
  /// max(leader, applied) read later, so leader >= applied still holds, and
  /// the replicated instance is not copied.
  void StampSequences(Response& response) const {
    if (replica != nullptr) {
      response.applied_sequence = replica->applied_sequence();
      response.leader_sequence = replica->leader_sequence();
    } else if (store != nullptr) {
      response.applied_sequence = store->last_sequence();
      response.leader_sequence = response.applied_sequence;
    }
  }

  void RecordCommitTrace(std::uint64_t sequence, const TraceContext& trace) {
    static constexpr std::size_t kCommitTraceCap = 512;
    if (!trace.active() || sequence == 0) return;
    std::lock_guard<std::mutex> lock(trace_mu);
    commit_traces[sequence] = CommitTrace{trace.trace_id, trace.parent_span};
    while (commit_traces.size() > kCommitTraceCap) {
      commit_traces.erase(commit_traces.begin());
    }
  }

  void InitTelemetry(MetricsRegistry* metrics) {
    if (metrics == nullptr) return;
    const std::string& name = config.name;
    telemetry.update_ns =
        &metrics->HistogramLabeled("tenant.update_ns", "tenant", name);
    telemetry.delta_ns =
        &metrics->HistogramLabeled("tenant.delta_ns", "tenant", name);
    telemetry.query_ns =
        &metrics->HistogramLabeled("tenant.query_ns", "tenant", name);
    telemetry.queue_wait_ns =
        &metrics->HistogramLabeled("tenant.queue_wait_ns", "tenant", name);
    telemetry.shed = &metrics->CounterLabeled("tenant.shed", "tenant", name);
    telemetry.deadline_miss =
        &metrics->CounterLabeled("tenant.deadline_miss", "tenant", name);
    telemetry.queue_depth =
        &metrics->GaugeLabeled("tenant.queue_depth", "tenant", name);
    telemetry.active_gauge =
        &metrics->GaugeLabeled("tenant.active", "tenant", name);
    telemetry.follower_lag = &metrics->GaugeLabeled(
        "tenant.replication.follower_lag", "tenant", name);
  }
};

Server::Server(ServerOptions options, std::unique_ptr<ThreadPool> owned_pool)
    : options_(std::move(options)),
      owned_pool_(std::move(owned_pool)),
      pool_(options_.pool != nullptr ? options_.pool : owned_pool_.get()) {}

Server::~Server() { Drain(); }

Result<std::unique_ptr<Server>> Server::Create(
    ServerOptions options, std::vector<TenantConfig> tenants) {
  if (options.schema == nullptr) {
    return Status::InvalidArgument("server: schema is required");
  }
  std::unique_ptr<ThreadPool> owned;
  if (options.pool == nullptr) {
    owned = std::make_unique<ThreadPool>(
        std::max<std::size_t>(1, options.own_pool_workers));
  }
  std::unique_ptr<Server> server(
      new Server(std::move(options), std::move(owned)));
  for (TenantConfig& config : tenants) {
    if (config.name.empty()) {
      return Status::InvalidArgument("server: tenant name must not be empty");
    }
    auto tenant = std::make_unique<Tenant>();
    const std::string dir =
        (std::filesystem::path(server->options_.data_dir) / config.name)
            .string();
    tenant->config = std::move(config);
    // The store inherits the server's sinks unless the config wired its
    // own: store/commit and wal/fsync spans then land on the *same* tracer
    // as the session's net/request span, joining the request's family.
    if (tenant->config.store_options.tracer == nullptr) {
      tenant->config.store_options.tracer = server->options_.tracer;
    }
    if (tenant->config.store_options.metrics == nullptr) {
      tenant->config.store_options.metrics = server->options_.metrics;
    }
    if (tenant->config.incremental_views) {
      if (tenant->config.store_options.view_cache != nullptr) {
        return Status::InvalidArgument(
            "server: store_options.view_cache is server-managed; leave null");
      }
      ViewCacheOptions cache_options;
      cache_options.metrics = server->options_.metrics;
      cache_options.tracer = server->options_.tracer;
      tenant->view_cache = std::make_unique<ViewCache>(
          server->options_.schema, cache_options);
      tenant->config.store_options.view_cache = tenant->view_cache.get();
    }
    SETREC_ASSIGN_OR_RETURN(
        tenant->store,
        DurableStore::Open(dir, server->options_.schema,
                           tenant->config.store_options));
    tenant->InitTelemetry(server->options_.metrics);
    if (tenant->config.slow_request_threshold >
        std::chrono::nanoseconds::zero()) {
      tenant->slowlog = std::make_unique<SlowRequestLog>(
          (std::filesystem::path(dir) / "slowlog.jsonl").string(),
          tenant->config.slowlog_max_bytes);
    }
    const std::string name = tenant->config.name;
    server->tenants_.emplace(name, std::move(tenant));
  }
  return server;
}

Status Server::ServeReplica(const std::string& tenant_name,
                            FollowerReplica* replica) {
  if (replica == nullptr) {
    return Status::InvalidArgument("server: replica must not be null");
  }
  std::lock_guard<std::mutex> lock(tenants_mu_);
  auto [it, inserted] =
      tenants_.emplace(tenant_name, std::make_unique<Tenant>());
  if (!inserted) {
    return Status::AlreadyExists("server: tenant '" + tenant_name +
                                 "' already exists");
  }
  it->second->config.name = tenant_name;
  it->second->replica = replica;
  it->second->InitTelemetry(options_.metrics);
  return Status::OK();
}

Server::Tenant* Server::FindTenant(const std::string& name) {
  std::lock_guard<std::mutex> lock(tenants_mu_);
  const auto it = tenants_.find(name);
  return it == tenants_.end() ? nullptr : it->second.get();
}

DurableStore* Server::store(const std::string& tenant) {
  Tenant* t = FindTenant(tenant);
  return t == nullptr ? nullptr : t->store.get();
}

std::size_t Server::active_sessions() const {
  std::lock_guard<std::mutex> lock(sessions_mu_);
  return active_sessions_;
}

bool Server::draining() const {
  std::lock_guard<std::mutex> lock(sessions_mu_);
  return draining_;
}

void Server::Serve(ConnectionPtr conn) {
  {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    if (draining_) {
      conn->Close();
      return;
    }
    ++active_sessions_;
  }
  if (options_.metrics != nullptr) {
    options_.metrics->GaugeNamed("net.sessions").Add(1);
  }
  // std::function requires a copyable closure; the shared_ptr wrapper
  // carries the unique_ptr until the task runs and takes sole ownership.
  auto holder = std::make_shared<ConnectionPtr>(std::move(conn));
  pool_->Post([this, holder] { SessionLoop(std::move(*holder)); });
}

void Server::Drain() {
  {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    if (draining_) {
      // Already draining: still wait for stragglers below.
    }
    draining_ = true;
  }
  // Wake every queued request so it sheds instead of waiting out its
  // deadline against a server that will never admit it.
  {
    std::lock_guard<std::mutex> lock(tenants_mu_);
    for (auto& [name, tenant] : tenants_) {
      std::lock_guard<std::mutex> tenant_lock(tenant->mu);
      tenant->cv.notify_all();
    }
  }
  std::unique_lock<std::mutex> lock(sessions_mu_);
  sessions_cv_.wait(lock, [this] { return active_sessions_ == 0; });
}

void Server::SessionLoop(ConnectionPtr conn) {
  TraceSpan session_span(options_.tracer, "net/session");
  FramedConnection framed(std::move(conn), options_.injector,
                          options_.metrics);
  std::uint64_t last_id = 0;
  bool has_cached = false;
  Frame cached_response;

  for (;;) {
    Result<Frame> in = framed.RecvFrame(options_.recv_timeout);
    if (!in.ok()) {
      if (in.status().code() == StatusCode::kDeadlineExceeded) {
        if (!draining()) continue;  // idle tick; keep serving
        Frame goodbye;
        goodbye.type = FrameType::kGoodbye;
        (void)framed.SendFrame(goodbye);
        break;
      }
      if (in.status().code() == StatusCode::kCorruptedLog) {
        if (options_.metrics != nullptr) {
          options_.metrics->CounterNamed("net.protocol_errors").Add(1);
        }
        if (options_.recorder != nullptr) {
          options_.recorder->Record(
              FlightRecorder::EventKind::kStatus, "net/session-corrupt",
              static_cast<std::uint64_t>(in.status().code()), last_id,
              in.status().message());
        }
      }
      break;  // peer closed, injected disconnect, or poisoned stream
    }
    if (in->type == FrameType::kGoodbye) break;
    if (in->type != FrameType::kRequest) {
      if (options_.metrics != nullptr) {
        options_.metrics->CounterNamed("net.protocol_errors").Add(1);
      }
      break;
    }
    // At-most-once per connection: a replayed id gets the cached response
    // (the client retried because our response was lost), a *regressing*
    // id is a protocol violation.
    if (in->request_id == last_id && has_cached) {
      if (!framed.SendFrame(cached_response).ok()) break;
      continue;
    }
    if (in->request_id <= last_id) {
      Frame reply;
      reply.type = FrameType::kResponse;
      reply.request_id = in->request_id;
      reply.payload = EncodeResponse(ErrorResponse(Status::InvalidArgument(
          "request id went backwards; ids must increase per session")));
      (void)framed.SendFrame(reply);
      if (options_.metrics != nullptr) {
        options_.metrics->CounterNamed("net.protocol_errors").Add(1);
      }
      break;
    }

    // Adopt the frame's trace context for this request: while installed,
    // every span this thread opens joins the client's family (the request
    // runs start to finish on this session thread), and the request span
    // records the client-side span as its remote parent. Untraced frames
    // install nothing.
    const TraceContext wire_trace{in->trace_id, in->trace_parent,
                                  in->sampled};
    ScopedTraceContext trace_scope(options_.tracer, wire_trace);
    TraceSpan request_span(options_.tracer, "net/request");
    // Downstream the family travels with the *local* request span as
    // parent: commits record it as their origin, replication continues it.
    const TraceContext trace{in->trace_id, request_span.id(), in->sampled};
    const auto started = std::chrono::steady_clock::now();
    Response response;
    Result<Request> request = DecodeRequest(in->payload);
    if (!request.ok()) {
      if (options_.metrics != nullptr) {
        options_.metrics->CounterNamed("net.protocol_errors").Add(1);
      }
      response = ErrorResponse(request.status());
    } else {
      if (options_.recorder != nullptr) {
        options_.recorder->Record(FlightRecorder::EventKind::kNote,
                                  "net/request", in->request_id, 0,
                                  request->op);
      }
      response = Dispatch(*request, framed, trace);
    }
    if (options_.metrics != nullptr) {
      options_.metrics->CounterNamed("net.requests").Add(1);
      options_.metrics->HistogramNamed("net.request_ns")
          .Observe(static_cast<std::uint64_t>(
              std::chrono::duration_cast<std::chrono::nanoseconds>(
                  std::chrono::steady_clock::now() - started)
                  .count()));
    }
    Frame reply;
    reply.type = FrameType::kResponse;
    reply.request_id = in->request_id;
    reply.payload = EncodeResponse(response);
    last_id = in->request_id;
    cached_response = reply;
    has_cached = true;
    // End (and flush) the request span *before* the reply leaves: once the
    // client observes the response, every server-side span of the family is
    // visible in the tracer — readers never see a half-recorded family.
    // The send itself is framing I/O, not request work.
    request_span.End();
    if (!framed.SendFrame(reply).ok()) break;
  }

  framed.Close();
  if (options_.metrics != nullptr) {
    options_.metrics->GaugeNamed("net.sessions").Add(-1);
  }
  {
    // Notify under the mutex: a Drain()er woken by the final decrement may
    // destroy this cv the instant it can re-acquire the lock, so the
    // broadcast must complete before we release it.
    std::lock_guard<std::mutex> lock(sessions_mu_);
    --active_sessions_;
    sessions_cv_.notify_all();
  }
}

Response Server::Dispatch(const Request& request, FramedConnection& framed,
                          const TraceContext& trace) {
  if (request.op == "stats") return HandleStats(request);
  Tenant* tenant = FindTenant(request.tenant);
  if (tenant == nullptr) {
    return ErrorResponse(
        Status::NotFound("unknown tenant '" +
                         SanitizeHeaderValue(request.tenant) + "'"));
  }
  const std::chrono::milliseconds allowance =
      request.deadline_ms != 0
          ? std::chrono::milliseconds(request.deadline_ms)
          : tenant->config.default_deadline;
  const auto deadline = std::chrono::steady_clock::now() + allowance;

  if (request.op == "ping") return HandlePing(*tenant);
  if (request.op == "pull") return HandlePull(*tenant, request, framed);
  if (request.op == "snapshot") return HandleSnapshot(*tenant);
  if (request.op == "explain") return HandleExplain(*tenant, request);

  if (request.op == "update" || request.op == "delta" ||
      request.op == "query") {
    const auto started = std::chrono::steady_clock::now();
    bool admitted = false;
    Response gate = Admit(*tenant, deadline, &admitted);
    if (!admitted) {
      if (gate.code == StatusCode::kDeadlineExceeded &&
          tenant->telemetry.deadline_miss != nullptr) {
        tenant->telemetry.deadline_miss->Add(1);
      }
      return gate;
    }
    Response response;
    {
      TraceSpan span(options_.tracer, "net/execute");
      if (request.op == "update") {
        response = HandleUpdate(*tenant, request, deadline, trace);
      } else if (request.op == "delta") {
        response = HandleDelta(*tenant, request, deadline, trace);
      } else {
        response = HandleQuery(*tenant, request, deadline);
      }
    }
    Release(*tenant);
    const auto latency = std::chrono::duration_cast<std::chrono::nanoseconds>(
        std::chrono::steady_clock::now() - started);
    Tenant::Telemetry& t = tenant->telemetry;
    Histogram* op_ns = request.op == "update"  ? t.update_ns
                       : request.op == "delta" ? t.delta_ns
                                               : t.query_ns;
    if (op_ns != nullptr) {
      op_ns->Observe(static_cast<std::uint64_t>(latency.count()));
    }
    if (response.code == StatusCode::kDeadlineExceeded &&
        t.deadline_miss != nullptr) {
      t.deadline_miss->Add(1);
    }
    if (tenant->slowlog != nullptr &&
        latency >= tenant->config.slow_request_threshold) {
      CaptureSlowRequest(*tenant, request, trace, latency);
    }
    return response;
  }
  return ErrorResponse(Status::Unimplemented(
      "unknown op '" + SanitizeHeaderValue(request.op) + "'"));
}

Response Server::Admit(Tenant& tenant,
                       std::chrono::steady_clock::time_point deadline,
                       bool* admitted) {
  TraceSpan span(options_.tracer, "net/admission");
  Tenant::Telemetry& t = tenant.telemetry;
  const auto arrived = std::chrono::steady_clock::now();
  const auto observe_wait = [&] {
    if (t.queue_wait_ns != nullptr) {
      t.queue_wait_ns->Observe(static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - arrived)
              .count()));
    }
  };
  *admitted = false;
  const auto shed = [&](std::size_t queue_depth) {
    if (options_.metrics != nullptr) {
      options_.metrics->CounterNamed("net.shed").Add(1);
    }
    if (t.shed != nullptr) t.shed->Add(1);
    observe_wait();
    Response response = ErrorResponse(Status::ResourceExhausted(
        "tenant '" + tenant.config.name + "' is saturated"));
    // The hint grows with the pile-up: the deeper the queue at shed time,
    // the further away clients are pushed.
    response.retry_after_ms =
        options_.suggested_backoff_ms * (1 + queue_depth);
    return response;
  };
  const auto admit = [&] {
    ++tenant.active;
    if (t.active_gauge != nullptr) {
      t.active_gauge->Set(static_cast<std::int64_t>(tenant.active));
    }
    observe_wait();
    *admitted = true;
    return OkResponse();
  };
  const auto set_depth = [&] {
    if (t.queue_depth != nullptr) {
      t.queue_depth->Set(static_cast<std::int64_t>(tenant.waiting));
    }
  };

  std::unique_lock<std::mutex> lock(tenant.mu);
  if (draining()) return shed(tenant.waiting);
  if (tenant.active < tenant.config.max_concurrency) return admit();
  if (tenant.waiting >= tenant.config.max_queue) return shed(tenant.waiting);
  ++tenant.waiting;
  set_depth();
  while (tenant.active >= tenant.config.max_concurrency) {
    if (tenant.cv.wait_until(lock, deadline) == std::cv_status::timeout) {
      --tenant.waiting;
      set_depth();
      observe_wait();
      return ErrorResponse(Status::DeadlineExceeded(
          "deadline expired in tenant '" + tenant.config.name +
          "' admission queue"));
    }
    if (draining()) {
      --tenant.waiting;
      set_depth();
      return shed(tenant.waiting);
    }
  }
  --tenant.waiting;
  set_depth();
  return admit();
}

void Server::Release(Tenant& tenant) {
  {
    std::lock_guard<std::mutex> lock(tenant.mu);
    --tenant.active;
    if (tenant.telemetry.active_gauge != nullptr) {
      tenant.telemetry.active_gauge->Set(
          static_cast<std::int64_t>(tenant.active));
    }
  }
  tenant.cv.notify_one();
}

ExecContext::Limits Server::RequestLimits(
    const Tenant& tenant,
    std::chrono::steady_clock::time_point deadline) const {
  ExecContext::Limits limits = tenant.config.store_options.limits;
  const auto now = std::chrono::steady_clock::now();
  const auto remaining =
      deadline > now
          ? std::chrono::duration_cast<std::chrono::nanoseconds>(deadline -
                                                                 now)
          : std::chrono::nanoseconds(1);
  // The statement's clock allowance is the *smaller* of the tenant budget
  // and what is left of the request deadline (queue time already spent
  // counts against the client's allowance).
  if (limits.timeout == std::chrono::nanoseconds::zero() ||
      limits.timeout > remaining) {
    limits.timeout = remaining;
  }
  return limits;
}

Response Server::HandlePing(Tenant& tenant) {
  Response response = OkResponse();
  tenant.StampSequences(response);
  return response;
}

Response Server::CommitWrite(Tenant& tenant,
                             const DurableStore::Statement& statement,
                             std::chrono::steady_clock::time_point deadline,
                             const TraceContext& trace) {
  if (tenant.store == nullptr) {
    return ErrorResponse(Status::FailedPrecondition(
        "tenant '" + tenant.config.name + "' is a read-only replica"));
  }
  Status committed =
      tenant.store->Commit(statement, RequestLimits(tenant, deadline));
  if (!committed.ok()) return ErrorResponse(committed);
  Response response = OkResponse();
  tenant.StampSequences(response);
  tenant.RecordCommitTrace(response.applied_sequence, trace);
  return response;
}

Response Server::HandleUpdate(
    Tenant& tenant, const Request& request,
    std::chrono::steady_clock::time_point deadline,
    const TraceContext& trace) {
  const auto property_it = request.params.find("property");
  if (property_it == request.params.end()) {
    return ErrorResponse(
        Status::InvalidArgument("update: missing 'property' param"));
  }
  Result<PropertyId> property =
      options_.schema->FindProperty(property_it->second);
  if (!property.ok()) return ErrorResponse(property.status());
  Result<ExprPtr> query = ParseExpression(request.body);
  if (!query.ok()) return ErrorResponse(query.status());
  return CommitWrite(
      tenant,
      [&](Instance& instance, ExecContext& ctx, const CommitHook& hook) {
        // The cache serves phase one (the receiver set); the store
        // publishes the delta to it once the commit is durable.
        return SetOrientedUpdateInPlace(
            instance, *property, *query,
            {.ctx = &ctx,
             .commit_hook = hook,
             .view_cache = tenant.view_cache.get()});
      },
      deadline, trace);
}

Response Server::HandleDelta(Tenant& tenant, const Request& request,
                             std::chrono::steady_clock::time_point deadline,
                             const TraceContext& trace) {
  Result<InstanceDelta> delta = ParseDelta(request.body, options_.schema);
  if (!delta.ok()) return ErrorResponse(delta.status());
  return CommitWrite(
      tenant,
      [&](Instance& instance, ExecContext& ctx, const CommitHook& hook) {
        SETREC_RETURN_IF_ERROR(ctx.CheckPoint("net/apply-delta"));
        return RunJournaled(
            instance, [&] { return ApplyDelta(instance, *delta); }, hook);
      },
      deadline, trace);
}

Response Server::HandleQuery(Tenant& tenant, const Request& request,
                             std::chrono::steady_clock::time_point deadline) {
  Result<ExprPtr> query = ParseExpression(request.body);
  if (!query.ok()) return ErrorResponse(query.status());

  ExecContext ctx(RequestLimits(tenant, deadline));
  ctx.set_fault_injector(tenant.config.store_options.injector);
  ctx.set_tracer(options_.tracer);
  ctx.set_metrics(options_.metrics);
  ctx.set_recorder(options_.recorder);

  std::uint64_t applied = 0;
  std::uint64_t leader = 0;
  if (tenant.view_cache != nullptr && tenant.store != nullptr) {
    // Leader fast path: answer from the incrementally-maintained view,
    // governed by the same request context as from-scratch evaluation. The
    // sequence is read *before* the view, so a commit racing the read can
    // only make the response understate its own freshness. A governance
    // stop (deadline, budget, cancellation) is the request's final answer;
    // any other cache error (unprimed after a fault, unsupported
    // expression) falls through to from-scratch evaluation below.
    applied = tenant.store->last_sequence();
    Result<std::shared_ptr<const Relation>> view =
        tenant.view_cache->Query(*query, &ctx);
    if (view.ok()) {
      Response response = OkResponse();
      response.body = RenderRelation(**view, *options_.schema);
      response.applied_sequence = applied;
      response.leader_sequence = applied;
      return response;
    }
    if (IsGovernanceError(view.status())) return ErrorResponse(view.status());
  }
  Instance state(options_.schema);
  if (tenant.replica != nullptr) {
    state = tenant.replica->Read(&applied, &leader);
  } else if (tenant.store != nullptr) {
    state = tenant.store->SnapshotState(&applied);
    leader = applied;
  } else {
    return ErrorResponse(Status::Internal("tenant has no backing state"));
  }
  Result<Database> database = EncodeInstance(state);
  if (!database.ok()) return ErrorResponse(database.status());

  Result<Relation> result = Evaluate(*query, *database, {.ctx = &ctx});
  if (!result.ok()) return ErrorResponse(result.status());

  Response response = OkResponse();
  response.body = RenderRelation(*result, *options_.schema);
  response.applied_sequence = applied;
  response.leader_sequence = leader;
  return response;
}

Response Server::HandleExplain(Tenant& tenant, const Request& request) {
  Result<ExprPtr> query = ParseExpression(request.body);
  if (!query.ok()) return ErrorResponse(query.status());
  Result<Catalog> catalog = EncodeCatalog(*options_.schema);
  if (!catalog.ok()) return ErrorResponse(catalog.status());
  Result<ExplainPlan> plan = ExplainExpression(*query, *catalog);
  if (!plan.ok()) return ErrorResponse(plan.status());
  Response response = OkResponse();
  response.body = plan->ToText();
  tenant.StampSequences(response);
  return response;
}

Response Server::HandlePull(Tenant& tenant, const Request& request,
                            FramedConnection& framed) {
  TraceSpan span(options_.tracer, "net/pull");
  if (tenant.store == nullptr) {
    return ErrorResponse(Status::FailedPrecondition(
        "tenant '" + tenant.config.name +
        "' cannot serve replication (not a leader)"));
  }
  Result<std::uint64_t> from = ParamU64(request, "from", 1);
  if (!from.ok()) return ErrorResponse(from.status());
  Result<std::uint64_t> max_records = ParamU64(request, "max", 256);
  if (!max_records.ok()) return ErrorResponse(max_records.status());

  // Read the leader's own WAL — the replication stream IS the recovery
  // log, bit for bit. Reading a prefix while commits append is safe: a
  // concurrently half-written tail parses as torn and simply isn't
  // shipped this round.
  const std::string wal_path =
      (std::filesystem::path(tenant.store->dir()) / "wal.log").string();
  Result<WalReplay> replay = ReadWal(wal_path);
  if (!replay.ok()) return ErrorResponse(replay.status());
  const std::uint64_t leader_sequence = tenant.store->last_sequence();

  const std::uint64_t first_available =
      replay->records.empty() ? leader_sequence + 1
                              : replay->records.front().sequence;
  if (*from < first_available && *from <= leader_sequence) {
    // The follower's position was checkpointed away: its next record no
    // longer exists in the log. Only the snapshot can bridge the gap.
    Response response = ErrorResponse(Status::NotFound(
        "log history starts at sequence " +
        std::to_string(first_available) + "; resync from snapshot"));
    response.leader_sequence = leader_sequence;
    return response;
  }

  std::uint64_t shipped = 0;
  std::uint64_t last_shipped = 0;
  for (const WalRecord& record : replay->records) {
    if (record.sequence < *from) continue;
    if (shipped >= *max_records) break;
    Frame frame;
    frame.type = FrameType::kWalRecord;
    frame.request_id = record.sequence;
    frame.payload = record.payload;
    // Stamp the record with the family that committed it (if still in the
    // bounded origin map), so the follower's replay span joins the same
    // trace as the client call that wrote this sequence.
    {
      std::lock_guard<std::mutex> trace_lock(tenant.trace_mu);
      const auto origin = tenant.commit_traces.find(record.sequence);
      if (origin != tenant.commit_traces.end()) {
        frame.trace_id = origin->second.trace_id;
        frame.trace_parent = origin->second.origin_span;
        frame.sampled = true;
      }
    }
    Status sent = framed.SendFrame(frame);
    if (!sent.ok()) return ErrorResponse(sent);
    ++shipped;
    last_shipped = record.sequence;
    if (options_.metrics != nullptr) {
      options_.metrics->CounterNamed("net.replication.records_shipped")
          .Add(1);
    }
  }
  // Leader-side lag: how far the puller will still trail after this batch.
  if (tenant.telemetry.follower_lag != nullptr) {
    const std::uint64_t caught_up_to =
        last_shipped != 0 ? last_shipped : (*from > 0 ? *from - 1 : 0);
    tenant.telemetry.follower_lag->Set(
        leader_sequence > caught_up_to
            ? static_cast<std::int64_t>(leader_sequence - caught_up_to)
            : 0);
  }
  Response response = OkResponse();
  response.applied_sequence = last_shipped;
  response.leader_sequence = leader_sequence;
  return response;
}

Response Server::HandleSnapshot(Tenant& tenant) {
  TraceSpan span(options_.tracer, "net/snapshot");
  if (tenant.store == nullptr) {
    return ErrorResponse(Status::FailedPrecondition(
        "tenant '" + tenant.config.name +
        "' cannot serve snapshots (not a leader)"));
  }
  std::uint64_t sequence = 0;
  const Instance state = tenant.store->SnapshotState(&sequence);
  Response response = OkResponse();
  response.body =
      "sequence " + std::to_string(sequence) + "\n" + InstanceToText(state);
  response.applied_sequence = sequence;
  response.leader_sequence = sequence;
  return response;
}

Response Server::HandleStats(const Request& request) {
  Response response = OkResponse();
  if (options_.metrics != nullptr) {
    const auto format = request.params.find("format");
    std::ostringstream out;
    if (format != request.params.end() && format->second == "prometheus") {
      options_.metrics->WritePrometheus(out);
    } else {
      options_.metrics->WriteText(out);
    }
    response.body = out.str();
  }
  return response;
}

void Server::CaptureSlowRequest(Tenant& tenant, const Request& request,
                                const TraceContext& trace,
                                std::chrono::nanoseconds latency) {
  TraceSpan span(options_.tracer, "net/slowlog");
  std::ostringstream entry;
  entry << "{\"tenant\":" << JsonQuoted(tenant.config.name)
        << ",\"op\":" << JsonQuoted(request.op)
        << ",\"trace_id\":" << trace.trace_id
        << ",\"latency_ns\":" << latency.count() << ",\"threshold_ns\":"
        << tenant.config.slow_request_threshold.count();

  // EXPLAIN ANALYZE against a fresh snapshot, bounded by the tenant's own
  // per-attempt limits so a pathological request cannot hold the capture
  // path hostage. The re-run is not the request's execution — it is the
  // best reconstruction available after the fact (plans are stable for a
  // fixed state).
  entry << ",\"plan\":";
  Result<ExplainPlan> plan = [&]() -> Result<ExplainPlan> {
    if (tenant.store == nullptr) {
      return Status::FailedPrecondition("no local store");
    }
    ExecContext ctx(tenant.config.store_options.limits);
    ExecOptions exec;
    exec.ctx = &ctx;
    std::uint64_t sequence = 0;
    const Instance state = tenant.store->SnapshotState(&sequence);
    if (request.op == "query") {
      SETREC_ASSIGN_OR_RETURN(ExprPtr expr, ParseExpression(request.body));
      SETREC_ASSIGN_OR_RETURN(Database database, EncodeInstance(state));
      return ExplainExpressionAnalyze(expr, database, exec);
    }
    if (request.op == "update") {
      const auto property_it = request.params.find("property");
      if (property_it == request.params.end()) {
        return Status::InvalidArgument("missing property");
      }
      SETREC_ASSIGN_OR_RETURN(PropertyId property,
                              options_.schema->FindProperty(
                                  property_it->second));
      SETREC_ASSIGN_OR_RETURN(ExprPtr expr, ParseExpression(request.body));
      return ExplainSetOrientedUpdate(state, property, expr,
                                      /*analyze=*/true, exec);
    }
    return Status::Unimplemented("no plan for op '" + request.op + "'");
  }();
  if (plan.ok()) {
    entry << plan->ToJson();
  } else {
    entry << "null,\"plan_error\":"
          << JsonQuoted(plan.status().message());
  }

  // The request's span subtree (events of its family recorded so far).
  entry << ",\"spans\":[";
  if (options_.tracer != nullptr && trace.active()) {
    constexpr std::size_t kMaxSpans = 64;
    std::size_t written = 0;
    for (const SpanEvent& e : options_.tracer->Events()) {
      if (e.trace_id != trace.trace_id) continue;
      if (written >= kMaxSpans) break;
      if (written != 0) entry << ",";
      entry << "{\"name\":" << JsonQuoted(e.name) << ",\"id\":" << e.id
            << ",\"parent\":" << e.parent
            << ",\"remote_parent\":" << e.remote_parent
            << ",\"dur_ns\":" << e.dur_ns << "}";
      ++written;
    }
  }
  entry << "]";

  // Redacted flight-recorder slice: the recorder's own dump redacts the
  // free-form detail payloads (hash+length), so no user bytes leak into
  // the slow log. Keep only the most recent lines.
  entry << ",\"flight\":[";
  if (options_.recorder != nullptr) {
    std::ostringstream dump;
    FlightRecorder::DumpOptions dump_options;
    dump_options.reason = "slow-request";
    dump_options.redact_details = true;
    options_.recorder->Dump(dump, dump_options);
    std::vector<std::string> lines;
    std::string line;
    std::istringstream in(dump.str());
    while (std::getline(in, line)) lines.push_back(line);
    constexpr std::size_t kFlightLines = 16;
    const std::size_t first =
        lines.size() > kFlightLines ? lines.size() - kFlightLines : 0;
    for (std::size_t i = first; i < lines.size(); ++i) {
      if (i != first) entry << ",";
      // Dump lines are themselves JSON objects; embed them verbatim.
      entry << lines[i];
    }
  }
  entry << "]}";

  Status appended = tenant.slowlog->Append(entry.str());
  if (!appended.ok() && options_.recorder != nullptr) {
    options_.recorder->Record(FlightRecorder::EventKind::kStatus,
                              "net/slowlog-append",
                              static_cast<std::uint64_t>(appended.code()), 0,
                              appended.message());
  }
  if (options_.metrics != nullptr) {
    options_.metrics->CounterLabeled("tenant.slow_requests", "tenant",
                                     tenant.config.name)
        .Add(1);
  }
}

}  // namespace setrec
