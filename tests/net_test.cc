// Tests for the network service (net/): the checksummed frame codec, the
// hardened message codec, the multi-tenant blocking-I/O server with
// admission control, the retrying client, WAL-shipping replication with
// snapshot resync, and read failover. The acceptance core mirrors the
// store's recovery matrix: every network fault mode (drop, duplicate,
// truncate, delay, disconnect) injected at each of the first frames of a
// conversation must leave the service consistent — a governed retry either
// completes the call or surfaces a typed, retryable error, and never
// executes a deduplicated statement twice on one session.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "core/fault_injection.h"
#include "core/instance.h"
#include "core/schema.h"
#include "core/status.h"
#include "net/client.h"
#include "net/frame.h"
#include "net/message.h"
#include "net/replica.h"
#include "net/server.h"
#include "net/tcp.h"
#include "net/transport.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "store/durable_store.h"
#include "text/printer.h"

namespace setrec {
namespace {

using std::chrono::milliseconds;

std::string MakeTempDir(const std::string& tag) {
  const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "setrec_net_test" /
      (std::string(info->test_suite_name()) + "." + info->name() + "." + tag);
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir.string();
}

// -- Transport ---------------------------------------------------------------

TEST(TransportTest, PairDeliversBytesInOrderAndEofOnClose) {
  auto [left, right] = CreateInProcessPair();
  ASSERT_TRUE(left->Send("hello ").ok());
  ASSERT_TRUE(left->Send("world").ok());
  std::string got;
  while (got.size() < 11) {
    Result<std::size_t> n = right->Recv(64, milliseconds(200), &got);
    ASSERT_TRUE(n.ok()) << n.status().ToString();
    ASSERT_GT(*n, 0u);
  }
  EXPECT_EQ(got, "hello world");
  left->Close();
  Result<std::size_t> eof = right->Recv(64, milliseconds(200), &got);
  ASSERT_TRUE(eof.ok());
  EXPECT_EQ(*eof, 0u);  // clean EOF
}

TEST(TransportTest, RecvTimesOutAndCrossThreadCloseWakesIt) {
  auto [left, right] = CreateInProcessPair();
  std::string out;
  EXPECT_EQ(right->Recv(8, milliseconds(10), &out).status().code(),
            StatusCode::kDeadlineExceeded);

  std::thread closer([&conn = *right] {
    std::this_thread::sleep_for(milliseconds(20));
    conn.Close();
  });
  // A long blocking read must wake when the connection is closed from a
  // different thread — the drain path depends on this.
  const Status woken =
      right->Recv(8, milliseconds(10'000), &out).status();
  closer.join();
  EXPECT_EQ(woken.code(), StatusCode::kFailedPrecondition);
  (void)left;
}

// -- Frame codec -------------------------------------------------------------

/// Sends `frame` through a fresh pair and returns its raw wire bytes.
std::string WireBytes(const Frame& frame) {
  auto [a, b] = CreateInProcessPair();
  FramedConnection sender(std::move(a));
  EXPECT_TRUE(sender.SendFrame(frame).ok());
  std::string bytes;
  while (true) {
    Result<std::size_t> n = b->Recv(1 << 16, milliseconds(10), &bytes);
    if (!n.ok() || *n == 0) break;
  }
  return bytes;
}

Frame PingFrame() {
  Frame f;
  f.type = FrameType::kRequest;
  f.request_id = 42;
  f.payload = "op ping\nbody 0\n";
  return f;
}

TEST(FrameTest, RoundTripsTypeIdAndPayload) {
  auto [a, b] = CreateInProcessPair();
  FramedConnection left(std::move(a));
  FramedConnection right(std::move(b));
  Frame f;
  f.type = FrameType::kWalRecord;
  f.request_id = 7;
  f.payload = std::string("\x00\x01\xff payload", 11);
  ASSERT_TRUE(left.SendFrame(f).ok());
  Result<Frame> got = right.RecvFrame(milliseconds(200));
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(got->type, FrameType::kWalRecord);
  EXPECT_EQ(got->request_id, 7u);
  EXPECT_EQ(got->payload, f.payload);
}

TEST(FrameTest, EveryTruncationOfAFrameIsCorruptionNeverAHangOrCrash) {
  const std::string bytes = WireBytes(PingFrame());
  ASSERT_GT(bytes.size(), 24u);
  for (std::size_t cut = 1; cut < bytes.size(); ++cut) {
    auto [a, b] = CreateInProcessPair();
    ASSERT_TRUE(a->Send(bytes.substr(0, cut)).ok());
    a->Close();  // the rest of the frame never arrives
    FramedConnection receiver(std::move(b));
    const Status status = receiver.RecvFrame(milliseconds(200)).status();
    EXPECT_EQ(status.code(), StatusCode::kCorruptedLog) << "cut " << cut;
  }
}

TEST(FrameTest, EverySingleByteFlipIsDetected) {
  const std::string bytes = WireBytes(PingFrame());
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    std::string flipped = bytes;
    flipped[i] ^= 0x01;
    auto [a, b] = CreateInProcessPair();
    ASSERT_TRUE(a->Send(flipped).ok());
    a->Close();
    FramedConnection receiver(std::move(b));
    Result<Frame> got = receiver.RecvFrame(milliseconds(200));
    // A flip in the length field may manifest as a short read (mid-frame
    // close) instead of a CRC mismatch, but it must never decode cleanly.
    EXPECT_FALSE(got.ok()) << "flip at byte " << i;
    EXPECT_EQ(got.status().code(), StatusCode::kCorruptedLog)
        << "flip at byte " << i;
  }
}

TEST(FrameTest, TraceContextRoundTripsInTheFrameHeader) {
  auto [a, b] = CreateInProcessPair();
  FramedConnection left(std::move(a));
  FramedConnection right(std::move(b));
  Frame f = PingFrame();
  f.trace_id = 0x0123456789abcdefull;
  f.trace_parent = 0xfedcba9876543210ull;
  f.sampled = true;
  ASSERT_TRUE(left.SendFrame(f).ok());
  Result<Frame> got = right.RecvFrame(milliseconds(200));
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(got->trace_id, f.trace_id);
  EXPECT_EQ(got->trace_parent, f.trace_parent);
  EXPECT_TRUE(got->sampled);
  // The trace block is stripped before the payload is handed up.
  EXPECT_EQ(got->payload, f.payload);
}

TEST(FrameTest, UntracedFramesAreByteIdenticalToThePreTraceFormat) {
  // An untraced frame must carry zero extra bytes — the trace block is
  // flag-gated, so a fleet mixing traced and untraced clients interops.
  const std::string plain = WireBytes(PingFrame());
  EXPECT_EQ(plain.size(), 24u + PingFrame().payload.size());

  Frame traced = PingFrame();
  traced.trace_id = 7;
  traced.trace_parent = 9;
  traced.sampled = true;
  EXPECT_EQ(WireBytes(traced).size(), plain.size() + kTraceBlockBytes);
}

TEST(FrameTest, EverySingleByteFlipOfATracedFrameIsDetected) {
  // The CRC covers the trace block and the flags bit that announces it: no
  // flip may silently re-parent a span (satellite of the fault sweep).
  Frame traced = PingFrame();
  traced.trace_id = 0x1122334455667788ull;
  traced.trace_parent = 0x99aabbccddeeff00ull;
  traced.sampled = true;
  const std::string bytes = WireBytes(traced);
  ASSERT_EQ(bytes.size(), 24u + kTraceBlockBytes + traced.payload.size());
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    std::string flipped = bytes;
    flipped[i] ^= 0x01;
    auto [a, b] = CreateInProcessPair();
    ASSERT_TRUE(a->Send(flipped).ok());
    a->Close();
    FramedConnection receiver(std::move(b));
    Result<Frame> got = receiver.RecvFrame(milliseconds(200));
    EXPECT_FALSE(got.ok()) << "flip at byte " << i;
    EXPECT_EQ(got.status().code(), StatusCode::kCorruptedLog)
        << "flip at byte " << i;
  }
}

TEST(FrameTest, OversizedLengthAndForeignMagicAreRejectedEagerly) {
  auto [a, b] = CreateInProcessPair();
  // A foreign protocol speaking first.
  ASSERT_TRUE(a->Send("GET / HTTP/1.1\r\n\r\n").ok());
  FramedConnection receiver(std::move(b));
  EXPECT_EQ(receiver.RecvFrame(milliseconds(200)).status().code(),
            StatusCode::kCorruptedLog);

  // A length field far past the cap must be rejected from the header alone
  // (no allocation, no waiting for 4 GiB that never comes).
  std::string huge = WireBytes(PingFrame());
  huge[4] = '\xff';
  huge[5] = '\xff';
  huge[6] = '\xff';
  huge[7] = '\x7f';
  auto [c, d] = CreateInProcessPair();
  ASSERT_TRUE(c->Send(huge).ok());
  FramedConnection receiver2(std::move(d));
  EXPECT_EQ(receiver2.RecvFrame(milliseconds(200)).status().code(),
            StatusCode::kCorruptedLog);
}

// -- Message codec -----------------------------------------------------------

TEST(MessageTest, RequestRoundTripsAllFields) {
  Request request;
  request.op = "update";
  request.tenant = "acme";
  request.deadline_ms = 250;
  request.params["property"] = "f";
  request.params["from"] = "17";
  request.body = "product(A, B)\nwith raw \x01 bytes";
  Result<Request> back = DecodeRequest(EncodeRequest(request));
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->op, "update");
  EXPECT_EQ(back->tenant, "acme");
  EXPECT_EQ(back->deadline_ms, 250u);
  EXPECT_EQ(back->params, request.params);
  EXPECT_EQ(back->body, request.body);  // bodies travel verbatim
}

TEST(MessageTest, ResponseRoundTripsAllFields) {
  Response response;
  response.code = StatusCode::kResourceExhausted;
  response.message = "tenant saturated";
  response.retry_after_ms = 12;
  response.applied_sequence = 9;
  response.leader_sequence = 11;
  response.body = "A(1) B(2)\n";
  Result<Response> back = DecodeResponse(EncodeResponse(response));
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->code, StatusCode::kResourceExhausted);
  EXPECT_EQ(back->message, "tenant saturated");
  EXPECT_EQ(back->retry_after_ms, 12u);
  EXPECT_EQ(back->applied_sequence, 9u);
  EXPECT_EQ(back->leader_sequence, 11u);
  EXPECT_EQ(back->body, "A(1) B(2)\n");
}

TEST(MessageTest, HeaderValuesCannotSmuggleLineBreaks) {
  Request request;
  request.op = "ping";
  request.tenant = "evil\nop shutdown";  // header-injection attempt
  Result<Request> back = DecodeRequest(EncodeRequest(request));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->tenant, "evil?op shutdown");
}

TEST(MessageTest, EveryTruncationAndFlipOfAMessageIsTypedNeverACrash) {
  Request request;
  request.op = "update";
  request.tenant = "acme";
  request.deadline_ms = 99;
  request.params["property"] = "f";
  request.body = "join[self = A](A, Af)";
  const std::string bytes = EncodeRequest(request);
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    const Status status =
        DecodeRequest(std::string_view(bytes).substr(0, cut)).status();
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << "cut " << cut;
  }
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    std::string flipped = bytes;
    flipped[i] ^= 0x04;
    (void)DecodeRequest(flipped);  // must not crash; outcome may be either
  }
  EXPECT_EQ(DecodeRequest("").status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(DecodeResponse("body 0\n").status().code(),
            StatusCode::kInvalidArgument);  // missing code
  EXPECT_EQ(DecodeRequest("op ping\nbody 5\nab").status().code(),
            StatusCode::kInvalidArgument);  // body length lies
}

// -- Service fixture ---------------------------------------------------------

class NetServiceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    a_ = schema_.AddClass("A").value();
    b_ = schema_.AddClass("B").value();
    f_ = schema_.AddProperty("f", a_, b_).value();
  }

  TenantConfig Tenant(const std::string& name) const {
    TenantConfig config;
    config.name = name;
    return config;
  }

  std::unique_ptr<Server> MakeServer(const std::string& dir,
                                     std::vector<TenantConfig> tenants,
                                     ServerOptions options = {}) {
    options.data_dir = dir;
    options.schema = &schema_;
    Result<std::unique_ptr<Server>> server =
        Server::Create(std::move(options), std::move(tenants));
    EXPECT_TRUE(server.ok()) << server.status().ToString();
    return std::move(server).value();
  }

  /// A dialer that opens an in-process session on `server` per call.
  static Dialer DialerFor(Server* server) {
    return [server]() -> Result<ConnectionPtr> {
      auto [client_end, server_end] = CreateInProcessPair();
      server->Serve(std::move(server_end));
      return std::move(client_end);
    };
  }

  Client::Options ClientOptions(Server* server, const std::string& tenant,
                                std::uint32_t max_attempts = 5) const {
    Client::Options options;
    options.tenant = tenant;
    options.dial = DialerFor(server);
    options.retry.max_attempts = max_attempts;
    options.recv_timeout = milliseconds(200);
    return options;
  }

  /// Asserts the call succeeded end to end and returns the response.
  Response MustOk(Result<Response> result) {
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    if (!result.ok()) return Response{};
    EXPECT_EQ(result->code, StatusCode::kOk) << result->message;
    return *std::move(result);
  }

  Schema schema_;
  ClassId a_ = 0, b_ = 0;
  PropertyId f_ = 0;
};

// -- End-to-end request/response ---------------------------------------------

TEST_F(NetServiceTest, PingUpdateDeltaQueryExplainEndToEnd) {
  auto server = MakeServer(MakeTempDir("srv"), {Tenant("acme")});
  Client client(ClientOptions(server.get(), "acme"));

  Response pong = MustOk(client.Ping());
  EXPECT_EQ(pong.applied_sequence, 0u);

  MustOk(client.ApplyDelta(
      "delta { add object A(1); add object A(2); add object B(5); }"));
  Response updated = MustOk(client.Update("f", "product(A, B)"));
  EXPECT_EQ(updated.applied_sequence, 2u);

  Response rows = MustOk(client.Query("Af"));
  EXPECT_EQ(rows.body, "A(1) B(5)\nA(2) B(5)\n");
  EXPECT_EQ(rows.applied_sequence, 2u);
  EXPECT_EQ(rows.leader_sequence, 2u);

  Response plan = MustOk(client.Explain("project[A](join[self = A]("
                                        "rename[A -> self](A), Af))"));
  EXPECT_FALSE(plan.body.empty());
  EXPECT_NE(plan.body.find("Project"), std::string::npos);

  // The server state is the durable store's state.
  DurableStore* store = server->store("acme");
  ASSERT_NE(store, nullptr);
  EXPECT_EQ(store->last_sequence(), 2u);

  // Semantic errors come back typed, not as transport failures.
  Result<Response> bad = client.Query("union(A)");
  ASSERT_TRUE(bad.ok());
  EXPECT_EQ(bad->code, StatusCode::kInvalidArgument);
  Result<Response> unknown_rel = client.Query("Nope");
  ASSERT_TRUE(unknown_rel.ok());
  EXPECT_NE(unknown_rel->code, StatusCode::kOk);
}

TEST_F(NetServiceTest, TenantsAreIsolatedStores) {
  auto server = MakeServer(MakeTempDir("srv"),
                           {Tenant("alpha"), Tenant("beta")});
  Client alpha(ClientOptions(server.get(), "alpha"));
  Client beta(ClientOptions(server.get(), "beta"));

  MustOk(alpha.ApplyDelta("delta { add object A(1); }"));
  MustOk(beta.ApplyDelta("delta { add object A(2); add object A(3); }"));

  EXPECT_EQ(MustOk(alpha.Query("A")).body, "A(1)\n");
  EXPECT_EQ(MustOk(beta.Query("A")).body, "A(2)\nA(3)\n");
  EXPECT_EQ(server->store("alpha")->last_sequence(), 1u);
  EXPECT_EQ(server->store("beta")->last_sequence(), 1u);

  Result<Response> missing = alpha.Call([] {
    Request r;
    r.op = "ping";
    r.tenant = "nobody";
    return r;
  }());
  ASSERT_TRUE(missing.ok());
  EXPECT_EQ(missing->code, StatusCode::kNotFound);
}

TEST_F(NetServiceTest, RequestDeadlineBoundsTheAdmissionQueueWait) {
  // A tenant that can never admit anything: every request waits in the
  // queue until its own deadline expires. This isolates the deadline
  // plumbing from timing flakiness — no execution is involved at all.
  TenantConfig never = Tenant("never");
  never.max_concurrency = 0;
  auto server = MakeServer(MakeTempDir("srv"), {never});
  Client client(ClientOptions(server.get(), "never", /*max_attempts=*/1));

  Request request;
  request.op = "update";
  request.deadline_ms = 30;
  request.params["property"] = "f";
  request.body = "Af";
  const auto started = std::chrono::steady_clock::now();
  Result<Response> response = client.Call(std::move(request));
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->code, StatusCode::kDeadlineExceeded);
  EXPECT_GE(std::chrono::steady_clock::now() - started, milliseconds(25));
}

TEST_F(NetServiceTest, RequestDeadlineCutsOffAnExpensiveQueryMidExecution) {
  auto server = MakeServer(MakeTempDir("srv"), {Tenant("acme")});
  Client client(ClientOptions(server.get(), "acme", /*max_attempts=*/1));

  // 400 x 400 product: enough materialization work that a 1 ms budget
  // trips the ExecContext clock long before the result is complete.
  std::string delta = "delta {\n";
  for (int i = 1; i <= 400; ++i) {
    delta += "  add object A(" + std::to_string(i) + ");\n";
    delta += "  add object B(" + std::to_string(i) + ");\n";
  }
  delta += "}";
  MustOk(client.ApplyDelta(delta));

  Request request;
  request.op = "query";
  request.deadline_ms = 1;
  request.body = "product(A, B)";
  Result<Response> response = client.Call(std::move(request));
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->code, StatusCode::kDeadlineExceeded)
      << response->message;
}

// -- Admission control -------------------------------------------------------

TEST_F(NetServiceTest, SaturatedTenantShedsWithRetryableBackoffHint) {
  TenantConfig tiny = Tenant("tiny");
  tiny.max_concurrency = 0;  // never admits
  tiny.max_queue = 0;        // never queues: every arrival is shed
  ServerOptions options;
  options.suggested_backoff_ms = 3;
  MetricsRegistry metrics;
  options.metrics = &metrics;
  auto server = MakeServer(MakeTempDir("srv"), {tiny}, std::move(options));

  Client::Options client_options =
      ClientOptions(server.get(), "tiny", /*max_attempts=*/3);
  client_options.metrics = &metrics;
  Client client(std::move(client_options));
  Result<Response> response = client.Update("f", "Af");
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->code, StatusCode::kResourceExhausted);
  EXPECT_GE(response->retry_after_ms, 3u);  // the server's explicit hint
  // The client consumed its whole retry budget honoring the hint.
  EXPECT_EQ(client.last_call_retries(), 2u);
  EXPECT_EQ(metrics.CounterNamed("net.shed").value(), 3u);
  EXPECT_EQ(metrics.CounterNamed("net.client.retries").value(), 2u);

  // Reads on a *different* tenant of the same server are unaffected:
  // back-pressure is per tenant, not per server.
}

TEST_F(NetServiceTest, QueuedRequestsAdmitInTurnUnderConcurrencyOne) {
  TenantConfig one = Tenant("one");
  one.max_concurrency = 1;
  one.max_queue = 32;
  one.default_deadline = milliseconds(5000);
  ServerOptions options;
  options.own_pool_workers = 8;
  auto server = MakeServer(MakeTempDir("srv"), {one}, std::move(options));

  // Eight threads each commit four disjoint deltas through the width-one
  // admission gate. Everything must eventually commit; nothing may be lost
  // or doubled.
  std::vector<std::thread> workers;
  std::atomic<int> failures{0};
  for (int t = 0; t < 8; ++t) {
    workers.emplace_back([&, t] {
      Client client(ClientOptions(server.get(), "one", /*max_attempts=*/8));
      for (int i = 0; i < 4; ++i) {
        const int id = t * 100 + i;
        Result<Response> r = client.ApplyDelta(
            "delta { add object A(" + std::to_string(id) + "); }");
        if (!r.ok() || r->code != StatusCode::kOk) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(server->store("one")->last_sequence(), 32u);
  std::uint64_t sequence = 0;
  const Instance state = server->store("one")->SnapshotState(&sequence);
  EXPECT_EQ(sequence, 32u);
  std::size_t objects = 0;
  for (std::uint32_t t = 0; t < 8; ++t) {
    for (std::uint32_t i = 0; i < 4; ++i) {
      objects += state.HasObject(ObjectId(a_, t * 100 + i)) ? 1u : 0u;
    }
  }
  EXPECT_EQ(objects, 32u);
}

// -- Session dedup and protocol errors ---------------------------------------

TEST_F(NetServiceTest, ReplayedRequestIdReturnsCachedResponseWithoutRerun) {
  auto server = MakeServer(MakeTempDir("srv"), {Tenant("acme")});
  auto [client_end, server_end] = CreateInProcessPair();
  server->Serve(std::move(server_end));
  FramedConnection conn(std::move(client_end));

  Request update;
  update.op = "delta";
  update.tenant = "acme";
  update.body = "delta { add object A(7); }";
  Frame frame;
  frame.type = FrameType::kRequest;
  frame.request_id = 10;
  frame.payload = EncodeRequest(update);

  ASSERT_TRUE(conn.SendFrame(frame).ok());
  Result<Frame> first = conn.RecvFrame(milliseconds(500));
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  Result<Response> decoded = DecodeResponse(first->payload);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->code, StatusCode::kOk);
  EXPECT_EQ(server->store("acme")->last_sequence(), 1u);

  // The client "lost" the response and retries the same id: the session
  // resends its cached response and the store does NOT commit again.
  ASSERT_TRUE(conn.SendFrame(frame).ok());
  Result<Frame> replay = conn.RecvFrame(milliseconds(500));
  ASSERT_TRUE(replay.ok()) << replay.status().ToString();
  EXPECT_EQ(replay->payload, first->payload);
  EXPECT_EQ(server->store("acme")->last_sequence(), 1u);

  // A regressing id is a protocol violation: typed error, session closed.
  frame.request_id = 3;
  ASSERT_TRUE(conn.SendFrame(frame).ok());
  Result<Frame> violation = conn.RecvFrame(milliseconds(500));
  ASSERT_TRUE(violation.ok()) << violation.status().ToString();
  Result<Response> verdict = DecodeResponse(violation->payload);
  ASSERT_TRUE(verdict.ok());
  EXPECT_EQ(verdict->code, StatusCode::kInvalidArgument);
  EXPECT_EQ(server->store("acme")->last_sequence(), 1u);
}

// -- Fault matrix ------------------------------------------------------------

TEST_F(NetServiceTest, ClientSurvivesEveryFaultModeAtEachEarlyFrame) {
  // Fault mode x frame ordinal: inject each network fault at each of the
  // first frames of the client's conversation and require the governed
  // retry loop to finish the call anyway. Queries are repeated after each
  // storm on a *clean* client to prove the server survived undamaged.
  const std::string dir = MakeTempDir("srv");
  auto server = MakeServer(dir, {Tenant("acme")});
  {
    Client seed(ClientOptions(server.get(), "acme"));
    MustOk(seed.ApplyDelta(
        "delta { add object A(1); add object B(5); }"));
    MustOk(seed.Update("f", "product(A, B)"));
  }
  const std::string baseline = "A(1) B(5)\n";

  struct Mode {
    const char* name;
    FaultInjector (*make)(std::uint64_t nth);
  };
  const Mode kModes[] = {
      {"drop", [](std::uint64_t n) { return FaultInjector::DropFrameAt(n); }},
      {"duplicate",
       [](std::uint64_t n) { return FaultInjector::DuplicateFrameAt(n); }},
      {"truncate",
       [](std::uint64_t n) { return FaultInjector::TruncateFrameAt(n, 9); }},
      {"delay",
       [](std::uint64_t n) { return FaultInjector::DelayFrameAt(n, 5); }},
      {"disconnect",
       [](std::uint64_t n) { return FaultInjector::DisconnectAt(n); }},
  };

  for (const Mode& mode : kModes) {
    // A clean round trip is two net ops (one send probe, one recv probe),
    // so two back-to-back calls cover ordinals 1..4 densely.
    for (std::uint64_t nth = 1; nth <= 4; ++nth) {
      FaultInjector injector = mode.make(nth);
      Client::Options options = ClientOptions(server.get(), "acme",
                                              /*max_attempts=*/6);
      options.injector = &injector;
      Client client(std::move(options));
      for (int call = 0; call < 2; ++call) {
        Result<Response> response = client.Query("Af");
        ASSERT_TRUE(response.ok())
            << mode.name << " at op " << nth << " call " << call << ": "
            << response.status().ToString();
        EXPECT_EQ(response->code, StatusCode::kOk)
            << mode.name << " at op " << nth << ": " << response->message;
        EXPECT_EQ(response->body, baseline)
            << mode.name << " at op " << nth;
      }
      EXPECT_GE(injector.net_faults_fired(), 1u)
          << mode.name << " at op " << nth << " never fired";
    }
    // The server must still be pristine for a clean client.
    Client clean(ClientOptions(server.get(), "acme"));
    EXPECT_EQ(MustOk(clean.Query("Af")).body, baseline) << mode.name;
  }
  // No fault mode may have smuggled in an extra commit: the dedup and
  // idempotence story, checked at the WAL.
  EXPECT_EQ(server->store("acme")->last_sequence(), 2u);
}

TEST_F(NetServiceTest, ServerSideFaultsCannotCorruptTenantState) {
  // The server's own endpoints inject faults this time (shared injector
  // across all sessions); writes keep retrying until acknowledged, and the
  // acknowledged state must survive.
  const std::string dir = MakeTempDir("srv");
  FaultInjector injector = FaultInjector::DropFrameAt(2);
  ServerOptions options;
  options.injector = &injector;
  auto server = MakeServer(dir, {Tenant("acme")}, std::move(options));

  Client client(ClientOptions(server.get(), "acme", /*max_attempts=*/6));
  Result<Response> response =
      client.ApplyDelta("delta { add object A(3); }");
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->code, StatusCode::kOk) << response->message;
  EXPECT_EQ(server->store("acme")->last_sequence(), 1u);
  EXPECT_TRUE(
      server->store("acme")->SnapshotState().HasObject(ObjectId(a_, 3)));
}

// -- Graceful drain ----------------------------------------------------------

TEST_F(NetServiceTest, DrainSaysGoodbyeAndRefusesNewSessions) {
  ServerOptions options;
  options.recv_timeout = milliseconds(10);  // fast drain detection
  auto server = MakeServer(MakeTempDir("srv"), {Tenant("acme")},
                           std::move(options));
  Client client(ClientOptions(server.get(), "acme"));
  MustOk(client.Ping());  // session established and idle

  server->Drain();
  EXPECT_EQ(server->active_sessions(), 0u);
  EXPECT_TRUE(server->draining());

  // The old session was told goodbye; a new dial gets a closed connection.
  Client late(ClientOptions(server.get(), "acme", /*max_attempts=*/2));
  Result<Response> refused = late.Ping();
  EXPECT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kResourceExhausted);

  server->Drain();  // idempotent
}

// -- Replication -------------------------------------------------------------

class ReplicationTest : public NetServiceTest {
 protected:
  FollowerReplica::Options ReplicaOptions(Server* leader,
                                          const std::string& tenant) {
    FollowerReplica::Options options;
    options.tenant = tenant;
    options.dial = DialerFor(leader);
    options.schema = &schema_;
    options.recv_timeout = milliseconds(500);
    return options;
  }

  /// Pulls until the follower reports no lag (bounded rounds).
  void CatchUp(FollowerReplica& replica) {
    for (int round = 0; round < 32; ++round) {
      ASSERT_TRUE(replica.TailOnce().ok());
      std::uint64_t applied = 0, leader = 0;
      (void)replica.Read(&applied, &leader);
      if (applied == leader) return;
    }
    FAIL() << "replica never caught up";
  }
};

TEST_F(ReplicationTest, FollowerConvergesToBitIdenticalState) {
  auto leader = MakeServer(MakeTempDir("leader"), {Tenant("acme")});
  Client client(ClientOptions(leader.get(), "acme"));
  MustOk(client.ApplyDelta(
      "delta { add object A(1); add object A(2); add object B(9); }"));
  MustOk(client.Update("f", "product(A, B)"));
  MustOk(client.ApplyDelta("delta { del object A(2); }"));

  auto replica = std::move(FollowerReplica::Create(
                               ReplicaOptions(leader.get(), "acme")))
                     .value();
  CatchUp(*replica);

  std::uint64_t applied = 0, leader_seq = 0;
  const Instance follower_state = replica->Read(&applied, &leader_seq);
  EXPECT_EQ(applied, 3u);
  EXPECT_EQ(leader_seq, 3u);
  EXPECT_TRUE(replica->healthy());
  EXPECT_EQ(replica->resyncs(), 0u);
  // Bit-identical: the replication stream is the WAL, and the WAL replay
  // path is the recovery path.
  EXPECT_EQ(InstanceToText(follower_state),
            InstanceToText(leader->store("acme")->SnapshotState()));

  // Incremental: more commits, another round, still identical.
  MustOk(client.ApplyDelta("delta { add object A(4); }"));
  CatchUp(*replica);
  EXPECT_EQ(InstanceToText(replica->Read(nullptr, nullptr)),
            InstanceToText(leader->store("acme")->SnapshotState()));
}

TEST_F(ReplicationTest, TruncatedLeaderHistoryForcesSnapshotResync) {
  // Checkpoints truncate the leader's WAL, so a follower starting from
  // sequence 1 cannot pull the early records — it must detect the gap and
  // resync from the snapshot instead of serving a divergent state.
  TenantConfig tenant = Tenant("acme");
  tenant.store_options.snapshot_every_n_commits = 2;
  auto leader = MakeServer(MakeTempDir("leader"), {tenant});
  Client client(ClientOptions(leader.get(), "acme"));
  for (int i = 1; i <= 4; ++i) {
    MustOk(client.ApplyDelta("delta { add object A(" + std::to_string(i) +
                             "); }"));
  }

  auto replica = std::move(FollowerReplica::Create(
                               ReplicaOptions(leader.get(), "acme")))
                     .value();
  CatchUp(*replica);
  EXPECT_EQ(replica->resyncs(), 1u);
  EXPECT_EQ(replica->applied_sequence(), 4u);
  EXPECT_EQ(InstanceToText(replica->Read(nullptr, nullptr)),
            InstanceToText(leader->store("acme")->SnapshotState()));

  // After the resync, tailing resumes incrementally — no further resyncs.
  MustOk(client.ApplyDelta("delta { add object A(9); }"));
  CatchUp(*replica);
  EXPECT_EQ(replica->resyncs(), 1u);
  EXPECT_EQ(replica->applied_sequence(), 5u);
}

TEST_F(ReplicationTest, LeaderCrashAtEveryCommitProbeThenReopenAndRetail) {
  // The replication analogue of the store's recovery matrix: a leader that
  // dies mid-commit (at each exec/storage probe ordinal) is reopened, and
  // the follower re-tails. The follower must land exactly on the leader's
  // recovered state — the committed prefix — at every ordinal.
  for (std::uint64_t nth = 1; nth <= 8; ++nth) {
    const std::string dir = MakeTempDir("leader" + std::to_string(nth));
    bool acked = false;
    {
      auto healthy = MakeServer(dir, {Tenant("acme")});
      Client seed(ClientOptions(healthy.get(), "acme"));
      MustOk(seed.ApplyDelta("delta { add object A(1); }"));
    }
    {
      // Observe-only while the server opens (recovery replay fires exec
      // probes of its own); armed just before the wounded commit.
      FaultInjector injector;
      TenantConfig tenant = Tenant("acme");
      tenant.store_options.injector = &injector;
      auto wounded = MakeServer(dir, {tenant});
      injector = FaultInjector::FireAtNthProbe(nth);
      Client client(ClientOptions(wounded.get(), "acme",
                                  /*max_attempts=*/1));
      Result<Response> response =
          client.ApplyDelta("delta { add object A(2); }");
      ASSERT_TRUE(response.ok()) << response.status().ToString();
      acked = response->code == StatusCode::kOk;
      wounded->Drain();
    }
    // Reopen (recovery) and re-tail.
    auto reopened = MakeServer(dir, {Tenant("acme")});
    const Instance recovered = reopened->store("acme")->SnapshotState();
    if (acked) {
      EXPECT_TRUE(recovered.HasObject(ObjectId(a_, 2))) << "probe " << nth;
    }
    EXPECT_TRUE(recovered.HasObject(ObjectId(a_, 1))) << "probe " << nth;

    auto replica = std::move(FollowerReplica::Create(
                                 ReplicaOptions(reopened.get(), "acme")))
                       .value();
    CatchUp(*replica);
    EXPECT_EQ(InstanceToText(replica->Read(nullptr, nullptr)),
              InstanceToText(recovered))
        << "probe " << nth;
  }
}

TEST_F(ReplicationTest, ReplicaBackedTenantServesReadsAndRefusesWrites) {
  auto leader = MakeServer(MakeTempDir("leader"), {Tenant("acme")});
  Client leader_client(ClientOptions(leader.get(), "acme"));
  MustOk(leader_client.ApplyDelta(
      "delta { add object A(1); add object B(2); }"));
  MustOk(leader_client.Update("f", "product(A, B)"));

  auto replica = std::move(FollowerReplica::Create(
                               ReplicaOptions(leader.get(), "acme")))
                     .value();
  CatchUp(*replica);

  auto follower = MakeServer(MakeTempDir("follower"), {});
  ASSERT_TRUE(follower->ServeReplica("acme", replica.get()).ok());
  Client follower_client(ClientOptions(follower.get(), "acme"));

  Response rows = MustOk(follower_client.Query("Af"));
  EXPECT_EQ(rows.body, "A(1) B(2)\n");
  EXPECT_EQ(rows.applied_sequence, 2u);
  EXPECT_EQ(rows.leader_sequence, 2u);
  // EXPLAIN works at the follower too — plans need only the catalog.
  EXPECT_FALSE(MustOk(follower_client.Explain("Af")).body.empty());

  Result<Response> write = follower_client.ApplyDelta(
      "delta { add object A(5); }");
  ASSERT_TRUE(write.ok());
  EXPECT_EQ(write->code, StatusCode::kFailedPrecondition);
  Result<Response> pull = follower_client.Call([] {
    Request r;
    r.op = "pull";
    return r;
  }());
  ASSERT_TRUE(pull.ok());
  EXPECT_EQ(pull->code, StatusCode::kFailedPrecondition);
}

TEST_F(ReplicationTest, ReplicaPingsAndExplainsCopyNoInstance) {
  auto leader = MakeServer(MakeTempDir("leader"), {Tenant("acme")});
  Client leader_client(ClientOptions(leader.get(), "acme"));
  MustOk(leader_client.ApplyDelta(
      "delta { add object A(1); add object B(2); }"));
  MustOk(leader_client.Update("f", "product(A, B)"));

  auto replica = std::move(FollowerReplica::Create(
                               ReplicaOptions(leader.get(), "acme")))
                     .value();
  CatchUp(*replica);

  auto follower = MakeServer(MakeTempDir("follower"), {});
  ASSERT_TRUE(follower->ServeReplica("acme", replica.get()).ok());
  Client follower_client(ClientOptions(follower.get(), "acme"));

  // A ping or an explain reports the replica's two sequence numbers; it
  // has no reason to copy the replicated instance.
  const std::uint64_t copies = InstanceCosts().copies.value();
  for (int i = 0; i < 10; ++i) {
    Response pong = MustOk(follower_client.Ping());
    EXPECT_EQ(pong.applied_sequence, 2u);
    EXPECT_EQ(pong.leader_sequence, 2u);
  }
  Response plan = MustOk(follower_client.Explain("Af"));
  EXPECT_FALSE(plan.body.empty());
  EXPECT_EQ(plan.applied_sequence, 2u);
  EXPECT_EQ(plan.leader_sequence, 2u);
  EXPECT_EQ(InstanceCosts().copies.value(), copies);
}

TEST_F(ReplicationTest, ReplicaQueriesEncodeOnlyWhatTheyRead) {
  auto leader = MakeServer(MakeTempDir("leader"), {Tenant("acme")});
  Client leader_client(ClientOptions(leader.get(), "acme"));
  MustOk(leader_client.ApplyDelta(
      "delta { add object A(1); add object A(3); add object B(2); }"));
  MustOk(leader_client.Update("f", "product(A, B)"));

  auto replica = std::move(FollowerReplica::Create(
                               ReplicaOptions(leader.get(), "acme")))
                     .value();
  CatchUp(*replica);

  auto follower = MakeServer(MakeTempDir("follower"), {});
  ASSERT_TRUE(follower->ServeReplica("acme", replica.get()).ok());
  Client follower_client(ClientOptions(follower.get(), "acme"));

  // A follower read evaluates from scratch, over the relations its query
  // reads only: never the whole encoding.
  const std::uint64_t encodes = InstanceCosts().encodes.value();
  const std::uint64_t rows = InstanceCosts().encoded_rows.value();
  for (int i = 0; i < 10; ++i) {
    Response answer = MustOk(follower_client.Query("Af"));
    EXPECT_EQ(answer.body, "A(1) B(2)\nA(3) B(2)\n");
    EXPECT_EQ(answer.applied_sequence, 2u);
  }
  EXPECT_EQ(InstanceCosts().encodes.value(), encodes);
  EXPECT_EQ(InstanceCosts().encoded_rows.value() - rows, 10u * 2u);
}

/// A from-scratch query reads a copy of the served instance. The copy
/// shares its chunks, so neither the read nor the writes that follow it
/// clone an item: a follower read and an uncached leader query cost what
/// they read, not the instance.
TEST_F(ReplicationTest, FollowerReadsAndUncachedLeaderQueriesCloneNothing) {
  TenantConfig uncached = Tenant("acme");
  uncached.incremental_views = false;
  auto leader = MakeServer(MakeTempDir("leader"), {uncached});
  Client leader_client(ClientOptions(leader.get(), "acme"));
  MustOk(leader_client.ApplyDelta(
      "delta { add object A(1); add object A(3); add object B(2); }"));
  MustOk(leader_client.Update("f", "product(A, B)"));

  auto replica = std::move(FollowerReplica::Create(
                               ReplicaOptions(leader.get(), "acme")))
                     .value();
  CatchUp(*replica);
  auto follower = MakeServer(MakeTempDir("follower"), {});
  ASSERT_TRUE(follower->ServeReplica("acme", replica.get()).ok());
  Client follower_client(ClientOptions(follower.get(), "acme"));

  const Counter& cloned = InstanceCosts().cloned_items;
  const std::uint64_t before = cloned.value();
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(MustOk(follower_client.Query("Af")).body,
              "A(1) B(2)\nA(3) B(2)\n");
    EXPECT_EQ(MustOk(leader_client.Query("Af")).body,
              "A(1) B(2)\nA(3) B(2)\n");
  }
  EXPECT_EQ(cloned.value() - before, 0u) << "reads";

  // The reads dropped their copies: the writes after them, on the leader
  // and through replay on the follower, write in place.
  MustOk(leader_client.ApplyDelta(
      "delta { add object A(5); add edge A(5) f B(2); }"));
  CatchUp(*replica);
  EXPECT_EQ(MustOk(follower_client.Query("Af")).body,
            "A(1) B(2)\nA(3) B(2)\nA(5) B(2)\n");
  EXPECT_EQ(cloned.value() - before, 0u) << "writes after the reads";
}

TEST_F(ReplicationTest, FailoverClientScreensStaleFollowersAndDeadOnes) {
  auto leader = MakeServer(MakeTempDir("leader"), {Tenant("acme")});
  Client leader_seed(ClientOptions(leader.get(), "acme"));
  MustOk(leader_seed.ApplyDelta(
      "delta { add object A(1); add object A(2); }"));

  FollowerReplica::Options replica_options =
      ReplicaOptions(leader.get(), "acme");
  replica_options.pull_batch = 1;  // so the follower can be behind knowingly
  auto replica =
      std::move(FollowerReplica::Create(std::move(replica_options))).value();
  CatchUp(*replica);

  auto follower = MakeServer(MakeTempDir("follower"), {});
  ASSERT_TRUE(follower->ServeReplica("acme", replica.get()).ok());

  Client via_follower(ClientOptions(follower.get(), "acme",
                                    /*max_attempts=*/1));
  Client via_leader(ClientOptions(leader.get(), "acme", /*max_attempts=*/1));
  FailoverReadClient failover(
      {{&via_follower, /*is_leader=*/false}, {&via_leader, true}},
      /*max_lag=*/0);

  // Fresh follower: reads are served there.
  Response fresh = std::move(failover.Query("A")).value();
  EXPECT_EQ(fresh.body, "A(1)\nA(2)\n");
  EXPECT_EQ(failover.stale_rejections(), 0u);

  // Leader advances by 2; one pull round applies 1 record (batch = 1), so
  // the follower KNOWS it is 1 behind — the failover client must reject it
  // and fall back to the leader for the authoritative answer.
  MustOk(leader_seed.ApplyDelta("delta { add object A(3); }"));
  MustOk(leader_seed.ApplyDelta("delta { add object A(4); }"));
  ASSERT_TRUE(replica->TailOnce().ok());
  EXPECT_LT(replica->applied_sequence(), replica->leader_sequence());
  Response authoritative = std::move(failover.Query("A")).value();
  EXPECT_EQ(authoritative.body, "A(1)\nA(2)\nA(3)\nA(4)\n");
  EXPECT_EQ(failover.stale_rejections(), 1u);

  // A drained (dead) follower: counted dead, leader still answers.
  CatchUp(*replica);
  follower->Drain();
  Response survived = std::move(failover.Query("A")).value();
  EXPECT_EQ(survived.body, "A(1)\nA(2)\nA(3)\nA(4)\n");
  EXPECT_GE(failover.dead_targets_seen(), 1u);
}

// -- TCP smoke ---------------------------------------------------------------

TEST_F(NetServiceTest, TcpTransportServesTheSameProtocol) {
  Result<std::unique_ptr<TcpListener>> listener = TcpListener::Listen(0);
  if (!listener.ok()) {
    GTEST_SKIP() << "sockets unavailable: " << listener.status().ToString();
  }
  auto server = MakeServer(MakeTempDir("srv"), {Tenant("acme")});
  std::atomic<bool> stop{false};
  std::thread acceptor([&] {
    while (!stop.load()) {
      Result<ConnectionPtr> conn = (*listener)->Accept(milliseconds(50));
      if (conn.ok()) server->Serve(std::move(conn).value());
    }
  });

  const std::uint16_t port = (*listener)->port();
  Client::Options options;
  options.tenant = "acme";
  options.dial = [port]() { return TcpDial(port, milliseconds(1000)); };
  options.recv_timeout = milliseconds(1000);
  options.retry.max_attempts = 3;
  {
    Client client(std::move(options));
    Response pong = MustOk(client.Ping());
    EXPECT_EQ(pong.applied_sequence, 0u);
    MustOk(client.ApplyDelta(
        "delta { add object A(1); add object B(2); }"));
    MustOk(client.Update("f", "product(A, B)"));
    EXPECT_EQ(MustOk(client.Query("Af")).body, "A(1) B(2)\n");
  }
  stop.store(true);
  acceptor.join();
  EXPECT_EQ(server->store("acme")->last_sequence(), 2u);
}

// -- Observability -----------------------------------------------------------

TEST_F(NetServiceTest, ServiceEmitsNetMetricsAndStatsOp) {
  MetricsRegistry metrics;
  ServerOptions options;
  options.metrics = &metrics;
  auto server = MakeServer(MakeTempDir("srv"), {Tenant("acme")},
                           std::move(options));
  Client::Options client_options = ClientOptions(server.get(), "acme");
  client_options.metrics = &metrics;
  Client client(std::move(client_options));

  MustOk(client.ApplyDelta("delta { add object A(1); }"));
  MustOk(client.Query("A"));
  Response stats = MustOk(client.Call([] {
    Request r;
    r.op = "stats";
    return r;
  }()));

  EXPECT_GE(metrics.CounterNamed("net.requests").value(), 3u);
  EXPECT_GE(metrics.CounterNamed("net.frames_sent").value(), 3u);
  EXPECT_GE(metrics.CounterNamed("net.bytes_recv").value(), 1u);
  EXPECT_GE(metrics.HistogramNamed("net.request_ns").count(), 3u);
  EXPECT_NE(stats.body.find("net.requests"), std::string::npos);
}

// -- Distributed tracing and per-tenant telemetry ----------------------------

TEST_F(ReplicationTest, OneWriteYieldsOneTraceFamilyAcrossClientLeaderAndFollower) {
  // The tentpole acceptance check: a single traced write produces ONE
  // family — client call, server request handling, admission, execution,
  // durable commit and fsync, and the follower's asynchronous replay — all
  // under the client-minted trace id, with remote-parent edges stitching
  // the process boundaries.
  Tracer tracer;
  MetricsRegistry metrics;
  ServerOptions options;
  options.tracer = &tracer;
  options.metrics = &metrics;
  auto leader = MakeServer(MakeTempDir("leader"), {Tenant("acme")},
                           std::move(options));

  Client::Options client_options = ClientOptions(leader.get(), "acme");
  client_options.tracer = &tracer;
  Client client(std::move(client_options));
  MustOk(client.ApplyDelta("delta { add object A(1); add object B(5); }"));
  const std::uint64_t delta_trace = client.last_trace_id();
  MustOk(client.Update("f", "product(A, B)"));
  const std::uint64_t trace_id = client.last_trace_id();
  ASSERT_NE(trace_id, 0u);
  EXPECT_NE(trace_id, delta_trace);  // one family per call

  FollowerReplica::Options replica_options =
      ReplicaOptions(leader.get(), "acme");
  replica_options.tracer = &tracer;
  replica_options.metrics = &metrics;
  auto replica =
      std::move(FollowerReplica::Create(std::move(replica_options))).value();
  CatchUp(*replica);

  std::set<std::string> names;
  std::uint64_t call_span = 0;
  std::uint64_t request_span = 0, request_remote = 0;
  std::uint64_t replay_remote = 0;
  for (const SpanEvent& e : tracer.Events()) {
    if (e.trace_id != trace_id) continue;
    names.insert(e.name);
    const std::string_view name(e.name);
    if (name == "net/call") call_span = e.id;
    if (name == "net/request") {
      request_span = e.id;
      request_remote = e.remote_parent;
    }
    if (name == "net/replay") replay_remote = e.remote_parent;
  }
  for (const char* expected :
       {"net/call", "net/request", "net/admission", "net/execute",
        "store/commit", "wal/fsync", "net/replay"}) {
    EXPECT_EQ(names.count(expected), 1u) << expected;
  }
  // The remote edges stitch the hops together: the server's request span
  // continues the client's call span, and the follower's replay span
  // continues the leader-side request span the commit recorded.
  EXPECT_NE(call_span, 0u);
  EXPECT_EQ(request_remote, call_span);
  EXPECT_EQ(replay_remote, request_span);

  // The chrome export carries the family id tools/trace_merge.py groups on.
  std::ostringstream chrome;
  tracer.WriteChromeTrace(chrome);
  EXPECT_NE(chrome.str().find("net/replay"), std::string::npos);
  EXPECT_NE(chrome.str().find("\"trace_id\""), std::string::npos);

  // Both ends published per-tenant replication gauges, and the follower is
  // caught up — zero lag on each side.
  std::ostringstream text;
  metrics.WriteText(text);
  const std::string exported = text.str();
  EXPECT_NE(exported.find("tenant.replication.lag{tenant=\"acme\"} 0"),
            std::string::npos);
  EXPECT_NE(
      exported.find("tenant.replication.follower_lag{tenant=\"acme\"} 0"),
      std::string::npos);
  EXPECT_NE(exported.find("tenant.replication.ms_since_apply{tenant=\"acme\"}"),
            std::string::npos);
}

TEST_F(NetServiceTest, StatsOpExportsPerTenantTailsQueueAndActiveGauges) {
  MetricsRegistry metrics;
  ServerOptions options;
  options.metrics = &metrics;
  auto server =
      MakeServer(MakeTempDir("srv"), {Tenant("acme")}, std::move(options));
  Client client(ClientOptions(server.get(), "acme"));
  MustOk(client.ApplyDelta("delta { add object A(1); add object B(2); }"));
  MustOk(client.Update("f", "product(A, B)"));
  MustOk(client.Query("Af"));

  Response stats = MustOk(client.Call([] {
    Request r;
    r.op = "stats";
    return r;
  }()));
  for (const char* needle : {
           "tenant.update_ns_p50{tenant=\"acme\"}",
           "tenant.update_ns_p99{tenant=\"acme\"}",
           "tenant.update_ns_p999{tenant=\"acme\"}",
           "tenant.delta_ns_count{tenant=\"acme\"}",
           "tenant.query_ns_p999{tenant=\"acme\"}",
           "tenant.queue_wait_ns_count{tenant=\"acme\"}",
           "tenant.queue_depth{tenant=\"acme\"}",
           "tenant.active{tenant=\"acme\"}",
       }) {
    EXPECT_NE(stats.body.find(needle), std::string::npos) << needle;
  }
  // Each op fed its own histogram exactly once; every admission fed the
  // queue-wait histogram; nothing is in flight once the calls returned.
  EXPECT_EQ(
      metrics.HistogramLabeled("tenant.update_ns", "tenant", "acme").count(),
      1u);
  EXPECT_EQ(
      metrics.HistogramLabeled("tenant.delta_ns", "tenant", "acme").count(),
      1u);
  EXPECT_EQ(
      metrics.HistogramLabeled("tenant.query_ns", "tenant", "acme").count(),
      1u);
  EXPECT_EQ(
      metrics.HistogramLabeled("tenant.queue_wait_ns", "tenant", "acme")
          .count(),
      3u);
  EXPECT_EQ(metrics.GaugeLabeled("tenant.active", "tenant", "acme").value(),
            0);
  EXPECT_EQ(
      metrics.GaugeLabeled("tenant.queue_depth", "tenant", "acme").value(),
      0);

  // format=prometheus serves the scrape exposition through the same op.
  Response prom = MustOk(client.Call([] {
    Request r;
    r.op = "stats";
    r.params["format"] = "prometheus";
    return r;
  }()));
  for (const char* needle : {
           "# TYPE setrec_tenant_update_ns summary",
           "setrec_tenant_update_ns{tenant=\"acme\",quantile=\"0.5\"}",
           "setrec_tenant_update_ns{tenant=\"acme\",quantile=\"0.999\"}",
           "setrec_tenant_update_ns_count{tenant=\"acme\"}",
           "# TYPE setrec_tenant_queue_depth gauge",
       }) {
    EXPECT_NE(prom.body.find(needle), std::string::npos) << needle;
  }
}

TEST_F(NetServiceTest, ShedsAndDeadlineMissesCountPerTenant) {
  TenantConfig tiny = Tenant("tiny");
  tiny.max_concurrency = 0;
  tiny.max_queue = 0;  // every arrival is shed
  MetricsRegistry metrics;
  ServerOptions options;
  options.metrics = &metrics;
  auto server = MakeServer(MakeTempDir("srv"), {tiny}, std::move(options));
  Client client(ClientOptions(server.get(), "tiny", /*max_attempts=*/3));
  Result<Response> shed = client.Update("f", "Af");
  ASSERT_TRUE(shed.ok());
  EXPECT_EQ(shed->code, StatusCode::kResourceExhausted);
  EXPECT_EQ(metrics.CounterLabeled("tenant.shed", "tenant", "tiny").value(),
            3u);

  // A queue-capable but never-admitting tenant turns waits into per-tenant
  // deadline misses.
  TenantConfig never = Tenant("never");
  never.max_concurrency = 0;
  never.max_queue = 8;
  MetricsRegistry never_metrics;
  ServerOptions never_options;
  never_options.metrics = &never_metrics;
  auto never_server =
      MakeServer(MakeTempDir("srv2"), {never}, std::move(never_options));
  Client never_client(
      ClientOptions(never_server.get(), "never", /*max_attempts=*/1));
  Request request;
  request.op = "query";
  request.deadline_ms = 20;
  request.body = "A";
  Result<Response> missed = never_client.Call(std::move(request));
  ASSERT_TRUE(missed.ok());
  EXPECT_EQ(missed->code, StatusCode::kDeadlineExceeded);
  EXPECT_EQ(
      never_metrics.CounterLabeled("tenant.deadline_miss", "tenant", "never")
          .value(),
      1u);
  EXPECT_GE(
      never_metrics.HistogramLabeled("tenant.queue_wait_ns", "tenant", "never")
          .count(),
      1u);
}

TEST_F(NetServiceTest, SlowRequestsAreCapturedWithPlanSpansAndFlightSlice) {
  Tracer tracer;
  MetricsRegistry metrics;
  TenantConfig slow = Tenant("acme");
  slow.slow_request_threshold = std::chrono::nanoseconds(1);  // all are slow
  const std::string dir = MakeTempDir("srv");
  ServerOptions options;
  options.tracer = &tracer;
  options.metrics = &metrics;
  auto server = MakeServer(dir, {slow}, std::move(options));
  Client::Options client_options = ClientOptions(server.get(), "acme");
  client_options.tracer = &tracer;
  Client client(std::move(client_options));
  MustOk(client.ApplyDelta("delta { add object A(1); add object B(2); }"));
  MustOk(client.Update("f", "product(A, B)"));
  const std::uint64_t update_trace = client.last_trace_id();
  MustOk(client.Query("Af"));

  const std::filesystem::path path =
      std::filesystem::path(dir) / "acme" / "slowlog.jsonl";
  ASSERT_TRUE(std::filesystem::exists(path));
  std::ifstream in(path);
  std::string line;
  std::vector<std::string> lines;
  while (std::getline(in, line)) lines.push_back(line);
  ASSERT_EQ(lines.size(), 3u);  // delta, update, query all exceeded 1 ns
  for (const std::string& entry : lines) {
    ASSERT_FALSE(entry.empty());
    EXPECT_EQ(entry.front(), '{');
    EXPECT_EQ(entry.back(), '}');
  }
  EXPECT_NE(lines[1].find("\"op\":\"update\""), std::string::npos);
  EXPECT_NE(lines[2].find("\"op\":\"query\""), std::string::npos);
  EXPECT_NE(
      lines[1].find("\"trace_id\":" + std::to_string(update_trace)),
      std::string::npos);
  // The update and query entries re-ran EXPLAIN ANALYZE; the capture is
  // the paper trail a latency investigation starts from.
  EXPECT_NE(lines[1].find("\"plan\":{"), std::string::npos);
  EXPECT_NE(lines[1].find("\"analyzed\":true"), std::string::npos);
  EXPECT_NE(lines[2].find("\"plan\":{"), std::string::npos);
  EXPECT_NE(lines[2].find("\"analyzed\":true"), std::string::npos);
  // The span slice names the server-side stages of this request's family
  // (the request span itself is still open at capture time).
  EXPECT_NE(lines[1].find("\"spans\":[{"), std::string::npos);
  EXPECT_NE(lines[1].find("net/execute"), std::string::npos);
  EXPECT_NE(lines[1].find("wal/fsync"), std::string::npos);
  EXPECT_NE(lines[1].find("\"flight\":["), std::string::npos);
  EXPECT_EQ(
      metrics.CounterLabeled("tenant.slow_requests", "tenant", "acme").value(),
      3u);
}

TEST_F(NetServiceTest, SpanParentageIsBitStableAcrossEveryFrameFaultMode) {
  // A traced update's family tree — with identical sibling subtrees
  // deduplicated (Tracer::TreeSignatureForTrace) — must be byte-identical
  // whether the conversation ran clean or a frame was dropped, duplicated,
  // truncated, delayed, or the connection cut: a governed retry may
  // re-execute the idempotent statement, but it may never cross-wire,
  // orphan, or re-parent a span.
  TenantConfig tenant = Tenant("acme");
  tenant.incremental_views = false;  // cache hits would reshape re-runs
  Tracer tracer;
  ServerOptions options;
  options.tracer = &tracer;
  auto server = MakeServer(MakeTempDir("srv"), {tenant}, std::move(options));
  {
    Client seed(ClientOptions(server.get(), "acme"));
    MustOk(seed.ApplyDelta("delta { add object A(1); add object B(5); }"));
    // Warm the statement untraced: the first run of the update commits a
    // real delta (with a wal/fsync child); every run after it is a no-op
    // re-application with no WAL record. The baseline must be the steady
    // re-run shape — exactly what a faulted retry re-executes.
    MustOk(seed.Update("f", "product(A, B)"));
  }

  // A session whose client cut the connection after its request frame was
  // written still reads that request and may still be executing it when the
  // client's retry returns: its net/admission span is then recorded but its
  // net/request parent is not. So each read waits (bounded) until the live
  // client's session is the only one left.
  const auto settled = [&server] {
    const auto give_up =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (server->active_sessions() != 1 &&
           std::chrono::steady_clock::now() < give_up) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return server->active_sessions() == 1;
  };

  std::string baseline;
  {
    Client::Options clean = ClientOptions(server.get(), "acme");
    clean.tracer = &tracer;
    Client client(std::move(clean));
    MustOk(client.Update("f", "product(A, B)"));
    ASSERT_TRUE(settled());
    baseline = tracer.TreeSignatureForTrace(client.last_trace_id());
  }
  ASSERT_NE(baseline.find("net/request"), std::string::npos);
  ASSERT_NE(baseline.find("net/execute"), std::string::npos);

  struct Mode {
    const char* name;
    FaultInjector (*make)(std::uint64_t nth);
  };
  const Mode kModes[] = {
      {"drop", [](std::uint64_t n) { return FaultInjector::DropFrameAt(n); }},
      {"duplicate",
       [](std::uint64_t n) { return FaultInjector::DuplicateFrameAt(n); }},
      {"truncate",
       [](std::uint64_t n) { return FaultInjector::TruncateFrameAt(n, 9); }},
      {"delay",
       [](std::uint64_t n) { return FaultInjector::DelayFrameAt(n, 5); }},
      {"disconnect",
       [](std::uint64_t n) { return FaultInjector::DisconnectAt(n); }},
  };
  for (const Mode& mode : kModes) {
    for (std::uint64_t nth = 1; nth <= 4; ++nth) {
      FaultInjector injector = mode.make(nth);
      Client::Options faulty =
          ClientOptions(server.get(), "acme", /*max_attempts=*/6);
      faulty.injector = &injector;
      faulty.tracer = &tracer;
      Client client(std::move(faulty));
      for (int call = 0; call < 2; ++call) {
        MustOk(client.Update("f", "product(A, B)"));
        ASSERT_TRUE(settled())
            << mode.name << " at op " << nth << " call " << call;
        EXPECT_EQ(tracer.TreeSignatureForTrace(client.last_trace_id()),
                  baseline)
            << mode.name << " at op " << nth << " call " << call;
      }
    }
  }
}

TEST_F(NetServiceTest, ConcurrentTracedClientsKeepDistinctUncrossedFamilies) {
  TenantConfig tenant = Tenant("acme");
  tenant.incremental_views = false;
  tenant.max_concurrency = 2;  // real interleaving plus queueing
  Tracer tracer;
  ServerOptions options;
  options.tracer = &tracer;
  options.own_pool_workers = 8;
  auto server = MakeServer(MakeTempDir("srv"), {tenant}, std::move(options));
  {
    Client seed(ClientOptions(server.get(), "acme"));
    MustOk(seed.ApplyDelta("delta { add object A(1); add object B(5); }"));
    // Warm the statement so every traced call below is a no-op
    // re-application — all twelve families must then pin one shape.
    MustOk(seed.Update("f", "product(A, B)"));
  }

  constexpr int kThreads = 4, kCalls = 3;
  std::vector<std::uint64_t> ids(
      static_cast<std::size_t>(kThreads * kCalls), 0);
  std::vector<std::thread> workers;
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      Client::Options traced =
          ClientOptions(server.get(), "acme", /*max_attempts=*/8);
      traced.tracer = &tracer;
      Client client(std::move(traced));
      for (int i = 0; i < kCalls; ++i) {
        Result<Response> r = client.Update("f", "product(A, B)");
        if (!r.ok() || r->code != StatusCode::kOk) failures.fetch_add(1);
        ids[static_cast<std::size_t>(t * kCalls + i)] = client.last_trace_id();
      }
    });
  }
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(failures.load(), 0);

  // Every call minted a distinct, nonzero family id...
  const std::set<std::uint64_t> distinct(ids.begin(), ids.end());
  EXPECT_EQ(distinct.size(), ids.size());
  EXPECT_EQ(distinct.count(0), 0u);

  // ...and no family absorbed another's spans: each holds exactly one
  // client call span and pins the same tree as every other — concurrency
  // cannot reshape or cross-wire parentage.
  std::map<std::uint64_t, int> calls_per_family;
  for (const SpanEvent& e : tracer.Events()) {
    if (std::string_view(e.name) == "net/call") {
      calls_per_family[e.trace_id] += 1;
    }
  }
  const std::string pinned = tracer.TreeSignatureForTrace(ids[0]);
  ASSERT_FALSE(pinned.empty());
  for (std::uint64_t id : ids) {
    EXPECT_EQ(calls_per_family[id], 1) << "trace " << id;
    EXPECT_EQ(tracer.TreeSignatureForTrace(id), pinned) << "trace " << id;
  }
}

}  // namespace
}  // namespace setrec
