// Tests for the durability subsystem (store/): the checksummed WAL, the
// snapshot/checkpoint files, the retry schedule, and DurableStore's
// crash-consistency contract. The acceptance core is the recovery matrix:
// a commit killed at EVERY exec probe point, torn at EVERY byte of its WAL
// record, or hit by a partial fsync / silent bit flip, must recover to
// exactly the pre-statement or post-statement instance — never a hybrid —
// with the torn-tail cases recovering the longest valid prefix.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/fault_injection.h"
#include "core/instance.h"
#include "core/schema.h"
#include "core/status.h"
#include "obs/metrics.h"
#include "relational/builder.h"
#include "sql/engine.h"
#include "sql/table.h"
#include "store/durable_store.h"
#include "store/retry.h"
#include "store/snapshot.h"
#include "store/wal.h"
#include "text/printer.h"

namespace setrec {
namespace {

// -- Filesystem helpers ------------------------------------------------------

/// A fresh, empty directory unique to the running test (and `tag`, for tests
/// that need several stores).
std::string MakeTempDir(const std::string& tag) {
  const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "setrec_store_test" /
      (std::string(info->test_suite_name()) + "." + info->name() + "." + tag);
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir.string();
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

std::string WalFile(const std::string& dir) {
  return (std::filesystem::path(dir) / "wal.log").string();
}

std::string CommitFlightFile(const std::string& dir) {
  return (std::filesystem::path(dir) / "flight-commit.jsonl").string();
}

std::string RecoveryFlightFile(const std::string& dir) {
  return (std::filesystem::path(dir) / "flight-recovery.jsonl").string();
}

/// Asserts that `path` names a parseable flight-recorder dump: it exists,
/// its first line is the flight header, every line is one JSON object, and
/// no raw control character leaked through the escaper.
void AssertFlightDump(const std::string& path) {
  ASSERT_FALSE(path.empty()) << "no flight dump was referenced";
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "flight dump missing: " << path;
  std::string line;
  std::size_t lines = 0;
  while (std::getline(in, line)) {
    ASSERT_FALSE(line.empty()) << path;
    EXPECT_EQ(line.front(), '{') << path << ": " << line;
    EXPECT_EQ(line.back(), '}') << path << ": " << line;
    for (const char c : line) {
      ASSERT_GE(static_cast<unsigned char>(c), 0x20u)
          << "raw control character in flight dump " << path;
    }
    if (lines == 0) {
      EXPECT_EQ(line.rfind("{\"type\":\"flight\",\"reason\":\"", 0), 0u)
          << path << " does not start with the flight header: " << line;
    }
    ++lines;
  }
  // Header plus at least one event (the store always records the commit or
  // recovery that triggered the dump).
  EXPECT_GE(lines, 2u) << path << " holds no events";
}

// -- CRC ---------------------------------------------------------------------

TEST(Crc32Test, MatchesKnownVectorsAndChains) {
  // The IEEE 802.3 check value for "123456789".
  EXPECT_EQ(Crc32("123456789"), 0xcbf43926u);
  EXPECT_EQ(Crc32(""), 0u);
  // Chaining is equivalent to one pass over the concatenation.
  EXPECT_EQ(Crc32("6789", Crc32("12345")), Crc32("123456789"));
  // Any single-bit flip changes the checksum.
  std::string data = "the quick brown fox";
  const std::uint32_t clean = Crc32(data);
  data[5] ^= 0x10;
  EXPECT_NE(Crc32(data), clean);
}

// -- WAL reader/writer -------------------------------------------------------

const std::vector<std::string> kPayloads = {"alpha", "beta payload",
                                            "gamma gamma gamma"};

/// Writes kPayloads as records 1..3 and returns the pristine replay.
WalReplay WriteThreeRecords(const std::string& path) {
  WalWriter writer = std::move(WalWriter::Open(path, 0, 1)).value();
  for (const std::string& p : kPayloads) {
    EXPECT_TRUE(writer.Append(p).ok());
  }
  EXPECT_TRUE(writer.Sync().ok());
  writer.Close();
  return std::move(ReadWal(path)).value();
}

TEST(WalTest, RoundTripAndMissingFile) {
  const std::string dir = MakeTempDir("wal");
  const WalReplay replay = WriteThreeRecords(WalFile(dir));
  ASSERT_EQ(replay.records.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(replay.records[i].sequence, i + 1);
    EXPECT_EQ(replay.records[i].payload, kPayloads[i]);
  }
  EXPECT_FALSE(replay.torn_tail);
  EXPECT_EQ(replay.valid_bytes, replay.total_bytes);
  EXPECT_EQ(replay.dropped_bytes(), 0u);
  EXPECT_EQ(replay.record_ends.size(), 3u);
  EXPECT_EQ(replay.record_ends.back(), replay.total_bytes);

  // A missing file is an empty OK replay, not an error.
  Result<WalReplay> missing = ReadWal(WalFile(dir) + ".nope");
  ASSERT_TRUE(missing.ok());
  EXPECT_TRUE(missing->records.empty());
  EXPECT_FALSE(missing->torn_tail);
}

TEST(WalTest, ZeroLengthAndMissingLogsAreCleanEmptyReplays) {
  const std::string dir = MakeTempDir("wal");
  // Missing-but-expected: a store that never committed has no log at all.
  WalReplay missing = std::move(ReadWal(WalFile(dir))).value();
  EXPECT_FALSE(missing.file_present);
  EXPECT_TRUE(missing.records.empty());
  EXPECT_FALSE(missing.torn_tail);
  EXPECT_EQ(missing.total_bytes, 0u);
  EXPECT_EQ(missing.valid_bytes, 0u);

  // Zero-length: exactly what a crash between file creation and the first
  // append leaves behind. Clean, not a torn tail.
  WriteFileBytes(WalFile(dir), "");
  WalReplay empty = std::move(ReadWal(WalFile(dir))).value();
  EXPECT_TRUE(empty.file_present);
  EXPECT_TRUE(empty.records.empty());
  EXPECT_FALSE(empty.torn_tail);
  EXPECT_TRUE(empty.tail_reason.empty());
  EXPECT_EQ(empty.total_bytes, 0u);
  EXPECT_EQ(empty.dropped_bytes(), 0u);
}

TEST(WalTest, TruncationAtEveryByteRecoversTheLongestValidPrefix) {
  const std::string dir = MakeTempDir("wal");
  const WalReplay pristine = WriteThreeRecords(WalFile(dir));
  const std::string bytes = ReadFileBytes(WalFile(dir));
  ASSERT_EQ(bytes.size(), pristine.total_bytes);

  const std::string torn_path = WalFile(dir) + ".torn";
  for (std::size_t len = 0; len <= bytes.size(); ++len) {
    WriteFileBytes(torn_path, bytes.substr(0, len));
    Result<WalReplay> r = ReadWal(torn_path);
    ASSERT_TRUE(r.ok()) << "len " << len;
    // Expected: every record that ends at or before the cut survives.
    std::size_t expect = 0;
    while (expect < pristine.record_ends.size() &&
           pristine.record_ends[expect] <= len) {
      ++expect;
    }
    const std::uint64_t expect_valid =
        expect == 0 ? 0 : pristine.record_ends[expect - 1];
    EXPECT_EQ(r->records.size(), expect) << "len " << len;
    EXPECT_EQ(r->valid_bytes, expect_valid) << "len " << len;
    EXPECT_EQ(r->torn_tail, len != expect_valid) << "len " << len;
    EXPECT_EQ(r->dropped_bytes(), len - expect_valid) << "len " << len;
    if (r->torn_tail) {
      EXPECT_TRUE(r->tail_reason == "short header" ||
                  r->tail_reason == "short record")
          << "len " << len << ": " << r->tail_reason;
    }
  }
}

TEST(WalTest, BitFlipAnywhereDropsTheRecordAndItsSuffix) {
  const std::string dir = MakeTempDir("wal");
  const WalReplay pristine = WriteThreeRecords(WalFile(dir));
  const std::string bytes = ReadFileBytes(WalFile(dir));

  const std::string flipped_path = WalFile(dir) + ".flipped";
  for (std::size_t pos = 0; pos < bytes.size(); ++pos) {
    std::string corrupted = bytes;
    corrupted[pos] ^= 0x01;
    WriteFileBytes(flipped_path, corrupted);
    Result<WalReplay> r = ReadWal(flipped_path);
    ASSERT_TRUE(r.ok()) << "pos " << pos;
    // The record containing the flipped byte — and everything after it — is
    // dropped; everything before it survives untouched.
    std::size_t victim = 0;
    while (pristine.record_ends[victim] <= pos) ++victim;
    EXPECT_EQ(r->records.size(), victim) << "pos " << pos;
    EXPECT_TRUE(r->torn_tail) << "pos " << pos;
    for (std::size_t i = 0; i < r->records.size(); ++i) {
      EXPECT_EQ(r->records[i].payload, kPayloads[i]) << "pos " << pos;
    }
  }
}

TEST(WalTest, SequenceBreakTerminatesReplay) {
  const std::string dir = MakeTempDir("wal");
  const std::string path = WalFile(dir);
  {
    WalWriter w = std::move(WalWriter::Open(path, 0, 1)).value();
    ASSERT_TRUE(w.Append("one").ok());
    ASSERT_TRUE(w.Sync().ok());
  }
  {
    // A second writer stamped with a gap: record sequences 1 then 7.
    const std::uint64_t end =
        std::filesystem::file_size(std::filesystem::path(path));
    WalWriter w = std::move(WalWriter::Open(path, end, 7)).value();
    ASSERT_TRUE(w.Append("seven").ok());
    ASSERT_TRUE(w.Sync().ok());
  }
  const WalReplay r = std::move(ReadWal(path)).value();
  ASSERT_EQ(r.records.size(), 1u);
  EXPECT_EQ(r.records[0].payload, "one");
  EXPECT_TRUE(r.torn_tail);
  EXPECT_EQ(r.tail_reason, "sequence break");
  EXPECT_GT(r.dropped_bytes(), 0u);
}

TEST(WalTest, ReopenTruncatesTheTornTailBeforeAppending) {
  const std::string dir = MakeTempDir("wal");
  const std::string path = WalFile(dir);
  const WalReplay pristine = WriteThreeRecords(path);
  // Tear the file mid-record-3.
  const std::string bytes = ReadFileBytes(path);
  WriteFileBytes(path, bytes.substr(0, pristine.record_ends[1] + 5));

  const WalReplay torn = std::move(ReadWal(path)).value();
  ASSERT_EQ(torn.records.size(), 2u);
  ASSERT_TRUE(torn.torn_tail);

  // Reopening at the valid prefix drops the tail; the next append continues
  // the sequence cleanly.
  WalWriter w = std::move(WalWriter::Open(path, torn.valid_bytes,
                                          torn.records.back().sequence + 1))
                    .value();
  Result<std::uint64_t> seq = w.Append("delta");
  ASSERT_TRUE(seq.ok());
  EXPECT_EQ(*seq, 3u);
  ASSERT_TRUE(w.Sync().ok());
  w.Close();

  const WalReplay healed = std::move(ReadWal(path)).value();
  ASSERT_EQ(healed.records.size(), 3u);
  EXPECT_FALSE(healed.torn_tail);
  EXPECT_EQ(healed.records[2].payload, "delta");
}

// -- WAL writer under injected storage faults --------------------------------

TEST(WalWriterFaultTest, TornWritePersistsThePrefixAndBreaksTheWriter) {
  const std::string dir = MakeTempDir("wal");
  const std::string path = WalFile(dir);
  FaultInjector inj = FaultInjector::TornWriteAt(1, 7);
  WalWriter w = std::move(WalWriter::Open(path, 0, 1, &inj)).value();
  Result<std::uint64_t> r = w.Append("doomed payload");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInternal);
  EXPECT_TRUE(w.broken());
  EXPECT_EQ(inj.storage_ops_seen(), 1u);
  EXPECT_EQ(inj.storage_faults_fired(), 1u);
  // The writer is poisoned: every further operation refuses.
  EXPECT_EQ(w.Append("more").status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(w.Sync().code(), StatusCode::kFailedPrecondition);
  w.Close();
  // Exactly the torn prefix reached the medium; replay drops it as a tail.
  EXPECT_EQ(ReadFileBytes(path).size(), 7u);
  const WalReplay replay = std::move(ReadWal(path)).value();
  EXPECT_TRUE(replay.records.empty());
  EXPECT_TRUE(replay.torn_tail);
  EXPECT_EQ(replay.tail_reason, "short header");
}

TEST(WalWriterFaultTest, PartialFsyncDropsTheUnsyncedTail) {
  const std::string dir = MakeTempDir("wal");
  const std::string path = WalFile(dir);
  // Ops: append(1)=1, sync=2, append(2)=3, sync=4 <- fires.
  FaultInjector inj = FaultInjector::PartialFsyncAt(4);
  WalWriter w = std::move(WalWriter::Open(path, 0, 1, &inj)).value();
  ASSERT_TRUE(w.Append("first").ok());
  ASSERT_TRUE(w.Sync().ok());
  ASSERT_TRUE(w.Append("second").ok());
  Status s = w.Sync();
  ASSERT_FALSE(s.ok());
  EXPECT_TRUE(w.broken());
  w.Close();
  // Record 1 was synced and survives; record 2 never reached the medium.
  const WalReplay replay = std::move(ReadWal(path)).value();
  ASSERT_EQ(replay.records.size(), 1u);
  EXPECT_EQ(replay.records[0].payload, "first");
  EXPECT_FALSE(replay.torn_tail);  // truncation fell exactly on a boundary
}

TEST(WalWriterFaultTest, BitFlipSucceedsSilentlyAndOnlyTheReaderDetects) {
  const std::string dir = MakeTempDir("wal");
  const std::string path = WalFile(dir);
  FaultInjector inj = FaultInjector::BitFlipAt(1, 20, 0x04);
  WalWriter w = std::move(WalWriter::Open(path, 0, 1, &inj)).value();
  // The write path reports success — the corruption is silent.
  ASSERT_TRUE(w.Append("payload under the flip").ok());
  ASSERT_TRUE(w.Sync().ok());
  EXPECT_FALSE(w.broken());
  w.Close();
  const WalReplay replay = std::move(ReadWal(path)).value();
  EXPECT_TRUE(replay.records.empty());
  EXPECT_TRUE(replay.torn_tail);
  EXPECT_EQ(replay.tail_reason, "bad crc");
}

// -- Snapshots ---------------------------------------------------------------

class SnapshotTest : public ::testing::Test {
 protected:
  void SetUp() override {
    a_ = schema_.AddClass("A").value();
    b_ = schema_.AddClass("B").value();
    f_ = schema_.AddProperty("f", a_, b_).value();
  }

  Instance MakeInstance() const {
    Instance inst(&schema_);
    EXPECT_TRUE(inst.AddObject(ObjectId(a_, 1)).ok());
    EXPECT_TRUE(inst.AddObject(ObjectId(a_, 2)).ok());
    EXPECT_TRUE(inst.AddObject(ObjectId(b_, 5)).ok());
    EXPECT_TRUE(inst.AddEdge(ObjectId(a_, 1), f_, ObjectId(b_, 5)).ok());
    return inst;
  }

  Schema schema_;
  ClassId a_ = 0, b_ = 0;
  PropertyId f_ = 0;
};

TEST_F(SnapshotTest, RoundTripPreservesInstanceAndSequence) {
  const std::string dir = MakeTempDir("snap");
  const std::string path = (std::filesystem::path(dir) / "s.snap").string();
  const Instance inst = MakeInstance();
  ASSERT_TRUE(WriteSnapshot(path, inst, 7).ok());
  Result<SnapshotData> r = ReadSnapshot(path, &schema_);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->sequence, 7u);
  EXPECT_TRUE(r->instance == inst);
}

TEST_F(SnapshotTest, MissingIsNotFoundAndEveryDefectIsCorruptedLog) {
  const std::string dir = MakeTempDir("snap");
  const std::string path = (std::filesystem::path(dir) / "s.snap").string();
  EXPECT_EQ(ReadSnapshot(path, &schema_).status().code(),
            StatusCode::kNotFound);

  ASSERT_TRUE(WriteSnapshot(path, MakeInstance(), 7).ok());
  const std::string bytes = ReadFileBytes(path);

  // Bit rot anywhere in the body.
  std::string flipped = bytes;
  flipped[bytes.size() - 3] ^= 0x01;
  WriteFileBytes(path, flipped);
  EXPECT_EQ(ReadSnapshot(path, &schema_).status().code(),
            StatusCode::kCorruptedLog);

  // A torn (truncated) snapshot.
  WriteFileBytes(path, bytes.substr(0, bytes.size() / 2));
  EXPECT_EQ(ReadSnapshot(path, &schema_).status().code(),
            StatusCode::kCorruptedLog);

  // A foreign file.
  WriteFileBytes(path, "not a snapshot at all\n");
  EXPECT_EQ(ReadSnapshot(path, &schema_).status().code(),
            StatusCode::kCorruptedLog);

  // The intact bytes still read back fine.
  WriteFileBytes(path, bytes);
  EXPECT_TRUE(ReadSnapshot(path, &schema_).ok());
}

// -- Retry schedule ----------------------------------------------------------

TEST(RetryScheduleTest, OnlyRetryableCodesAreRetried) {
  RetryPolicy policy;
  policy.max_attempts = 5;
  for (const Status& s :
       {Status::Internal("x"), Status::InvalidArgument("x"),
        Status::Cancelled("x"), Status::CorruptedLog("x"),
        Status::FailedPrecondition("x")}) {
    RetrySchedule schedule(policy);
    EXPECT_FALSE(schedule.ShouldRetry(s)) << s.ToString();
  }
  for (const Status& s :
       {Status::ResourceExhausted("x"), Status::DeadlineExceeded("x")}) {
    RetrySchedule schedule(policy);
    EXPECT_TRUE(schedule.ShouldRetry(s)) << s.ToString();
  }
}

TEST(RetryScheduleTest, ConsumesAttemptsAndStops) {
  RetryPolicy policy;
  policy.max_attempts = 3;
  RetrySchedule schedule(policy);
  const Status transient = Status::ResourceExhausted("budget");
  EXPECT_TRUE(schedule.ShouldRetry(transient));   // attempt 2 granted
  EXPECT_TRUE(schedule.ShouldRetry(transient));   // attempt 3 granted
  EXPECT_FALSE(schedule.ShouldRetry(transient));  // out of attempts
  EXPECT_EQ(schedule.attempts_used(), 3u);

  RetryPolicy once;
  once.max_attempts = 1;
  RetrySchedule none(once);
  EXPECT_FALSE(none.ShouldRetry(transient));
}

TEST(RetryScheduleTest, DelaysAreDeterministicBoundedAndJittered) {
  RetryPolicy policy;
  policy.max_attempts = 10;
  policy.base_delay = std::chrono::milliseconds(1);
  policy.max_delay = std::chrono::milliseconds(8);
  policy.multiplier = 2.0;
  policy.jitter_seed = 42;

  auto delays = [&policy] {
    RetrySchedule schedule(policy);
    std::vector<std::chrono::nanoseconds> out;
    for (int i = 0; i < 9; ++i) out.push_back(schedule.NextDelay());
    return out;
  };
  const auto a = delays();
  EXPECT_EQ(a, delays());  // bit-identical for a fixed seed

  // Attempt k's uncapped base is 1ms * 2^(k-1), capped at 8ms; jitter keeps
  // the delay within [base/2, base).
  std::int64_t base_ns = 1'000'000;
  for (std::size_t k = 0; k < a.size(); ++k) {
    EXPECT_GE(a[k].count(), base_ns / 2) << "attempt " << k;
    EXPECT_LT(a[k].count(), base_ns) << "attempt " << k;
    base_ns = std::min<std::int64_t>(base_ns * 2, 8'000'000);
  }

  RetryPolicy other = policy;
  other.jitter_seed = 43;
  RetrySchedule different(other);
  std::vector<std::chrono::nanoseconds> b;
  for (int i = 0; i < 9; ++i) b.push_back(different.NextDelay());
  EXPECT_NE(a, b);  // the seed actually feeds the jitter
}

TEST(RetryScheduleTest, DisablingJitterYieldsTheExactExponentialLadder) {
  RetryPolicy policy;
  policy.max_attempts = 10;
  policy.base_delay = std::chrono::milliseconds(1);
  policy.max_delay = std::chrono::milliseconds(8);
  policy.multiplier = 2.0;
  policy.jitter = false;
  policy.jitter_seed = 42;

  auto delays = [](const RetryPolicy& p) {
    RetrySchedule schedule(p);
    std::vector<std::chrono::nanoseconds> out;
    for (int i = 0; i < 6; ++i) out.push_back(schedule.NextDelay());
    return out;
  };
  // The exact capped exponential — no spread: 1, 2, 4, then pinned at 8.
  const std::vector<std::chrono::nanoseconds> expected = {
      std::chrono::milliseconds(1), std::chrono::milliseconds(2),
      std::chrono::milliseconds(4), std::chrono::milliseconds(8),
      std::chrono::milliseconds(8), std::chrono::milliseconds(8)};
  const auto a = delays(policy);
  EXPECT_EQ(a, expected);

  // With jitter off the seed is inert: schedules are seed-independent.
  RetryPolicy other = policy;
  other.jitter_seed = 43;
  EXPECT_EQ(delays(other), a);
}

TEST(RetryScheduleTest, ConcurrentConsumersShareOneDeterministicStream) {
  // The net client hands one schedule to many sessions that retry
  // independently: grants and jitter draws must interleave without races,
  // and for a fixed seed the *set* of delays handed out must be exactly the
  // single-threaded sequence — threads race for position in the stream, but
  // the stream itself is deterministic and nothing is lost or duplicated.
  RetryPolicy policy;
  policy.max_attempts = 49;  // 48 grants split across the workers
  policy.base_delay = std::chrono::milliseconds(1);
  policy.max_delay = std::chrono::milliseconds(8);
  policy.multiplier = 2.0;
  policy.jitter_seed = 1234;

  std::vector<std::chrono::nanoseconds> expected;
  {
    RetrySchedule reference(policy);
    const Status transient = Status::ResourceExhausted("budget");
    while (reference.ShouldRetry(transient)) {
      expected.push_back(reference.NextDelay());
    }
  }
  ASSERT_EQ(expected.size(), 48u);

  constexpr std::size_t kWorkers = 8;
  RetrySchedule shared(policy);
  std::vector<std::vector<std::chrono::nanoseconds>> drained(kWorkers);
  std::vector<std::thread> workers;
  for (std::size_t w = 0; w < kWorkers; ++w) {
    workers.emplace_back([&shared, &drained, w] {
      const Status transient = Status::ResourceExhausted("budget");
      while (shared.ShouldRetry(transient)) {
        drained[w].push_back(shared.NextDelay());
      }
    });
  }
  for (std::thread& w : workers) w.join();

  std::vector<std::chrono::nanoseconds> merged;
  for (const auto& d : drained) {
    merged.insert(merged.end(), d.begin(), d.end());
  }
  EXPECT_EQ(merged.size(), expected.size());
  std::sort(merged.begin(), merged.end());
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(merged, expected);
  EXPECT_EQ(shared.attempts_used(), policy.max_attempts);
}

TEST(RetryScheduleTest, NormalizeRetryPolicyClampsPathologicalConfigs) {
  RetryPolicy bad;
  bad.max_attempts = 0;
  bad.base_delay = std::chrono::milliseconds(-5);
  bad.max_delay = std::chrono::milliseconds(-7);
  bad.multiplier = 0.25;
  const RetryPolicy fixed = NormalizeRetryPolicy(bad);
  EXPECT_EQ(fixed.max_attempts, 1u);  // the initial attempt always runs
  EXPECT_EQ(fixed.base_delay.count(), 0);
  EXPECT_EQ(fixed.max_delay.count(), 0);
  EXPECT_EQ(fixed.multiplier, 1.0);  // backoff never shrinks

  // A cap below the base is raised to the base, never the other way: the
  // configured floor wins over the miswritten ceiling.
  RetryPolicy inverted;
  inverted.base_delay = std::chrono::milliseconds(4);
  inverted.max_delay = std::chrono::milliseconds(1);
  const RetryPolicy raised = NormalizeRetryPolicy(inverted);
  EXPECT_EQ(raised.base_delay, std::chrono::milliseconds(4));
  EXPECT_EQ(raised.max_delay, std::chrono::milliseconds(4));

  // NaN multipliers degrade to a constant schedule instead of poisoning
  // every comparison downstream.
  RetryPolicy nan_mult;
  nan_mult.multiplier = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(NormalizeRetryPolicy(nan_mult).multiplier, 1.0);

  // RetrySchedule normalizes on construction: a zero-attempt policy still
  // accounts for the initial attempt and grants nothing.
  RetrySchedule none(bad);
  EXPECT_FALSE(none.ShouldRetry(Status::ResourceExhausted("x")));
  EXPECT_EQ(none.attempts_used(), 1u);

  // ... and a shrinking multiplier under an inverted cap flattens into a
  // constant 4ms ladder instead of decaying toward zero.
  RetryPolicy shrink = inverted;
  shrink.max_attempts = 4;
  shrink.multiplier = 0.5;
  shrink.jitter = false;
  RetrySchedule flat(shrink);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(flat.NextDelay(), std::chrono::milliseconds(4)) << i;
  }
}

// -- DurableStore: the simple A/B/f workload ---------------------------------

class DurableStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    a_ = schema_.AddClass("A").value();
    b_ = schema_.AddClass("B").value();
    f_ = schema_.AddProperty("f", a_, b_).value();
    // Expected states: states_[k] is the instance after step k; states_[0]
    // is empty. Every step has a non-empty delta.
    Instance state(&schema_);
    states_.push_back(state);
    for (std::uint32_t k = 1; k <= kSteps; ++k) {
      ASSERT_TRUE(ApplyStep(state, k).ok());
      states_.push_back(state);
    }
  }

  /// One deterministic commit's worth of mutation: adds an A/B pair and an
  /// edge, retires the previous A object (cascading its edge).
  Status ApplyStep(Instance& inst, std::uint32_t k) const {
    SETREC_RETURN_IF_ERROR(inst.AddObject(ObjectId(a_, k)));
    SETREC_RETURN_IF_ERROR(inst.AddObject(ObjectId(b_, k % 3)));
    SETREC_RETURN_IF_ERROR(
        inst.AddEdge(ObjectId(a_, k), f_, ObjectId(b_, k % 3)));
    if (k > 1) {
      SETREC_RETURN_IF_ERROR(inst.RemoveObject(ObjectId(a_, k - 1)));
    }
    return Status::OK();
  }

  /// Commits step k through the store's Mutate statement.
  Status CommitStep(DurableStore& store, std::uint32_t k) const {
    return store.Mutate([this, k](Instance& inst, ExecContext&) {
      return ApplyStep(inst, k);
    });
  }

  /// Runs steps 1..upto against a freshly opened store in `dir`.
  std::unique_ptr<DurableStore> OpenAndRun(const std::string& dir,
                                           std::uint32_t upto,
                                           DurableStoreOptions options = {}) {
    auto store =
        std::move(DurableStore::Open(dir, &schema_, options)).value();
    for (std::uint32_t k = 1; k <= upto; ++k) {
      EXPECT_TRUE(CommitStep(*store, k).ok()) << "step " << k;
    }
    return store;
  }

  /// Reopens `dir` with no injector and returns the recovered state.
  Instance Recover(const std::string& dir, RecoveryReport* report = nullptr) {
    auto store =
        std::move(DurableStore::Open(dir, &schema_, {}, report)).value();
    return store->SnapshotState();
  }

  static constexpr std::uint32_t kSteps = 5;

  Schema schema_;
  ClassId a_ = 0, b_ = 0;
  PropertyId f_ = 0;
  std::vector<Instance> states_;
};

TEST_F(DurableStoreTest, CommitsReplayExactlyOnRecovery) {
  const std::string dir = MakeTempDir("store");
  {
    auto store = OpenAndRun(dir, kSteps);
    EXPECT_TRUE(store->instance() == states_[kSteps]);
    EXPECT_EQ(store->last_sequence(), kSteps);
    EXPECT_FALSE(store->broken());
  }
  RecoveryReport report;
  const Instance recovered = Recover(dir, &report);
  EXPECT_TRUE(recovered == states_[kSteps]);
  EXPECT_FALSE(report.snapshot_loaded);
  EXPECT_EQ(report.replayed_records, kSteps);
  EXPECT_EQ(report.last_sequence, kSteps);
  EXPECT_FALSE(report.torn_tail);
  EXPECT_EQ(report.dropped_bytes, 0u);
}

TEST_F(DurableStoreTest, NoOpAndFailedStatementsLeaveNoRecord) {
  const std::string dir = MakeTempDir("store");
  auto store = OpenAndRun(dir, 2);
  const std::uint64_t seq = store->last_sequence();

  // A statement that changes nothing is acknowledged without a record.
  EXPECT_TRUE(
      store->Mutate([](Instance&, ExecContext&) { return Status::OK(); })
          .ok());
  EXPECT_EQ(store->last_sequence(), seq);

  // A failing statement neither logs nor mutates.
  Status s = store->Mutate([this](Instance& inst, ExecContext&) {
    (void)inst.AddObject(ObjectId(a_, 99));
    return Status::Internal("deliberate");
  });
  EXPECT_EQ(s.code(), StatusCode::kInternal);
  EXPECT_EQ(store->last_sequence(), seq);
  EXPECT_TRUE(store->instance() == states_[2]);
  store.reset();
  EXPECT_TRUE(Recover(dir) == states_[2]);
}

/// Commit is a group commit of one: the five steps committed one Commit at
/// a time and the same five in one CommitBatch log byte-identical records,
/// count the same commits and recover the same instance.
TEST_F(DurableStoreTest, CommitAndCommitBatchLogTheSameRecords) {
  std::vector<DurableStore::Statement> statements;
  for (std::uint32_t k = 1; k <= kSteps; ++k) {
    statements.push_back(
        [this, k](Instance& inst, ExecContext&, const CommitHook& commit) {
          return RunJournaled(
              inst, [&] { return ApplyStep(inst, k); }, commit);
        });
  }
  const std::string single_dir = MakeTempDir("single");
  const std::string batch_dir = MakeTempDir("batch");
  MetricsRegistry single_metrics;
  MetricsRegistry batch_metrics;
  {
    DurableStoreOptions options;
    options.metrics = &single_metrics;
    auto store =
        std::move(DurableStore::Open(single_dir, &schema_, options)).value();
    for (const DurableStore::Statement& statement : statements) {
      ASSERT_TRUE(store->Commit(statement).ok());
    }
  }
  {
    DurableStoreOptions options;
    options.metrics = &batch_metrics;
    auto store =
        std::move(DurableStore::Open(batch_dir, &schema_, options)).value();
    std::vector<Status> results;
    ASSERT_TRUE(store->CommitBatch(statements, &results).ok());
    for (const Status& result : results) {
      EXPECT_TRUE(result.ok()) << result.ToString();
    }
  }
  EXPECT_EQ(ReadFileBytes(WalFile(single_dir)),
            ReadFileBytes(WalFile(batch_dir)));
  EXPECT_EQ(single_metrics.engine.store_commits.value(), kSteps);
  EXPECT_EQ(batch_metrics.engine.store_commits.value(), kSteps);
  EXPECT_EQ(single_metrics.engine.wal_fsyncs.value(), kSteps);
  EXPECT_EQ(batch_metrics.engine.wal_fsyncs.value(), 1u);
  EXPECT_TRUE(Recover(single_dir) == states_[kSteps]);
  EXPECT_TRUE(Recover(batch_dir) == states_[kSteps]);
}

/// The engine fsyncs if and only if it appended a record: a batch whose
/// statements all change nothing is acknowledged without one, exactly like
/// a single no-op commit.
TEST_F(DurableStoreTest, NoOpBatchSkipsTheFsync) {
  MetricsRegistry metrics;
  DurableStoreOptions options;
  options.metrics = &metrics;
  auto store = OpenAndRun(MakeTempDir("store"), 2, options);
  const std::uint64_t fsyncs = metrics.engine.wal_fsyncs.value();
  const std::uint64_t commits = metrics.engine.store_commits.value();
  const DurableStore::Statement no_op =
      [](Instance& inst, ExecContext&, const CommitHook& commit) {
        return RunJournaled(inst, [] { return Status::OK(); }, commit);
      };
  const std::vector<DurableStore::Statement> statements = {no_op, no_op,
                                                           no_op};
  std::vector<Status> results;
  ASSERT_TRUE(store->CommitBatch(statements, &results).ok());
  for (const Status& result : results) {
    EXPECT_TRUE(result.ok()) << result.ToString();
  }
  EXPECT_EQ(metrics.engine.wal_fsyncs.value(), fsyncs);
  EXPECT_EQ(metrics.engine.store_commits.value(), commits + 3);
  EXPECT_EQ(store->last_sequence(), 2u);
  EXPECT_TRUE(store->instance() == states_[2]);
}

TEST_F(DurableStoreTest, AutoCheckpointTruncatesTheWalAndPrunesSnapshots) {
  const std::string dir = MakeTempDir("store");
  DurableStoreOptions options;
  options.snapshot_every_n_commits = 2;
  options.keep_snapshots = 2;
  { auto store = OpenAndRun(dir, kSteps, options); }

  // Checkpoints fired after commits 2 and 4; the WAL holds only record 5.
  const WalReplay replay = std::move(ReadWal(WalFile(dir))).value();
  ASSERT_EQ(replay.records.size(), 1u);
  EXPECT_EQ(replay.records[0].sequence, kSteps);

  std::size_t snapshot_files = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    snapshot_files +=
        entry.path().extension() == ".snap" ? std::size_t{1} : 0;
  }
  EXPECT_EQ(snapshot_files, 2u);  // keep_snapshots honored

  RecoveryReport report;
  EXPECT_TRUE(Recover(dir, &report) == states_[kSteps]);
  EXPECT_TRUE(report.snapshot_loaded);
  EXPECT_EQ(report.snapshot_sequence, 4u);
  EXPECT_EQ(report.replayed_records, 1u);
  EXPECT_EQ(report.last_sequence, kSteps);
}

TEST_F(DurableStoreTest, RecoveryFallsBackAcrossCorruptAndMissingSnapshots) {
  const std::string dir = MakeTempDir("store");
  DurableStoreOptions options;
  // Keep the full log so older snapshots (and even no snapshot) can still
  // bridge to the present.
  options.truncate_wal_on_checkpoint = false;
  options.snapshot_every_n_commits = 2;
  options.keep_snapshots = 99;
  { auto store = OpenAndRun(dir, kSteps, options); }

  std::vector<std::string> snapshots;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() == ".snap") {
      snapshots.push_back(entry.path().string());
    }
  }
  ASSERT_EQ(snapshots.size(), 2u);  // after commits 2 and 4

  // Corrupt the newest snapshot: recovery skips it, uses the older one, and
  // still lands on the final state via the longer replay.
  std::sort(snapshots.begin(), snapshots.end());
  const std::string newest = snapshots.back();
  std::string bytes = ReadFileBytes(newest);
  bytes[bytes.size() / 2] ^= 0x01;
  WriteFileBytes(newest, bytes);

  RecoveryReport report;
  EXPECT_TRUE(Recover(dir, &report) == states_[kSteps]);
  EXPECT_TRUE(report.snapshot_loaded);
  EXPECT_EQ(report.snapshots_skipped, 1u);
  EXPECT_EQ(report.snapshot_sequence, 2u);
  EXPECT_EQ(report.replayed_records, kSteps - 2);

  // Destroy every snapshot: recovery degrades to empty + full replay.
  for (const std::string& path : snapshots) {
    std::filesystem::remove(path);
  }
  RecoveryReport bare;
  EXPECT_TRUE(Recover(dir, &bare) == states_[kSteps]);
  EXPECT_FALSE(bare.snapshot_loaded);
  EXPECT_EQ(bare.replayed_records, kSteps);
}

TEST_F(DurableStoreTest, ExplicitCheckpointSurvivesRecovery) {
  const std::string dir = MakeTempDir("store");
  {
    auto store = OpenAndRun(dir, 3);
    ASSERT_TRUE(store->Checkpoint().ok());
    ASSERT_TRUE(CommitStep(*store, 4).ok());
  }
  RecoveryReport report;
  EXPECT_TRUE(Recover(dir, &report) == states_[4]);
  EXPECT_TRUE(report.snapshot_loaded);
  EXPECT_EQ(report.snapshot_sequence, 3u);
  EXPECT_EQ(report.replayed_records, 1u);
}

// -- The recovery matrix (acceptance) ----------------------------------------

/// Truncating the WAL at EVERY byte yields exactly states_[r], where r is
/// the number of whole records below the cut — commit boundaries and only
/// commit boundaries are the recoverable states (never a hybrid).
TEST_F(DurableStoreTest, RecoveryMatrixTornTailAtEveryByte) {
  const std::string dir = MakeTempDir("full");
  { auto store = OpenAndRun(dir, kSteps); }
  const WalReplay pristine = std::move(ReadWal(WalFile(dir))).value();
  ASSERT_EQ(pristine.records.size(), kSteps);
  const std::string bytes = ReadFileBytes(WalFile(dir));

  const std::string torn_dir = MakeTempDir("torn");
  for (std::size_t len = 0; len <= bytes.size(); ++len) {
    std::filesystem::remove_all(torn_dir);
    std::filesystem::create_directories(torn_dir);
    WriteFileBytes(WalFile(torn_dir), bytes.substr(0, len));

    std::size_t r = 0;
    while (r < pristine.record_ends.size() &&
           pristine.record_ends[r] <= len) {
      ++r;
    }
    RecoveryReport report;
    const Instance recovered = Recover(torn_dir, &report);
    EXPECT_TRUE(recovered == states_[r])
        << "cut at byte " << len << " recovered a state that is neither the "
        << "pre- nor the post-commit instance of record " << r + 1;
    EXPECT_EQ(report.replayed_records, r) << "cut at byte " << len;
    const std::uint64_t valid = r == 0 ? 0 : pristine.record_ends[r - 1];
    EXPECT_EQ(report.torn_tail, len != valid) << "cut at byte " << len;
    EXPECT_EQ(report.dropped_bytes, len - valid) << "cut at byte " << len;
    // Every torn recovery leaves a flight dump behind and points at it.
    if (report.torn_tail) {
      EXPECT_EQ(report.flight_dump_path, RecoveryFlightFile(torn_dir))
          << "cut at byte " << len;
      // The full parse check once per record suffices; the path/existence
      // check above runs at every byte.
      if (r < pristine.record_ends.size() &&
          len + 1 == pristine.record_ends[r]) {
        AssertFlightDump(report.flight_dump_path);
      }
    } else {
      EXPECT_TRUE(report.flight_dump_path.empty()) << "cut at byte " << len;
    }
  }
}

/// Kills the final commit by tearing its WAL record at EVERY byte offset.
/// The in-memory state must roll back to the pre-statement instance, the
/// store must refuse further commits, and recovery must return exactly the
/// pre-statement state.
TEST_F(DurableStoreTest, RecoveryMatrixTornWriteAtEveryOffsetOfTheCommit) {
  // The record the final commit writes: 16-byte header + the delta text.
  const std::string payload =
      DeltaToText(DiffInstances(states_[kSteps - 1], states_[kSteps]),
                  schema_);
  const std::size_t record_size = 16 + payload.size();
  // Storage ops consumed by the first kSteps-1 commits: append + sync each.
  const std::uint64_t ops_before = 2 * (kSteps - 1);

  for (std::size_t offset = 0; offset <= record_size; ++offset) {
    const std::string dir = MakeTempDir("o" + std::to_string(offset));
    FaultInjector inj = FaultInjector::TornWriteAt(ops_before + 1, offset);
    DurableStoreOptions options;
    options.injector = &inj;
    auto store = OpenAndRun(dir, kSteps - 1, options);
    ASSERT_TRUE(store->instance() == states_[kSteps - 1]);

    Status s = CommitStep(*store, kSteps);
    ASSERT_FALSE(s.ok()) << "offset " << offset;
    // The engine restored the pre-statement snapshot; the store is poisoned.
    EXPECT_TRUE(store->instance() == states_[kSteps - 1])
        << "offset " << offset;
    EXPECT_TRUE(store->broken()) << "offset " << offset;
    EXPECT_EQ(CommitStep(*store, kSteps).code(),
              StatusCode::kFailedPrecondition)
        << "offset " << offset;
    store.reset();

    // The terminal storage fault dumped the flight recorder next to the
    // WAL before the error surfaced.
    AssertFlightDump(CommitFlightFile(dir));

    RecoveryReport report;
    const Instance recovered = Recover(dir, &report);
    if (offset == record_size) {
      // The "crash after the write, before the ack" corner: the record is
      // fully durable, so recovery surfaces the unacknowledged commit —
      // still exactly a statement boundary, never a hybrid.
      EXPECT_TRUE(recovered == states_[kSteps]) << "offset " << offset;
      EXPECT_EQ(report.replayed_records, kSteps);
      EXPECT_FALSE(report.torn_tail);
      // A clean recovery after a commit-time fault points at the dump that
      // commit left behind.
      EXPECT_EQ(report.flight_dump_path, CommitFlightFile(dir));
    } else {
      EXPECT_TRUE(recovered == states_[kSteps - 1])
          << "offset " << offset << ": recovery returned a torn hybrid";
      EXPECT_EQ(report.replayed_records, kSteps - 1) << "offset " << offset;
      // A zero-byte tear leaves the file exactly at the previous boundary.
      EXPECT_EQ(report.torn_tail, offset != 0) << "offset " << offset;
      EXPECT_EQ(report.dropped_bytes, offset) << "offset " << offset;
      EXPECT_EQ(report.flight_dump_path, offset != 0
                                             ? RecoveryFlightFile(dir)
                                             : CommitFlightFile(dir))
          << "offset " << offset;
    }
  }
}

TEST_F(DurableStoreTest, RecoveryMatrixPartialFsyncVetoesTheCommit) {
  const std::string dir = MakeTempDir("store");
  // The final commit's sync is storage op 2*(kSteps-1) + 2.
  FaultInjector inj = FaultInjector::PartialFsyncAt(2 * (kSteps - 1) + 2);
  DurableStoreOptions options;
  options.injector = &inj;
  auto store = OpenAndRun(dir, kSteps - 1, options);

  Status s = CommitStep(*store, kSteps);
  ASSERT_FALSE(s.ok());
  EXPECT_TRUE(store->instance() == states_[kSteps - 1]);
  EXPECT_TRUE(store->broken());
  store.reset();
  AssertFlightDump(CommitFlightFile(dir));

  RecoveryReport report;
  EXPECT_TRUE(Recover(dir, &report) == states_[kSteps - 1]);
  EXPECT_EQ(report.replayed_records, kSteps - 1);
  EXPECT_FALSE(report.torn_tail);  // the dropped tail was a whole record
  EXPECT_EQ(report.flight_dump_path, CommitFlightFile(dir));
}

/// A bit flip is the one storage fault the writer cannot see: the commit IS
/// acknowledged, and only recovery discovers (via the CRC) that the medium
/// lied. The recovered state is the pre-statement instance and the report
/// says bytes were dropped — the audit trail for the lost ack.
TEST_F(DurableStoreTest, RecoveryMatrixBitFlipLosesTheAckedCommitDetectably) {
  const std::string dir = MakeTempDir("store");
  FaultInjector inj =
      FaultInjector::BitFlipAt(2 * (kSteps - 1) + 1, /*byte_offset=*/20);
  DurableStoreOptions options;
  options.injector = &inj;
  auto store = OpenAndRun(dir, kSteps - 1, options);

  // The final commit succeeds from the writer's point of view.
  ASSERT_TRUE(CommitStep(*store, kSteps).ok());
  EXPECT_TRUE(store->instance() == states_[kSteps]);
  EXPECT_FALSE(store->broken());
  store.reset();

  RecoveryReport report;
  EXPECT_TRUE(Recover(dir, &report) == states_[kSteps - 1]);
  EXPECT_EQ(report.replayed_records, kSteps - 1);
  EXPECT_TRUE(report.torn_tail);
  EXPECT_EQ(report.detail, "bad crc");
  EXPECT_GT(report.dropped_bytes, 0u);
  // The writer never saw the fault, so there is no commit dump — the
  // recovery anomaly wrote its own and the report references it.
  EXPECT_EQ(report.flight_dump_path, RecoveryFlightFile(dir));
  AssertFlightDump(report.flight_dump_path);
}

/// Recovery during recovery: Open itself killed at EVERY cooperative probe
/// the replay traverses — one per replayed record plus the positioning probe
/// just before the writer touches the directory. A crashed recovery must
/// leave the log byte-identical, so a second, clean recovery reaches the
/// same committed prefix as if the first had never run.
TEST_F(DurableStoreTest, RecoveryMatrixCrashDuringReplayRecoversTheSamePrefix) {
  const std::string dir = MakeTempDir("store");
  { auto store = OpenAndRun(dir, kSteps); }

  // Observe run: enumerate the probes one full recovery traverses.
  FaultInjector observer;
  observer.set_recording(true);
  DurableStoreOptions oopt;
  oopt.injector = &observer;
  {
    auto store = std::move(DurableStore::Open(dir, &schema_, oopt)).value();
    EXPECT_TRUE(store->instance() == states_[kSteps]);
  }
  const std::uint64_t probes = observer.probes_seen();
  const std::vector<std::string> names = observer.recorded_probes();
  EXPECT_EQ(std::count(names.begin(), names.end(), "store/recovery/replay"),
            static_cast<std::ptrdiff_t>(kSteps));
  ASSERT_FALSE(names.empty());
  EXPECT_EQ(names.back(), "store/recovery/position");
  ASSERT_GE(probes, kSteps + 1);

  for (std::uint64_t n = 1; n <= probes; ++n) {
    FaultInjector inj = FaultInjector::FireAtNthProbe(n);
    DurableStoreOptions options;
    options.injector = &inj;
    RecoveryReport report;
    auto crashed = DurableStore::Open(dir, &schema_, options, &report);
    ASSERT_FALSE(crashed.ok()) << "probe " << n;
    EXPECT_EQ(crashed.status().code(), StatusCode::kInternal)
        << "probe " << n << ": " << crashed.status().ToString();

    // The interrupted recovery wrote nothing: the second recovery replays
    // the identical committed prefix.
    RecoveryReport clean;
    EXPECT_TRUE(Recover(dir, &clean) == states_[kSteps]) << "probe " << n;
    EXPECT_EQ(clean.replayed_records, kSteps) << "probe " << n;
    EXPECT_FALSE(clean.torn_tail) << "probe " << n;
  }
}

/// The same, on a store whose previous life ended in a crash: the WAL is cut
/// mid-record, and the recovery of THAT is itself crashed at every probe.
/// Both layers of failure must still land on the longest valid prefix.
TEST_F(DurableStoreTest, RecoveryMatrixCrashWhileRecoveringATornLog) {
  const std::string dir = MakeTempDir("store");
  { auto store = OpenAndRun(dir, kSteps); }
  const WalReplay pristine = std::move(ReadWal(WalFile(dir))).value();
  ASSERT_EQ(pristine.records.size(), kSteps);
  // Cut inside the final record: 3 whole records + half of the fourth...
  const std::size_t cut =
      (pristine.record_ends[kSteps - 2] + pristine.record_ends[kSteps - 1]) /
      2;
  const std::string bytes = ReadFileBytes(WalFile(dir));

  // The tear is re-inflicted before each round (a clean recovery between
  // rounds truncates it away). Most crashed Opens happen before the writer
  // truncates, so the follow-up recovery sees the tear again; the final
  // probe ordinal ("wal/truncate-dirsync") fires *after* the truncation, so
  // there the follow-up sees an already-clean log. Either way the recovered
  // state must be the committed prefix — that is the actual contract; the
  // torn_tail flag just has to agree with what is physically on disk. The
  // loop ends at the first probe ordinal past what a torn recovery
  // traverses.
  std::uint64_t n = 0;
  while (true) {
    ++n;
    WriteFileBytes(WalFile(dir), bytes.substr(0, cut));
    FaultInjector inj = FaultInjector::FireAtNthProbe(n);
    DurableStoreOptions options;
    options.injector = &inj;
    auto crashed = DurableStore::Open(dir, &schema_, options);
    if (crashed.ok()) break;  // n exceeded the probe count: ran to completion
    EXPECT_EQ(crashed.status().code(), StatusCode::kInternal) << "probe " << n;

    const WalReplay after_crash =
        std::move(ReadWal(WalFile(dir))).value();
    RecoveryReport clean;
    EXPECT_TRUE(Recover(dir, &clean) == states_[kSteps - 1]) << "probe " << n;
    EXPECT_EQ(clean.replayed_records, kSteps - 1) << "probe " << n;
    EXPECT_EQ(clean.torn_tail, after_crash.torn_tail) << "probe " << n;
  }
  // At least one replay probe per surviving record plus the position probe
  // were each crashed once.
  EXPECT_GE(n, kSteps);
}

TEST_F(DurableStoreTest, ZeroLengthOrMissingWalRecoversWithACleanReport) {
  const std::string dir = MakeTempDir("store");
  // Never-written store: no log at all. Clean report, empty instance.
  RecoveryReport fresh;
  EXPECT_TRUE(Recover(dir, &fresh) == states_[0]);
  EXPECT_FALSE(fresh.torn_tail);
  EXPECT_EQ(fresh.replayed_records, 0u);
  EXPECT_EQ(fresh.dropped_bytes, 0u);
  EXPECT_EQ(fresh.last_sequence, 0u);
  EXPECT_TRUE(fresh.flight_dump_path.empty()) << fresh.flight_dump_path;

  // Zero-length log — a crash between open and the first commit. Still a
  // clean empty recovery, not a torn tail or an anomaly dump.
  WriteFileBytes(WalFile(dir), "");
  RecoveryReport empty;
  EXPECT_TRUE(Recover(dir, &empty) == states_[0]);
  EXPECT_FALSE(empty.torn_tail);
  EXPECT_EQ(empty.dropped_bytes, 0u);
  EXPECT_EQ(empty.last_sequence, 0u);
  EXPECT_TRUE(empty.flight_dump_path.empty()) << empty.flight_dump_path;
}

TEST_F(DurableStoreTest, RecoveryMatrixCrashAtEveryCheckpointProbe) {
  // A checkpoint is publish-then-truncate: snapshot tmp-write, fsync,
  // rename, directory fsync ("snapshot/dirsync"), then WAL truncation and
  // its own directory barrier ("wal/truncate-dirsync"). Crash at EVERY
  // probe inside that window — most pointedly between the rename and the
  // dir-fsync — and the reopened store must hold every committed step.
  FaultInjector observer;
  observer.set_recording(true);
  std::uint64_t window = 0;
  std::size_t commit_probes = 0;
  {
    const std::string dir = MakeTempDir("ckpt-observe");
    DurableStoreOptions options;
    options.injector = &observer;
    auto store = OpenAndRun(dir, kSteps, options);
    const std::uint64_t before = observer.probes_seen();
    commit_probes = observer.recorded_probes().size();
    ASSERT_TRUE(store->Checkpoint().ok());
    window = observer.probes_seen() - before;
  }
  ASSERT_GT(window, 0u);
  const std::vector<std::string> names = observer.recorded_probes();
  const auto begin =
      names.begin() + static_cast<std::ptrdiff_t>(commit_probes);
  EXPECT_NE(std::find(begin, names.end(), "snapshot/dirsync"), names.end());
  EXPECT_NE(std::find(begin, names.end(), "wal/truncate-dirsync"),
            names.end());

  for (std::uint64_t k = 1; k <= window; ++k) {
    const std::string dir = MakeTempDir("ckpt" + std::to_string(k));
    FaultInjector injector;  // observe-only while the commits run
    DurableStoreOptions options;
    options.injector = &injector;
    {
      auto store = OpenAndRun(dir, kSteps, options);
      injector = FaultInjector::FireAtNthProbe(k);
      EXPECT_FALSE(store->Checkpoint().ok()) << "probe " << k;
    }  // crash: the store is dropped mid-checkpoint
    RecoveryReport report;
    EXPECT_TRUE(Recover(dir, &report) == states_[kSteps]) << "probe " << k;
    EXPECT_EQ(report.last_sequence, kSteps) << "probe " << k;
    EXPECT_FALSE(report.torn_tail) << "probe " << k;
  }
}

// -- DurableStore over the SQL engine (payroll workload) ---------------------

class DurablePayrollTest : public ::testing::Test {
 protected:
  void SetUp() override { ps_ = std::move(MakePayrollSchema()).value(); }

  /// The Section 7 receiver query "select EmpId, New from Employee, NewSal
  /// where Salary = Old".
  ExprPtr SalaryUpdateQuery() const {
    return ra::Project(
        ra::JoinEq(ra::Rel("EmpSalary"),
                   ra::Project(ra::JoinEq(ra::Rel("NSOld"),
                                          ra::Rename(ra::Rel("NSNew"), "NS",
                                                     "NS2"),
                                          "NS", "NS2"),
                               {"Old", "New"}),
                   "Salary", "Old"),
        {"Emp", "New"});
  }

  Instance BuildDb() const {
    std::vector<EmployeeRow> employees = {
        {1, 100, std::nullopt}, {2, 200, std::nullopt}, {3, 100, std::nullopt}};
    std::vector<NewSalRow> raises = {{100, 150}, {200, 250}};
    return std::move(BuildPayrollInstance(ps_, employees, {{100, 300}}, raises))
        .value();
  }

  /// Seeds a fresh store with the payroll tables (commit 1).
  Status Seed(DurableStore& store) const {
    const Instance db = BuildDb();
    return store.Mutate([&db](Instance& inst, ExecContext&) {
      inst = db;
      return Status::OK();
    });
  }

  PayrollSchema ps_;
};

TEST_F(DurablePayrollTest, SetOrientedStatementsCommitAndRecover) {
  const std::string dir = MakeTempDir("payroll");
  const Instance seeded = BuildDb();
  Instance expected(&ps_.schema);
  {
    auto store =
        std::move(DurableStore::Open(dir, &ps_.schema)).value();
    ASSERT_TRUE(Seed(*store).ok());
    ASSERT_TRUE(store->Update(ps_.salary, SalaryUpdateQuery()).ok());
    // After the raise nobody's salary is in Fire anymore, so this DELETE is
    // a committed no-op: acknowledged, but no WAL record written.
    ASSERT_TRUE(store->Delete(ps_.emp, SalaryInFire(ps_)).ok());
    expected = store->SnapshotState();
    EXPECT_FALSE(expected == seeded);
    EXPECT_EQ(store->last_sequence(), 2u);
  }
  RecoveryReport report;
  auto recovered =
      std::move(DurableStore::Open(dir, &ps_.schema, {}, &report)).value();
  EXPECT_TRUE(recovered->instance() == expected);
  EXPECT_EQ(report.replayed_records, 2u);

  // The recovered salaries are the Section 7 raises.
  auto salaries =
      std::move(ReadSalaries(ps_, recovered->instance())).value();
  ASSERT_EQ(salaries.size(), 3u);
  EXPECT_EQ(salaries[0], (std::pair<std::uint32_t, std::uint32_t>{1, 150}));
  EXPECT_EQ(salaries[1], (std::pair<std::uint32_t, std::uint32_t>{2, 250}));
  EXPECT_EQ(salaries[2], (std::pair<std::uint32_t, std::uint32_t>{3, 150}));
}

/// The acceptance matrix over *exec* probe points: kill the UPDATE commit at
/// every cooperative probe the statement traverses. Every kill must leave
/// both the live store and a recovered reopen at exactly the pre-statement
/// instance.
TEST_F(DurablePayrollTest, CrashAtEveryExecProbeRecoversThePreStatementState) {
  // Observe run: learn the probe ordinals the UPDATE spans.
  std::uint64_t probes_before = 0, probes_after = 0;
  Instance pre_statement(&ps_.schema);
  Instance post_statement(&ps_.schema);
  {
    const std::string dir = MakeTempDir("observe");
    FaultInjector observer;
    DurableStoreOptions options;
    options.injector = &observer;
    auto store =
        std::move(DurableStore::Open(dir, &ps_.schema, options)).value();
    ASSERT_TRUE(Seed(*store).ok());
    pre_statement = store->SnapshotState();
    probes_before = observer.probes_seen();
    ASSERT_TRUE(store->Update(ps_.salary, SalaryUpdateQuery()).ok());
    probes_after = observer.probes_seen();
    post_statement = store->SnapshotState();
  }
  ASSERT_GT(probes_after, probes_before);
  ASSERT_FALSE(post_statement == pre_statement);

  for (std::uint64_t k = probes_before + 1; k <= probes_after; ++k) {
    const std::string dir = MakeTempDir("probe" + std::to_string(k));
    FaultInjector inj = FaultInjector::FireAtNthProbe(k);
    DurableStoreOptions options;
    options.injector = &inj;
    auto store =
        std::move(DurableStore::Open(dir, &ps_.schema, options)).value();
    ASSERT_TRUE(Seed(*store).ok()) << "probe " << k;

    Status s = store->Update(ps_.salary, SalaryUpdateQuery());
    ASSERT_FALSE(s.ok()) << "probe " << k;
    EXPECT_EQ(s.code(), StatusCode::kInternal) << "probe " << k;
    // An exec fault is not a storage fault: the store stays usable...
    EXPECT_FALSE(store->broken()) << "probe " << k;
    // ...and the live state rolled back to the pre-statement instance.
    EXPECT_TRUE(store->SnapshotState() == pre_statement)
        << "partial mutation survived a fault at probe " << k;
    store.reset();

    // The non-OK terminal status dumped the flight recorder.
    AssertFlightDump(CommitFlightFile(dir));

    // Recovery agrees: nothing of the killed statement was logged, and the
    // report references the commit-time dump.
    RecoveryReport report;
    auto reopened =
        std::move(DurableStore::Open(dir, &ps_.schema, {}, &report)).value();
    EXPECT_TRUE(reopened->instance() == pre_statement)
        << "recovery leaked a torn hybrid at probe " << k;
    EXPECT_EQ(report.flight_dump_path, CommitFlightFile(dir)) << "probe " << k;

    // And the statement still works after recovery.
    ASSERT_TRUE(reopened->Update(ps_.salary, SalaryUpdateQuery()).ok())
        << "probe " << k;
    EXPECT_TRUE(reopened->instance() == post_statement) << "probe " << k;
  }
}

TEST_F(DurablePayrollTest, RetryableGovernanceFaultIsRetriedToSuccess) {
  const std::string dir = MakeTempDir("retry");
  // Fire a transient kResourceExhausted somewhere inside the UPDATE. The
  // injector's counter keeps advancing across attempts, so the fault fires
  // exactly once and the second attempt sails through.
  FaultInjector inj =
      FaultInjector::FireAtNthProbe(3, StatusCode::kResourceExhausted);
  DurableStoreOptions options;
  options.injector = &inj;
  options.retry.max_attempts = 3;
  options.retry.base_delay = std::chrono::nanoseconds(0);
  options.retry.jitter_seed = 7;
  auto store =
      std::move(DurableStore::Open(dir, &ps_.schema, options)).value();
  ASSERT_TRUE(Seed(*store).ok());

  ASSERT_TRUE(store->Update(ps_.salary, SalaryUpdateQuery()).ok());
  EXPECT_EQ(inj.faults_fired(), 1u);
  const Instance committed = store->SnapshotState();
  store.reset();
  auto reopened = std::move(DurableStore::Open(dir, &ps_.schema)).value();
  EXPECT_TRUE(reopened->instance() == committed);
}

TEST_F(DurablePayrollTest, RetryDisabledFailsOnTheTransientFault) {
  const std::string dir = MakeTempDir("noretry");
  FaultInjector inj =
      FaultInjector::FireAtNthProbe(3, StatusCode::kResourceExhausted);
  DurableStoreOptions options;
  options.injector = &inj;  // default policy: max_attempts = 1
  auto store =
      std::move(DurableStore::Open(dir, &ps_.schema, options)).value();
  ASSERT_TRUE(Seed(*store).ok());
  const Instance seeded = store->SnapshotState();

  Status s = store->Update(ps_.salary, SalaryUpdateQuery());
  EXPECT_EQ(s.code(), StatusCode::kResourceExhausted);
  EXPECT_TRUE(store->SnapshotState() == seeded);
}

// -- Concurrency: commits racing a background checkpoint thread --------------

TEST_F(DurableStoreTest, BackgroundCheckpointsRaceCommitsSafely) {
  const std::string dir = MakeTempDir("race");
  // A shared observe-only injector: its atomic counters are hammered from
  // both threads (the commit path's exec context and the WAL writer).
  FaultInjector observer;
  DurableStoreOptions options;
  options.injector = &observer;
  options.keep_snapshots = 2;
  auto store =
      std::move(DurableStore::Open(dir, &schema_, options)).value();

  constexpr std::uint32_t kCommits = 24;
  Instance expected(&schema_);
  for (std::uint32_t k = 1; k <= kCommits; ++k) {
    ASSERT_TRUE(ApplyStep(expected, k).ok());
  }

  std::atomic<bool> done{false};
  std::thread checkpointer([&] {
    while (!done.load(std::memory_order_relaxed)) {
      Status s = store->Checkpoint();
      ASSERT_TRUE(s.ok()) << s.ToString();
    }
  });
  for (std::uint32_t k = 1; k <= kCommits; ++k) {
    ASSERT_TRUE(CommitStep(*store, k).ok()) << "step " << k;
  }
  done.store(true, std::memory_order_relaxed);
  checkpointer.join();

  EXPECT_TRUE(store->SnapshotState() == expected);
  EXPECT_EQ(store->last_sequence(), kCommits);
  store.reset();
  EXPECT_TRUE(Recover(dir) == expected);
}

}  // namespace
}  // namespace setrec
