// The copy-on-write container behind Instance (core/chunked_set.h), held to
// std::set as an oracle: seeded random sequences of inserts, erases, the
// range erase ClearEdgesFrom makes, the scan RemoveObject makes, lookups
// and full iterations, at the sizes around the chunk capacity where chunks
// fill, split and empty. Copies must never see each other's writes, equal
// contents must compare equal however they are chunked, and copies taken
// under an owner's mutex must read exactly what they copied while the
// owner keeps writing (run under TSan by `./ci sanitize`).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <mutex>
#include <numeric>
#include <ranges>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "core/chunked_set.h"
#include "core/ids.h"
#include "core/instance.h"
#include "core/instance_generator.h"

namespace setrec {
namespace {


using Pair = std::pair<ObjectId, ObjectId>;
using PairSet = ChunkedSet<Pair>;

Pair MakePair(std::uint32_t source, std::uint32_t target) {
  return {ObjectId(0, source), ObjectId(1, target)};
}

/// The entries of `set` in iteration order.
template <typename T>
std::vector<T> Items(const ChunkedSet<T>& set) {
  return std::vector<T>(set.begin(), set.end());
}
template <typename T>
std::vector<T> Items(const std::set<T>& set) {
  return std::vector<T>(set.begin(), set.end());
}

/// Every observation the oracle supports, on `set` against `oracle`.
void ExpectSame(const PairSet& set, const std::set<Pair>& oracle,
                SplitMix64& rng, std::uint32_t sources) {
  ASSERT_EQ(set.size(), oracle.size());
  ASSERT_EQ(set.empty(), oracle.empty());
  ASSERT_EQ(Items(set), Items(oracle));
  for (int probe = 0; probe < 8; ++probe) {
    const Pair p = MakePair(static_cast<std::uint32_t>(rng.UniformInt(sources)),
                            static_cast<std::uint32_t>(rng.UniformInt(8)));
    EXPECT_EQ(set.contains(p), oracle.contains(p));
    const auto lo = set.lower_bound(p);
    const auto olo = oracle.lower_bound(p);
    ASSERT_EQ(lo == set.end(), olo == oracle.end());
    if (olo != oracle.end()) {
      EXPECT_EQ(*lo, *olo);
    }
    const auto hi = set.upper_bound(p);
    const auto ohi = oracle.upper_bound(p);
    ASSERT_EQ(hi == set.end(), ohi == oracle.end());
    if (ohi != oracle.end()) {
      EXPECT_EQ(*hi, *ohi);
    }
    // A subrange from lower_bound reads the rest in order.
    EXPECT_EQ(std::vector<Pair>(lo, set.end()),
              std::vector<Pair>(olo, oracle.end()));
  }
}

/// One random write to both containers; returns what it was, for messages.
const char* WriteOnce(PairSet& set, std::set<Pair>& oracle, SplitMix64& rng,
                      std::uint32_t sources) {
  const auto source = static_cast<std::uint32_t>(rng.UniformInt(sources));
  const Pair p =
      MakePair(source, static_cast<std::uint32_t>(rng.UniformInt(8)));
  switch (rng.UniformInt(6)) {
    case 0:
    case 1:
    case 2:
      EXPECT_EQ(set.insert(p), oracle.insert(p).second);
      return "insert";
    case 3:
      EXPECT_EQ(set.erase(p), oracle.erase(p));
      return "erase";
    case 4: {
      // ClearEdgesFrom: the run of pairs leaving `source`.
      std::vector<Pair> seen;
      const std::size_t erased =
          set.erase_run(MakePair(source, 0), [&](const Pair& q) {
            if (q.first != p.first) return false;
            seen.push_back(q);
            return true;
          });
      std::vector<Pair> expected;
      for (auto it = oracle.lower_bound(MakePair(source, 0));
           it != oracle.end() && it->first == p.first;) {
        expected.push_back(*it);
        it = oracle.erase(it);
      }
      EXPECT_EQ(erased, expected.size());
      EXPECT_EQ(seen, expected);
      return "erase_run";
    }
    default: {
      // RemoveObject's scan for incoming edges.
      std::vector<Pair> seen;
      const std::size_t erased = set.erase_if([&](const Pair& q) {
        if (q.second != p.second) return false;
        seen.push_back(q);
        return true;
      });
      std::vector<Pair> expected;
      std::erase_if(oracle, [&](const Pair& q) {
        if (q.second != p.second) return false;
        expected.push_back(q);
        return true;
      });
      EXPECT_EQ(erased, expected.size());
      EXPECT_EQ(seen, expected);
      return "erase_if";
    }
  }
}

TEST(ChunkedSetTest, RandomSequencesMatchStdSet) {
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    SplitMix64 rng(seed);
    // Few sources keep the set small enough to empty; many let it span
    // dozens of chunks.
    const std::uint32_t sources =
        seed % 3 == 0 ? 4 : 40 * static_cast<std::uint32_t>(seed);
    PairSet set;
    std::set<Pair> oracle;
    for (int step = 0; step < 1500; ++step) {
      const char* op = WriteOnce(set, oracle, rng, sources);
      ASSERT_NO_FATAL_FAILURE(ExpectSame(set, oracle, rng, sources))
          << "seed " << seed << " step " << step << " after " << op;
    }
  }
}

TEST(ChunkedSetTest, SizesAroundTheCapacity) {
  for (const std::size_t n :
       {std::size_t{0}, std::size_t{1}, kChunkCapacity - 1, kChunkCapacity,
        kChunkCapacity + 1, 2 * kChunkCapacity, 2 * kChunkCapacity + 1}) {
    SCOPED_TRACE("n = " + std::to_string(n));
    std::vector<int> values(n);
    std::iota(values.begin(), values.end(), 0);

    // An ascending load fills its chunks.
    ChunkedSet<int> sorted;
    for (int v : values) EXPECT_TRUE(sorted.insert(v));
    EXPECT_EQ(sorted.size(), n);
    EXPECT_EQ(sorted.num_chunks(), (n + kChunkCapacity - 1) / kChunkCapacity);
    EXPECT_EQ(Items(sorted), values);

    // A shuffled load ends with the same contents.
    SplitMix64 rng(n + 7);
    std::vector<int> shuffled = values;
    for (std::size_t i = shuffled.size(); i > 1; --i) {
      std::swap(shuffled[i - 1], shuffled[rng.UniformInt(i)]);
    }
    ChunkedSet<int> random;
    for (int v : shuffled) EXPECT_TRUE(random.insert(v));
    for (int v : shuffled) EXPECT_FALSE(random.insert(v));
    EXPECT_TRUE(random == sorted);
    EXPECT_EQ(Items(random), values);

    // Point lookups at and between every entry, and past both ends.
    for (int v = -1; v <= static_cast<int>(n); ++v) {
      EXPECT_EQ(random.contains(v), v >= 0 && v < static_cast<int>(n));
      const auto lo = random.lower_bound(v);
      if (n > 0 && v < static_cast<int>(n)) {
        ASSERT_NE(lo, random.end());
        EXPECT_EQ(*lo, std::max(v, 0));
      } else {
        EXPECT_EQ(lo, random.end());
      }
    }

    // Erasing in another random order empties it, one entry at a time.
    std::set<int> oracle(values.begin(), values.end());
    for (std::size_t i = shuffled.size(); i > 1; --i) {
      std::swap(shuffled[i - 1], shuffled[rng.UniformInt(i)]);
    }
    for (int v : shuffled) {
      ASSERT_EQ(random.erase(v), 1u);
      ASSERT_EQ(random.erase(v), 0u);
      oracle.erase(v);
      ASSERT_EQ(Items(random), Items(oracle));
    }
    EXPECT_TRUE(random.empty());
    EXPECT_EQ(random.num_chunks(), 0u);
    EXPECT_EQ(random.begin(), random.end());
  }
}

TEST(ChunkedSetTest, CopiesNeverSeeEachOthersWrites) {
  for (const std::size_t n :
       {std::size_t{0}, std::size_t{1}, kChunkCapacity - 1, kChunkCapacity,
        kChunkCapacity + 1, 2 * kChunkCapacity, 2 * kChunkCapacity + 1,
        10 * kChunkCapacity}) {
    SCOPED_TRACE("n = " + std::to_string(n));
    const std::uint32_t sources = static_cast<std::uint32_t>(n / 4 + 2);
    SplitMix64 rng(n * 13 + 1);
    PairSet original;
    std::set<Pair> original_oracle;
    while (original_oracle.size() < n) {
      const Pair p =
          MakePair(static_cast<std::uint32_t>(rng.UniformInt(sources)),
                   static_cast<std::uint32_t>(rng.UniformInt(8)));
      original.insert(p);
      original_oracle.insert(p);
    }

    // Writing the copy leaves the original alone.
    PairSet copy = original;
    std::set<Pair> copy_oracle = original_oracle;
    for (int step = 0; step < 200; ++step) {
      WriteOnce(copy, copy_oracle, rng, sources);
      ASSERT_EQ(Items(copy), Items(copy_oracle)) << "step " << step;
      ASSERT_EQ(Items(original), Items(original_oracle)) << "step " << step;
    }

    // Writing the original leaves a copy alone, also a copy of a copy that
    // shares a chunk list with it.
    PairSet second = original;
    PairSet third = second;
    for (int step = 0; step < 200; ++step) {
      WriteOnce(original, original_oracle, rng, sources);
      ASSERT_EQ(Items(original), Items(original_oracle)) << "step " << step;
    }
    EXPECT_EQ(Items(second), Items(third));
    EXPECT_EQ(Items(copy), Items(copy_oracle));

    // Assignment shares too, and drops what the target held.
    copy = second;
    EXPECT_TRUE(copy == second);
    PairSet moved = std::move(third);
    EXPECT_TRUE(moved == second);
  }
}

TEST(ChunkedSetTest, AWriteClonesOnlyTheChunkItTouches) {
  PairSet original;
  for (std::uint32_t s = 0; s < 1000; ++s) original.insert(MakePair(s, 0));
  ASSERT_EQ(original.num_chunks(),
            (1000 + kChunkCapacity - 1) / kChunkCapacity);
  const Counter& cloned = InstanceCosts().cloned_items;

  std::uint64_t before = cloned.value();
  PairSet copy = original;
  EXPECT_EQ(cloned.value() - before, 0u) << "a copy clones nothing";

  // The first write to the copy clones one chunk; a second write to the
  // same chunk writes in place.
  before = cloned.value();
  ASSERT_TRUE(copy.insert(MakePair(500, 1)));
  EXPECT_LE(cloned.value() - before, 2 * kChunkCapacity);
  EXPECT_GT(cloned.value() - before, 0u);
  before = cloned.value();
  ASSERT_EQ(copy.erase(MakePair(500, 1)), 1u);
  ASSERT_EQ(copy.erase(MakePair(501, 0)), 1u);
  EXPECT_EQ(cloned.value() - before, 0u);

  // No-op writes write nothing.
  before = cloned.value();
  EXPECT_FALSE(copy.insert(MakePair(3, 0)));
  EXPECT_EQ(copy.erase(MakePair(3, 7)), 0u);
  EXPECT_EQ(copy.erase_if([](const Pair&) { return false; }), 0u);
  EXPECT_EQ(cloned.value() - before, 0u);

  // The scan for one target clones only the chunk it removes from; a
  // run that covers whole chunks drops them without cloning them.
  before = cloned.value();
  EXPECT_EQ(copy.erase_if(
                [](const Pair& p) { return p.first == ObjectId(0, 7); }),
            1u);
  EXPECT_LE(cloned.value() - before, kChunkCapacity);
  before = cloned.value();
  const std::size_t run = copy.erase_run(MakePair(0, 0), [](const Pair& p) {
    return p.first.index() < 4 * kChunkCapacity;
  });
  EXPECT_EQ(run, 4 * kChunkCapacity - 1);
  EXPECT_EQ(cloned.value() - before, 0u);
  EXPECT_EQ(original.size(), 1000u);

  // Once no copy shares it, the original writes in place.
  copy = PairSet();
  before = cloned.value();
  ASSERT_TRUE(original.insert(MakePair(999, 5)));
  ASSERT_EQ(original.erase(MakePair(0, 0)), 1u);
  EXPECT_EQ(cloned.value() - before, 0u);
}

TEST(ChunkedSetTest, EqualContentsCompareEqualUnderAnyChunking) {
  const std::size_t n = 5 * kChunkCapacity + 3;
  ChunkedSet<int> ascending;
  for (std::size_t i = 0; i < n; ++i) ascending.insert(static_cast<int>(i));
  ChunkedSet<int> descending;
  for (std::size_t i = n; i > 0; --i) {
    descending.insert(static_cast<int>(i - 1));
  }
  ChunkedSet<int> thinned;  // extra entries, erased again
  for (std::size_t i = 0; i < 3 * n; ++i) thinned.insert(static_cast<int>(i));
  for (std::size_t i = n; i < 3 * n; ++i) thinned.erase(static_cast<int>(i));
  ChunkedSet<int> gappy;  // every other chunk holds few entries
  for (std::size_t i = 0; i < 2 * n; ++i) gappy.insert(static_cast<int>(i));
  gappy.erase_if([&](int v) { return v >= static_cast<int>(n); });
  ChunkedSet<int> partly_shared = ascending;
  partly_shared.erase(static_cast<int>(kChunkCapacity + 1));
  partly_shared.insert(static_cast<int>(kChunkCapacity + 1));

  ASSERT_NE(ascending.num_chunks(), descending.num_chunks());
  for (const ChunkedSet<int>* set :
       {&descending, &thinned, &gappy, &partly_shared}) {
    EXPECT_TRUE(*set == ascending);
    EXPECT_TRUE(ascending == *set);
    ChunkedSet<int> differs = *set;
    differs.erase(static_cast<int>(n / 2));
    differs.insert(static_cast<int>(n));
    EXPECT_FALSE(differs == ascending);
    EXPECT_FALSE(ascending == differs);
  }
  EXPECT_TRUE(ChunkedSet<int>() == ChunkedSet<int>());
  ChunkedSet<int> emptied;
  emptied.insert(1);
  emptied.erase(1);
  EXPECT_TRUE(emptied == ChunkedSet<int>());
}

TEST(ChunkedSetTest, IteratorsWorkAsForwardRanges) {
  static_assert(std::forward_iterator<PairSet::const_iterator>);
  PairSet set;
  for (std::uint32_t s = 0; s < 3 * kChunkCapacity; ++s) {
    set.insert(MakePair(s / 2, s % 2));
  }
  const std::ranges::subrange<PairSet::const_iterator> rows(
      set.lower_bound(MakePair(10, 0)), set.upper_bound(MakePair(10, 1)));
  EXPECT_EQ(std::vector<Pair>(rows.begin(), rows.end()),
            (std::vector<Pair>{MakePair(10, 0), MakePair(10, 1)}));
  EXPECT_EQ(std::distance(set.begin(), set.end()),
            static_cast<std::ptrdiff_t>(3 * kChunkCapacity));
  auto it = set.begin();
  std::advance(it, static_cast<std::ptrdiff_t>(kChunkCapacity));
  EXPECT_EQ(*it, MakePair(static_cast<std::uint32_t>(kChunkCapacity / 2), 0));
  EXPECT_EQ(it++->first,
            ObjectId(0, static_cast<std::uint32_t>(kChunkCapacity / 2)));
  EXPECT_EQ(it->second, ObjectId(1, 1));
}

/// The store's pattern: readers take copies under the owner's mutex, read
/// them outside it and drop them there, while the owner keeps writing under
/// the mutex; readers also write their own copies. Every copy must read
/// exactly the state it copied, and TSan must see no race.
TEST(ChunkedSetTest, CopiesTakenUnderTheOwnersMutexReadWhatTheyCopied) {
  constexpr int kReaders = 4;
  constexpr int kReads = 1000;
  constexpr std::uint32_t kSources = 600;
  std::mutex mu;
  PairSet owned;
  std::vector<Pair> owned_items;  // the oracle, kept beside it under `mu`
  for (std::uint32_t s = 0; s < kSources; ++s) owned.insert(MakePair(s, 0));
  owned_items = Items(owned);
  bool done = false;

  std::vector<std::thread> readers;
  std::vector<int> mismatches(kReaders, 0);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      SplitMix64 rng(static_cast<std::uint64_t>(r) + 100);
      for (int i = 0; i < kReads; ++i) {
        std::vector<Pair> expected;
        PairSet copy;
        {
          std::lock_guard<std::mutex> lock(mu);
          copy = owned;
          expected = owned_items;
        }
        if (Items(copy) != expected) ++mismatches[static_cast<std::size_t>(r)];
        if (i % 3 == 0) {
          // A private write on shared chunks, racing the owner's clones.
          std::set<Pair> oracle(expected.begin(), expected.end());
          WriteOnce(copy, oracle, rng, kSources);
          if (Items(copy) != Items(oracle)) {
            ++mismatches[static_cast<std::size_t>(r)];
          }
        }
      }
    });
  }
  std::thread owner([&] {
    SplitMix64 rng(7);
    std::set<Pair> oracle(owned_items.begin(), owned_items.end());
    for (int step = 0; step < 20000; ++step) {
      std::lock_guard<std::mutex> lock(mu);
      if (done) break;
      for (int w = 0; w < 4; ++w) WriteOnce(owned, oracle, rng, kSources);
      owned_items = Items(oracle);
    }
  });
  for (std::thread& t : readers) t.join();
  {
    std::lock_guard<std::mutex> lock(mu);
    done = true;
  }
  owner.join();
  EXPECT_EQ(mismatches, std::vector<int>(kReaders, 0));
  EXPECT_EQ(Items(owned), owned_items);
}

}  // namespace
}  // namespace setrec
