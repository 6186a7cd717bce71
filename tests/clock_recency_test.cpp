// EvictionPolicy::clock — deterministic second-chance recency.
//
// CLOCK approximates LRU with one referenced bit per entry: hits set the
// bit (idempotent, lock-free in the concurrent wrapper), the evicting
// writer sweeps a hand over the slots, clearing set bits and evicting the
// first clear one. The contracts under test:
//
//   * the sweep is exactly second-chance: victims fall out in the
//     documented order, fresh inserts get one full lap of protection;
//   * encoder and decoder evict IDENTICALLY (the mirrored-learning
//     protocol), end to end through the GDZ1 container format, whose v2
//     header records the clock policy byte;
//   * concurrent readers marking referenced bits while the writer sweeps
//     them never tear a basis and never derail determinism of the locked
//     mutation sequence. The TSan and ASan+UBSan CI jobs run this file.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <optional>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "gd/concurrent_dictionary.hpp"
#include "gd/dictionary.hpp"
#include "gd/stream.hpp"

namespace zipline::gd {
namespace {

constexpr std::size_t kBasisBits = 247;

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

/// A 247-bit basis whose upper words all derive from word 0, so any torn
/// mix of two distinct bases fails the recomputation check.
bits::BitVector tagged_basis(std::uint64_t seed) {
  bits::BitVector v(kBasisBits);
  v.or_uint(0, seed, 64);
  v.or_uint(64, splitmix64(seed ^ 1), 64);
  v.or_uint(128, splitmix64(seed ^ 2), 64);
  v.or_uint(192, splitmix64(seed ^ 3) & ((std::uint64_t{1} << 55) - 1), 55);
  return v;
}

bool is_tagged(const bits::BitVector& v) {
  if (v.size() != kBasisBits) return false;
  const auto words = v.words();
  if (words.size() != 4) return false;
  const std::uint64_t seed = words[0];
  return words[1] == splitmix64(seed ^ 1) && words[2] == splitmix64(seed ^ 2) &&
         words[3] == (splitmix64(seed ^ 3) & ((std::uint64_t{1} << 55) - 1));
}

// The sweep, step by step, on a capacity-4 dictionary. Fresh inserts set
// their referenced bit (one full lap of protection — CLOCK's analogue of
// LRU's push-front), hits re-arm it, and the hand clears bits until it
// finds a clear slot.
TEST(ClockSweep, SecondChanceVictimOrder) {
  BasisDictionary dict(4, EvictionPolicy::clock);
  std::vector<bits::BitVector> b;
  for (std::uint64_t i = 0; i < 8; ++i) b.push_back(tagged_basis(0xC10C + i));

  for (int i = 0; i < 4; ++i) {
    const InsertResult r = dict.insert(b[i]);
    EXPECT_EQ(r.id, static_cast<std::uint32_t>(i));
    EXPECT_FALSE(r.evicted.has_value());
  }

  // All four bits are set: the hand clears the whole lap and takes slot 0
  // on its second visit.
  const InsertResult first = dict.insert(b[4]);
  EXPECT_EQ(first.id, 0u);
  ASSERT_TRUE(first.evicted.has_value());
  EXPECT_TRUE(*first.evicted == b[0]);

  // A hit re-arms b[1]'s bit, so the next sweep (hand at slot 1) clears it
  // and evicts slot 2 instead.
  EXPECT_EQ(dict.lookup(b[1]), std::optional<std::uint32_t>{1u});
  const InsertResult second = dict.insert(b[5]);
  EXPECT_EQ(second.id, 2u);
  ASSERT_TRUE(second.evicted.has_value());
  EXPECT_TRUE(*second.evicted == b[2]);

  // Slot 3 was cleared on the first lap and never touched since.
  const InsertResult third = dict.insert(b[6]);
  EXPECT_EQ(third.id, 3u);
  ASSERT_TRUE(third.evicted.has_value());
  EXPECT_TRUE(*third.evicted == b[3]);

  // Hand is back at slot 0, where the fresh b[4] still holds its insert
  // bit: it survives one lap, and the swept (b[1], cleared at `second`)
  // slot loses instead.
  const InsertResult fourth = dict.insert(b[7]);
  EXPECT_EQ(fourth.id, 1u);
  ASSERT_TRUE(fourth.evicted.has_value());
  EXPECT_TRUE(*fourth.evicted == b[1]);

  EXPECT_EQ(dict.stats().evictions, 4u);
  EXPECT_GE(dict.stats().clock_touches, 1u);  // the lookup hit
}

// touch() and mark_referenced() are the counted and stats-free spellings
// of the same bit store; both protect the entry from the next sweep.
TEST(ClockSweep, TouchAndMarkReferencedAreEquivalentProtection) {
  for (const bool use_mark : {false, true}) {
    BasisDictionary dict(3, EvictionPolicy::clock);
    const auto b1 = tagged_basis(2);
    const auto b2 = tagged_basis(3);
    ASSERT_EQ(dict.insert(tagged_basis(1)).id, 0u);
    ASSERT_EQ(dict.insert(b1).id, 1u);
    ASSERT_EQ(dict.insert(b2).id, 2u);
    // First eviction clears every bit and takes slot 0 on the wrap; the
    // hand now points at slot 1, whose bit is clear — the next victim,
    // unless the hook below re-arms it and shifts the loss to slot 2.
    ASSERT_EQ(dict.insert(tagged_basis(4)).id, 0u);
    if (use_mark) {
      dict.mark_referenced(1);
    } else {
      dict.touch(1);
    }
    const InsertResult r = dict.insert(tagged_basis(5));
    EXPECT_EQ(r.id, 2u) << (use_mark ? "mark_referenced" : "touch");
    ASSERT_TRUE(r.evicted.has_value());
    EXPECT_TRUE(*r.evicted == b2);
    // Only touch() counts: mark_referenced is the concurrent wrapper's
    // stats-free hook (the wrapper does its own read-side accounting).
    EXPECT_EQ(dict.stats().clock_touches, use_mark ? 0u : 1u);
  }
}

// Mirrored learning end to end: a clock encoder and a clock decoder must
// evict identically, or decode diverges the moment an evicted identifier
// is reused. Forced with a tiny identifier space and a redundant, mutating
// input — through the full GDZ1 container, whose v2 header carries the
// clock policy byte.
TEST(ClockParity, EncoderDecoderEvictIdenticallyThroughGdStream) {
  for (const std::size_t shards : {std::size_t{1}, std::size_t{2}}) {
    GdParams params = stream_default_params();
    params.id_bits = 4;  // 16 identifiers -> constant eviction pressure
    Rng rng(0xC10C2 + shards);
    const std::size_t chunk_bytes = params.raw_payload_bytes();
    std::vector<std::vector<std::uint8_t>> pool;
    for (int i = 0; i < 40; ++i) {
      std::vector<std::uint8_t> chunk(chunk_bytes);
      for (auto& byte : chunk) byte = static_cast<std::uint8_t>(rng.next_u64());
      pool.push_back(chunk);
    }
    std::vector<std::uint8_t> input;
    for (int c = 0; c < 400; ++c) {
      auto chunk = pool[rng.next_below(pool.size())];
      if (rng.next_bool(0.3)) {
        chunk[rng.next_below(chunk.size())] ^=
            static_cast<std::uint8_t>(1u << rng.next_below(8));
      }
      input.insert(input.end(), chunk.begin(), chunk.end());
    }

    StreamStats stats;
    const auto container = gd_stream_compress(input, params, &stats,
                                              EvictionPolicy::clock, shards);
    // v2 header layout: magic(4) version m id_bits chunk_bits(2) policy.
    ASSERT_GT(container.size(), 10u);
    EXPECT_EQ(container[9], static_cast<std::uint8_t>(EvictionPolicy::clock));
    EXPECT_GT(stats.compressed_packets, 0u) << "no hits -> no parity at risk";

    const auto restored = gd_stream_decompress(container);
    EXPECT_EQ(restored, input) << "shards=" << shards;
  }
}

// Torn-touch stress: reader threads hammer the lock-free hit path (which
// stores referenced bits) while the writer inserts fresh bases into a FULL
// dictionary — every insert sweeps the same bits under the stripe lock.
// No fetched basis may ever be torn, and the locked mutation sequence
// keeps its determinism bookkeeping (size stays at capacity, every insert
// past the fill evicts exactly once).
TEST(ClockTornTouch, ReadersMarkWhileWriterSweeps) {
  constexpr std::size_t kCapacity = 16;
  constexpr std::uint64_t kInserts = 2000;
  ConcurrentShardedDictionary dict(kCapacity, EvictionPolicy::clock,
                                   /*shard_count=*/2);
  for (std::uint64_t i = 0; i < kCapacity; ++i) {
    (void)dict.insert(tagged_basis(i));
  }

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> torn{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&, t] {
      Rng rng(0x7EAD + t);
      bits::BitVector fetched;
      std::uint64_t newest = kCapacity;
      while (!stop.load(std::memory_order_relaxed)) {
        // Chase the writer: recent seeds are likely resident, so this
        // both hits (marking bits mid-sweep) and misses.
        const std::uint64_t seed =
            newest > 0 ? newest - 1 - rng.next_below(std::min<std::uint64_t>(
                                          newest, kCapacity * 2))
                       : 0;
        (void)dict.lookup(tagged_basis(seed));
        const auto id = static_cast<std::uint32_t>(rng.next_below(kCapacity));
        if (dict.lookup_basis_into(id, fetched) && !is_tagged(fetched)) {
          torn.fetch_add(1, std::memory_order_relaxed);
        }
        newest += 2;  // drift forward roughly with the writer
      }
    });
  }

  for (std::uint64_t i = kCapacity; i < kCapacity + kInserts; ++i) {
    (void)dict.insert(tagged_basis(i));
  }
  stop.store(true, std::memory_order_relaxed);
  for (auto& r : readers) r.join();

  EXPECT_EQ(torn.load(), 0u);
  EXPECT_EQ(dict.size(), kCapacity);
  const DictionaryStats stats = dict.stats();
  EXPECT_EQ(stats.insertions, kCapacity + kInserts);
  EXPECT_EQ(stats.evictions, kInserts);
}

}  // namespace
}  // namespace zipline::gd
