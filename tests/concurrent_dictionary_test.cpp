// The lock-free (seqlock) read path of the shared dictionary service and
// the batched per-stripe resolve plan:
//
//   * single-threaded, the seqlock wrapper must make exactly the plain
//     deterministic dictionary's decisions AND report the same
//     hit/miss/insert/evict statistics (read-side accounting included);
//   * apply_batch grouped-by-shard execution must equal the serial
//     in-order reference (ShardedDictionary::apply_batch) op for op;
//   * resolve plans must take at most ONE stripe acquisition per
//     (plan, shard) pair — regression-tested against
//     DictionaryStats::stripe_acquisitions, standalone and through the
//     ordered parallel pipeline;
//   * threads racing lookup_or_insert on the same fresh bases must learn
//     each basis exactly once;
//   * concurrent readers racing a writer's insert/evict/erase churn must
//     NEVER observe a torn basis (every fetched basis satisfies a
//     per-basis integrity invariant), across policies x shards. The
//     TSan and ASan+UBSan CI jobs run this file.
#include "gd/concurrent_dictionary.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "engine/parallel.hpp"
#include "gd/dictionary_handle.hpp"

namespace zipline::gd {
namespace {

constexpr std::size_t kBasisBits = 247;

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

/// A 247-bit basis whose upper words are all derived from word 0, so any
/// torn mix of two distinct bases fails the recomputation check.
bits::BitVector tagged_basis(std::uint64_t seed) {
  bits::BitVector v(kBasisBits);
  v.or_uint(0, seed, 64);
  v.or_uint(64, splitmix64(seed ^ 1), 64);
  v.or_uint(128, splitmix64(seed ^ 2), 64);
  v.or_uint(192, splitmix64(seed ^ 3) & ((std::uint64_t{1} << 55) - 1), 55);
  return v;
}

/// True iff `v` is internally consistent with its word-0 tag — what a
/// torn (mixed-version) read can never be.
bool is_tagged(const bits::BitVector& v) {
  if (v.size() != kBasisBits) return false;
  const auto words = v.words();
  if (words.size() != 4) return false;
  const std::uint64_t seed = words[0];
  return words[1] == splitmix64(seed ^ 1) && words[2] == splitmix64(seed ^ 2) &&
         words[3] == (splitmix64(seed ^ 3) & ((std::uint64_t{1} << 55) - 1));
}

bits::BitVector random_basis(Rng& rng, std::size_t bits = kBasisBits) {
  bits::BitVector v(bits);
  for (std::size_t i = 0; i < bits; ++i) {
    if (rng.next_bool(0.5)) v.set(i);
  }
  return v;
}

// Single-threaded, the seqlock read path must make exactly the decisions
// of the plain deterministic dictionary — lock-free hits and misses are
// state-equivalent to their locked counterparts, and the wrapper's
// read-side counters keep the aggregate statistics identical too.
TEST(SeqlockReadPath, SingleThreadedMatchesPlainDictionary) {
  for (const auto policy :
       {EvictionPolicy::lru, EvictionPolicy::fifo, EvictionPolicy::random}) {
    for (const std::size_t shards : {std::size_t{1}, std::size_t{4}}) {
      ShardedDictionary plain(64, policy, shards);
      ConcurrentShardedDictionary fast(64, policy, shards);
      Rng rng(0x5EC1 + shards + static_cast<std::size_t>(policy));
      std::vector<bits::BitVector> pool;
      for (int i = 0; i < 96; ++i) pool.push_back(random_basis(rng));

      bits::BitVector fetched;
      for (int op = 0; op < 600; ++op) {
        const auto& basis = pool[rng.next_below(pool.size())];
        switch (rng.next_below(4)) {
          case 0: {
            const auto a = plain.lookup(basis);
            const auto b = fast.lookup(basis);
            ASSERT_EQ(a, b);
            if (!a) {
              ASSERT_EQ(plain.insert(basis).id, fast.insert(basis).id);
            }
            break;
          }
          case 1:
            ASSERT_EQ(plain.peek(basis), fast.peek(basis));
            ASSERT_EQ(plain.peek(basis).has_value(), fast.contains(basis));
            break;
          case 2: {
            const auto id =
                static_cast<std::uint32_t>(rng.next_below(plain.capacity()));
            const bits::BitVector* ref = plain.lookup_basis_ref(id);
            const bool found = fast.lookup_basis_into(id, fetched);
            ASSERT_EQ(ref != nullptr, found);
            if (ref != nullptr) {
              ASSERT_TRUE(*ref == fetched);
            }
            break;
          }
          default: {
            const auto id =
                static_cast<std::uint32_t>(rng.next_below(plain.capacity()));
            if (plain.peek_basis(id) != nullptr) {
              plain.erase(id);
              fast.erase(id);
            }
            break;
          }
        }
      }
      EXPECT_EQ(plain.size(), fast.size());
      const DictionaryStats a = plain.stats();
      const DictionaryStats b = fast.stats();
      EXPECT_EQ(a.hits, b.hits) << "read-side hits must fold into stats()";
      EXPECT_EQ(a.misses, b.misses);
      EXPECT_EQ(a.insertions, b.insertions);
      EXPECT_EQ(a.evictions, b.evictions);
      if (policy != EvictionPolicy::lru) {
        EXPECT_GT(b.lockfree_reads, 0u)
            << "fifo/random reads must actually use the seqlock path";
      }
    }
  }
}

// The grouped-by-shard concurrent apply_batch must produce exactly the
// results (and end state) of the serial in-order reference execution —
// per-shard state independence is what licenses the grouping.
TEST(ApplyBatch, GroupedExecutionMatchesSerialReference) {
  for (const auto policy :
       {EvictionPolicy::lru, EvictionPolicy::fifo, EvictionPolicy::random}) {
    for (const std::size_t shards : {std::size_t{1}, std::size_t{4}}) {
      ShardedDictionary ref(64, policy, shards);
      ConcurrentShardedDictionary svc(64, policy, shards);
      Rng rng(0xBA7C + shards + static_cast<std::size_t>(policy));
      std::vector<bits::BitVector> pool;
      for (int i = 0; i < 48; ++i) pool.push_back(random_basis(rng));
      BatchScratch scratch;

      for (int round = 0; round < 12; ++round) {
        std::vector<BatchOp> plan;
        std::vector<bits::BitVector> ref_out(32);
        std::vector<bits::BitVector> svc_out(32);
        for (int i = 0; i < 32; ++i) {
          BatchOp op;
          const auto roll = rng.next_below(8);
          if (roll < 5) {
            op.kind = roll < 4 ? BatchOp::Kind::lookup_or_insert
                               : BatchOp::Kind::lookup;
            op.basis = &pool[rng.next_below(pool.size())];
            op.hash = op.basis->hash();
          } else if (roll < 6) {
            op.kind = BatchOp::Kind::insert_if_absent;
            op.basis = &pool[rng.next_below(pool.size())];
            op.hash = op.basis->hash();
          } else {
            op.kind = BatchOp::Kind::fetch_basis;
            op.id = static_cast<std::uint32_t>(rng.next_below(64));
          }
          plan.push_back(op);
        }
        std::vector<BatchOp> ref_plan = plan;
        std::vector<BatchOp> svc_plan = plan;
        for (std::size_t i = 0; i < plan.size(); ++i) {
          if (plan[i].kind == BatchOp::Kind::fetch_basis) {
            ref_plan[i].out = &ref_out[i];
            svc_plan[i].out = &svc_out[i];
          }
        }
        ref.apply_batch(ref_plan);
        svc.apply_batch(svc_plan, scratch);
        for (std::size_t i = 0; i < plan.size(); ++i) {
          ASSERT_EQ(ref_plan[i].result, svc_plan[i].result)
              << "op " << i << " round " << round;
          if (plan[i].kind == BatchOp::Kind::fetch_basis &&
              ref_plan[i].result != BatchOp::kNoId) {
            ASSERT_TRUE(ref_out[i] == svc_out[i]);
          }
        }
      }
      EXPECT_EQ(ref.size(), svc.size());
      EXPECT_EQ(ref.stats().hits, svc.stats().hits);
      EXPECT_EQ(ref.stats().misses, svc.stats().misses);
      EXPECT_EQ(ref.stats().insertions, svc.stats().insertions);
      EXPECT_EQ(ref.stats().evictions, svc.stats().evictions);
    }
  }
}

// The batched-resolve contract, standalone: one plan takes exactly one
// stripe acquisition per shard it touches, however many ops it carries.
TEST(ApplyBatch, OneStripeAcquisitionPerShard) {
  ConcurrentShardedDictionary svc(64, EvictionPolicy::lru, 4);
  Rng rng(0xACC);
  std::vector<bits::BitVector> bases;
  for (int i = 0; i < 16; ++i) bases.push_back(random_basis(rng));

  std::vector<BatchOp> plan;
  std::size_t touched_shards = 0;
  {
    std::vector<bool> seen(4, false);
    for (const auto& basis : bases) {
      BatchOp op;
      op.kind = BatchOp::Kind::lookup_or_insert;
      op.basis = &basis;
      op.hash = basis.hash();
      plan.push_back(op);
      const std::size_t shard = svc.unsynchronized().shard_of_hash(op.hash);
      if (!seen[shard]) {
        seen[shard] = true;
        ++touched_shards;
      }
    }
  }
  BatchScratch scratch;
  EXPECT_EQ(svc.stats().stripe_acquisitions, 0u);
  svc.apply_batch(plan, scratch);
  EXPECT_EQ(svc.stats().stripe_acquisitions, touched_shards)
      << "16 ops must coalesce into one acquisition per touched shard";
  // A second pass (all hits now) costs the same number of acquisitions.
  for (auto& op : plan) op.result = BatchOp::kNoId;
  svc.apply_batch(plan, scratch);
  EXPECT_EQ(svc.stats().stripe_acquisitions, 2 * touched_shards);
}

// The same contract through the ordered shared pipeline: N submitted
// units resolve with at most one acquisition per (unit, shard) pair —
// exactly N acquisitions on a single-stripe service, and nothing else in
// the pipeline (placement, stats readout) takes a dictionary lock.
TEST(ApplyBatch, PipelineResolveTakesOneAcquisitionPerUnitAndShard) {
  gd::GdParams params;
  params.id_bits = 10;
  Rng rng(0x10CB);
  std::vector<std::vector<std::uint8_t>> payloads;
  for (int u = 0; u < 32; ++u) {
    std::vector<std::uint8_t> payload(4 * params.raw_payload_bytes());
    for (auto& b : payload) b = static_cast<std::uint8_t>(rng.next_u64());
    payloads.push_back(std::move(payload));
  }

  for (const std::size_t shards : {std::size_t{1}, std::size_t{4}}) {
    engine::ParallelOptions options;
    options.workers = 4;
    options.ownership = engine::DictionaryOwnership::shared;
    options.steering = engine::FlowSteering::load_aware;
    options.dictionary_shards = shards;
    engine::ParallelEncoder pool(params, options, nullptr);
    for (std::uint32_t u = 0; u < payloads.size(); ++u) {
      pool.submit(u % 6, payloads[u]);
    }
    pool.flush();
    ASSERT_NE(pool.shared_dictionary(), nullptr);
    const std::uint64_t acquisitions =
        pool.shared_dictionary()->stats().stripe_acquisitions;
    if (shards == 1) {
      EXPECT_EQ(acquisitions, payloads.size())
          << "every unit's resolve must coalesce into ONE acquisition";
    } else {
      // At most one per (unit, shard) pair, and no more pairs than ops.
      EXPECT_LE(acquisitions, payloads.size() * 4);
      EXPECT_GE(acquisitions, payloads.size());
    }
  }
}

// The compound miss-then-learn transition is atomic per stripe: threads
// racing to learn the SAME fresh bases must never double-insert one (nor
// trip the insert-absent contract). The engine reaches lookup_or_insert
// through DictionaryHandle on its per-chunk paths, so it must hold up
// under contention without any pipeline sequencing around it.
TEST(LookupOrInsert, RacingLearnersInsertEachFreshBasisOnce) {
  std::vector<bits::BitVector> bases;
  for (std::uint64_t i = 0; i < 24; ++i) bases.push_back(tagged_basis(i));
  ConcurrentShardedDictionary svc(1024, EvictionPolicy::lru);
  std::atomic<bool> go{false};
  std::vector<std::thread> learners;
  for (int t = 0; t < 4; ++t) {
    learners.emplace_back([&] {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      for (int round = 0; round < 8; ++round) {
        for (const bits::BitVector& basis : bases) {
          (void)svc.lookup_or_insert(basis, /*learn=*/true);
        }
      }
    });
  }
  go.store(true, std::memory_order_release);
  for (std::thread& learner : learners) learner.join();
  EXPECT_EQ(svc.size(), 24u) << "each basis learned exactly once";
  EXPECT_EQ(svc.stats().insertions, 24u);
}

// The satellite stress test: concurrent readers racing a writer's
// insert/evict/erase churn must never observe a torn basis. Bases carry a
// self-certifying tag (upper words derived from word 0), so any mixed-
// version read fails is_tagged. Runs the policy x shards matrix — the TSan
// and ASan+UBSan CI jobs execute this under their sanitizers.
TEST(SeqlockReadPath, ConcurrentReadersNeverSeeTornBases) {
  struct Combo {
    EvictionPolicy policy;
    std::size_t shards;
  };
  const Combo combos[] = {
      {EvictionPolicy::lru, 1},    {EvictionPolicy::lru, 4},
      {EvictionPolicy::fifo, 1},   {EvictionPolicy::fifo, 4},
      {EvictionPolicy::random, 4},
  };
  constexpr std::size_t kCapacity = 256;    // small: constant evictions
  constexpr std::uint64_t kSeedRange = 4096;  // writer seeds wrap over this
  constexpr std::size_t kReaders = 3;
  constexpr std::uint64_t kReaderOps = 3000;

  for (const Combo& combo : combos) {
    ConcurrentShardedDictionary dict(kCapacity, combo.policy, combo.shards);
    // Readers do a FIXED amount of work; the writer churns until the last
    // reader finishes, so reads always race live publishes even on a
    // single-core host that runs the threads mostly back to back.
    std::atomic<std::size_t> readers_done{0};
    std::atomic<std::uint64_t> torn{0};
    std::atomic<std::uint64_t> verified{0};
    // Readers start once the writer has published its first basis: on a
    // loaded host the writer thread may otherwise not run until every
    // reader has finished, and the readers would race nothing.
    std::atomic<bool> writing{false};

    std::thread writer([&] {
      Rng rng(0x317E);
      for (std::uint64_t op = 0;
           readers_done.load(std::memory_order_acquire) < kReaders; ++op) {
        if (op % 16 == 15) {
          dict.erase(static_cast<std::uint32_t>(rng.next_below(kCapacity)));
        } else {
          // Tagged bases over a wrapping seed range: at capacity every
          // fresh insert also evicts, so entries are republished
          // constantly (and re-learns hit the present-check fast path).
          dict.insert_if_absent(
              tagged_basis((op % kSeedRange) * 0x9E3779B97F4A7C15ULL + 1));
        }
        if (op == 0) writing.store(true, std::memory_order_release);
      }
    });

    std::vector<std::thread> readers;
    for (std::size_t r = 0; r < kReaders; ++r) {
      readers.emplace_back([&, r] {
        Rng rng(0xEAD0 + r);
        bits::BitVector fetched;
        while (!writing.load(std::memory_order_acquire)) {
          std::this_thread::yield();
        }
        for (std::uint64_t op = 0; op < kReaderOps; ++op) {
          if (rng.next_bool(0.5)) {
            const auto id =
                static_cast<std::uint32_t>(rng.next_below(kCapacity));
            if (dict.lookup_basis_into(id, fetched)) {
              if (!is_tagged(fetched)) torn.fetch_add(1);
              verified.fetch_add(1);
            }
          } else {
            // Probe for a basis the writer may be publishing right now;
            // outcome (hit or miss) is timing-dependent, but a hit's
            // identifier must be in range and the probe must not crash
            // or tear.
            const auto seed = rng.next_below(kSeedRange);
            const auto probe =
                tagged_basis(seed * 0x9E3779B97F4A7C15ULL + 1);
            if (const auto id = dict.peek(probe)) {
              if (*id >= kCapacity) torn.fetch_add(1);
            }
            (void)dict.contains(probe);
          }
        }
        readers_done.fetch_add(1, std::memory_order_release);
      });
    }
    for (auto& t : readers) t.join();
    writer.join();

    EXPECT_EQ(torn.load(), 0u)
        << "policy " << static_cast<int>(combo.policy) << " shards "
        << combo.shards;
    EXPECT_GT(verified.load(), 0u) << "readers must have fetched something";
    const DictionaryStats stats = dict.stats();
    EXPECT_LE(dict.size(), kCapacity);
    // Conservation: every resident basis was inserted and neither evicted
    // nor erased (erase frees an identifier without counting an eviction,
    // so insertions - evictions only bounds the population from above).
    EXPECT_GE(stats.insertions - stats.evictions, dict.size());
    if (combo.policy != EvictionPolicy::lru) {
      EXPECT_GT(stats.lockfree_reads, 0u);
    }
  }
}

// The handle seam: apply_batch through a private handle is the serial
// reference; through a shared handle it is the grouped concurrent plan —
// and both agree with per-op execution.
TEST(DictionaryHandle, ApplyBatchDispatchesThroughBothModes) {
  ConcurrentShardedDictionary service(32, EvictionPolicy::fifo, 2);
  DictionaryHandle shared(service);
  DictionaryHandle owned(32, EvictionPolicy::fifo, 2);
  Rng rng(0xD15);
  std::vector<bits::BitVector> pool;
  for (int i = 0; i < 24; ++i) pool.push_back(random_basis(rng));

  BatchScratch scratch;
  for (int round = 0; round < 4; ++round) {
    std::vector<BatchOp> a;
    for (int i = 0; i < 12; ++i) {
      BatchOp op;
      op.kind = BatchOp::Kind::lookup_or_insert;
      op.basis = &pool[rng.next_below(pool.size())];
      op.hash = op.basis->hash();
      a.push_back(op);
    }
    std::vector<BatchOp> b = a;
    shared.apply_batch(a, scratch);
    owned.apply_batch(b, scratch);
    for (std::size_t i = 0; i < a.size(); ++i) {
      ASSERT_EQ(a[i].result, b[i].result) << "round " << round << " op " << i;
    }
  }
  EXPECT_EQ(shared.size(), owned.size());
  EXPECT_EQ(shared.stats().insertions, owned.stats().insertions);
}

}  // namespace
}  // namespace zipline::gd
