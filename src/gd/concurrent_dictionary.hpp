// Concurrent sharded basis dictionary: the shared dictionary service.
//
// The paper's switch holds ONE compression table per direction that every
// flow traversing the device shares — that is what makes the dictionary
// converge fast and stay small. This wrapper turns the deterministic
// ShardedDictionary into that service for the software pipeline: N worker
// threads of one direction operate on one dictionary. Writes (insert /
// install / erase / touch and the compound learning transitions) are
// striped: each takes the mutex of the one shard it touches. Reads
// (lookup / peek / contains / lookup_basis_into) are served from a
// per-shard read MIRROR guarded by a sequence counter (a seqlock): writers
// bump the counter odd, publish, bump it even; readers snapshot the
// counter, probe, and retry when it was odd or changed. Readers therefore
// never block and scale past the stripe count. The mirror is retry-safe by
// construction: every shared field is a std::atomic in stable (never
// reallocated) slots, so a torn read is *detected* by the sequence
// recheck, never dereferenced. A read falls back to the stripe lock when
// it must write (an LRU hit), when its shard's mirror is disabled, or
// after repeated retries. stats() and size() read lock-free shadow
// counters refreshed at each locked operation.
//
// Seqlock reads are STATE-EQUIVALENT to the serial dictionary's reads,
// which is what preserves byte-identity with the serial engine:
//
//   * a miss mutates nothing (read-side hit/miss accounting lives in
//     wrapper counters, folded into stats());
//   * a hit under fifo/random policies mutates nothing (those policies
//     never refresh recency), so it is a pure read;
//   * a hit under CLOCK refreshes recency with ONE relaxed atomic bit
//     store into the inner dictionary's stable referenced array
//     (BasisDictionary::mark_referenced) — idempotent and safe against
//     the evicting writer's sweep, so the hit stays entirely lock-free;
//   * a hit under LRU must refresh recency — a linked-list splice — so
//     LRU hits fall back to the stripe lock and replay the exact inner
//     transition. LRU is the last policy with a locked read; clock is its
//     lock-free approximation for the contended hot-hit regime. The hot
//     encode path on fresh traffic is miss-dominated, and the ordered
//     pipeline's resolve phases use apply_batch (below) rather than
//     per-op reads, so this fallback is off the line-rate path.
//
// apply_batch executes a whole resolve plan (gd::BatchOp, one unit's
// dictionary operations) with ONE stripe acquisition per (unit, shard)
// pair: ops are grouped by shard (stable, so in-shard order equals plan
// order) and each group runs under a single lock hold. Per-shard state
// (entries, recency, free identifiers, statistics, RNG) is independent
// across shards, so the grouped execution is observationally identical to
// the serial in-order execution ShardedDictionary::apply_batch defines.
// DictionaryStats::stripe_acquisitions counts every lock acquisition so
// the one-per-(unit, shard) contract is regression-testable.
//
// Thread-safety contract: every public operation is safe to call from any
// thread. Determinism, however, is a property of the CALLER's operation
// order — the underlying ShardedDictionary replays whatever sequence it
// is fed. The parallel pipeline therefore sequences its resolve phases in
// global submission order (engine/parallel.hpp), which is what makes
// shared-dictionary output byte-identical to a serial engine and
// replayable by a decoder; unordered callers get thread-safety but no
// replay guarantee.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <span>

#include "common/bitvector.hpp"
#include "gd/sharded_dictionary.hpp"

namespace zipline::gd {

class ConcurrentShardedDictionary {
 public:
  ConcurrentShardedDictionary(std::size_t capacity, EvictionPolicy policy,
                              std::size_t shard_count = 1,
                              std::uint64_t random_seed = 0x1dba5e5);
  ~ConcurrentShardedDictionary();

  ConcurrentShardedDictionary(const ConcurrentShardedDictionary&) = delete;
  ConcurrentShardedDictionary& operator=(const ConcurrentShardedDictionary&) =
      delete;

  [[nodiscard]] std::size_t capacity() const noexcept {
    return dict_.capacity();
  }
  [[nodiscard]] std::size_t shard_count() const noexcept {
    return dict_.shard_count();
  }
  [[nodiscard]] EvictionPolicy policy() const noexcept {
    return dict_.policy();
  }

  /// Total mapped bases / aggregated statistics. Both are assembled from
  /// lock-free shadow counters (refreshed at every locked operation) plus
  /// the read-side counters, so they never block the write path; each
  /// shard's contribution is a consistent-at-sync snapshot, not a global
  /// one. stats() additionally reports stripe_acquisitions (every mutex
  /// acquisition this service ever performed) and lockfree_reads (reads
  /// served entirely by the seqlock path).
  [[nodiscard]] std::size_t size() const noexcept;
  [[nodiscard]] DictionaryStats stats() const noexcept;

  /// Lock-free view of the underlying dictionary for quiescent inspection
  /// (tests, post-flush reporting). Racy while workers are active.
  [[nodiscard]] const ShardedDictionary& unsynchronized() const noexcept {
    return dict_;
  }

  // --- thread-safe ShardedDictionary interface --------------------------
  // One content hash per operation: it routes to the shard and keys both
  // the read mirror and the in-shard map.

  [[nodiscard]] std::optional<std::uint32_t> lookup(
      const bits::BitVector& basis);

  [[nodiscard]] std::optional<std::uint32_t> peek(
      const bits::BitVector& basis) const;

  /// Membership test without touching recency or statistics (a named
  /// peek, lock-free).
  [[nodiscard]] bool contains(const bits::BitVector& basis) const {
    return peek(basis).has_value();
  }

  InsertResult insert(const bits::BitVector& basis);

  /// Atomic encoder-side transition: lookup, and on a miss insert when
  /// `learn` — the compound transition holds ONE stripe acquisition, so
  /// two threads racing the same fresh basis cannot both pass the miss
  /// check and double-insert (tests/concurrent_dictionary_test.cpp races
  /// four learners). A hit under fifo/random/clock is answered from the
  /// mirror without the lock; everything else takes the stripe lock and
  /// replays the serial engine's exact sequence (lookup, then insert).
  [[nodiscard]] std::optional<std::uint32_t> lookup_or_insert(
      const bits::BitVector& basis, bool learn);

  /// Atomic decode-side learn: insert unless already present (the peek
  /// counts no statistics), under one stripe acquisition — the mirror of
  /// lookup_or_insert for the uncompressed-packet learning path.
  void insert_if_absent(const bits::BitVector& basis);

  /// Copies the basis mapped by `id` into `out` (reusing its storage);
  /// returns false when the identifier is unmapped. Refreshes recency
  /// under LRU (which forces the stripe lock); under the other policies
  /// it copies straight out of the mirror. This replaces
  /// lookup_basis_ref for shared callers — a reference into the entry
  /// table cannot outlive the shard lock.
  [[nodiscard]] bool lookup_basis_into(std::uint32_t id,
                                       bits::BitVector& out);

  void install(std::uint32_t id, const bits::BitVector& basis);

  void erase(std::uint32_t id);

  void touch(std::uint32_t id);

  /// Executes a resolve plan with one stripe acquisition per (plan,
  /// shard) pair. Results land in each op's `result` / `*out` exactly as
  /// ShardedDictionary::apply_batch (the serial reference) would produce
  /// them. `scratch` carries the grow-only grouping arrays. Equivalent to
  /// group_batch followed by apply_shard_group for every shard.
  void apply_batch(std::span<BatchOp> ops, BatchScratch& scratch);

  /// Groups a resolve plan by shard into `scratch` WITHOUT executing
  /// anything: the pure first half of apply_batch, split out so the
  /// parallel pipeline can learn a unit's shard footprint before
  /// admission and then execute each shard's group independently.
  /// scratch.counts[s] is the number of ops routed to shard s.
  void group_batch(std::span<const BatchOp> ops, BatchScratch& scratch) const;

  /// Executes shard `shard`'s group of a plan grouped by group_batch,
  /// under ONE stripe acquisition (none when the group is empty). Calling
  /// this once per shard — in ANY shard order — is observationally
  /// identical to apply_batch: per-shard state is independent and the
  /// grouping preserves in-shard plan order.
  void apply_shard_group(std::span<BatchOp> ops, const BatchScratch& scratch,
                         std::size_t shard);

  /// Records one blocked per-shard turnstile admission (the parallel
  /// pipeline calls this when a unit actually waits behind an earlier
  /// unit at a shard gate); folded into stats().turnstile_waits.
  void note_turnstile_wait() noexcept {
    turnstile_waits_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Probe-stage software prefetch for a whole resolve plan: each basis op
  /// warms the mirror index slot its content hash homes to plus the
  /// stripe's seqlock word; each fetch_basis op warms its identifier's
  /// entry slots. Counted per op in stats().prefetched_probes. Purely
  /// advisory — issues prefetch hints only, never loads mirror state, so
  /// it is safe concurrently with writers.
  void prefetch_ops(std::span<const BatchOp> ops) noexcept;

 private:
  /// One cache line per shard stripe so neighbouring stripes don't false-
  /// share under contention.
  struct alignas(64) Stripe {
    mutable std::mutex mutex;
    /// Seqlock sequence: even = mirror stable, odd = publish in progress.
    std::atomic<std::uint64_t> seq{0};
    // Read-side accounting: the inner shard never sees lock-free ops, so
    // their hit/miss contributions live here and are folded into stats().
    mutable std::atomic<std::uint64_t> read_hits{0};
    mutable std::atomic<std::uint64_t> read_misses{0};
    mutable std::atomic<std::uint64_t> read_other{0};  // peek/contains/fetch
    /// CLOCK recency marks recorded by lock-free hits (the inner shard
    /// only counts clock_touches for locked ops).
    mutable std::atomic<std::uint64_t> read_clock{0};
    // Shadow of the inner shard's statistics and size, refreshed before a
    // locked operation releases the stripe — what lets stats()/size()
    // stay off the mutex entirely.
    std::atomic<std::uint64_t> shadow_hits{0};
    std::atomic<std::uint64_t> shadow_misses{0};
    std::atomic<std::uint64_t> shadow_insertions{0};
    std::atomic<std::uint64_t> shadow_evictions{0};
    std::atomic<std::uint64_t> shadow_prefilter{0};
    std::atomic<std::uint64_t> shadow_clock{0};
    std::atomic<std::uint64_t> shadow_size{0};
  };

  /// Per-shard read mirror: stable all-atomic slots for every published
  /// (hash, basis) entry plus an open-addressing index from content hash
  /// to local identifier. Writers maintain it under the stripe mutex
  /// inside a seq-odd window; readers only ever load atomics and validate
  /// against the sequence, so no retry can fault.
  struct Mirror {
    std::unique_ptr<std::atomic<std::uint64_t>[]> entry_hash;  // [capacity]
    std::unique_ptr<std::atomic<std::uint32_t>[]> entry_bits;  // 0 = unmapped
    /// Basis word slab [capacity * width_words], allocated at the first
    /// publish (when the basis width is known). Owned raw (unique_ptr
    /// cannot be loaded atomically); freed in the destructor.
    std::atomic<std::atomic<std::uint64_t>*> words{nullptr};
    std::atomic<std::uint32_t> width_words{0};
    /// Open-addressing index: tag (content hash, 0 = never used) and
    /// local id + 1. Erases leave stale slots behind (detected by entry
    /// validation); the writer rebuilds when occupancy crosses 3/4.
    std::unique_ptr<std::atomic<std::uint64_t>[]> index_tag;
    std::unique_ptr<std::atomic<std::uint32_t>[]> index_ref;
    std::size_t index_mask = 0;
    std::size_t index_used = 0;  ///< writer-only: slots with nonzero tag
    /// Cleared (permanently falling back to locked reads for this shard)
    /// if a basis wider than the slab ever arrives — only possible with
    /// mixed basis sizes, which no engine produces.
    std::atomic<bool> enabled{true};
  };

  enum class Probe : std::uint8_t { hit, miss, retry };

  [[nodiscard]] std::unique_lock<std::mutex> acquire_stripe(
      std::size_t shard) const {
    stripe_acquisitions_.fetch_add(1, std::memory_order_relaxed);
    return std::unique_lock<std::mutex>(stripes_[shard].mutex);
  }

  [[nodiscard]] std::uint32_t to_local(std::uint32_t id) const noexcept {
    return id % static_cast<std::uint32_t>(dict_.shard_capacity());
  }
  [[nodiscard]] std::uint32_t to_global(std::size_t shard,
                                        std::uint32_t local) const noexcept {
    return static_cast<std::uint32_t>(shard * dict_.shard_capacity()) + local;
  }

  // Seqlock write window (stripe mutex held).
  void seq_begin(std::size_t shard) noexcept;
  void seq_end(std::size_t shard) noexcept;

  /// Retires a shard's mirror (readers fall back to the stripe lock),
  /// bumping the sequence so in-flight optimistic reads retry rather
  /// than validate a miss. Stripe mutex held.
  void disable_mirror(std::size_t shard);
  /// Ensures the shard's word slab can hold `basis` (allocating it on
  /// first use); returns false after retiring the mirror when it cannot.
  /// Stripe mutex held.
  [[nodiscard]] bool prepare_slab(std::size_t shard,
                                  const bits::BitVector& basis);
  /// Raw mirror stores for entry `local` = (hash, basis) + index claim.
  /// Stripe mutex held, seq window OPEN (callers bracket with
  /// seq_begin/seq_end so multi-entry updates can share one window).
  void write_entry(std::size_t shard, std::uint32_t local,
                   const bits::BitVector& basis, std::uint64_t hash);
  /// Publishes entry `local` = (hash, basis) into shard `shard`'s mirror
  /// and (re)claims its index slot, in its own seq window. Stripe mutex
  /// held.
  void publish_entry(std::size_t shard, std::uint32_t local,
                     const bits::BitVector& basis, std::uint64_t hash);
  /// Unpublishes entry `local` (its index slot goes stale, detected by
  /// validation). Stripe mutex held.
  void publish_erase(std::size_t shard, std::uint32_t local);
  void index_claim(Mirror& mirror, std::uint64_t hash, std::uint32_t local);
  void rebuild_index(Mirror& mirror);

  /// One optimistic probe of shard `shard`'s mirror for `basis`. hit
  /// fills `local`; retry means the mirror was unstable (or disabled) and
  /// the caller should fall back to the stripe lock after a few attempts.
  [[nodiscard]] Probe probe_mirror(std::size_t shard,
                                   const bits::BitVector& basis,
                                   std::uint64_t hash,
                                   std::uint32_t& local) const;
  /// One optimistic copy-out of entry `local` into `out`. hit = mapped,
  /// miss = unmapped, retry as above.
  [[nodiscard]] Probe fetch_mirror(std::size_t shard, std::uint32_t local,
                                   bits::BitVector& out) const;

  /// Inner insert + mirror publish (stripe mutex held).
  InsertResult locked_insert(std::size_t shard, const bits::BitVector& basis,
                             std::uint64_t hash);
  /// Executes one plan op against the inner dictionary (stripe mutex
  /// held), publishing any mirror changes.
  void run_locked_op(std::size_t shard, BatchOp& op);
  /// Refreshes the shard's shadow statistics (stripe mutex held; the last
  /// thing a locked operation does before releasing).
  void sync_shadow(std::size_t shard) noexcept;

  [[nodiscard]] std::size_t shard_of_op(const BatchOp& op) const noexcept {
    return op.kind == BatchOp::Kind::fetch_basis
               ? dict_.shard_of_id(op.id)
               : dict_.shard_of_hash(op.hash);
  }

  ShardedDictionary dict_;
  std::unique_ptr<Stripe[]> stripes_;
  std::unique_ptr<Mirror[]> mirrors_;
  mutable std::atomic<std::uint64_t> stripe_acquisitions_{0};
  std::atomic<std::uint64_t> turnstile_waits_{0};
  std::atomic<std::uint64_t> prefetched_probes_{0};
};

}  // namespace zipline::gd
