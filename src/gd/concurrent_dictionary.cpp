#include "gd/concurrent_dictionary.hpp"

#include <algorithm>
#include <array>

#include "common/contracts.hpp"

namespace zipline::gd {

namespace {

/// Optimistic probe attempts before falling back to the stripe lock
/// (bounds reader latency under pathological writer churn).
constexpr int kReadAttempts = 16;

/// Largest basis (in 64-bit words) the lock-free copy-out stages on the
/// stack; wider bases (4096+ bits — no GD parameterization comes close)
/// take the locked path.
constexpr std::size_t kMaxCopyWords = 64;

/// Index home slot. A different multiplier than the shard router so the
/// entries landing in one shard do not cluster on one index chain.
std::size_t index_home(std::uint64_t hash, std::size_t mask) noexcept {
  return static_cast<std::size_t>((hash * 0xD6E8FEB86659FD93ULL) >> 32) & mask;
}

std::uint64_t tag_of(std::uint64_t hash) noexcept {
  return hash != 0 ? hash : 1;  // 0 is the empty-slot sentinel
}

}  // namespace

ConcurrentShardedDictionary::ConcurrentShardedDictionary(
    std::size_t capacity, EvictionPolicy policy, std::size_t shard_count,
    std::uint64_t random_seed)
    : dict_(capacity, policy, shard_count, random_seed),
      stripes_(std::make_unique<Stripe[]>(shard_count)),
      mirrors_(std::make_unique<Mirror[]>(shard_count)) {
  const std::size_t shard_cap = dict_.shard_capacity();
  // 2x the shard's identifier space, so the open-addressing index stays
  // under 50% live even when the dictionary is full (stale slots push it
  // toward the 3/4 rebuild trigger).
  std::size_t index_size = 16;
  while (index_size < shard_cap * 2) index_size <<= 1;
  for (std::size_t s = 0; s < shard_count; ++s) {
    Mirror& m = mirrors_[s];
    m.entry_hash = std::make_unique<std::atomic<std::uint64_t>[]>(shard_cap);
    m.entry_bits = std::make_unique<std::atomic<std::uint32_t>[]>(shard_cap);
    m.index_tag = std::make_unique<std::atomic<std::uint64_t>[]>(index_size);
    m.index_ref = std::make_unique<std::atomic<std::uint32_t>[]>(index_size);
    m.index_mask = index_size - 1;
  }
}

ConcurrentShardedDictionary::~ConcurrentShardedDictionary() {
  for (std::size_t s = 0; s < dict_.shard_count(); ++s) {
    delete[] mirrors_[s].words.load(std::memory_order_relaxed);
  }
}

// --- seqlock write window --------------------------------------------------

void ConcurrentShardedDictionary::seq_begin(std::size_t shard) noexcept {
  Stripe& st = stripes_[shard];
  st.seq.store(st.seq.load(std::memory_order_relaxed) + 1,
               std::memory_order_relaxed);
  // The release fence orders the odd sequence store before every mirror
  // store that follows: no reader can observe new mirror data under the
  // old (even) sequence.
  std::atomic_thread_fence(std::memory_order_release);
}

void ConcurrentShardedDictionary::seq_end(std::size_t shard) noexcept {
  Stripe& st = stripes_[shard];
  // The release store orders every preceding mirror store before the even
  // sequence becomes visible.
  st.seq.store(st.seq.load(std::memory_order_relaxed) + 1,
               std::memory_order_release);
}

// --- mirror maintenance (stripe mutex held) --------------------------------

void ConcurrentShardedDictionary::rebuild_index(Mirror& mirror) {
  const std::size_t size = mirror.index_mask + 1;
  for (std::size_t i = 0; i < size; ++i) {
    mirror.index_tag[i].store(0, std::memory_order_relaxed);
    mirror.index_ref[i].store(0, std::memory_order_relaxed);
  }
  mirror.index_used = 0;
  const std::size_t shard_cap = dict_.shard_capacity();
  for (std::uint32_t local = 0; local < shard_cap; ++local) {
    if (mirror.entry_bits[local].load(std::memory_order_relaxed) == 0) {
      continue;
    }
    const std::uint64_t hash =
        mirror.entry_hash[local].load(std::memory_order_relaxed);
    std::size_t i = index_home(hash, mirror.index_mask);
    while (mirror.index_tag[i].load(std::memory_order_relaxed) != 0) {
      i = (i + 1) & mirror.index_mask;
    }
    mirror.index_tag[i].store(tag_of(hash), std::memory_order_relaxed);
    mirror.index_ref[i].store(local + 1, std::memory_order_relaxed);
    ++mirror.index_used;
  }
}

void ConcurrentShardedDictionary::index_claim(Mirror& mirror,
                                              std::uint64_t hash,
                                              std::uint32_t local) {
  const std::uint64_t tag = tag_of(hash);
  const std::size_t shard_cap = dict_.shard_capacity();
  for (int round = 0; round < 2; ++round) {
    std::size_t i = index_home(hash, mirror.index_mask);
    for (std::size_t n = 0; n <= mirror.index_mask;
         ++n, i = (i + 1) & mirror.index_mask) {
      const std::uint64_t t =
          mirror.index_tag[i].load(std::memory_order_relaxed);
      if (t == 0) {
        mirror.index_tag[i].store(tag, std::memory_order_relaxed);
        mirror.index_ref[i].store(local + 1, std::memory_order_relaxed);
        ++mirror.index_used;
        if (mirror.index_used > (mirror.index_mask + 1) / 4 * 3) {
          rebuild_index(mirror);
        }
        return;
      }
      const std::uint32_t r =
          mirror.index_ref[i].load(std::memory_order_relaxed);
      if (t == tag && r == local + 1) return;  // refresh of our own slot
      // A slot whose entry no longer carries its tag is stale (the basis
      // was evicted or its identifier recycled): reuse it in place. This
      // never turns a nonzero slot into an empty one, so concurrent
      // reader probe chains cannot be cut short.
      bool live = false;
      if (r != 0 && r <= shard_cap) {
        const std::uint32_t other = r - 1;
        live = mirror.entry_bits[other].load(std::memory_order_relaxed) !=
                   0 &&
               tag_of(mirror.entry_hash[other].load(
                   std::memory_order_relaxed)) == t;
      }
      if (!live) {
        mirror.index_tag[i].store(tag, std::memory_order_relaxed);
        mirror.index_ref[i].store(local + 1, std::memory_order_relaxed);
        return;
      }
    }
    // Chain exhausted before the occupancy trigger fired (can only happen
    // with adversarial clustering): compact and retry once.
    rebuild_index(mirror);
  }
  ZL_ASSERT(false && "index sized 2x capacity always has room after rebuild");
}

void ConcurrentShardedDictionary::disable_mirror(std::size_t shard) {
  // Retire the shard's mirror inside a seq window: the bump invalidates
  // any reader already past the enabled check, so it retries, re-reads
  // enabled, and falls back to the stripe lock instead of returning a
  // validated miss for a basis the inner dictionary holds.
  Mirror& m = mirrors_[shard];
  seq_begin(shard);
  m.enabled.store(false, std::memory_order_release);
  seq_end(shard);
}

bool ConcurrentShardedDictionary::prepare_slab(std::size_t shard,
                                               const bits::BitVector& basis) {
  Mirror& m = mirrors_[shard];
  const auto words = basis.words();
  std::uint32_t width = m.width_words.load(std::memory_order_relaxed);
  if (width == 0) {
    if (basis.empty()) {
      // A zero-bit basis is indistinguishable from an unmapped slot;
      // nothing real produces one — retire the mirror rather than special-
      // case it on the read path.
      disable_mirror(shard);
      return false;
    }
    const std::size_t shard_cap = dict_.shard_capacity();
    const auto w = static_cast<std::uint32_t>(words.size());
    // Zero-initialized slab; published before width so a reader that
    // observes the width always has the pointer.
    m.words.store(new std::atomic<std::uint64_t>[shard_cap * w](),
                  std::memory_order_release);
    m.width_words.store(w, std::memory_order_release);
    width = w;
  }
  if (basis.empty() || words.size() > width) {
    // Mixed basis widths (no engine produces them): serve this shard's
    // reads from the stripe lock forever.
    disable_mirror(shard);
    return false;
  }
  return true;
}

void ConcurrentShardedDictionary::write_entry(std::size_t shard,
                                              std::uint32_t local,
                                              const bits::BitVector& basis,
                                              std::uint64_t hash) {
  Mirror& m = mirrors_[shard];
  const auto words = basis.words();
  const std::uint32_t width = m.width_words.load(std::memory_order_relaxed);
  m.entry_hash[local].store(hash, std::memory_order_relaxed);
  std::atomic<std::uint64_t>* row =
      m.words.load(std::memory_order_relaxed) +
      static_cast<std::size_t>(local) * width;
  for (std::uint32_t w = 0; w < width; ++w) {
    row[w].store(w < words.size() ? words[w] : 0, std::memory_order_relaxed);
  }
  m.entry_bits[local].store(static_cast<std::uint32_t>(basis.size()),
                            std::memory_order_relaxed);
  index_claim(m, hash, local);
}

void ConcurrentShardedDictionary::publish_entry(std::size_t shard,
                                                std::uint32_t local,
                                                const bits::BitVector& basis,
                                                std::uint64_t hash) {
  if (!mirrors_[shard].enabled.load(std::memory_order_relaxed)) return;
  if (!prepare_slab(shard, basis)) return;
  seq_begin(shard);
  write_entry(shard, local, basis, hash);
  seq_end(shard);
}

void ConcurrentShardedDictionary::publish_erase(std::size_t shard,
                                                std::uint32_t local) {
  Mirror& m = mirrors_[shard];
  if (!m.enabled.load(std::memory_order_relaxed)) return;
  seq_begin(shard);
  m.entry_bits[local].store(0, std::memory_order_relaxed);
  seq_end(shard);
}

// --- lock-free reads -------------------------------------------------------

ConcurrentShardedDictionary::Probe ConcurrentShardedDictionary::probe_mirror(
    std::size_t shard, const bits::BitVector& basis, std::uint64_t hash,
    std::uint32_t& local) const {
  const Mirror& m = mirrors_[shard];
  if (!m.enabled.load(std::memory_order_acquire)) return Probe::retry;
  const Stripe& st = stripes_[shard];
  const std::uint64_t s0 = st.seq.load(std::memory_order_acquire);
  if (s0 & 1) return Probe::retry;
  const std::atomic<std::uint64_t>* slab =
      m.words.load(std::memory_order_acquire);
  const std::uint32_t width = m.width_words.load(std::memory_order_acquire);
  const std::uint64_t tag = tag_of(hash);
  const auto query = basis.words();
  const std::size_t shard_cap = dict_.shard_capacity();
  Probe outcome = Probe::retry;  // exhausted chain -> take the lock
  std::size_t i = index_home(hash, m.index_mask);
  for (std::size_t n = 0; n <= m.index_mask;
       ++n, i = (i + 1) & m.index_mask) {
    const std::uint64_t t = m.index_tag[i].load(std::memory_order_relaxed);
    if (t == 0) {
      outcome = Probe::miss;
      break;
    }
    if (t != tag) continue;
    const std::uint32_t r = m.index_ref[i].load(std::memory_order_relaxed);
    if (r == 0 || r > shard_cap) continue;  // torn ref: keep probing
    const std::uint32_t cand = r - 1;
    if (m.entry_hash[cand].load(std::memory_order_relaxed) != hash) continue;
    if (m.entry_bits[cand].load(std::memory_order_relaxed) != basis.size()) {
      continue;
    }
    if (slab == nullptr || query.size() > width) return Probe::retry;
    const std::atomic<std::uint64_t>* row =
        slab + static_cast<std::size_t>(cand) * width;
    bool equal = true;
    for (std::size_t w = 0; w < query.size(); ++w) {
      if (row[w].load(std::memory_order_relaxed) != query[w]) {
        equal = false;
        break;
      }
    }
    // A word mismatch is either a genuine hash collision (keep probing)
    // or a torn entry — in which case the sequence recheck below fails
    // and the caller retries, so a torn basis is never *accepted*.
    if (!equal) continue;
    local = cand;
    outcome = Probe::hit;
    break;
  }
  std::atomic_thread_fence(std::memory_order_acquire);
  if (st.seq.load(std::memory_order_relaxed) != s0) return Probe::retry;
  return outcome;
}

ConcurrentShardedDictionary::Probe ConcurrentShardedDictionary::fetch_mirror(
    std::size_t shard, std::uint32_t local, bits::BitVector& out) const {
  const Mirror& m = mirrors_[shard];
  if (!m.enabled.load(std::memory_order_acquire)) return Probe::retry;
  const Stripe& st = stripes_[shard];
  const std::uint64_t s0 = st.seq.load(std::memory_order_acquire);
  if (s0 & 1) return Probe::retry;
  const std::uint32_t bits = m.entry_bits[local].load(std::memory_order_relaxed);
  if (bits == 0) {
    std::atomic_thread_fence(std::memory_order_acquire);
    return st.seq.load(std::memory_order_relaxed) == s0 ? Probe::miss
                                                        : Probe::retry;
  }
  const std::size_t wc = (static_cast<std::size_t>(bits) + 63) / 64;
  const std::atomic<std::uint64_t>* slab =
      m.words.load(std::memory_order_acquire);
  const std::uint32_t width = m.width_words.load(std::memory_order_acquire);
  if (slab == nullptr || wc > width || wc > kMaxCopyWords) return Probe::retry;
  std::array<std::uint64_t, kMaxCopyWords> buffer;
  const std::atomic<std::uint64_t>* row =
      slab + static_cast<std::size_t>(local) * width;
  for (std::size_t w = 0; w < wc; ++w) {
    buffer[w] = row[w].load(std::memory_order_relaxed);
  }
  std::atomic_thread_fence(std::memory_order_acquire);
  // Validate BEFORE the snapshot is turned into a basis: a torn copy is
  // discarded here, never returned.
  if (st.seq.load(std::memory_order_relaxed) != s0) return Probe::retry;
  out.assign_from_words(std::span(buffer.data(), wc), bits);
  return Probe::hit;
}

// --- locked write helpers --------------------------------------------------

InsertResult ConcurrentShardedDictionary::locked_insert(
    std::size_t shard, const bits::BitVector& basis, std::uint64_t hash) {
  InsertResult result = dict_.insert(basis, hash);
  // Eviction recycles the victim's identifier, so the overwrite below
  // covers it; the victim's index slot goes stale and is reused later.
  publish_entry(shard, to_local(result.id), basis, hash);
  return result;
}

void ConcurrentShardedDictionary::sync_shadow(std::size_t shard) noexcept {
  const DictionaryStats& s = dict_.shard(shard).stats();
  Stripe& st = stripes_[shard];
  st.shadow_hits.store(s.hits, std::memory_order_relaxed);
  st.shadow_misses.store(s.misses, std::memory_order_relaxed);
  st.shadow_insertions.store(s.insertions, std::memory_order_relaxed);
  st.shadow_evictions.store(s.evictions, std::memory_order_relaxed);
  st.shadow_prefilter.store(s.prefilter_skips, std::memory_order_relaxed);
  st.shadow_clock.store(s.clock_touches, std::memory_order_relaxed);
  st.shadow_size.store(dict_.shard(shard).size(), std::memory_order_relaxed);
}

// --- aggregates ------------------------------------------------------------

std::size_t ConcurrentShardedDictionary::size() const noexcept {
  std::size_t total = 0;
  for (std::size_t s = 0; s < dict_.shard_count(); ++s) {
    total += stripes_[s].shadow_size.load(std::memory_order_relaxed);
  }
  return total;
}

DictionaryStats ConcurrentShardedDictionary::stats() const noexcept {
  DictionaryStats total;
  for (std::size_t s = 0; s < dict_.shard_count(); ++s) {
    const Stripe& st = stripes_[s];
    const std::uint64_t rh = st.read_hits.load(std::memory_order_relaxed);
    const std::uint64_t rm = st.read_misses.load(std::memory_order_relaxed);
    total.hits += st.shadow_hits.load(std::memory_order_relaxed) + rh;
    total.misses += st.shadow_misses.load(std::memory_order_relaxed) + rm;
    total.insertions += st.shadow_insertions.load(std::memory_order_relaxed);
    total.evictions += st.shadow_evictions.load(std::memory_order_relaxed);
    total.prefilter_skips +=
        st.shadow_prefilter.load(std::memory_order_relaxed);
    total.lockfree_reads +=
        rh + rm + st.read_other.load(std::memory_order_relaxed);
    // Locked ops count clock marks inside the shard; lock-free hits count
    // them here (the inner shard never sees those reads).
    total.clock_touches += st.shadow_clock.load(std::memory_order_relaxed) +
                           st.read_clock.load(std::memory_order_relaxed);
  }
  total.stripe_acquisitions =
      stripe_acquisitions_.load(std::memory_order_relaxed);
  total.turnstile_waits = turnstile_waits_.load(std::memory_order_relaxed);
  total.prefetched_probes =
      prefetched_probes_.load(std::memory_order_relaxed);
  return total;
}

void ConcurrentShardedDictionary::prefetch_ops(
    std::span<const BatchOp> ops) noexcept {
  for (const BatchOp& op : ops) {
    const std::size_t shard = shard_of_op(op);
    const Mirror& m = mirrors_[shard];
    if (op.kind == BatchOp::Kind::fetch_basis) {
      const std::uint32_t local = to_local(op.id);
      __builtin_prefetch(&m.entry_bits[local]);
      __builtin_prefetch(&m.entry_hash[local]);
    } else {
      __builtin_prefetch(&m.index_tag[index_home(op.hash, m.index_mask)]);
      __builtin_prefetch(&stripes_[shard].seq);
    }
  }
  if (!ops.empty()) {
    prefetched_probes_.fetch_add(ops.size(), std::memory_order_relaxed);
  }
}

// --- public operations -----------------------------------------------------

std::optional<std::uint32_t> ConcurrentShardedDictionary::lookup(
    const bits::BitVector& basis) {
  const std::uint64_t hash = basis.hash();
  const std::size_t shard = dict_.shard_of_hash(hash);
  for (int attempt = 0; attempt < kReadAttempts; ++attempt) {
    std::uint32_t local = 0;
    const Probe p = probe_mirror(shard, basis, hash, local);
    if (p == Probe::miss) {
      // A miss mutates nothing in any policy: answer without the lock.
      stripes_[shard].read_misses.fetch_add(1, std::memory_order_relaxed);
      return std::nullopt;
    }
    if (p == Probe::hit) {
      if (dict_.policy() != EvictionPolicy::lru) {
        // fifo/random never refresh recency: a hit is a pure read. clock
        // refreshes it with one idempotent relaxed bit store into the
        // inner shard's stable referenced array — still lock-free.
        const std::uint32_t id = to_global(shard, local);
        if (dict_.policy() == EvictionPolicy::clock) {
          dict_.mark_referenced(id);
          stripes_[shard].read_clock.fetch_add(1, std::memory_order_relaxed);
        }
        stripes_[shard].read_hits.fetch_add(1, std::memory_order_relaxed);
        return id;
      }
      break;  // LRU hit must splice the recency list -> locked transition
    }
  }
  auto guard = acquire_stripe(shard);
  const auto hit = dict_.lookup(basis, hash);
  sync_shadow(shard);
  return hit;
}

std::optional<std::uint32_t> ConcurrentShardedDictionary::peek(
    const bits::BitVector& basis) const {
  const std::uint64_t hash = basis.hash();
  const std::size_t shard = dict_.shard_of_hash(hash);
  for (int attempt = 0; attempt < kReadAttempts; ++attempt) {
    std::uint32_t local = 0;
    const Probe p = probe_mirror(shard, basis, hash, local);
    if (p == Probe::retry) continue;
    stripes_[shard].read_other.fetch_add(1, std::memory_order_relaxed);
    if (p == Probe::miss) return std::nullopt;
    return to_global(shard, local);
  }
  auto guard = acquire_stripe(shard);
  return dict_.peek(basis, hash);
}

InsertResult ConcurrentShardedDictionary::insert(
    const bits::BitVector& basis) {
  const std::uint64_t hash = basis.hash();
  const std::size_t shard = dict_.shard_of_hash(hash);
  auto guard = acquire_stripe(shard);
  const InsertResult result = locked_insert(shard, basis, hash);
  sync_shadow(shard);
  return result;
}

std::optional<std::uint32_t> ConcurrentShardedDictionary::lookup_or_insert(
    const bits::BitVector& basis, bool learn) {
  const std::uint64_t hash = basis.hash();
  const std::size_t shard = dict_.shard_of_hash(hash);
  // An LRU hit must splice the recency list, so LRU goes straight to the
  // locked compound transition.
  const int attempts =
      dict_.policy() != EvictionPolicy::lru ? kReadAttempts : 0;
  for (int attempt = 0; attempt < attempts; ++attempt) {
    std::uint32_t local = 0;
    const Probe p = probe_mirror(shard, basis, hash, local);
    if (p == Probe::hit) {
      const std::uint32_t id = to_global(shard, local);
      if (dict_.policy() == EvictionPolicy::clock) {
        dict_.mark_referenced(id);
        stripes_[shard].read_clock.fetch_add(1, std::memory_order_relaxed);
      }
      stripes_[shard].read_hits.fetch_add(1, std::memory_order_relaxed);
      return id;
    }
    if (p == Probe::miss) {
      if (!learn) {
        stripes_[shard].read_misses.fetch_add(1, std::memory_order_relaxed);
        return std::nullopt;
      }
      break;  // miss + learn -> locked compound transition
    }
  }
  auto guard = acquire_stripe(shard);
  const auto hit = dict_.lookup(basis, hash);
  if (!hit && learn) (void)locked_insert(shard, basis, hash);
  sync_shadow(shard);
  return hit;
}

void ConcurrentShardedDictionary::insert_if_absent(
    const bits::BitVector& basis) {
  const std::uint64_t hash = basis.hash();
  const std::size_t shard = dict_.shard_of_hash(hash);
  // Present-check is a peek (no statistics, no recency in ANY policy), so
  // a mirror hit answers the whole operation lock-free — the common case
  // for decode-side learning of already-known bases.
  for (int attempt = 0; attempt < kReadAttempts; ++attempt) {
    std::uint32_t local = 0;
    const Probe p = probe_mirror(shard, basis, hash, local);
    if (p == Probe::hit) {
      stripes_[shard].read_other.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    if (p == Probe::miss) break;  // absent -> locked insert
  }
  auto guard = acquire_stripe(shard);
  if (!dict_.peek(basis, hash)) (void)locked_insert(shard, basis, hash);
  sync_shadow(shard);
}

bool ConcurrentShardedDictionary::lookup_basis_into(std::uint32_t id,
                                                    bits::BitVector& out) {
  ZL_EXPECTS(id < dict_.capacity());
  const std::size_t shard = dict_.shard_of_id(id);
  // fifo/random fetches refresh nothing, and clock refreshes with a
  // lock-free bit store: copy out of the mirror either way. An LRU fetch
  // splices the recency list, so it takes the stripe lock.
  const std::uint32_t local = to_local(id);
  const int attempts =
      dict_.policy() != EvictionPolicy::lru ? kReadAttempts : 0;
  for (int attempt = 0; attempt < attempts; ++attempt) {
    const Probe p = fetch_mirror(shard, local, out);
    if (p == Probe::retry) continue;
    if (p == Probe::hit && dict_.policy() == EvictionPolicy::clock) {
      dict_.mark_referenced(id);
      stripes_[shard].read_clock.fetch_add(1, std::memory_order_relaxed);
    }
    stripes_[shard].read_other.fetch_add(1, std::memory_order_relaxed);
    return p == Probe::hit;
  }
  auto guard = acquire_stripe(shard);
  const bits::BitVector* basis = dict_.lookup_basis_ref(id);
  if (basis == nullptr) return false;
  out = *basis;
  sync_shadow(shard);
  return true;
}

void ConcurrentShardedDictionary::install(std::uint32_t id,
                                          const bits::BitVector& basis) {
  const std::uint64_t hash = basis.hash();
  const std::size_t shard = dict_.shard_of_id(id);
  auto guard = acquire_stripe(shard);
  // install erases any prior mapping of this basis (a basis maps to at
  // most one identifier); mirror that unpublish. The prior identifier
  // lives in this same shard — install requires the identifier to belong
  // to the basis's route shard (ZL_EXPECTS-enforced below).
  std::optional<std::uint32_t> prior;
  if (dict_.shard_of_hash(hash) == shard) prior = dict_.peek(basis, hash);
  dict_.install(id, basis);
  if (mirrors_[shard].enabled.load(std::memory_order_relaxed) &&
      prepare_slab(shard, basis)) {
    // ONE seq window covers both the unpublish of the prior mapping and
    // the new entry, so no reader can validate an intermediate state
    // (stale prior id resolvable, or the basis briefly absent) that the
    // inner dictionary never exposed.
    seq_begin(shard);
    if (prior.has_value() && *prior != id) {
      mirrors_[shard].entry_bits[to_local(*prior)].store(
          0, std::memory_order_relaxed);
    }
    write_entry(shard, to_local(id), basis, hash);
    seq_end(shard);
  }
  sync_shadow(shard);
}

void ConcurrentShardedDictionary::erase(std::uint32_t id) {
  const std::size_t shard = dict_.shard_of_id(id);
  auto guard = acquire_stripe(shard);
  dict_.erase(id);
  publish_erase(shard, to_local(id));
  sync_shadow(shard);
}

void ConcurrentShardedDictionary::touch(std::uint32_t id) {
  if (dict_.policy() == EvictionPolicy::clock) {
    // A TTL refresh under clock is one idempotent relaxed bit store — no
    // stripe lock, no mirror traffic.
    dict_.mark_referenced(id);
    stripes_[dict_.shard_of_id(id)].read_clock.fetch_add(
        1, std::memory_order_relaxed);
    return;
  }
  const std::size_t shard = dict_.shard_of_id(id);
  auto guard = acquire_stripe(shard);
  dict_.touch(id);  // recency only: nothing to publish
  sync_shadow(shard);
}

void ConcurrentShardedDictionary::run_locked_op(std::size_t shard,
                                                BatchOp& op) {
  switch (op.kind) {
    case BatchOp::Kind::lookup:
      if (const auto hit = dict_.lookup(*op.basis, op.hash)) {
        op.result = *hit;
      } else {
        op.result = BatchOp::kNoId;
      }
      break;
    case BatchOp::Kind::lookup_or_insert:
      if (const auto hit = dict_.lookup(*op.basis, op.hash)) {
        op.result = *hit;
      } else {
        (void)locked_insert(shard, *op.basis, op.hash);
        op.result = BatchOp::kNoId;
      }
      break;
    case BatchOp::Kind::insert_if_absent:
      if (!dict_.peek(*op.basis, op.hash)) {
        (void)locked_insert(shard, *op.basis, op.hash);
      }
      op.result = BatchOp::kNoId;
      break;
    case BatchOp::Kind::fetch_basis: {
      const bits::BitVector* basis = dict_.lookup_basis_ref(op.id);
      if (basis != nullptr) {
        *op.out = *basis;
        op.result = 1;
      } else {
        op.result = BatchOp::kNoId;
      }
      break;
    }
  }
}

void ConcurrentShardedDictionary::group_batch(std::span<const BatchOp> ops,
                                              BatchScratch& scratch) const {
  const std::size_t shards = dict_.shard_count();
  scratch.counts.assign(shards, 0);
  if (shards == 1) {
    // No routing to do: apply_shard_group runs the plan in span order.
    scratch.counts[0] = static_cast<std::uint32_t>(ops.size());
    return;
  }
  // Stable counting sort by shard: in-shard order equals plan order, the
  // property the deterministic replay rests on. Grow-only scratch.
  for (const BatchOp& op : ops) ++scratch.counts[shard_of_op(op)];
  scratch.offsets.resize(shards);
  std::uint32_t running = 0;
  for (std::size_t s = 0; s < shards; ++s) {
    scratch.offsets[s] = running;
    running += scratch.counts[s];
  }
  scratch.order.resize(ops.size());
  for (std::size_t i = 0; i < ops.size(); ++i) {
    scratch.order[scratch.offsets[shard_of_op(ops[i])]++] =
        static_cast<std::uint32_t>(i);
  }
  // offsets[s] is now the END of shard s's group.
}

void ConcurrentShardedDictionary::apply_shard_group(
    std::span<BatchOp> ops, const BatchScratch& scratch, std::size_t shard) {
  const std::uint32_t count = scratch.counts[shard];
  if (count == 0) return;
  auto guard = acquire_stripe(shard);  // ONE acquisition for the whole group
  if (dict_.shard_count() == 1) {
    for (BatchOp& op : ops) run_locked_op(0, op);
  } else {
    const std::uint32_t end = scratch.offsets[shard];
    for (std::uint32_t k = end - count; k < end; ++k) {
      run_locked_op(shard, ops[scratch.order[k]]);
    }
  }
  sync_shadow(shard);
}

void ConcurrentShardedDictionary::apply_batch(std::span<BatchOp> ops,
                                              BatchScratch& scratch) {
  if (ops.empty()) return;
  group_batch(ops, scratch);
  for (std::size_t s = 0; s < dict_.shard_count(); ++s) {
    apply_shard_group(ops, scratch, s);
  }
}

}  // namespace zipline::gd
