// Dictionary ownership handle: the one seam through which an Engine talks
// to its basis dictionary.
//
// Two ownership modes, chosen at construction:
//
//   * private  — the handle owns a ShardedDictionary. This is the
//     historical (and default) arrangement: one dictionary per engine, no
//     locks, bit-identical behaviour to the pre-handle code. Serial users
//     and the per-flow parallel mode live here.
//   * shared   — the handle borrows a ConcurrentShardedDictionary owned by
//     someone else (typically engine::ParallelPipeline). Many engines of
//     one direction then consult and teach ONE dictionary — the switch's
//     one-table-many-flows reality — and every operation takes the striped
//     shard lock inside the service. The service must outlive the handle.
//
// The hot-path cost of the abstraction is one predictable branch per
// operation; no virtual dispatch.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>

#include "common/bitvector.hpp"
#include "common/contracts.hpp"
#include "gd/concurrent_dictionary.hpp"
#include "gd/sharded_dictionary.hpp"

namespace zipline::gd {

class DictionaryHandle {
 public:
  /// Private mode: the handle owns a fresh deterministic dictionary.
  DictionaryHandle(std::size_t capacity, EvictionPolicy policy,
                   std::size_t shard_count = 1,
                   std::uint64_t random_seed = 0x1dba5e5)
      : owned_(std::make_unique<ShardedDictionary>(capacity, policy,
                                                   shard_count, random_seed)) {
  }

  /// Shared mode: the handle borrows `service` (which must outlive it).
  explicit DictionaryHandle(ConcurrentShardedDictionary& service)
      : shared_(&service) {}

  [[nodiscard]] bool is_shared() const noexcept { return shared_ != nullptr; }
  [[nodiscard]] const ConcurrentShardedDictionary* service() const noexcept {
    return shared_;
  }

  /// The underlying deterministic dictionary, for introspection (capacity,
  /// policy, per-shard stats). In shared mode this view is unsynchronized:
  /// read it only while the owning pipeline is quiescent.
  [[nodiscard]] const ShardedDictionary& view() const noexcept {
    return shared_ != nullptr ? shared_->unsynchronized() : *owned_;
  }

  [[nodiscard]] std::size_t capacity() const noexcept {
    return view().capacity();
  }
  [[nodiscard]] std::size_t shard_count() const noexcept {
    return view().shard_count();
  }
  [[nodiscard]] EvictionPolicy policy() const noexcept {
    return view().policy();
  }
  [[nodiscard]] DictionaryStats stats() const {
    return shared_ != nullptr ? shared_->stats() : owned_->stats();
  }
  [[nodiscard]] std::size_t size() const {
    return shared_ != nullptr ? shared_->size() : owned_->size();
  }

  // --- dictionary operations (mode-dispatched) ---------------------------

  [[nodiscard]] std::optional<std::uint32_t> lookup(
      const bits::BitVector& basis) {
    return shared_ != nullptr ? shared_->lookup(basis) : owned_->lookup(basis);
  }

  [[nodiscard]] std::optional<std::uint32_t> peek(
      const bits::BitVector& basis) const {
    return shared_ != nullptr ? shared_->peek(basis) : owned_->peek(basis);
  }

  InsertResult insert(const bits::BitVector& basis) {
    return shared_ != nullptr ? shared_->insert(basis) : owned_->insert(basis);
  }

  /// Encoder-side transition: lookup, and on a miss insert when `learn`.
  /// In shared mode the whole transition holds one stripe lock, so
  /// concurrent learners of the same basis cannot double-insert; the
  /// private path is the plain serial sequence.
  [[nodiscard]] std::optional<std::uint32_t> lookup_or_insert(
      const bits::BitVector& basis, bool learn) {
    if (shared_ != nullptr) return shared_->lookup_or_insert(basis, learn);
    if (const auto hit = owned_->lookup(basis)) return hit;
    if (learn) (void)owned_->insert(basis);
    return std::nullopt;
  }

  /// Membership test without touching recency or statistics (lock-free in
  /// shared mode).
  [[nodiscard]] bool contains(const bits::BitVector& basis) const {
    return peek(basis).has_value();
  }

  /// Executes a whole resolve plan (one unit's dictionary operations).
  /// Private mode runs the ops in plan order — the deterministic
  /// reference; shared mode groups them by shard and takes each stripe
  /// lock ONCE per (plan, shard) pair, which is observationally identical
  /// because per-shard state is independent and in-shard order is
  /// preserved. This is the engine's split-phase resolve path.
  void apply_batch(std::span<BatchOp> ops, BatchScratch& scratch) {
    if (shared_ != nullptr) {
      shared_->apply_batch(ops, scratch);
    } else {
      owned_->apply_batch(ops);
    }
  }

  /// Split apply_batch for the parallel pipeline's per-shard turnstiles
  /// (shared mode only): group_batch computes the plan's shard footprint
  /// without executing anything; apply_shard_group then runs one shard's
  /// group under one stripe acquisition. group_batch + apply_shard_group
  /// over every shard == apply_batch.
  void group_batch(std::span<const BatchOp> ops, BatchScratch& scratch) const {
    ZL_EXPECTS(shared_ != nullptr &&
               "split resolve is a shared-dictionary arrangement");
    shared_->group_batch(ops, scratch);
  }
  void apply_shard_group(std::span<BatchOp> ops, const BatchScratch& scratch,
                         std::size_t shard) {
    ZL_EXPECTS(shared_ != nullptr &&
               "split resolve is a shared-dictionary arrangement");
    shared_->apply_shard_group(ops, scratch, shard);
  }

  /// Probe-stage software prefetch for one basis — private mode only as a
  /// useful hint (the owned dictionary's prefilter bucket); a no-op in
  /// shared mode, whose probe stage is the plan-wide prefetch_ops below.
  void prefetch(const bits::BitVector& basis) noexcept {
    if (shared_ == nullptr) owned_->prefetch(basis);
  }

  /// Probe-stage software prefetch for a whole resolve plan (shared mode
  /// only): warms the mirror index / entry slots every op will touch.
  void prefetch_ops(std::span<const BatchOp> ops) noexcept {
    ZL_EXPECTS(shared_ != nullptr &&
               "plan prefetch is a shared-dictionary arrangement");
    shared_->prefetch_ops(ops);
  }

  /// Decode-side learn: insert unless present (peek counts no stats);
  /// atomic per stripe in shared mode.
  void insert_if_absent(const bits::BitVector& basis) {
    if (shared_ != nullptr) {
      shared_->insert_if_absent(basis);
      return;
    }
    if (!owned_->peek(basis)) (void)owned_->insert(basis);
  }

  /// Reference into the entry table — private mode only (a shared
  /// dictionary can mutate the entry the moment the shard lock drops).
  [[nodiscard]] const bits::BitVector* lookup_basis_ref(std::uint32_t id) {
    ZL_EXPECTS(shared_ == nullptr &&
               "lookup_basis_ref is only safe on a private dictionary");
    return owned_->lookup_basis_ref(id);
  }

  /// Copying lookup that is safe in both modes (shared mode copies under
  /// the shard lock). Returns false when the identifier is unmapped.
  [[nodiscard]] bool lookup_basis_into(std::uint32_t id, bits::BitVector& out) {
    if (shared_ != nullptr) return shared_->lookup_basis_into(id, out);
    const bits::BitVector* basis = owned_->lookup_basis_ref(id);
    if (basis == nullptr) return false;
    out = *basis;
    return true;
  }

 private:
  std::unique_ptr<ShardedDictionary> owned_;        // private mode
  ConcurrentShardedDictionary* shared_ = nullptr;   // shared mode (borrowed)
};

}  // namespace zipline::gd
