// zipline::io — the symmetric burst-I/O seam every backend plugs into.
//
// The engine consumes and produces flat batch arenas (engine/batch.hpp);
// what was missing is the RECEIVE half of the seam: engine/sink.hpp only
// says where packets go, while every example, bench and the sim hand-
// rolled its own loop for where packets come from. This header closes the
// loop with one currency — the Burst — and two duck-typed concepts:
//
//   * PacketSource — rx_burst(Burst&) -> size_t: fill a burst, return the
//     number of packets delivered (0 = drained). The DPDK rte_eth_rx_burst
//     shape, which is exactly the contract a future PMD backend drops
//     into (see io/README.md).
//   * PacketSink — tx_burst(const Burst&): consume a burst. Mirrors the
//     per-packet engine::PacketSink (sink.hpp) one level up: a whole
//     burst per call instead of a packet per call, so a backend can
//     amortize its per-call cost (syscall, DMA doorbell, file write).
//
// A Burst is descriptors + per-packet payload VIEWS + per-packet metadata
// (flow key, timestamp, MACs, EtherType). Each payload has one of three
// backings, so the copy happens only where it must:
//
//   * owned  — bytes live in the burst's flat arena (the legacy shape;
//     append() copies into it). Self-contained, survives anything.
//   * segment — bytes live in a refcounted io::BufferPool segment
//     (buffer_pool.hpp); the burst holds a SegmentRef keeper. Copying the
//     burst bumps the refcount instead of moving bytes — the mbuf model,
//     and the backing a DPDK/AF_XDP backend supplies.
//   * external — bytes live in memory some third party keeps alive
//     (a TraceSource's payload table, an in-burst arena during a node's
//     passthrough splice). Zero-copy while that party holds still;
//     copying the burst MATERIALIZES these into the owned arena, so a
//     burst copy (e.g. a MemoryRing push) is always self-contained.
//
// bytes_copied() counts every payload byte physically copied INTO the
// burst — appends into the arena, materialized external views, copy-
// assignment — and is deliberately cumulative (clear() keeps it), so a
// hop that recycles one burst reads deltas to price itself. That is the
// number behind NodeStats::bytes_copied / copies_per_packet.
//
// clear() keeps all capacities (and releases segment refs), so a burst
// recycled through a source→node→sink loop stops allocating once it has
// seen the largest burst — the same steady-state discipline as the
// engine arenas (asserted in tests/engine_alloc_test.cpp).
#pragma once

#include <concepts>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "common/contracts.hpp"
#include "engine/batch.hpp"
#include "io/buffer_pool.hpp"
#include "net/mac.hpp"

namespace zipline::io {

/// Per-packet metadata riding alongside a packet descriptor: what a
/// network element knows about a packet besides its (type, payload).
struct PacketMeta {
  /// Flow identity — the steering key of Node's parallel modes. Backends
  /// extract it from what they have (MAC pair or 5-tuple for pcap, caller
  /// choice for memory rings and traces).
  std::uint32_t flow = 0;
  /// Capture/emission timestamp (carried through the node untouched).
  std::uint64_t timestamp_us = 0;
  net::MacAddress src{};
  net::MacAddress dst{};
  /// EtherType as seen (source side) or to be written (sink side). The
  /// node rewrites it from the wire packet type for processed packets and
  /// leaves it alone for passthrough ones.
  std::uint16_t ether_type = 0;
  /// false: the packet must traverse the node untouched (non-ZipLine
  /// traffic, clipped captures) — exactly the switch's passthrough.
  bool process = true;
};

/// One burst of packets: descriptors + payload views + aligned metadata.
class Burst {
 public:
  Burst() = default;
  /// Copying a burst must leave the copy self-contained: owned arena
  /// bytes are copied, segment views share the segment (refcount bump,
  /// no byte moves), and raw external views are MATERIALIZED into the
  /// copy's arena — external lifetime promises don't transfer.
  Burst(const Burst& other) { assign_from(other); }
  Burst& operator=(const Burst& other) {
    if (this != &other) assign_from(other);
    return *this;
  }
  /// Moves transfer everything (views, refs, counters) and are what the
  /// ring's swap-out pop circulates — no bytes touched.
  Burst(Burst&&) noexcept = default;
  Burst& operator=(Burst&&) noexcept = default;
  ~Burst() = default;

  /// Drops all packets and segment refs, keeping every capacity.
  /// bytes_copied() survives — it is a lifetime odometer, not contents.
  void clear() noexcept {
    descs_.clear();
    slots_.clear();
    meta_.clear();
    arena_.clear();
    segments_.clear();
  }

  void reserve(std::size_t packet_count, std::size_t storage_bytes) {
    descs_.reserve(packet_count);
    slots_.reserve(packet_count);
    meta_.reserve(packet_count);
    segments_.reserve(packet_count);
    arena_.reserve(storage_bytes);
  }

  [[nodiscard]] bool empty() const noexcept { return descs_.empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return descs_.size(); }

  [[nodiscard]] const engine::PacketDesc& desc(std::size_t i) const {
    return descs_[i];
  }
  [[nodiscard]] std::span<const std::uint8_t> payload(std::size_t i) const {
    const engine::PacketDesc& d = descs_[i];
    const Slot& s = slots_[i];
    if (s.backing == Backing::owned) {
      return std::span(arena_).subspan(d.offset, d.size);
    }
    return {s.view, d.size};
  }
  [[nodiscard]] const PacketMeta& meta(std::size_t i) const {
    return meta_[i];
  }
  [[nodiscard]] PacketMeta& meta(std::size_t i) { return meta_[i]; }
  [[nodiscard]] std::span<const PacketMeta> metas() const noexcept {
    return meta_;
  }

  /// Payload bytes physically copied into this burst over its lifetime
  /// (cumulative across clear(); hops read deltas).
  [[nodiscard]] std::uint64_t bytes_copied() const noexcept {
    return bytes_copied_;
  }
  /// Live segment refs held (diagnostics: sharing dedups against the
  /// last-appended segment, so contiguous packets from one segment cost
  /// one ref).
  [[nodiscard]] std::size_t segment_refs() const noexcept {
    return segments_.size();
  }

  /// Appends one packet by COPY: wire descriptor fields + payload bytes
  /// (into the owned arena) + metadata. The always-safe path.
  void append(gd::PacketType type, std::uint32_t syndrome,
              std::uint32_t basis_id, std::span<const std::uint8_t> bytes,
              const PacketMeta& meta) {
    push_desc(type, syndrome, basis_id, bytes.size(), meta);
    descs_.back().offset = copy_into_arena(bytes);
    slots_.push_back(Slot{Backing::owned, nullptr, 0});
  }

  /// Appends one packet as a raw VIEW of `bytes` — zero copy. The caller
  /// vouches that `bytes` outlives every read of this burst (e.g. a
  /// source's stable payload table, or an input burst that stays put for
  /// the duration of a node's process() call). Copying the burst
  /// materializes the view, so lifetime bugs cannot escape through a
  /// ring push.
  void append_view(gd::PacketType type, std::uint32_t syndrome,
                   std::uint32_t basis_id,
                   std::span<const std::uint8_t> bytes,
                   const PacketMeta& meta) {
    push_desc(type, syndrome, basis_id, bytes.size(), meta);
    slots_.push_back(Slot{Backing::external, bytes.data(), 0});
  }

  /// Appends one packet whose bytes live inside the pool segment
  /// `segment` — zero copy, and the burst keeps the segment alive via a
  /// ref. `bytes` must point into the segment's memory. Consecutive
  /// appends from the same segment share one ref.
  void append_segment(gd::PacketType type, std::uint32_t syndrome,
                      std::uint32_t basis_id,
                      std::span<const std::uint8_t> bytes,
                      const SegmentRef& segment, const PacketMeta& meta) {
    ZL_EXPECTS(static_cast<bool>(segment));
    push_desc(type, syndrome, basis_id, bytes.size(), meta);
    std::uint32_t index;
    if (!segments_.empty() && segments_.back().same_segment(segment)) {
      index = static_cast<std::uint32_t>(segments_.size() - 1);
    } else {
      segments_.push_back(segment);
      index = static_cast<std::uint32_t>(segments_.size() - 1);
    }
    slots_.push_back(Slot{Backing::segment, bytes.data(), index});
  }

  /// Copies packet `i` of `from` verbatim (payload bytes land in this
  /// burst's arena), so the result does not depend on `from`'s lifetime.
  void append_from(const Burst& from, std::size_t i) {
    const engine::PacketDesc& d = from.descs_[i];
    append(d.type, d.syndrome, d.basis_id, from.payload(i), from.meta_[i]);
  }

  /// Splices packet `i` of `from` by VIEW — no payload bytes move.
  /// Segment-backed packets share the segment ref (safe across any
  /// lifetime); owned/external-backed ones become raw views into `from`,
  /// valid until `from` is cleared or mutated. Byte-identical to
  /// append_from by contract (tests/io_backend_test.cpp).
  void append_view_from(const Burst& from, std::size_t i) {
    const engine::PacketDesc& d = from.descs_[i];
    const Slot& s = from.slots_[i];
    if (s.backing == Backing::segment) {
      append_segment(d.type, d.syndrome, d.basis_id, from.payload(i),
                     from.segments_[s.segment], from.meta_[i]);
    } else {
      append_view(d.type, d.syndrome, d.basis_id, from.payload(i),
                  from.meta_[i]);
    }
  }

  /// Moves packet first + j to position first + dest[j], for every j —
  /// `dest` must be a permutation of [0, size() - first). Descriptors,
  /// metadata and payload views move; payload bytes stay where they are.
  /// `dest` is consumed (left as the identity).
  void reorder(std::size_t first, std::span<std::uint32_t> dest) {
    ZL_EXPECTS(first + dest.size() == size());
    for (std::size_t j = 0; j < dest.size(); ++j) {
      while (dest[j] != j) {
        const std::size_t a = first + j;
        const std::size_t b = first + dest[j];
        std::swap(descs_[a], descs_[b]);
        std::swap(slots_[a], slots_[b]);
        std::swap(meta_[a], meta_[b]);
        std::swap(dest[j], dest[dest[j]]);
      }
    }
  }

  /// Materializes the burst into a flat EncodeBatch (descriptors +
  /// copied payload bytes) — for consumers that need the engine's arena
  /// shape (the switch model's run_batch, host TX staging). `out` is
  /// cleared first; its capacity is reused.
  void copy_to_batch(engine::EncodeBatch& out) const {
    out.clear();
    for (std::size_t i = 0; i < size(); ++i) {
      const engine::PacketDesc& d = descs_[i];
      out.append(d.type, d.syndrome, d.basis_id, payload(i));
    }
  }

 private:
  enum class Backing : std::uint8_t { owned, external, segment };

  struct Slot {
    Backing backing = Backing::owned;
    const std::uint8_t* view = nullptr;  ///< external/segment payload start
    std::uint32_t segment = 0;           ///< index into segments_ (segment)
  };

  void push_desc(gd::PacketType type, std::uint32_t syndrome,
                 std::uint32_t basis_id, std::size_t size,
                 const PacketMeta& meta) {
    ZL_EXPECTS(size <= 0xFFFFFFFFu);
    engine::PacketDesc d;
    d.type = type;
    d.offset = 0;
    d.size = static_cast<std::uint32_t>(size);
    d.syndrome = syndrome;
    d.basis_id = basis_id;
    descs_.push_back(d);
    meta_.push_back(meta);
  }

  [[nodiscard]] std::uint32_t copy_into_arena(
      std::span<const std::uint8_t> bytes) {
    ZL_EXPECTS(arena_.size() + bytes.size() <= 0xFFFFFFFFu);
    const auto offset = static_cast<std::uint32_t>(arena_.size());
    arena_.insert(arena_.end(), bytes.begin(), bytes.end());
    bytes_copied_ += bytes.size();
    return offset;
  }

  void assign_from(const Burst& other) {
    descs_.assign(other.descs_.begin(), other.descs_.end());
    slots_.assign(other.slots_.begin(), other.slots_.end());
    meta_.assign(other.meta_.begin(), other.meta_.end());
    segments_ = other.segments_;  // refcount bumps, zero byte moves
    arena_.assign(other.arena_.begin(), other.arena_.end());
    bytes_copied_ += other.arena_.size();
    // Raw external views point at memory whose lifetime this copy cannot
    // vouch for — materialize them so the copy is self-contained.
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      Slot& s = slots_[i];
      if (s.backing != Backing::external) continue;
      engine::PacketDesc& d = descs_[i];
      d.offset = copy_into_arena({s.view, d.size});
      s = Slot{Backing::owned, nullptr, 0};
    }
  }

  std::vector<engine::PacketDesc> descs_;
  std::vector<Slot> slots_;
  std::vector<PacketMeta> meta_;
  std::vector<SegmentRef> segments_;
  std::vector<std::uint8_t> arena_;
  std::uint64_t bytes_copied_ = 0;
};

/// A backend that fills bursts: returns the number of packets delivered
/// into `burst` (which the source must clear() first); 0 means drained.
template <typename S>
concept PacketSource = requires(S source, Burst& burst) {
  { source.rx_burst(burst) } -> std::convertible_to<std::size_t>;
};

/// A backend that consumes bursts.
template <typename S>
concept PacketSink = requires(S sink, const Burst& burst) {
  sink.tx_burst(burst);
};

/// Discards bursts (bench harness for a bare node).
struct NullBurstSink {
  std::uint64_t packets = 0;
  void tx_burst(const Burst& burst) { packets += burst.size(); }
};

/// Counts packets and payload bytes per wire type — the burst-level
/// sibling of engine::CountingSink.
struct CountingBurstSink {
  std::uint64_t bursts = 0;
  std::uint64_t packets = 0;
  std::uint64_t payload_bytes = 0;
  std::uint64_t raw = 0;
  std::uint64_t uncompressed = 0;
  std::uint64_t compressed = 0;

  void tx_burst(const Burst& burst) {
    ++bursts;
    for (std::size_t i = 0; i < burst.size(); ++i) {
      ++packets;
      payload_bytes += burst.payload(i).size();
      switch (burst.desc(i).type) {
        case gd::PacketType::raw: ++raw; break;
        case gd::PacketType::uncompressed: ++uncompressed; break;
        case gd::PacketType::compressed: ++compressed; break;
      }
    }
  }
};

}  // namespace zipline::io
