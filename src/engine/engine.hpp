// The batch-oriented encode/decode core every ZipLine consumer runs on.
//
// One Engine owns the GD transform, the codec statistics and the scratch
// state for one direction of one flow (or one worker). The dictionary is
// reached through a gd::DictionaryHandle, which either owns a private
// deterministic dictionary (the historical arrangement, bit-identical and
// still the default) or borrows a shared gd::ConcurrentShardedDictionary —
// the one-table-per-direction service many engines of a parallel pipeline
// consult and teach together (see gd/dictionary_handle.hpp).
//
// One data path, like the switch's parse -> match-action -> deparse: every
// batch runs transform -> resolve -> emit over a unit of work staged in an
// EncodeUnit / DecodeUnit. The transform (chunk + forward transform, or
// wire parse) and the emit (serialize, or inverse transform) are pure
// per-engine work; only the resolve phase touches the dictionary. The
// phases are public so the parallel pipeline can run transform and emit
// concurrently across workers while sequencing only the resolves.
// encode_packets / decode_packets run the same three phases over an
// engine-owned unit of MANY packets — a serial node's whole burst — in
// windows of at most kWindowChunks rows, emitting into a UnitSink; the
// single-payload encode_payload / decode_batch / decode_wire are their
// one-packet (or one-batch) case. In steady state (dictionary warm, arena
// capacities grown) a batch performs zero heap allocations — verified by
// tests/engine_alloc_test.cpp and swept by bench_micro_core.
//
// The per-chunk encode_chunk / encode_chunk_packet / decode_packet calls
// stay on the chunk-at-a-time forward_into / inverse_into transform: they
// back the GdEncoder/GdDecoder adapters in gd/codec.hpp and are the
// reference the batch path is checked against (byte-identical wire
// payloads and statistics, tests/engine_batch_test.cpp).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/bitio.hpp"
#include "engine/batch.hpp"
#include "gd/dictionary_handle.hpp"
#include "gd/packet.hpp"
#include "gd/stats.hpp"
#include "gd/transform.hpp"

namespace zipline::engine {

struct EngineStats : gd::CodecStats {
  /// Units emitted: one per encode_packets, decode_packets, encode_payload,
  /// encode_emit, decode_batch, decode_emit or decode_wire call, however
  /// many windows it spans. A serial Node therefore counts one per engine
  /// per burst, and the worker pool one per processed packet.
  std::uint64_t batches = 0;
};

/// One packet of a multi-packet encode unit: the unit rows it owns end at
/// `end_row` (they start where the previous packet's end), and its raw
/// tail, if any, is emitted right after them.
struct UnitPacket {
  std::size_t index = 0;  ///< the packet's position in the unit's input
  std::size_t end_row = 0;
  std::span<const std::uint8_t> tail{};
};

/// Scratch for one encode unit: the caller's for the phase API, the
/// engine's own for encode_packets. Row vectors only ever grow, so a unit
/// recycled across calls stops allocating once it has seen the largest
/// window (the same discipline as the batch arenas).
struct EncodeUnit {
  std::size_t chunks = 0;  ///< rows: valid prefix of the row vectors below
  /// Each row's chunk bytes, inside its packet's payload (the gather list
  /// of GdTransform::forward_block).
  std::vector<const std::uint8_t*> sources;
  std::vector<gd::TransformedChunk> transformed;
  std::vector<gd::PacketType> types;
  std::vector<std::uint32_t> ids;  ///< identifier; BatchOp::kNoId on a miss
  /// Shared-dictionary engines precompute each basis's content hash here
  /// during the (concurrent) transform phase, so the sequenced resolve
  /// phase spends no time hashing inside its critical section.
  std::vector<std::uint64_t> hashes;
  /// The packets the rows belong to, in input order.
  std::vector<UnitPacket> packets;
};

/// Scratch for one decode unit (see EncodeUnit). Row i is wire packet i.
struct DecodeUnit {
  std::size_t packets = 0;  ///< valid prefix of the vectors below
  std::vector<gd::PacketType> types;
  std::vector<std::uint32_t> syndromes;
  std::vector<std::uint32_t> ids;
  std::vector<bits::BitVector> excesses;
  std::vector<bits::BitVector> bases;  ///< parsed (type 2) or fetched (type 3)
  /// Content hashes of parsed type-2 bases (shared-dictionary engines
  /// only), computed in the concurrent parse phase — see EncodeUnit.
  std::vector<std::uint64_t> hashes;
  std::vector<std::span<const std::uint8_t>> raws;
};

/// One wire packet fed to decode_packets: a view, nothing is copied.
struct WirePacket {
  gd::PacketType type = gd::PacketType::raw;
  std::span<const std::uint8_t> payload{};
};

/// Where the emit phase puts a unit's output, one packet at a time, in
/// unit order: `packet` is the input packet it came from (its position
/// in the unit's input), `desc` its wire type (on decode: the type the
/// chunk arrived as) with syndrome / identifier, and `bytes` its payload,
/// valid only for the duration of the call. The per-packet
/// engine::PacketSink shape (sink.hpp) plus the packet index.
template <typename S>
concept UnitSink = requires(S sink, std::size_t packet, const PacketDesc& desc,
                            std::span<const std::uint8_t> bytes) {
  sink.on_packet(packet, desc, bytes);
};

/// UnitSink appending every packet to an EncodeBatch.
struct EncodeBatchSink {
  EncodeBatch* out;
  void on_packet(std::size_t /*packet*/, const PacketDesc& desc,
                 std::span<const std::uint8_t> bytes) {
    out->append(desc.type, desc.syndrome, desc.basis_id, bytes);
  }
};

/// UnitSink appending every recovered chunk (or raw tail) to a DecodeBatch.
struct DecodeBatchSink {
  DecodeBatch* out;
  void on_packet(std::size_t /*packet*/, const PacketDesc& desc,
                 std::span<const std::uint8_t> bytes) {
    out->append(desc.type, bytes);
  }
};

class Engine {
 public:
  /// Rows of the engine-owned unit: encode_packets stages at most this
  /// many chunks (and packets), decode_packets this many wire packets, per
  /// window, so the unit scratch stays bounded however large the input.
  static constexpr std::size_t kWindowChunks = 256;

  /// Private-dictionary engine. `learn` plays the role of learn_on_miss on
  /// the encode side and learn_on_uncompressed on the decode side; an
  /// Engine instance serves one direction, mirroring the codec's
  /// deterministic learning protocol. `dictionary_shards` splits the
  /// identifier space into that many independent dictionary shards
  /// (gd/sharded_dictionary.hpp); mirrored engines must agree on the shard
  /// count, and 1 (the default) is bit-identical to the historical
  /// unsharded dictionary.
  explicit Engine(const gd::GdParams& params,
                  gd::EvictionPolicy policy = gd::EvictionPolicy::lru,
                  bool learn = true, std::size_t dictionary_shards = 1);

  /// Shared-dictionary engine: consults and teaches `dictionary`, the
  /// one-table-per-direction service this engine shares with its peers.
  /// The service (whose capacity must match the params) must outlive the
  /// engine.
  Engine(const gd::GdParams& params,
         gd::ConcurrentShardedDictionary& dictionary, bool learn = true);

  // --- encode side ------------------------------------------------------

  /// Encodes many payloads as ONE unit: `next(payload)` yields the next
  /// payload (a span the caller keeps valid for the call) and returns
  /// false when there are no more. Every payload's full chunks become GD
  /// packets, its trailing partial chunk one raw packet, emitted into
  /// `sink` tagged with the payload's position. Runs the three phases
  /// below over the engine-owned unit, one window of at most
  /// kWindowChunks rows at a time; rows of one window may come from many
  /// payloads and one payload may span many windows. Byte-, stats- and
  /// dictionary-op-identical to encoding the payloads one by one.
  template <typename Next, UnitSink S>
  void encode_packets(Next&& next, S&& sink);

  /// Encodes one byte payload (the one-packet encode_packets), appending
  /// to `out` (callers clear the batch between payloads to reuse its
  /// arena).
  void encode_payload(std::span<const std::uint8_t> payload, EncodeBatch& out);

  /// Per-chunk reference: encodes one chunk of exactly params().chunk_bits
  /// bits through forward_into, appending the descriptor + serialized wire
  /// payload to `out`. Allocation-free in steady state.
  void encode_chunk(const bits::BitVector& chunk, EncodeBatch& out);

  /// Per-chunk adapter path: same dictionary/stats transition as
  /// encode_chunk, materialized as an owning GdPacket.
  [[nodiscard]] gd::GdPacket encode_chunk_packet(const bits::BitVector& chunk);

  // --- encode phases ----------------------------------------------------
  // transform -> resolve -> emit over one payload is byte- and
  // stats-identical to encode_payload. Only `encode_resolve` touches the
  // dictionary, so it is the only phase a shared-dictionary pipeline needs
  // to sequence; transform and emit are pure per-engine work. The payload
  // memory must stay valid through encode_emit (the raw tail is a view).

  /// Phase 1 (pure): chunk + forward-transform the payload into `unit`
  /// as a one-packet unit (every chunk, however many).
  void encode_transform(std::span<const std::uint8_t> payload,
                        EncodeUnit& unit);

  /// Phase 2 (dictionary): classify every transformed chunk — consult /
  /// teach the dictionary, fill unit.types / unit.ids, update statistics.
  /// On a shared dictionary the unit's operations are gathered into one
  /// batched plan (gd::BatchOp) and executed with a single stripe
  /// acquisition per (unit, shard) pair; a private dictionary keeps the
  /// per-chunk loop (whose lazy single-shard path can skip hashing
  /// entirely on prefiltered misses). Both produce identical types, ids
  /// and statistics. Identifiers of misses are gd::BatchOp::kNoId.
  void encode_resolve(EncodeUnit& unit);

  /// Phase 3 (pure): serialize the classified unit (and raw tails) into
  /// the batch arena, mirroring encode_chunk's wire layout exactly.
  void encode_emit(const EncodeUnit& unit, EncodeBatch& out);

  // --- decode side ------------------------------------------------------

  /// Decodes many wire packets as ONE unit: `next(wire)` yields the next
  /// packet and returns false when there are no more. Each packet's
  /// recovered chunk (or pass-through raw bytes) is emitted into `sink`
  /// tagged with the packet's position. For types 2/3 only the leading
  /// type{2,3}_payload_bytes() of a payload are consumed, so frame padding
  /// behind the packet is ignored. The three phases below over the
  /// engine-owned unit, one window of at most kWindowChunks packets at a
  /// time; allocation-free in steady state.
  template <typename Next, UnitSink S>
  void decode_packets(Next&& next, S&& sink);

  /// Decodes one wire packet (the one-packet decode_packets), appending to
  /// `out`.
  void decode_wire(gd::PacketType type, std::span<const std::uint8_t> payload,
                   DecodeBatch& out);

  /// Decodes every packet of an encoded batch as one unit.
  void decode_batch(const EncodeBatch& in, DecodeBatch& out);

  /// Per-chunk reference: decodes one parsed packet to chunk bits through
  /// inverse_into (the GdDecoder adapter path).
  [[nodiscard]] bits::BitVector decode_packet(const gd::GdPacket& packet);

  // --- decode phases ----------------------------------------------------
  // parse -> resolve -> emit over one encoded batch is byte- and
  // stats-identical to decode_batch; only decode_resolve touches the
  // dictionary. The input batch must stay valid through decode_emit (raw
  // payloads are views into it).

  /// Phase 1 (pure): parse every wire payload of `in` into `unit`.
  void decode_parse(const EncodeBatch& in, DecodeUnit& unit);

  /// Phase 2 (dictionary): learn type-2 bases, fetch type-3 bases (copied
  /// into the unit), update statistics. Batched on a shared dictionary —
  /// see encode_resolve.
  void decode_resolve(DecodeUnit& unit);

  /// Phase 3 (pure): inverse-transform every chunk into the decode arena.
  void decode_emit(const DecodeUnit& unit, DecodeBatch& out);

  // --- split resolve (shared dictionary, per-shard sequencing) ----------
  // The parallel pipeline's per-shard turnstiles split one resolve into
  // three finer phases: *plan* gathers the unit's dictionary operations
  // and groups them by shard WITHOUT touching the dictionary (pure, runs
  // concurrently), *resolve_shard* executes one shard's group under one
  // stripe acquisition (sequenced per shard by the pipeline), and
  // *finish* consumes the results into types/ids and statistics (pure).
  // plan -> resolve_shard over every touched shard (any order) -> finish
  // is op-for-op identical to encode_resolve / decode_resolve. Shared-
  // dictionary engines only; one plan in flight per engine.

  /// Builds and groups the encode unit's resolve plan (pure).
  void encode_resolve_plan(EncodeUnit& unit);
  /// Consumes the executed plan: types / ids / statistics (pure).
  void encode_resolve_finish(EncodeUnit& unit);
  /// Decode-side plan/finish mirror. finish checks the plan's fetches and
  /// accounts the unit; the private-dictionary decode_resolve ends in it
  /// too (its plan is empty).
  void decode_resolve_plan(DecodeUnit& unit);
  void decode_resolve_finish(DecodeUnit& unit);

  /// True when the current plan routes at least one op to shard `shard`.
  [[nodiscard]] bool resolve_plan_touches(std::size_t shard) const noexcept {
    return shard < batch_scratch_.counts.size() &&
           batch_scratch_.counts[shard] != 0;
  }
  /// Executes the current plan's group for `shard` (one stripe
  /// acquisition; no-op when the plan has no ops there).
  void resolve_shard(std::size_t shard);

  /// Accounts a decode-side raw packet passing through untouched (used by
  /// the payload adapters, which splice raw bytes directly).
  void note_raw_passthrough(std::size_t bytes);

  /// Accounts an encode-side raw tail (counted as a packet, not a chunk).
  void note_raw_tail(std::size_t bytes);

  // --- shared state -----------------------------------------------------

  /// Pre-loads the dictionary with a basis (the paper's "static table").
  void preload(const bits::BitVector& basis);

  [[nodiscard]] const gd::GdParams& params() const noexcept {
    return transform_.params();
  }
  [[nodiscard]] const gd::GdTransform& transform() const noexcept {
    return transform_;
  }
  /// The underlying deterministic dictionary. In shared mode this is the
  /// service's unsynchronized view — inspect it only while quiescent.
  [[nodiscard]] const gd::ShardedDictionary& dictionary() const noexcept {
    return dictionary_.view();
  }
  [[nodiscard]] const gd::DictionaryHandle& dictionary_handle() const noexcept {
    return dictionary_;
  }
  [[nodiscard]] const EngineStats& stats() const noexcept { return stats_; }

 private:
  /// Per-chunk reference transition: forward_into the chunk into scratch_,
  /// consult / teach the dictionary, account. Returns the wire type; the
  /// identifier (kNoId on a miss) is left in scratch_id_.
  gd::PacketType encode_step(const bits::BitVector& chunk);

  /// Encode-side accounting of one resolved chunk, shared by the
  /// per-chunk reference and both resolve paths: `id` is the dictionary's
  /// answer (gd::BatchOp::kNoId on a miss). Returns the wire type.
  gd::PacketType account_chunk(std::uint32_t id);

  /// Decode-side accounting of one wire packet (`raw_bytes` counts only
  /// for raw packets), shared by the per-chunk reference and
  /// decode_resolve_finish.
  void account_packet(gd::PacketType type, std::size_t raw_bytes);

  /// Serializes one classified chunk into writer_ — the single place that
  /// knows the wire field order, shared by encode_chunk and the unit emit.
  /// Returns the packet's descriptor; its bytes are writer_.bytes().
  PacketDesc serialize_chunk(const gd::TransformedChunk& transformed,
                             gd::PacketType type, std::uint32_t id);

  /// Stages packet `index` into `unit`: as many of `payload`'s chunks as
  /// `room` rows allow, plus its raw tail once every chunk is staged.
  /// Returns the part of `payload` still to stage (empty when done).
  std::span<const std::uint8_t> stage_packet(
      EncodeUnit& unit, std::size_t index,
      std::span<const std::uint8_t> payload, std::size_t room);
  /// Phase 1 over the staged rows: one forward_block gather (+ hashes).
  void transform_rows(EncodeUnit& unit);

  /// Parses one wire payload into row `row` of `unit` — the single place
  /// that knows the wire field order on the decode side.
  void parse_packet(gd::PacketType type, std::span<const std::uint8_t> payload,
                    DecodeUnit& unit, std::size_t row);

  /// The emit phases without the unit count: the windowed entry points
  /// emit one window at a time but count one unit per call. Decode rows
  /// are tagged first_packet + row.
  template <UnitSink S>
  void emit_encoded(const EncodeUnit& unit, S& sink);
  template <UnitSink S>
  void emit_decoded(const DecodeUnit& unit, std::size_t first_packet,
                    S& sink);
  /// Decode emit halves: expand every non-raw row's word as one kernel
  /// batch, then compose row `row`'s chunk bytes from it (plus excess).
  void expand_rows(const DecodeUnit& unit);
  std::span<const std::uint8_t> compose_chunk(const DecodeUnit& unit,
                                              std::size_t i,
                                              std::size_t row);

  gd::GdTransform transform_;
  gd::DictionaryHandle dictionary_;
  bool learn_;
  EngineStats stats_;

  /// The unit encode_packets / decode_packets stage through.
  EncodeUnit encode_unit_;
  DecodeUnit decode_unit_;
  // Per-chunk reference scratch (encode_step / decode_packet).
  gd::TransformedChunk scratch_;
  std::uint32_t scratch_id_ = 0;
  bits::BitVector word_scratch_;
  bits::BitVector basis_scratch_;
  /// Chunk stager of the decode emit (and decode_packet's result), and
  /// the emitted chunk's bytes.
  bits::BitVector chunk_scratch_;
  std::vector<std::uint8_t> chunk_bytes_;
  bits::BitWriter writer_;
  /// Batched-resolve staging (shared mode): built and consumed inside one
  /// resolve call; grow-only, like every other scratch. Always empty on a
  /// private dictionary.
  std::vector<gd::BatchOp> batch_ops_;
  gd::BatchScratch batch_scratch_;
  /// Word-plane scratch of the block transform: a unit's chunks
  /// canonicalize/expand as one kernel batch in encode_transform /
  /// decode_emit (see src/engine/README.md, "transform fast path").
  gd::TransformBlockScratch block_scratch_;
};

template <typename Next, UnitSink S>
void Engine::encode_packets(Next&& next, S&& sink) {
  EncodeUnit& unit = encode_unit_;
  // Reset first: a window that threw half-way leaves nothing behind.
  unit.chunks = 0;
  unit.packets.clear();
  const auto run_window = [&] {
    transform_rows(unit);
    encode_resolve(unit);
    emit_encoded(unit, sink);
    unit.chunks = 0;
    unit.packets.clear();
  };
  std::span<const std::uint8_t> payload;
  for (std::size_t index = 0; next(payload); ++index) {
    do {
      if (unit.chunks == kWindowChunks ||
          unit.packets.size() == kWindowChunks) {
        run_window();
      }
      payload = stage_packet(unit, index, payload, kWindowChunks - unit.chunks);
    } while (!payload.empty());
  }
  if (!unit.packets.empty()) run_window();
  ++stats_.batches;
}

template <typename Next, UnitSink S>
void Engine::decode_packets(Next&& next, S&& sink) {
  DecodeUnit& unit = decode_unit_;
  unit.packets = 0;
  std::size_t first = 0;
  const auto run_window = [&] {
    decode_resolve(unit);
    emit_decoded(unit, first, sink);
    first += unit.packets;
    unit.packets = 0;
  };
  WirePacket wire;
  while (next(wire)) {
    if (unit.packets == kWindowChunks) run_window();
    parse_packet(wire.type, wire.payload, unit, unit.packets++);
  }
  if (unit.packets != 0) run_window();
  ++stats_.batches;
}

template <UnitSink S>
void Engine::emit_encoded(const EncodeUnit& unit, S& sink) {
  std::size_t row = 0;
  for (const UnitPacket& packet : unit.packets) {
    for (; row < packet.end_row; ++row) {
      const PacketDesc desc = serialize_chunk(
          unit.transformed[row], unit.types[row], unit.ids[row]);
      sink.on_packet(packet.index, desc, writer_.bytes());
    }
    if (!packet.tail.empty()) {
      note_raw_tail(packet.tail.size());
      PacketDesc desc;
      desc.size = static_cast<std::uint32_t>(packet.tail.size());
      sink.on_packet(packet.index, desc, packet.tail);
    }
  }
}

template <UnitSink S>
void Engine::emit_decoded(const DecodeUnit& unit, std::size_t first_packet,
                          S& sink) {
  expand_rows(unit);
  std::size_t row = 0;
  for (std::size_t i = 0; i < unit.packets; ++i) {
    PacketDesc desc;
    desc.type = unit.types[i];
    const std::span<const std::uint8_t> bytes =
        desc.type == gd::PacketType::raw ? unit.raws[i]
                                         : compose_chunk(unit, i, row++);
    desc.size = static_cast<std::uint32_t>(bytes.size());
    sink.on_packet(first_packet + i, desc, bytes);
  }
}

}  // namespace zipline::engine
