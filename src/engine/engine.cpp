#include "engine/engine.hpp"

#include <algorithm>
#include <limits>
#include <utility>

#include "common/contracts.hpp"

namespace zipline::engine {

namespace {

/// Grow-only: shrinking would discard the BitVector capacities that make
/// steady-state units allocation-free.
void grow(DecodeUnit& unit, std::size_t count) {
  if (unit.types.size() >= count) return;
  unit.types.resize(count);
  unit.syndromes.resize(count);
  unit.ids.resize(count);
  unit.excesses.resize(count);
  unit.bases.resize(count);
  unit.hashes.resize(count);
  unit.raws.resize(count);
}

}  // namespace

Engine::Engine(const gd::GdParams& params, gd::EvictionPolicy policy,
               bool learn, std::size_t dictionary_shards)
    : transform_(params),
      dictionary_(params.dictionary_capacity(), policy, dictionary_shards),
      learn_(learn) {}

Engine::Engine(const gd::GdParams& params,
               gd::ConcurrentShardedDictionary& dictionary, bool learn)
    : transform_(params), dictionary_(dictionary), learn_(learn) {
  ZL_EXPECTS(dictionary.capacity() == params.dictionary_capacity() &&
             "shared dictionary must be sized for the engine's id space");
}

gd::PacketType Engine::account_chunk(std::uint32_t id) {
  const gd::GdParams& p = params();
  ++stats_.chunks;
  stats_.bytes_in += p.raw_payload_bytes();
  if (id != gd::BatchOp::kNoId) {
    ++stats_.compressed_packets;
    stats_.bytes_out += p.type3_payload_bytes();
    return gd::PacketType::compressed;
  }
  ++stats_.uncompressed_packets;
  stats_.bytes_out += p.type2_payload_bytes();
  return gd::PacketType::uncompressed;
}

void Engine::account_packet(gd::PacketType type, std::size_t raw_bytes) {
  const gd::GdParams& p = params();
  ++stats_.chunks;
  if (type == gd::PacketType::raw) {
    note_raw_tail(raw_bytes);
    return;
  }
  if (type == gd::PacketType::uncompressed) {
    ++stats_.uncompressed_packets;
    stats_.bytes_in += p.type2_payload_bytes();
  } else {
    ++stats_.compressed_packets;
    stats_.bytes_in += p.type3_payload_bytes();
  }
  stats_.bytes_out += p.raw_payload_bytes();
}

gd::PacketType Engine::encode_step(const bits::BitVector& chunk) {
  ZL_EXPECTS(chunk.size() == params().chunk_bits);
  transform_.forward_into(chunk, scratch_, word_scratch_);
  // lookup_or_insert keeps miss-then-learn atomic on a shared dictionary
  // (one stripe acquisition), so concurrent learners of one fresh basis
  // cannot double-insert; privately it is the plain serial sequence.
  scratch_id_ = dictionary_.lookup_or_insert(scratch_.basis, learn_)
                    .value_or(gd::BatchOp::kNoId);
  return account_chunk(scratch_id_);
}

PacketDesc Engine::serialize_chunk(const gd::TransformedChunk& transformed,
                                   gd::PacketType type, std::uint32_t id) {
  const gd::GdParams& p = params();
  // Field order mirrors GdPacket::serialize exactly, so the batch path and
  // the per-chunk adapter stay byte-identical.
  PacketDesc desc;
  desc.type = type;
  desc.syndrome = transformed.syndrome;
  writer_.reset();
  writer_.write_uint(transformed.syndrome, static_cast<std::size_t>(p.m));
  writer_.write_bits(transformed.excess);
  if (type == gd::PacketType::uncompressed) {
    writer_.write_bits(transformed.basis);
    writer_.align_to_byte();
    if (p.model_tofino_padding) {
      writer_.write_padding(p.type2_extra_pad_bits);
      writer_.align_to_byte();
    }
  } else {
    writer_.write_uint(id, p.id_bits);
    writer_.align_to_byte();
    desc.basis_id = id;
  }
  desc.size = static_cast<std::uint32_t>(writer_.bytes().size());
  return desc;
}

void Engine::encode_chunk(const bits::BitVector& chunk, EncodeBatch& out) {
  const gd::PacketType type = encode_step(chunk);
  const PacketDesc desc = serialize_chunk(scratch_, type, scratch_id_);
  out.append(desc.type, desc.syndrome, desc.basis_id, writer_.bytes());
}

void Engine::encode_payload(std::span<const std::uint8_t> payload,
                            EncodeBatch& out) {
  bool pending = true;
  encode_packets(
      [&](std::span<const std::uint8_t>& next) {
        next = payload;
        return std::exchange(pending, false);
      },
      EncodeBatchSink{&out});
}

std::span<const std::uint8_t> Engine::stage_packet(
    EncodeUnit& unit, std::size_t index,
    std::span<const std::uint8_t> payload, std::size_t room) {
  // Wire framing of raw chunks is byte-based; require byte-sized chunks.
  ZL_EXPECTS(params().chunk_bits % 8 == 0);
  const std::size_t chunk_bytes = params().chunk_bits / 8;
  const std::size_t full = payload.size() / chunk_bytes;
  const std::size_t take = std::min(full, room);
  const std::size_t end = unit.chunks + take;
  if (unit.sources.size() < end) {
    // Grow-only, like the decode unit.
    unit.sources.resize(end);
    unit.transformed.resize(end);
    unit.types.resize(end);
    unit.ids.resize(end);
    unit.hashes.resize(end);
  }
  for (std::size_t c = 0; c < take; ++c) {
    unit.sources[unit.chunks + c] = payload.data() + c * chunk_bytes;
  }
  unit.chunks = end;
  // The raw tail rides with the packet's LAST rows, so it is emitted
  // right after them; a packet that continues in the next window carries
  // none here.
  const bool done = take == full;
  unit.packets.push_back(
      {index, end, done ? payload.subspan(full * chunk_bytes)
                        : std::span<const std::uint8_t>{}});
  return done ? std::span<const std::uint8_t>{}
              : payload.subspan(take * chunk_bytes);
}

void Engine::transform_rows(EncodeUnit& unit) {
  // The whole unit canonicalizes as one kernel batch over the block
  // scratch's word-plane (multi-stream syndrome fold + block slice) —
  // byte-identical to forward_into per chunk.
  transform_.forward_block(
      std::span<const std::uint8_t* const>(unit.sources.data(), unit.chunks),
      std::span(unit.transformed.data(), unit.chunks), block_scratch_);
  if (dictionary_.is_shared()) {
    for (std::size_t i = 0; i < unit.chunks; ++i) {
      // Hash in the (concurrent) transform phase so the sequenced resolve
      // phase spends none of its critical section hashing.
      unit.hashes[i] = unit.transformed[i].basis.hash();
    }
  }
}

void Engine::encode_transform(std::span<const std::uint8_t> payload,
                              EncodeUnit& unit) {
  unit.chunks = 0;
  unit.packets.clear();
  (void)stage_packet(unit, 0, payload,
                     std::numeric_limits<std::size_t>::max());
  transform_rows(unit);
}

void Engine::encode_resolve(EncodeUnit& unit) {
  if (!dictionary_.is_shared()) {
    // Private dictionary: per-chunk lookup_or_insert, whose lazy
    // single-shard path lets the prefilter resolve most misses without
    // hashing. The probe stage ahead of it prefetches every chunk's
    // prefilter slot so the loop stops eating the cold misses serially.
    for (std::size_t i = 0; i < unit.chunks; ++i) {
      dictionary_.prefetch(unit.transformed[i].basis);
    }
    for (std::size_t i = 0; i < unit.chunks; ++i) {
      unit.ids[i] = dictionary_.lookup_or_insert(unit.transformed[i].basis,
                                                 learn_)
                        .value_or(gd::BatchOp::kNoId);
      unit.types[i] = account_chunk(unit.ids[i]);
    }
    return;
  }
  // Shared dictionary: plan + per-shard apply + finish. The one-call form
  // simply runs every shard's group back to back; the parallel pipeline
  // interleaves other units' groups between them (per-shard turnstiles),
  // which is observationally identical because per-shard state is
  // independent.
  encode_resolve_plan(unit);
  for (std::size_t s = 0; s < dictionary_.shard_count(); ++s) {
    resolve_shard(s);
  }
  encode_resolve_finish(unit);
}

void Engine::encode_resolve_plan(EncodeUnit& unit) {
  ZL_EXPECTS(dictionary_.is_shared());
  // The plan replays the exact op sequence the private loop would issue —
  // one lookup_or_insert (or bare lookup when not learning) per chunk, in
  // chunk order — so types, identifiers and statistics are identical.
  batch_ops_.resize(unit.chunks);
  const gd::BatchOp::Kind kind = learn_ ? gd::BatchOp::Kind::lookup_or_insert
                                        : gd::BatchOp::Kind::lookup;
  for (std::size_t i = 0; i < unit.chunks; ++i) {
    gd::BatchOp& op = batch_ops_[i];
    op.kind = kind;
    op.hash = unit.hashes[i];
    op.basis = &unit.transformed[i].basis;
    op.out = nullptr;
    op.result = gd::BatchOp::kNoId;
  }
  dictionary_.group_batch(batch_ops_, batch_scratch_);
  // Probe stage: prefetch every op's shard-index and seqlock read-mirror
  // slots (hashes were computed in the concurrent transform phase) so the
  // sequenced resolve loop doesn't pay the cold-miss latency serially.
  dictionary_.prefetch_ops(batch_ops_);
}

void Engine::resolve_shard(std::size_t shard) {
  dictionary_.apply_shard_group(batch_ops_, batch_scratch_, shard);
}

void Engine::encode_resolve_finish(EncodeUnit& unit) {
  for (std::size_t i = 0; i < unit.chunks; ++i) {
    unit.ids[i] = batch_ops_[i].result;
    unit.types[i] = account_chunk(unit.ids[i]);
  }
}

void Engine::encode_emit(const EncodeUnit& unit, EncodeBatch& out) {
  EncodeBatchSink sink{&out};
  emit_encoded(unit, sink);
  ++stats_.batches;
}

gd::GdPacket Engine::encode_chunk_packet(const bits::BitVector& chunk) {
  const gd::PacketType type = encode_step(chunk);
  // Copy (not move) out of the scratch so its capacity survives the call.
  if (type == gd::PacketType::compressed) {
    return gd::GdPacket::make_compressed(scratch_.syndrome, scratch_.excess,
                                         scratch_id_);
  }
  return gd::GdPacket::make_uncompressed(scratch_.syndrome, scratch_.excess,
                                         scratch_.basis);
}

void Engine::parse_packet(gd::PacketType type,
                          std::span<const std::uint8_t> payload,
                          DecodeUnit& unit, std::size_t row) {
  grow(unit, row + 1);
  unit.types[row] = type;
  if (type == gd::PacketType::raw) {
    unit.raws[row] = payload;
    return;
  }
  const gd::GdParams& p = params();
  const bool uncompressed = type == gd::PacketType::uncompressed;
  const std::size_t body =
      uncompressed ? p.type2_payload_bytes() : p.type3_payload_bytes();
  ZL_EXPECTS(payload.size() >= body);
  bits::BitReader reader(payload.first(body));
  unit.syndromes[row] = static_cast<std::uint32_t>(
      reader.read_uint(static_cast<std::size_t>(p.m)));
  reader.read_bits_into(p.excess_bits(), unit.excesses[row]);
  if (uncompressed) {
    reader.read_bits_into(p.k(), unit.bases[row]);
    if (learn_ && dictionary_.is_shared()) {
      // Hash the learnable basis in the (concurrent) parse phase; the
      // sequenced resolve phase reuses it — see encode_transform.
      unit.hashes[row] = unit.bases[row].hash();
    }
  } else {
    unit.ids[row] = static_cast<std::uint32_t>(reader.read_uint(p.id_bits));
  }
}

void Engine::decode_parse(const EncodeBatch& in, DecodeUnit& unit) {
  grow(unit, in.size());
  for (std::size_t i = 0; i < in.size(); ++i) {
    const PacketDesc& desc = in.packet(i);
    parse_packet(desc.type, in.payload(desc), unit, i);
  }
  unit.packets = in.size();
}

void Engine::decode_wire(gd::PacketType type,
                         std::span<const std::uint8_t> payload,
                         DecodeBatch& out) {
  bool pending = true;
  decode_packets(
      [&](WirePacket& wire) {
        wire = {type, payload};
        return std::exchange(pending, false);
      },
      DecodeBatchSink{&out});
}

void Engine::decode_batch(const EncodeBatch& in, DecodeBatch& out) {
  std::size_t i = 0;
  decode_packets(
      [&](WirePacket& wire) {
        if (i == in.size()) return false;
        wire = {in.packet(i).type, in.payload(i)};
        ++i;
        return true;
      },
      DecodeBatchSink{&out});
}

void Engine::decode_resolve(DecodeUnit& unit) {
  if (dictionary_.is_shared()) {
    // Shared dictionary: plan + per-shard apply + finish (see
    // encode_resolve).
    decode_resolve_plan(unit);
    for (std::size_t s = 0; s < dictionary_.shard_count(); ++s) {
      resolve_shard(s);
    }
  } else {
    for (std::size_t i = 0; i < unit.packets; ++i) {
      if (unit.types[i] == gd::PacketType::raw) continue;
      if (unit.types[i] == gd::PacketType::uncompressed) {
        if (learn_) dictionary_.insert_if_absent(unit.bases[i]);
        continue;
      }
      const bool mapped =
          dictionary_.lookup_basis_into(unit.ids[i], unit.bases[i]);
      ZL_EXPECTS(mapped && "compressed packet with unknown ID");
    }
  }
  decode_resolve_finish(unit);
}

void Engine::decode_resolve_plan(DecodeUnit& unit) {
  ZL_EXPECTS(dictionary_.is_shared());
  // Gather the unit's dictionary operations — type-2 learns and type-3
  // fetches, in packet order — into one plan executed with a single
  // stripe acquisition per (unit, shard) pair. A type-3 identifier can
  // reference a basis a type-2 packet of this same unit teaches; both
  // route to the same shard (the identifier lives in the shard the
  // basis hashes to), and in-shard plan order is preserved, so the
  // fetch still observes the insert exactly as the serial loop would.
  batch_ops_.clear();
  for (std::size_t i = 0; i < unit.packets; ++i) {
    if (unit.types[i] == gd::PacketType::uncompressed && learn_) {
      batch_ops_.push_back({gd::BatchOp::Kind::insert_if_absent, 0,
                            unit.hashes[i], &unit.bases[i], nullptr,
                            gd::BatchOp::kNoId});
    } else if (unit.types[i] == gd::PacketType::compressed) {
      batch_ops_.push_back({gd::BatchOp::Kind::fetch_basis, unit.ids[i], 0,
                            nullptr, &unit.bases[i], gd::BatchOp::kNoId});
    }
  }
  dictionary_.group_batch(batch_ops_, batch_scratch_);
  // Same probe stage as encode_resolve_plan: warm the index and mirror
  // slots for the whole unit before the sequenced per-shard applies.
  dictionary_.prefetch_ops(batch_ops_);
}

void Engine::decode_resolve_finish(DecodeUnit& unit) {
  for (const gd::BatchOp& op : batch_ops_) {
    ZL_EXPECTS((op.kind != gd::BatchOp::Kind::fetch_basis ||
                op.result != gd::BatchOp::kNoId) &&
               "compressed packet with unknown ID");
  }
  for (std::size_t i = 0; i < unit.packets; ++i) {
    account_packet(unit.types[i], unit.raws[i].size());
  }
}

void Engine::expand_rows(const DecodeUnit& unit) {
  // Stage every non-raw packet's (basis, syndrome) into the block scratch
  // and expand them all as one kernel batch; the emit then composes each
  // chunk from its expanded word row plus the verbatim excess, in packet
  // order. Byte-identical to inverse_into per packet.
  transform_.inverse_block_reserve(unit.packets, block_scratch_);
  std::size_t rows = 0;
  for (std::size_t i = 0; i < unit.packets; ++i) {
    if (unit.types[i] == gd::PacketType::raw) continue;
    transform_.inverse_block_stage(block_scratch_, rows++, unit.bases[i],
                                   unit.syndromes[i]);
  }
  transform_.inverse_block_expand(block_scratch_, rows);
}

std::span<const std::uint8_t> Engine::compose_chunk(const DecodeUnit& unit,
                                                    std::size_t i,
                                                    std::size_t row) {
  chunk_scratch_.assign_from_words(transform_.chunk_row(block_scratch_, row),
                                   params().chunk_bits);
  chunk_scratch_.accumulate_shifted(unit.excesses[i], params().n());
  chunk_bytes_.clear();
  chunk_scratch_.append_bytes_to(chunk_bytes_);
  return chunk_bytes_;
}

void Engine::decode_emit(const DecodeUnit& unit, DecodeBatch& out) {
  DecodeBatchSink sink{&out};
  emit_decoded(unit, 0, sink);
  ++stats_.batches;
}

bits::BitVector Engine::decode_packet(const gd::GdPacket& packet) {
  account_packet(packet.type, packet.raw.size());
  if (packet.type == gd::PacketType::raw) {
    return bits::BitVector::from_bytes(packet.raw, packet.raw.size() * 8);
  }
  if (packet.type == gd::PacketType::uncompressed) {
    if (learn_) dictionary_.insert_if_absent(packet.basis);
    transform_.inverse_into(packet.excess, packet.basis, packet.syndrome,
                            chunk_scratch_, word_scratch_);
    return chunk_scratch_;
  }
  const bool mapped =
      dictionary_.lookup_basis_into(packet.basis_id, basis_scratch_);
  ZL_EXPECTS(mapped && "compressed packet with unknown ID");
  transform_.inverse_into(packet.excess, basis_scratch_, packet.syndrome,
                          chunk_scratch_, word_scratch_);
  return chunk_scratch_;
}

void Engine::note_raw_passthrough(std::size_t bytes) {
  account_packet(gd::PacketType::raw, bytes);
}

void Engine::note_raw_tail(std::size_t bytes) {
  ++stats_.raw_packets;
  stats_.bytes_in += bytes;
  stats_.bytes_out += bytes;
}

void Engine::preload(const bits::BitVector& basis) {
  ZL_EXPECTS(basis.size() == params().k());
  dictionary_.insert_if_absent(basis);
}

}  // namespace zipline::engine
