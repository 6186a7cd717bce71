#include "gd/stream.hpp"

#include <stdexcept>

#include "common/contracts.hpp"
#include "crc/crc32.hpp"
#include "engine/engine.hpp"
#include "engine/parallel.hpp"
#include "engine/sink.hpp"

namespace zipline::gd {

namespace {

constexpr std::uint8_t kMagic[4] = {'G', 'D', 'Z', '1'};
constexpr std::uint8_t kVersion = 2;
constexpr std::uint8_t kVersionPolicyless = 1;  ///< LRU / 1 shard implied
constexpr std::uint8_t kTagEnd = 0x00;
constexpr std::uint8_t kTagTail = 0x7F;
constexpr std::size_t kMaxHeaderShards = 0xFF;

void put_u16(std::vector<std::uint8_t>& out, std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v & 0xFF));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
}

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

class Cursor {
 public:
  explicit Cursor(std::span<const std::uint8_t> data) : data_(data) {}

  std::uint8_t u8() {
    need(1);
    return data_[pos_++];
  }
  std::uint16_t u16() {
    need(2);
    const std::uint16_t v = static_cast<std::uint16_t>(
        data_[pos_] | (data_[pos_ + 1] << 8));
    pos_ += 2;
    return v;
  }
  std::uint32_t u32() {
    need(4);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<std::uint32_t>(data_[pos_ + static_cast<std::size_t>(i)])
           << (8 * i);
    }
    pos_ += 4;
    return v;
  }
  std::span<const std::uint8_t> bytes(std::size_t count) {
    need(count);
    const auto view = data_.subspan(pos_, count);
    pos_ += count;
    return view;
  }
  [[nodiscard]] std::size_t position() const { return pos_; }

 private:
  void need(std::size_t count) const {
    if (pos_ + count > data_.size()) {
      throw std::runtime_error("gd stream: truncated container");
    }
  }
  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

/// engine::PacketSink appending GDZ1 records — tag byte, an explicit
/// 32-bit length for raw tails (types 2/3 have fixed sizes derived from
/// the header), then the wire payload straight out of the batch arena.
class ContainerRecordSink {
 public:
  explicit ContainerRecordSink(std::vector<std::uint8_t>& out) : out_(&out) {}

  void on_packet(const engine::PacketDesc& desc,
                 std::span<const std::uint8_t> payload) {
    if (desc.type == PacketType::raw) {
      out_->push_back(kTagTail);
      put_u32(*out_, static_cast<std::uint32_t>(payload.size()));
    } else {
      out_->push_back(static_cast<std::uint8_t>(desc.type));
    }
    out_->insert(out_->end(), payload.begin(), payload.end());
  }

 private:
  std::vector<std::uint8_t>* out_;
};

/// Walks the record section once, validating structure and returning the
/// byte range the CRC trailer covers. Decoding happens in a second pass so
/// corruption that still parses structurally is reported as a CRC
/// mismatch rather than a downstream decode failure (a mangled tag or
/// length still throws its structural error first, as it always has).
std::size_t scan_records(Cursor& cur, const GdParams& params) {
  for (;;) {
    const std::uint8_t tag = cur.u8();
    if (tag == kTagEnd) return cur.position();
    if (tag == kTagTail) {
      (void)cur.bytes(cur.u32());
      continue;
    }
    if (tag != static_cast<std::uint8_t>(PacketType::uncompressed) &&
        tag != static_cast<std::uint8_t>(PacketType::compressed)) {
      throw std::runtime_error("gd stream: unknown record tag");
    }
    (void)cur.bytes(tag == static_cast<std::uint8_t>(PacketType::uncompressed)
                        ? params.type2_payload_bytes()
                        : params.type3_payload_bytes());
  }
}

/// Appends the GDZ1 v2 header to `out`: parameters plus the dictionary
/// configuration (eviction policy, shard count) the decoder must replay.
void put_header(std::vector<std::uint8_t>& out, const GdParams& params,
                EvictionPolicy policy, std::size_t shards) {
  out.insert(out.end(), kMagic, kMagic + 4);
  out.push_back(kVersion);
  out.push_back(static_cast<std::uint8_t>(params.m));
  out.push_back(static_cast<std::uint8_t>(params.id_bits));
  put_u16(out, static_cast<std::uint16_t>(params.chunk_bits / 8));
  out.push_back(static_cast<std::uint8_t>(policy));
  out.push_back(static_cast<std::uint8_t>(shards));
}

/// Appends one encoded batch as a record section + terminator + CRC.
void put_records(std::vector<std::uint8_t>& out,
                 const engine::EncodeBatch& batch) {
  const std::size_t records_start = out.size();
  engine::drain(batch, ContainerRecordSink(out));
  out.push_back(kTagEnd);
  put_u32(out, crc::Crc32::of(std::span(out).subspan(records_start)));
}

/// Fully parsed GDZ1 header: transform parameters plus the dictionary
/// configuration the decode engine must be built with.
struct StreamHeader {
  GdParams params;
  EvictionPolicy policy = EvictionPolicy::lru;
  std::size_t shards = 1;
};

/// Validated view of one container: header plus the CRC-checked record
/// section.
struct ParsedContainer {
  StreamHeader header;
  std::span<const std::uint8_t> records;  ///< record section incl. kTagEnd
};

/// Parses and validates the fixed header only (no record scan, no CRC);
/// `cur` is left at the first record byte.
StreamHeader parse_header(Cursor& cur) {
  for (const std::uint8_t m : kMagic) {
    if (cur.u8() != m) throw std::runtime_error("gd stream: bad magic");
  }
  const std::uint8_t version = cur.u8();
  if (version != kVersion && version != kVersionPolicyless) {
    throw std::runtime_error("gd stream: unsupported version");
  }
  StreamHeader header;
  header.params = stream_default_params();
  header.params.m = cur.u8();
  header.params.id_bits = cur.u8();
  header.params.chunk_bits = static_cast<std::size_t>(cur.u16()) * 8;
  if (version == kVersionPolicyless) {
    // v1: one reserved byte, always written zero — LRU, single shard.
    if (cur.u8() != 0) {
      throw std::runtime_error("gd stream: invalid reserved byte");
    }
  } else {
    const std::uint8_t policy = cur.u8();
    if (policy > static_cast<std::uint8_t>(EvictionPolicy::clock)) {
      throw std::runtime_error("gd stream: unknown eviction policy");
    }
    header.policy = static_cast<EvictionPolicy>(policy);
    header.shards = cur.u8();
  }
  try {
    header.params.validate();
  } catch (const ContractViolation&) {
    throw std::runtime_error("gd stream: invalid parameters in header");
  }
  const std::size_t capacity = header.params.dictionary_capacity();
  if (header.shards < 1 || header.shards > capacity ||
      capacity % header.shards != 0) {
    throw std::runtime_error("gd stream: invalid dictionary shard count");
  }
  return header;
}

ParsedContainer parse_container(std::span<const std::uint8_t> container) {
  Cursor cur(container);
  ParsedContainer parsed;
  parsed.header = parse_header(cur);

  // Structural scan + CRC check over the record section.
  const std::size_t records_start = cur.position();
  const std::size_t records_end = scan_records(cur, parsed.header.params);
  const std::uint32_t stored_crc = cur.u32();
  parsed.records = container.subspan(records_start,
                                     records_end - records_start);
  if (stored_crc != crc::Crc32::of(parsed.records)) {
    throw std::runtime_error("gd stream: CRC mismatch");
  }
  return parsed;
}

/// Reads the next record of a validated record section into `wire`;
/// false at the terminator. The single place that knows the tag dispatch
/// and per-type body sizes, shared by the serial decode and the parallel
/// staging paths.
bool next_record(Cursor& records, const GdParams& params,
                 engine::WirePacket& wire) {
  const std::uint8_t tag = records.u8();
  if (tag == kTagEnd) return false;
  if (tag == kTagTail) {
    wire = {PacketType::raw, records.bytes(records.u32())};
    return true;
  }
  wire.type = static_cast<PacketType>(tag);
  wire.payload = records.bytes(wire.type == PacketType::uncompressed
                                   ? params.type2_payload_bytes()
                                   : params.type3_payload_bytes());
  return true;
}

/// Stages a validated record section as one EncodeBatch — the wire unit
/// the parallel pipeline decodes.
void stage_records(const ParsedContainer& parsed, engine::EncodeBatch& batch) {
  Cursor records(parsed.records);
  engine::WirePacket wire;
  while (next_record(records, parsed.header.params, wire)) {
    batch.append(wire.type, 0, 0, wire.payload);
  }
}

/// Worker-side stage for parallel decompression: the full container —
/// structural scan, CRC check, record staging, decode — is one unit of
/// work, so nothing but the fixed header check runs on the caller thread.
/// Validation failures throw in transform and surface at flush(). Like
/// the engine's own stages it runs transform -> resolve -> emit, so the
/// shared-dictionary mode sequences only the dictionary (resolve) half
/// while parsing and inverse transforms run concurrently.
struct ContainerDecodeStage {
  using Input = std::span<const std::uint8_t>;
  using Output = engine::DecodeBatch;
  struct Scratch {
    engine::EncodeBatch staged;
    engine::DecodeUnit unit;
  };
  static void transform(engine::Engine& eng, const Input& in,
                        Scratch& scratch) {
    scratch.staged.clear();
    stage_records(parse_container(in), scratch.staged);
    eng.decode_parse(scratch.staged, scratch.unit);
  }
  static void resolve(engine::Engine& eng, Scratch& scratch) {
    eng.decode_resolve(scratch.unit);
  }
  static void plan(engine::Engine& eng, Scratch& scratch) {
    eng.decode_resolve_plan(scratch.unit);
  }
  static void finish(engine::Engine& eng, Scratch& scratch) {
    eng.decode_resolve_finish(scratch.unit);
  }
  static void emit(engine::Engine& eng, const Scratch& scratch, Output& out) {
    out.clear();
    eng.decode_emit(scratch.unit, out);
  }
};

void fill_stats(StreamStats& stats, std::size_t input_bytes,
                std::size_t output_bytes, const engine::EngineStats& engine) {
  stats.input_bytes = input_bytes;
  stats.output_bytes = output_bytes;
  stats.chunks = engine.chunks;
  stats.compressed_packets = engine.compressed_packets;
  stats.uncompressed_packets = engine.uncompressed_packets;
}

/// Shared-dictionary pools have no per-flow engine to read stats from;
/// the per-stream packet counts are reconstructed from the stream's own
/// encoded batch instead (identical accounting: chunks = types 2 + 3).
void fill_stats_from_batch(StreamStats& stats, std::size_t input_bytes,
                           std::size_t output_bytes,
                           const engine::EncodeBatch& batch) {
  stats.input_bytes = input_bytes;
  stats.output_bytes = output_bytes;
  for (const engine::PacketDesc& desc : batch.packets()) {
    if (desc.type == PacketType::compressed) {
      ++stats.compressed_packets;
    } else if (desc.type == PacketType::uncompressed) {
      ++stats.uncompressed_packets;
    }
  }
  stats.chunks = stats.compressed_packets + stats.uncompressed_packets;
}

engine::ParallelOptions pool_pipeline_options(const StreamPoolOptions& pool,
                                              EvictionPolicy policy,
                                              std::size_t shards) {
  engine::ParallelOptions options;
  options.workers = pool.workers;
  options.policy = policy;
  options.dictionary_shards = shards;
  if (pool.shared_dictionary) {
    options.ownership = engine::DictionaryOwnership::shared;
    options.steering = engine::FlowSteering::load_aware;
  }
  return options;
}

}  // namespace

GdParams stream_default_params() {
  GdParams params;
  params.model_tofino_padding = false;
  return params;
}

std::vector<std::uint8_t> gd_stream_compress(
    std::span<const std::uint8_t> input, const GdParams& params,
    StreamStats* stats, EvictionPolicy policy, std::size_t dictionary_shards) {
  params.validate();
  ZL_EXPECTS(params.chunk_bits % 8 == 0);
  ZL_EXPECTS(params.chunk_bits / 8 <= 0xFFFF);
  ZL_EXPECTS(dictionary_shards >= 1 && dictionary_shards <= kMaxHeaderShards);

  std::vector<std::uint8_t> out;
  put_header(out, params, policy, dictionary_shards);
  engine::Engine engine{params, policy, /*learn=*/true, dictionary_shards};
  engine::EncodeBatch batch;
  engine.encode_payload(input, batch);
  put_records(out, batch);

  if (stats != nullptr) {
    fill_stats(*stats, input.size(), out.size(), engine.stats());
  }
  return out;
}

std::vector<std::uint8_t> gd_stream_decompress(
    std::span<const std::uint8_t> container) {
  // Pass 1: structural scan + CRC check over the record section.
  const ParsedContainer parsed = parse_container(container);

  // Pass 2: decode the records as one multi-packet unit, window by
  // window, straight into the output arena — replaying the dictionary
  // configuration the header records.
  Cursor records(parsed.records);
  engine::Engine engine{parsed.header.params, parsed.header.policy,
                        /*learn=*/true, parsed.header.shards};
  engine::DecodeBatch out;
  engine.decode_packets(
      [&](engine::WirePacket& wire) {
        return next_record(records, parsed.header.params, wire);
      },
      engine::DecodeBatchSink{&out});
  return out.release_bytes();
}

std::vector<std::vector<std::uint8_t>> gd_stream_compress_parallel(
    std::span<const std::span<const std::uint8_t>> inputs,
    const GdParams& params, const StreamPoolOptions& pool,
    std::vector<StreamStats>* stats) {
  params.validate();
  ZL_EXPECTS(params.chunk_bits % 8 == 0);
  ZL_EXPECTS(params.chunk_bits / 8 <= 0xFFFF);
  ZL_EXPECTS(pool.workers >= 1);
  ZL_EXPECTS(pool.dictionary_shards >= 1 &&
             pool.dictionary_shards <= kMaxHeaderShards);

  if (stats != nullptr) stats->assign(inputs.size(), StreamStats{});
  std::vector<std::vector<std::uint8_t>> outputs(inputs.size());
  {
    // One flow per input. Private mode: each stream gets a private engine,
    // so every container is byte-identical to the serial
    // gd_stream_compress. Shared mode: the pool's one dictionary service
    // deduplicates ACROSS streams (ordered resolve keeps the op sequence
    // identical to a serial engine fed the same submission order).
    engine::ParallelEncoder pipeline(
        params, pool_pipeline_options(pool, pool.policy,
                                      pool.dictionary_shards),
        [&](const engine::ParallelEncoder::Unit& unit) {
          std::vector<std::uint8_t>& out = outputs[unit.seq];
          put_header(out, params, pool.policy, pool.dictionary_shards);
          put_records(out, *unit.output);
          if (stats != nullptr && pool.shared_dictionary) {
            fill_stats_from_batch((*stats)[unit.seq], inputs[unit.seq].size(),
                                  out.size(), *unit.output);
          }
        });
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      pipeline.submit(static_cast<std::uint32_t>(i), inputs[i]);
    }
    pipeline.flush();

    if (stats != nullptr && !pool.shared_dictionary) {
      for (std::size_t i = 0; i < inputs.size(); ++i) {
        const engine::EngineStats* engine_stats =
            pipeline.flow_stats(static_cast<std::uint32_t>(i));
        ZL_ASSERT(engine_stats != nullptr);
        fill_stats((*stats)[i], inputs[i].size(), outputs[i].size(),
                   *engine_stats);
      }
    }
  }
  return outputs;
}

std::vector<std::vector<std::uint8_t>> gd_stream_compress_parallel(
    std::span<const std::span<const std::uint8_t>> inputs,
    const GdParams& params, std::size_t workers,
    std::vector<StreamStats>* stats) {
  StreamPoolOptions pool;
  pool.workers = workers;
  return gd_stream_compress_parallel(inputs, params, pool, stats);
}

std::vector<std::vector<std::uint8_t>> gd_stream_decompress_parallel(
    std::span<const std::span<const std::uint8_t>> containers,
    const StreamPoolOptions& pool) {
  ZL_EXPECTS(pool.workers >= 1);
  if (containers.empty()) return {};

  // Only the fixed headers are read up front (one worker pool = one
  // dictionary configuration); the expensive work — structural scan, CRC,
  // staging, decode — happens inside the workers, one container per unit.
  StreamHeader header;
  for (std::size_t i = 0; i < containers.size(); ++i) {
    Cursor cur(containers[i]);
    const StreamHeader h = parse_header(cur);
    if (i == 0) {
      header = h;
    } else if (h.params.m != header.params.m ||
               h.params.id_bits != header.params.id_bits ||
               h.params.chunk_bits != header.params.chunk_bits ||
               h.policy != header.policy || h.shards != header.shards) {
      throw std::runtime_error(
          "gd stream: mixed parameters across parallel containers");
    }
  }

  std::vector<std::vector<std::uint8_t>> outputs(containers.size());
  engine::ParallelPipeline<ContainerDecodeStage> pipeline(
      header.params,
      pool_pipeline_options(pool, header.policy, header.shards),
      [&](const engine::ParallelPipeline<ContainerDecodeStage>::Unit& unit) {
        const auto bytes = unit.output->bytes();
        outputs[unit.seq].assign(bytes.begin(), bytes.end());
      });
  for (std::size_t i = 0; i < containers.size(); ++i) {
    pipeline.submit(static_cast<std::uint32_t>(i), containers[i]);
  }
  pipeline.flush();
  return outputs;
}

std::vector<std::vector<std::uint8_t>> gd_stream_decompress_parallel(
    std::span<const std::span<const std::uint8_t>> containers,
    std::size_t workers) {
  StreamPoolOptions pool;
  pool.workers = workers;
  return gd_stream_decompress_parallel(containers, pool);
}

}  // namespace zipline::gd
