// Microbenchmarks of the data-path primitives (google-benchmark).
//
// Context for the paper's motivation: these are the costs an end host
// pays in software, which ZipLine offloads to the switch. The syndrome
// CRC, the GD transform and the dictionary are the per-packet work items;
// DEFLATE is the baseline's per-byte cost.

#include <benchmark/benchmark.h>

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "baseline/deflate.hpp"
#include "bench_guard.hpp"
#include "common/bitio.hpp"
#include "common/rng.hpp"
#include "common/simd.hpp"
#include "crc/syndrome_crc.hpp"
#include "engine/engine.hpp"
#include "engine/parallel.hpp"
#include "gd/concurrent_dictionary.hpp"
#include "gd/codec.hpp"
#include "gd/transform.hpp"
#include "io/buffer_pool.hpp"
#include "io/memory_ring.hpp"
#include "io/node.hpp"
#include "trace/synthetic.hpp"
#include "zipline/program.hpp"

namespace {

using namespace zipline;

bits::BitVector random_bits(Rng& rng, std::size_t n) {
  bits::BitVector v(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (rng.next_bool(0.5)) v.set(i);
  }
  return v;
}

void BM_SyndromeCrc255(benchmark::State& state) {
  const crc::SyndromeCrc crc(crc::Gf2Poly(0x11D), 255);
  Rng rng(1);
  const auto word = random_bits(rng, 255);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crc.compute(word));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 32);
}
BENCHMARK(BM_SyndromeCrc255);

void BM_SyndromeCrcSlow255(benchmark::State& state) {
  const crc::Gf2Poly g(0x11D);
  Rng rng(1);
  const auto word = random_bits(rng, 255);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crc::SyndromeCrc::compute_slow(g, word));
  }
}
BENCHMARK(BM_SyndromeCrcSlow255);

// --- bit packing ----------------------------------------------------------
// The engine's serialization inner loop, isolated: per chunk the exact
// type-2 field script serialize_chunk runs — m-bit syndrome, 1-bit excess,
// 247-bit basis, byte alignment — over 64 chunks per iteration. This is
// the word-level accumulator path; BM_BitWriterPackByteLoop below is the
// frozen pre-PR byte-at-a-time reference, so the speedup is visible
// inside one JSON instead of only across PR artifacts.

constexpr std::size_t kPackChunks = 64;

struct PackWorkload {
  std::vector<std::uint32_t> syndromes;
  std::vector<bits::BitVector> excesses;
  std::vector<bits::BitVector> bases;
};

PackWorkload make_pack_workload() {
  Rng rng(11);
  PackWorkload w;
  for (std::size_t i = 0; i < kPackChunks; ++i) {
    w.syndromes.push_back(static_cast<std::uint32_t>(rng.next_u64() & 0xFF));
    w.excesses.push_back(random_bits(rng, 1));
    w.bases.push_back(random_bits(rng, 247));
  }
  return w;
}

void BM_BitWriterPack(benchmark::State& state) {
  const PackWorkload w = make_pack_workload();
  bits::BitWriter writer;
  for (auto _ : state) {
    writer.reset();
    for (std::size_t i = 0; i < kPackChunks; ++i) {
      writer.write_uint(w.syndromes[i], 8);
      writer.write_bits(w.excesses[i]);
      writer.write_bits(w.bases[i]);
      writer.align_to_byte();
    }
    benchmark::DoNotOptimize(writer.bytes().data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kPackChunks * 32));
}
BENCHMARK(BM_BitWriterPack);

// Frozen copy of the pre-PR BitWriter (byte-at-a-time write_uint, per-bit
// push_bit) — the baseline the ≥1.5x acceptance gate measures against.
class ByteLoopBitWriter {
 public:
  void push_bit(bool b) {
    const std::size_t bit_in_byte = bit_count_ % 8;
    if (bit_in_byte == 0) bytes_.push_back(0);
    if (b) bytes_.back() |= static_cast<std::uint8_t>(1u << (7 - bit_in_byte));
    ++bit_count_;
  }
  void write_uint(std::uint64_t value, std::size_t width) {
    std::size_t remaining = width;
    while (remaining > 0) {
      const std::size_t bit_in_byte = bit_count_ % 8;
      if (bit_in_byte == 0) bytes_.push_back(0);
      const std::size_t take =
          std::min<std::size_t>(8 - bit_in_byte, remaining);
      const std::uint64_t chunk =
          (value >> (remaining - take)) & ((std::uint64_t{1} << take) - 1);
      bytes_.back() |=
          static_cast<std::uint8_t>(chunk << (8 - bit_in_byte - take));
      bit_count_ += take;
      remaining -= take;
    }
  }
  void write_bits(const bits::BitVector& v) {
    const auto words = v.words();
    std::size_t i = v.size();
    while (i > 0) {
      const std::size_t take = (i % 64 != 0) ? i % 64 : 64;
      const std::uint64_t word = words[(i - take) / 64];
      write_uint(take == 64 ? word : word & ((std::uint64_t{1} << take) - 1),
                 take);
      i -= take;
    }
  }
  void align_to_byte() {
    while (bit_count_ % 8 != 0) push_bit(false);
  }
  void reset() {
    bytes_.clear();
    bit_count_ = 0;
  }
  [[nodiscard]] const std::uint8_t* data() const { return bytes_.data(); }

 private:
  std::vector<std::uint8_t> bytes_;
  std::size_t bit_count_ = 0;
};

void BM_BitWriterPackByteLoop(benchmark::State& state) {
  const PackWorkload w = make_pack_workload();
  ByteLoopBitWriter writer;
  for (auto _ : state) {
    writer.reset();
    for (std::size_t i = 0; i < kPackChunks; ++i) {
      writer.write_uint(w.syndromes[i], 8);
      writer.write_bits(w.excesses[i]);
      writer.write_bits(w.bases[i]);
      writer.align_to_byte();
    }
    benchmark::DoNotOptimize(writer.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kPackChunks * 32));
}
BENCHMARK(BM_BitWriterPackByteLoop);

// The decoder's mirror: parse the 64-chunk type-2 stream back out through
// read_uint + read_bits_into (word-level unpack fast path).
void BM_BitReaderUnpack(benchmark::State& state) {
  const PackWorkload w = make_pack_workload();
  bits::BitWriter writer;
  for (std::size_t i = 0; i < kPackChunks; ++i) {
    writer.write_uint(w.syndromes[i], 8);
    writer.write_bits(w.excesses[i]);
    writer.write_bits(w.bases[i]);
    writer.align_to_byte();
  }
  const auto bytes = writer.to_bytes();
  bits::BitVector excess;
  bits::BitVector basis;
  for (auto _ : state) {
    bits::BitReader reader(bytes);
    for (std::size_t i = 0; i < kPackChunks; ++i) {
      benchmark::DoNotOptimize(reader.read_uint(8));
      reader.read_bits_into(1, excess);
      reader.read_bits_into(247, basis);
    }
    benchmark::DoNotOptimize(basis.words().data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kPackChunks * 32));
}
BENCHMARK(BM_BitReaderUnpack);

// Byte-aligned bulk stream: header + align + 1024-bit words, the shape of
// container/snapshot framing rather than the packed type-2 body. Here the
// dispatch kernel's bulk byteswap-copy actually fires (the engine script
// above is deliberately bit-unaligned, where the win is the word
// accumulator alone), so this is the bench that separates kernel levels.
void BM_BitWriterPackAligned(benchmark::State& state) {
  Rng rng(13);
  std::vector<bits::BitVector> blocks;
  for (int i = 0; i < 16; ++i) blocks.push_back(random_bits(rng, 1024));
  bits::BitWriter writer;
  for (auto _ : state) {
    writer.reset();
    for (const auto& block : blocks) {
      writer.write_uint(0x5A, 8);
      writer.write_bits(block);
    }
    benchmark::DoNotOptimize(writer.bytes().data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 16 *
                          128);
}
BENCHMARK(BM_BitWriterPackAligned);

void BM_BitReaderUnpackAligned(benchmark::State& state) {
  Rng rng(13);
  bits::BitWriter writer;
  for (int i = 0; i < 16; ++i) {
    writer.write_uint(0x5A, 8);
    writer.write_bits(random_bits(rng, 1024));
  }
  const auto bytes = writer.to_bytes();
  bits::BitVector block;
  for (auto _ : state) {
    bits::BitReader reader(bytes);
    for (int i = 0; i < 16; ++i) {
      benchmark::DoNotOptimize(reader.read_uint(8));
      reader.read_bits_into(1024, block);
    }
    benchmark::DoNotOptimize(block.words().data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 16 *
                          128);
}
BENCHMARK(BM_BitReaderUnpackAligned);

// Padding/alignment regression guards: both must be O(bytes) resize
// arithmetic (and skip pure pointer arithmetic), never per-bit loops — a
// quiet revert shows up as a ~3 orders of magnitude items/s drop here.
void BM_BitWriterPadding(benchmark::State& state) {
  bits::BitWriter writer;
  for (auto _ : state) {
    writer.reset();
    writer.write_uint(1, 3);
    writer.write_padding(4093);
    writer.align_to_byte();
    benchmark::DoNotOptimize(writer.bytes().data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          4096);
}
BENCHMARK(BM_BitWriterPadding);

void BM_BitReaderSkip(benchmark::State& state) {
  const std::vector<std::uint8_t> bytes(512, 0);
  for (auto _ : state) {
    bits::BitReader reader(bytes);
    reader.skip(3);
    reader.skip(4093);
    benchmark::DoNotOptimize(reader.bits_consumed());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          4096);
}
BENCHMARK(BM_BitReaderSkip);

void BM_GdForwardTransform(benchmark::State& state) {
  const gd::GdTransform transform{gd::GdParams{}};
  Rng rng(2);
  const auto chunk = random_bits(rng, 256);
  for (auto _ : state) {
    benchmark::DoNotOptimize(transform.forward(chunk));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 32);
}
BENCHMARK(BM_GdForwardTransform);

void BM_GdInverseTransform(benchmark::State& state) {
  const gd::GdTransform transform{gd::GdParams{}};
  Rng rng(3);
  const auto tc = transform.forward(random_bits(rng, 256));
  for (auto _ : state) {
    benchmark::DoNotOptimize(transform.inverse(tc));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 32);
}
BENCHMARK(BM_GdInverseTransform);

// --- transform fast path ---------------------------------------------------
// Block-of-chunks vs chunk-at-a-time over one unit of range(0) chunks.
// The *ChunkAtATime rows are the FROZEN baseline: the exact per-chunk
// forward_into/inverse_into loop the engine ran before the block kernels
// landed — keep them so the block rows' speedup stays measurable
// PR-over-PR. Both paths are byte-identical at every kernel level
// (tests/transform_block_test.cpp).

void BM_TransformForwardChunkAtATime(benchmark::State& state) {
  const gd::GdTransform transform{gd::GdParams{}};
  const auto count = static_cast<std::size_t>(state.range(0));
  Rng rng(11);
  std::vector<std::uint8_t> payload(count * 32);
  for (auto& b : payload) b = static_cast<std::uint8_t>(rng.next_u64());
  std::vector<gd::TransformedChunk> out(count);
  bits::BitVector chunk;
  bits::BitVector word;
  for (auto _ : state) {
    for (std::size_t c = 0; c < count; ++c) {
      chunk.assign_from_bytes({payload.data() + c * 32, 32}, 256);
      transform.forward_into(chunk, out[c], word);
    }
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(payload.size()));
}
BENCHMARK(BM_TransformForwardChunkAtATime)->Arg(8)->Arg(64);

void BM_TransformForwardBlock(benchmark::State& state) {
  const gd::GdTransform transform{gd::GdParams{}};
  const auto count = static_cast<std::size_t>(state.range(0));
  Rng rng(11);
  std::vector<std::uint8_t> payload(count * 32);
  for (auto& b : payload) b = static_cast<std::uint8_t>(rng.next_u64());
  std::vector<const std::uint8_t*> rows(count);
  for (std::size_t c = 0; c < count; ++c) rows[c] = payload.data() + c * 32;
  std::vector<gd::TransformedChunk> out(count);
  gd::TransformBlockScratch scratch;
  for (auto _ : state) {
    transform.forward_block(rows, out, scratch);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(payload.size()));
}
BENCHMARK(BM_TransformForwardBlock)->Arg(8)->Arg(64);

void BM_TransformInverseChunkAtATime(benchmark::State& state) {
  const gd::GdTransform transform{gd::GdParams{}};
  const auto count = static_cast<std::size_t>(state.range(0));
  Rng rng(12);
  std::vector<gd::TransformedChunk> triples(count);
  for (auto& t : triples) t = transform.forward(random_bits(rng, 256));
  bits::BitVector out;
  bits::BitVector word;
  for (auto _ : state) {
    for (std::size_t c = 0; c < count; ++c) {
      transform.inverse_into(triples[c].excess, triples[c].basis,
                             triples[c].syndrome, out, word);
      benchmark::DoNotOptimize(out.size());
    }
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(count * 32));
}
BENCHMARK(BM_TransformInverseChunkAtATime)->Arg(8)->Arg(64);

void BM_TransformInverseBlock(benchmark::State& state) {
  const gd::GdTransform transform{gd::GdParams{}};
  const auto count = static_cast<std::size_t>(state.range(0));
  const std::size_t n = transform.params().n();
  Rng rng(12);
  std::vector<gd::TransformedChunk> triples(count);
  for (auto& t : triples) t = transform.forward(random_bits(rng, 256));
  gd::TransformBlockScratch scratch;
  bits::BitVector out;
  for (auto _ : state) {
    // The decode_emit sequence: reserve, stage every row, one expand
    // batch, then compose each chunk from its plane row + excess.
    transform.inverse_block_reserve(count, scratch);
    for (std::size_t c = 0; c < count; ++c) {
      transform.inverse_block_stage(scratch, c, triples[c].basis,
                                    triples[c].syndrome);
    }
    transform.inverse_block_expand(scratch, count);
    for (std::size_t c = 0; c < count; ++c) {
      out.assign_from_words(transform.chunk_row(scratch, c), 256);
      out.accumulate_shifted(triples[c].excess, n);
      benchmark::DoNotOptimize(out.size());
    }
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(count * 32));
}
BENCHMARK(BM_TransformInverseBlock)->Arg(8)->Arg(64);

// The raw kernel behind the block transform: one compute_block call folds
// range(0) 255-bit rows as interleaved streams. Compare bytes/s against
// BM_SyndromeCrc255 (the single-stream fold, one row per call) — the gap
// is what the multi-stream interleave buys on this host.
void BM_SyndromeCrcMultiStream(benchmark::State& state) {
  const crc::SyndromeCrc crc(crc::Gf2Poly(0x11D), 255);
  const auto count = static_cast<std::size_t>(state.range(0));
  const std::size_t stride = 4;  // 255 bits = 4 words, fold reads them all
  Rng rng(13);
  std::vector<std::uint64_t> plane(count * stride + 8);
  for (auto& w : plane) w = rng.next_u64();
  for (std::size_t c = 0; c < count; ++c) {
    plane[c * stride + 3] &= ~(std::uint64_t{1} << 63);  // trim to 255 bits
  }
  std::vector<std::uint32_t> out(count);
  for (auto _ : state) {
    crc.compute_block(plane.data(), stride, count, out.data());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(count * 32));
}
BENCHMARK(BM_SyndromeCrcMultiStream)->Arg(8)->Arg(64);

void BM_EncoderHitPath(benchmark::State& state) {
  gd::GdEncoder encoder{gd::GdParams{}};
  Rng rng(4);
  const auto chunk = random_bits(rng, 256);
  (void)encoder.encode_chunk(chunk);  // learn once
  for (auto _ : state) {
    benchmark::DoNotOptimize(encoder.encode_chunk(chunk));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 32);
}
BENCHMARK(BM_EncoderHitPath);

// Batch-size sweep over the engine's encode path: one encode_payload call
// per iteration over range(0) chunks, arena and dictionary reused across
// iterations. In steady state (all hits) the engine performs zero heap
// allocations per chunk — tests/engine_alloc_test.cpp asserts it, this
// measures what it buys at batch sizes 1/8/64/256 against the per-chunk
// adapter (BM_EncoderHitPath above).
void BM_EngineEncodeBatch(benchmark::State& state) {
  const auto batch_chunks = static_cast<std::size_t>(state.range(0));
  engine::Engine eng{gd::GdParams{}};
  Rng rng(7);
  std::vector<std::uint8_t> payload(batch_chunks *
                                    eng.params().raw_payload_bytes());
  for (auto& b : payload) b = static_cast<std::uint8_t>(rng.next_u64());
  engine::EncodeBatch batch;
  eng.encode_payload(payload, batch);  // warm the dictionary and the arena
  for (auto _ : state) {
    batch.clear();
    eng.encode_payload(payload, batch);
    benchmark::DoNotOptimize(batch.storage().data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(payload.size()));
}
BENCHMARK(BM_EngineEncodeBatch)->Arg(1)->Arg(8)->Arg(64)->Arg(256);

void BM_EngineDecodeBatch(benchmark::State& state) {
  const auto batch_chunks = static_cast<std::size_t>(state.range(0));
  const gd::GdParams params;
  engine::Engine enc{params};
  engine::Engine dec{params};
  Rng rng(8);
  std::vector<std::uint8_t> payload(batch_chunks * params.raw_payload_bytes());
  for (auto& b : payload) b = static_cast<std::uint8_t>(rng.next_u64());
  engine::EncodeBatch encoded;
  enc.encode_payload(payload, encoded);
  engine::DecodeBatch decoded;
  dec.decode_batch(encoded, decoded);  // warm the mirrored dictionary
  for (auto _ : state) {
    decoded.clear();
    dec.decode_batch(encoded, decoded);
    benchmark::DoNotOptimize(decoded.bytes().data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(payload.size()));
}
BENCHMARK(BM_EngineDecodeBatch)->Arg(1)->Arg(8)->Arg(64)->Arg(256);

void BM_DictionaryLookup(benchmark::State& state) {
  gd::BasisDictionary dict(32768, gd::EvictionPolicy::lru);
  Rng rng(5);
  std::vector<bits::BitVector> bases;
  for (int i = 0; i < 1024; ++i) {
    bases.push_back(random_bits(rng, 247));
    dict.insert(bases.back());
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(dict.lookup(bases[i++ & 1023]));
  }
}
BENCHMARK(BM_DictionaryLookup);

// The encoder's dominant case on fresh traffic: a miss. The fingerprint
// prefilter resolves most of these from one 12-bit counted-table probe,
// skipping the full 247-bit hash (compare against BM_DictionaryLookup).
void BM_DictionaryLookupMiss(benchmark::State& state) {
  gd::BasisDictionary dict(32768, gd::EvictionPolicy::lru);
  Rng rng(5);
  for (int i = 0; i < 1024; ++i) {
    dict.insert(random_bits(rng, 247));
  }
  std::vector<bits::BitVector> absent;
  for (int i = 0; i < 1024; ++i) {
    absent.push_back(random_bits(rng, 247));
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(dict.lookup(absent[i++ & 1023]));
  }
  state.counters["prefilter_skip_rate"] =
      static_cast<double>(dict.stats().prefilter_skips) /
      static_cast<double>(dict.stats().misses);
}
BENCHMARK(BM_DictionaryLookupMiss);

// Sharded dictionary hit path — the hash-once regression guard. One
// BitVector::hash() serves the shard router AND the in-shard map probe
// (threaded through lookup/insert/install), so this must track
// BM_DictionaryLookup closely at every shard count; a second full hash on
// this path would show up as a near-2x regression here. The fifo arg is
// the private baseline for BM_ConcurrentDictionaryLookup below (a fifo
// hit skips the LRU recency splice, matching what the concurrent
// service's lock-free read path serves).
void BM_ShardedDictionaryLookup(benchmark::State& state) {
  gd::ShardedDictionary dict(32768,
                             state.range(1) != 0 ? gd::EvictionPolicy::fifo
                                                 : gd::EvictionPolicy::lru,
                             static_cast<std::size_t>(state.range(0)));
  Rng rng(5);
  std::vector<bits::BitVector> bases;
  for (int i = 0; i < 1024; ++i) {
    bases.push_back(random_bits(rng, 247));
    dict.insert(bases.back());
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(dict.lookup(bases[i++ & 1023]));
  }
}
BENCHMARK(BM_ShardedDictionaryLookup)
    ->ArgNames({"shards", "fifo"})
    ->Args({1, 0})
    ->Args({8, 0})
    ->Args({64, 0})
    ->Args({8, 1});

// Sharded miss path: the router must hash to pick the shard, but the
// shard's prefilter still short-circuits most misses before the map probe
// — and the hash it did compute is reused, never recomputed, by the probe
// that does happen.
void BM_ShardedDictionaryLookupMiss(benchmark::State& state) {
  gd::ShardedDictionary dict(32768, gd::EvictionPolicy::lru,
                             static_cast<std::size_t>(state.range(0)));
  Rng rng(5);
  for (int i = 0; i < 1024; ++i) {
    dict.insert(random_bits(rng, 247));
  }
  std::vector<bits::BitVector> absent;
  for (int i = 0; i < 1024; ++i) {
    absent.push_back(random_bits(rng, 247));
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(dict.lookup(absent[i++ & 1023]));
  }
}
BENCHMARK(BM_ShardedDictionaryLookupMiss)->Arg(1)->Arg(8);

// The shared dictionary service's read cost: lookups are answered from
// the per-shard lock-free seqlock mirror; Threads(1) vs the private fifo
// baseline shows the residual overhead, higher thread counts show readers
// scaling past the stripe count instead of serializing on it. FIFO policy
// because an LRU *hit* must refresh recency — a write — and takes the
// stripe lock; fifo/random hits (and misses under every policy) are pure
// reads, which the seqlock path serves without blocking.
void BM_ConcurrentDictionaryLookup(benchmark::State& state) {
  static gd::ConcurrentShardedDictionary* dict = nullptr;
  static std::vector<bits::BitVector>* bases = nullptr;
  if (state.thread_index() == 0) {
    const auto shards = static_cast<std::size_t>(state.range(0));
    dict = new gd::ConcurrentShardedDictionary(32768, gd::EvictionPolicy::fifo,
                                               shards);
    bases = new std::vector<bits::BitVector>();
    Rng rng(5);
    for (int i = 0; i < 1024; ++i) {
      bases->push_back(random_bits(rng, 247));
      (void)dict->insert(bases->back());
    }
  }
  std::size_t i = static_cast<std::size_t>(state.thread_index()) * 37;
  for (auto _ : state) {
    benchmark::DoNotOptimize(dict->lookup((*bases)[i++ & 1023]));
  }
  if (state.thread_index() == 0) {
    delete dict;
    delete bases;
    dict = nullptr;
    bases = nullptr;
  }
}
BENCHMARK(BM_ConcurrentDictionaryLookup)
    ->ArgName("shards")
    ->Arg(8)
    ->Threads(1)
    ->Threads(2)
    ->Threads(4);

// Multi-reader contention against a live writer: thread 0 continuously
// inserts fresh random bases (publishing new entries and, once the table
// fills, evictions), while the remaining {1, 2, 4, 8} reader threads look
// up a resident working set. Seqlock reads never block, so aggregate
// reader throughput scales with the reader count. (On a single-core host
// the scaling flattens to the timeslice — the CI runners have real
// parallelism.)
void BM_ConcurrentDictionaryLookupContended(benchmark::State& state) {
  static gd::ConcurrentShardedDictionary* dict = nullptr;
  static std::vector<bits::BitVector>* bases = nullptr;
  if (state.thread_index() == 0) {
    dict = new gd::ConcurrentShardedDictionary(32768, gd::EvictionPolicy::fifo,
                                               8);
    bases = new std::vector<bits::BitVector>();
    Rng rng(5);
    for (int i = 0; i < 1024; ++i) {
      bases->push_back(random_bits(rng, 247));
      (void)dict->insert(bases->back());
    }
  }
  if (state.thread_index() == 0) {
    // The background writer: alternate inserting a fresh basis and
    // erasing it again, so every iteration is a real seqlock publish but
    // the population stays bounded — the readers' 1024-base working set
    // is never evicted, keeping them on the HIT path for the whole trial
    // (unbounded fresh inserts would fill the 32768-entry table and FIFO-
    // evict the working set mid-run, silently turning this into a miss
    // benchmark). Insert throughput is not the measurement.
    Rng rng(0xBEEF);
    std::uint32_t last = 0;
    bool pending = false;
    for (auto _ : state) {
      if (pending) {
        dict->erase(last);
        pending = false;
      } else {
        last = dict->insert(random_bits(rng, 247)).id;
        pending = true;
      }
    }
  } else {
    std::size_t i = static_cast<std::size_t>(state.thread_index()) * 37;
    for (auto _ : state) {
      benchmark::DoNotOptimize(dict->lookup((*bases)[i++ & 1023]));
    }
    state.SetItemsProcessed(state.iterations());
  }
  if (state.thread_index() == 0) {
    delete dict;
    delete bases;
    dict = nullptr;
    bases = nullptr;
  }
}
BENCHMARK(BM_ConcurrentDictionaryLookupContended)
    ->Threads(2)
    ->Threads(3)
    ->Threads(5)
    ->Threads(9);

// The recency-policy tax on a HIT-heavy contended workload, which the
// fifo runs above deliberately dodge: an LRU hit is a WRITE (the recency
// splice), so even on the seqlock read path every reader hit takes its
// stripe mutex and colliding readers serialize. range(0) = 1 swaps in
// EvictionPolicy::clock, whose hit records recency as one relaxed
// referenced-bit store on the lock-free path — same workload, no lock.
// Readers loop over a resident working set against a live writer
// (insert/erase alternation, as above); reader items/s is the metric.
void BM_ConcurrentDictionaryLookupContendedLru(benchmark::State& state) {
  static gd::ConcurrentShardedDictionary* dict = nullptr;
  static std::vector<bits::BitVector>* bases = nullptr;
  if (state.thread_index() == 0) {
    const auto policy = state.range(0) != 0 ? gd::EvictionPolicy::clock
                                            : gd::EvictionPolicy::lru;
    dict = new gd::ConcurrentShardedDictionary(32768, policy, 8);
    bases = new std::vector<bits::BitVector>();
    Rng rng(5);
    for (int i = 0; i < 1024; ++i) {
      bases->push_back(random_bits(rng, 247));
      (void)dict->insert(bases->back());
    }
  }
  if (state.thread_index() == 0) {
    Rng rng(0xBEEF);
    std::uint32_t last = 0;
    bool pending = false;
    for (auto _ : state) {
      if (pending) {
        dict->erase(last);
        pending = false;
      } else {
        last = dict->insert(random_bits(rng, 247)).id;
        pending = true;
      }
    }
  } else {
    std::size_t i = static_cast<std::size_t>(state.thread_index()) * 37;
    for (auto _ : state) {
      benchmark::DoNotOptimize(dict->lookup((*bases)[i++ & 1023]));
    }
    state.SetItemsProcessed(state.iterations());
  }
  if (state.thread_index() == 0) {
    const gd::DictionaryStats stats = dict->stats();
    state.counters["stripe_acquisitions"] =
        static_cast<double>(stats.stripe_acquisitions);
    state.counters["clock_touches"] = static_cast<double>(stats.clock_touches);
    delete dict;
    delete bases;
    dict = nullptr;
    bases = nullptr;
  }
}
BENCHMARK(BM_ConcurrentDictionaryLookupContendedLru)
    ->ArgName("clock")
    ->Arg(0)
    ->Arg(1)
    ->Threads(2)
    ->Threads(3)
    ->Threads(5)
    ->Threads(9);

// The per-shard resolve turnstiles, measured at the pipeline level. Every
// unit is 8 chunks pre-binned by the dictionary's own shard router:
// range(0) = 0 gives each unit a single-shard footprint rotated across
// the 8 shards (disjoint — concurrent units rarely share a shard, so
// admissions should not block), range(0) = 1 mixes all 8 shards into
// every unit (total overlap — per-shard turnstiles degenerate to the old
// global resolve turnstile). Units spread over 4 pinned workers on 4
// flows. turnstile_waits / stripe_acquisitions per flush window are
// reported as counters; the disjoint-vs-overlap wait gap is what the
// per-shard split buys over one global turnstile.
void BM_PipelineShardTurnstile(benchmark::State& state) {
  constexpr std::size_t kShards = 8;
  constexpr std::size_t kUnits = 64;
  constexpr std::size_t kChunksPerUnit = 8;
  const bool overlap = state.range(0) != 0;
  const gd::GdParams params;
  const gd::GdTransform transform{params};
  const gd::ShardedDictionary router(params.dictionary_capacity(),
                                     gd::EvictionPolicy::lru, kShards);
  const std::size_t chunk_bytes = params.raw_payload_bytes();

  // Bin random chunks by the shard their basis routes to.
  Rng rng(0x5A4D);
  std::vector<std::vector<std::vector<std::uint8_t>>> bins(kShards);
  bits::BitVector chunk_bits;
  std::size_t filled = 0;
  while (filled < kShards) {
    std::vector<std::uint8_t> chunk(chunk_bytes);
    for (auto& b : chunk) b = static_cast<std::uint8_t>(rng.next_u64());
    chunk_bits.assign_from_bytes(chunk, params.chunk_bits);
    auto& bin = bins[router.shard_of(transform.forward(chunk_bits).basis)];
    if (bin.size() < 24) {
      bin.push_back(std::move(chunk));
      if (bin.size() == 24) ++filled;
    }
  }

  std::vector<std::vector<std::uint8_t>> payloads(kUnits);
  for (std::size_t u = 0; u < kUnits; ++u) {
    for (std::size_t c = 0; c < kChunksPerUnit; ++c) {
      // Disjoint: every chunk of unit u from bin u%8. Overlap: chunk c
      // from bin (u+c)%8, touching all eight shards per unit.
      const auto& bin = bins[(overlap ? u + c : u) % kShards];
      const auto& chunk = bin[(u / kShards + c) % bin.size()];
      payloads[u].insert(payloads[u].end(), chunk.begin(), chunk.end());
    }
  }

  engine::ParallelOptions options;
  options.workers = 4;
  options.queue_depth = 8;
  options.dictionary_shards = kShards;
  options.ownership = engine::DictionaryOwnership::shared;
  options.steering = engine::FlowSteering::pinned;
  engine::ParallelEncoder encoder(params, options, nullptr);
  for (std::size_t u = 0; u < kUnits; ++u) {  // warm dictionary + arenas
    encoder.submit(static_cast<std::uint32_t>(u % options.workers),
                   payloads[u]);
  }
  encoder.flush();
  const gd::DictionaryStats warm = encoder.shared_dictionary()->stats();

  for (auto _ : state) {
    for (std::size_t u = 0; u < kUnits; ++u) {
      encoder.submit(static_cast<std::uint32_t>(u % options.workers),
                     payloads[u]);
    }
    encoder.flush();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kUnits));
  const gd::DictionaryStats stats = encoder.shared_dictionary()->stats();
  const auto per_iter = [&](std::uint64_t total, std::uint64_t warm_part) {
    return static_cast<double>(total - warm_part) /
           static_cast<double>(state.iterations());
  };
  state.counters["turnstile_waits"] =
      per_iter(stats.turnstile_waits, warm.turnstile_waits);
  state.counters["stripe_acquisitions"] =
      per_iter(stats.stripe_acquisitions, warm.stripe_acquisitions);
  state.counters["prefetched_probes"] =
      per_iter(stats.prefetched_probes, warm.prefetched_probes);
}
BENCHMARK(BM_PipelineShardTurnstile)
    ->ArgName("overlap")
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMicrosecond);

// Node burst encode: one process() pass (submit every unit + flush) over
// a fixed 8-flow burst through the zipline::Node facade. Wall-clock
// scaling with range(0) workers tracks the host's core count (flat on a
// single-core machine; workers=1 is the threadless serial arrangement);
// bench_fig4_throughput sweeps this against dictionary shard counts and
// ownership modes with throughput reporting.
void BM_NodeEncodeBurst(benchmark::State& state) {
  const gd::GdParams params;
  io::NodeOptions options;
  options.params = params;
  options.workers = static_cast<std::size_t>(state.range(0));
  Rng rng(9);
  io::Burst in;
  std::vector<std::uint8_t> payload(64 * params.raw_payload_bytes());
  for (std::uint32_t flow = 0; flow < 8; ++flow) {
    for (auto& b : payload) b = static_cast<std::uint8_t>(rng.next_u64());
    io::PacketMeta meta;
    meta.flow = flow;
    in.append(gd::PacketType::raw, 0, 0, payload, meta);
  }
  io::Node node(options);
  io::Burst out;
  node.process(in, out);  // warm every flow engine + arenas
  std::int64_t bytes = 0;
  for (auto _ : state) {
    out.clear();
    node.process(in, out);
    bytes += static_cast<std::int64_t>(8 * payload.size());
    benchmark::DoNotOptimize(out.payload(0).data());
  }
  state.SetBytesProcessed(bytes);
}
BENCHMARK(BM_NodeEncodeBurst)->Arg(1)->Arg(2)->Arg(4);

// Passthrough-ratio sweep: a segment-backed burst (the shape a pooled
// source serves) with `pct`% passthrough packets through a serial node
// and one ring hop (the sink push). The node splices passthrough by view
// (tests/io_backend_test.cpp asserts it copies nothing for them); the
// counters price the memory traffic:
//   bytes_copied_per_packet — node + ring payload bytes physically
//     copied, per input packet
//   copies_per_packet — the node's own NodeStats::copies_per_packet
void BM_NodeEncodeBurstPassthrough(benchmark::State& state) {
  const gd::GdParams params;
  const auto passthrough_pct = static_cast<std::size_t>(state.range(0));
  io::NodeOptions options;
  options.params = params;
  options.workers = 1;
  io::BufferPool pool(16384, 64);
  io::SegmentWriter writer(pool);
  Rng rng(11);
  io::Burst in;
  std::vector<std::uint8_t> payload(params.raw_payload_bytes());
  constexpr std::size_t kPackets = 64;
  std::size_t in_bytes = 0;
  for (std::size_t i = 0; i < kPackets; ++i) {
    for (auto& b : payload) b = static_cast<std::uint8_t>(rng.next_u64());
    io::PacketMeta meta;
    meta.flow = static_cast<std::uint32_t>(i % 8);
    // First pct% of the burst passes through untouched (position within
    // the burst does not change the cost being measured).
    meta.process = (i * 100) / kPackets >= passthrough_pct;
    in.append_segment(gd::PacketType::raw, 0, 0, writer.write(payload),
                      writer.segment(), meta);
    in_bytes += payload.size();
  }
  io::Node node(options);
  io::MemoryRing sink_ring(2);
  io::Burst out;
  io::Burst drained;
  const auto pump = [&] {
    out.clear();
    node.process(in, out);
    benchmark::DoNotOptimize(out.payload(0).data());
    if (!sink_ring.try_push(out)) state.SkipWithError("ring full");
    if (!sink_ring.try_pop(drained)) state.SkipWithError("ring empty");
  };
  pump();  // warm engines, arenas, ring slots
  const std::uint64_t warm_node = node.stats().bytes_copied;
  const std::uint64_t warm_ring = sink_ring.stats().bytes_copied;
  for (auto _ : state) {
    pump();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kPackets));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(in_bytes));
  const auto per_packet = [&](std::uint64_t total, std::uint64_t warm) {
    return static_cast<double>(total - warm) /
           static_cast<double>(state.iterations()) /
           static_cast<double>(kPackets);
  };
  const double node_bpp = per_packet(node.stats().bytes_copied, warm_node);
  const double ring_bpp =
      per_packet(sink_ring.stats().bytes_copied, warm_ring);
  state.counters["bytes_copied_per_packet"] = node_bpp + ring_bpp;
  state.counters["node_bytes_copied_per_packet"] = node_bpp;
  state.counters["ring_bytes_copied_per_packet"] = ring_bpp;
  state.counters["copies_per_packet"] = node.stats().copies_per_packet;
}
BENCHMARK(BM_NodeEncodeBurstPassthrough)
    ->ArgName("passthrough_pct")
    ->Arg(0)
    ->Arg(50)
    ->Arg(90);

// The same burst against the shared-dictionary node (one table, per-unit
// p2c placement past workers=1): what the one-table-per-direction
// switch reality costs relative to private per-flow dictionaries above.
void BM_NodeEncodeBurstShared(benchmark::State& state) {
  const gd::GdParams params;
  io::NodeOptions options;
  options.params = params;
  options.workers = static_cast<std::size_t>(state.range(0));
  options.ownership = engine::DictionaryOwnership::shared;
  if (options.workers > 1) options.steering = engine::FlowSteering::load_aware;
  Rng rng(9);
  io::Burst in;
  std::vector<std::uint8_t> payload(64 * params.raw_payload_bytes());
  for (std::uint32_t flow = 0; flow < 8; ++flow) {
    for (auto& b : payload) b = static_cast<std::uint8_t>(rng.next_u64());
    io::PacketMeta meta;
    meta.flow = flow;
    in.append(gd::PacketType::raw, 0, 0, payload, meta);
  }
  io::Node node(options);
  io::Burst out;
  node.process(in, out);
  std::int64_t bytes = 0;
  for (auto _ : state) {
    out.clear();
    node.process(in, out);
    bytes += static_cast<std::int64_t>(8 * payload.size());
    benchmark::DoNotOptimize(out.payload(0).data());
  }
  state.SetBytesProcessed(bytes);
}
BENCHMARK(BM_NodeEncodeBurstShared)->Arg(1)->Arg(2)->Arg(4);

// The sensor shape: a burst of 256 one-chunk (32-B) packets from the
// synthetic sensor trace through a serial shared-dictionary node, encode
// (decode=0) or decode (decode=1). The node runs the whole burst as one
// engine unit, so this prices the per-packet io + engine cost the
// perfbench `sensor` workload sees, without its trace walk.
void BM_NodeSmallPacketBurst(benchmark::State& state) {
  const gd::GdParams params;
  const bool decode = state.range(0) != 0;
  constexpr std::size_t kPackets = 256;
  trace::SyntheticSensorConfig config;
  config.chunk_count = kPackets;
  const auto payloads = trace::generate_synthetic_sensor(config);
  io::Burst raw;
  for (const auto& payload : payloads) {
    raw.append(gd::PacketType::raw, 0, 0, payload, io::PacketMeta{});
  }
  const auto options = io::NodeOptions{}.with_params(params).with_shared_dictionary();
  io::Node encoder(io::NodeOptions(options).with_direction(io::Direction::encode));
  io::Node decoder(io::NodeOptions(options).with_direction(io::Direction::decode));
  io::Burst wire;
  io::Burst restored;
  // Warm both dictionaries: the measured burst is all hits on encode
  // (type 3 on the wire), the 99.9% case of the sensor trace.
  encoder.process(raw, wire);
  decoder.process(wire, restored);
  wire.clear();
  encoder.process(raw, wire);
  io::Node& node = decode ? decoder : encoder;
  const io::Burst& in = decode ? wire : raw;
  io::Burst out;
  for (auto _ : state) {
    out.clear();
    node.process(in, out);
    benchmark::DoNotOptimize(out.payload(0).data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kPackets));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kPackets) *
                          static_cast<std::int64_t>(params.raw_payload_bytes()));
}
BENCHMARK(BM_NodeSmallPacketBurst)->ArgName("decode")->Arg(0)->Arg(1);

void BM_DeflateSensorTrace(benchmark::State& state) {
  trace::SyntheticSensorConfig config;
  config.chunk_count = static_cast<std::uint64_t>(state.range(0));
  const auto flat = trace::concatenate(generate_synthetic_sensor(config));
  for (auto _ : state) {
    benchmark::DoNotOptimize(baseline::deflate_compress(flat));
  }
  state.SetBytesProcessed(
      static_cast<std::int64_t>(state.iterations() * flat.size()));
}
BENCHMARK(BM_DeflateSensorTrace)->Arg(2000)->Arg(20000)->Unit(benchmark::kMillisecond);

void BM_InflateSensorTrace(benchmark::State& state) {
  trace::SyntheticSensorConfig config;
  config.chunk_count = 20000;
  const auto flat = trace::concatenate(generate_synthetic_sensor(config));
  const auto compressed = baseline::deflate_compress(flat);
  for (auto _ : state) {
    benchmark::DoNotOptimize(baseline::deflate_decompress(compressed));
  }
  state.SetBytesProcessed(
      static_cast<std::int64_t>(state.iterations() * flat.size()));
}
BENCHMARK(BM_InflateSensorTrace)->Unit(benchmark::kMillisecond);

void BM_SwitchPipelinePacket(benchmark::State& state) {
  // Wall-clock cost of one simulated packet through the encode pipeline
  // (simulation throughput, not switch throughput).
  prog::ZipLineConfig config;
  config.op = prog::SwitchOp::encode;
  auto program = std::make_shared<prog::ZipLineProgram>(config);
  tofino::SwitchModel sw("sw", program);
  Rng rng(6);
  net::EthernetFrame frame;
  frame.dst = net::MacAddress::local(2);
  frame.src = net::MacAddress::local(1);
  frame.ether_type = 0x5A01;
  frame.payload.resize(32);
  for (auto& b : frame.payload) b = static_cast<std::uint8_t>(rng.next_u64());
  SimTime t = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sw.process(frame, 1, t++));
  }
}
BENCHMARK(BM_SwitchPipelinePacket);

}  // namespace

// Custom main instead of benchmark_main: unless the caller picks its own
// output, every run also writes BENCH_micro_core.json (google-benchmark's
// JSON format) so the perf trajectory is tracked PR-over-PR alongside
// BENCH_fig4_throughput.json.
int main(int argc, char** argv) {
  zipline::bench::require_release_build("bench_micro_core");
  // Recorded in the JSON "context" object: which build produced the
  // numbers and which kernel level the data path dispatched to.
  benchmark::AddCustomContext("zipline_build_type",
                              zipline::bench::build_type());
  benchmark::AddCustomContext("zipline_simd_kernel",
                              zipline::bench::simd_kernel_name());
  benchmark::AddCustomContext("zipline_simd_requested",
                              zipline::bench::simd_requested_name());
  std::vector<char*> args(argv, argv + argc);
  std::string out_flag = "--benchmark_out=BENCH_micro_core.json";
  std::string fmt_flag = "--benchmark_out_format=json";
  bool has_out = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--benchmark_out=", 16) == 0) has_out = true;
  }
  if (!has_out) {
    args.push_back(out_flag.data());
    args.push_back(fmt_flag.data());
  }
  int adjusted_argc = static_cast<int>(args.size());
  benchmark::Initialize(&adjusted_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(adjusted_argc, args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
