// Byte-identity property suite for the block transform fast path: at
// every forced kernel level, GdTransform::forward_block must decompose a
// unit of chunks exactly like chunk-at-a-time forward(), and the staged
// inverse_block path must regenerate exactly the chunks inverse() does.
// The chunk-at-a-time path is the oracle — it predates the block kernels
// and is what GDZ1 byte-compatibility rests on.

#include "gd/transform.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/bitvector.hpp"
#include "common/rng.hpp"
#include "common/simd.hpp"

namespace zipline {
namespace {

/// Every level this host can actually run (table_for clamps the rest).
std::vector<simd::KernelLevel> supported_levels() {
  std::vector<simd::KernelLevel> levels{simd::KernelLevel::scalar};
  for (const auto level :
       {simd::KernelLevel::sse42, simd::KernelLevel::neon,
        simd::KernelLevel::avx2, simd::KernelLevel::avx512}) {
    if (simd::supported(level)) levels.push_back(level);
  }
  return levels;
}

class ScopedKernelLevel {
 public:
  explicit ScopedKernelLevel(simd::KernelLevel level)
      : previous_(simd::set_active_for_testing(level)) {}
  ~ScopedKernelLevel() { simd::set_active_for_testing(previous_); }

 private:
  simd::KernelLevel previous_;
};

/// The parameter matrix: byte-aligned chunk sizes around the word
/// boundaries, with excess widths of 1 bit, sub-word, and >64 bits (the
/// excess peel straddles plane words in the last case).
std::vector<gd::GdParams> parameter_matrix() {
  std::vector<gd::GdParams> out;
  const auto add = [&out](int m, std::size_t chunk_bits) {
    gd::GdParams p;
    p.m = m;
    p.chunk_bits = chunk_bits;
    p.id_bits = std::min<std::size_t>(8, p.k() - 1);  // validate: id_bits < k
    out.push_back(p);
  };
  add(3, 16);    // n=7, excess 9
  add(4, 24);    // n=15, excess 9
  add(6, 64);    // n=63, excess 1
  add(6, 128);   // n=63, excess 65 (straddles a plane word)
  add(8, 256);   // the paper deployment: n=255, excess 1
  add(8, 320);   // n=255, excess 65
  add(10, 1032); // n=1023: chunk rows wider than one AVX-512 vector
  return out;
}

TEST(TransformBlock, ForwardMatchesChunkAtATimeEverywhere) {
  for (const auto& params : parameter_matrix()) {
    const gd::GdTransform transform(params);
    const std::size_t chunk_bytes = params.chunk_bits / 8;
    Rng rng(0xF0CA ^ params.chunk_bits ^ static_cast<std::size_t>(params.m));
    for (const std::size_t count :
         {std::size_t{1}, std::size_t{2}, std::size_t{3}, std::size_t{7},
          std::size_t{16}}) {
      std::vector<std::uint8_t> payload(count * chunk_bytes);
      for (auto& b : payload) b = static_cast<std::uint8_t>(rng.next_u64());
      // Oracle: the per-chunk path at the scalar level.
      std::vector<gd::TransformedChunk> reference(count);
      {
        ScopedKernelLevel forced(simd::KernelLevel::scalar);
        for (std::size_t c = 0; c < count; ++c) {
          bits::BitVector chunk;
          chunk.assign_from_bytes(
              {payload.data() + c * chunk_bytes, chunk_bytes},
              params.chunk_bits);
          reference[c] = transform.forward(chunk);
        }
      }
      // The block gathers its rows: feed them in reverse payload order,
      // so row c is chunk count - 1 - c.
      std::vector<const std::uint8_t*> rows(count);
      for (std::size_t c = 0; c < count; ++c) {
        rows[c] = payload.data() + (count - 1 - c) * chunk_bytes;
      }
      std::reverse(reference.begin(), reference.end());
      for (const auto level : supported_levels()) {
        ScopedKernelLevel forced(level);
        gd::TransformBlockScratch scratch;
        std::vector<gd::TransformedChunk> out(count);
        transform.forward_block(rows, out, scratch);
        for (std::size_t c = 0; c < count; ++c) {
          EXPECT_EQ(out[c].excess, reference[c].excess)
              << "level=" << simd::level_name(level) << " m=" << params.m
              << " chunk_bits=" << params.chunk_bits << " count=" << count
              << " chunk=" << c;
          EXPECT_EQ(out[c].basis, reference[c].basis)
              << "level=" << simd::level_name(level) << " m=" << params.m
              << " chunk_bits=" << params.chunk_bits << " count=" << count
              << " chunk=" << c;
          EXPECT_EQ(out[c].syndrome, reference[c].syndrome)
              << "level=" << simd::level_name(level) << " m=" << params.m
              << " chunk_bits=" << params.chunk_bits << " count=" << count
              << " chunk=" << c;
        }
      }
    }
  }
}

TEST(TransformBlock, InverseMatchesChunkAtATimeEverywhere) {
  for (const auto& params : parameter_matrix()) {
    const gd::GdTransform transform(params);
    const std::size_t n = params.n();
    Rng rng(0x1CE ^ params.chunk_bits ^ static_cast<std::size_t>(params.m));
    for (const std::size_t count :
         {std::size_t{1}, std::size_t{2}, std::size_t{5}, std::size_t{13}}) {
      // Forward a random payload chunk-at-a-time to get valid
      // (excess, basis, syndrome) triples, then invert both ways.
      std::vector<gd::TransformedChunk> triples(count);
      std::vector<bits::BitVector> expected(count);
      {
        ScopedKernelLevel forced(simd::KernelLevel::scalar);
        for (std::size_t c = 0; c < count; ++c) {
          bits::BitVector chunk(params.chunk_bits);
          for (std::size_t i = 0; i < params.chunk_bits; ++i) {
            if (rng.next_bool(0.5)) chunk.set(i);
          }
          triples[c] = transform.forward(chunk);
          expected[c] = chunk;
        }
      }
      for (const auto level : supported_levels()) {
        ScopedKernelLevel forced(level);
        gd::TransformBlockScratch scratch;
        transform.inverse_block_reserve(count, scratch);
        for (std::size_t c = 0; c < count; ++c) {
          transform.inverse_block_stage(scratch, c, triples[c].basis,
                                        triples[c].syndrome);
        }
        transform.inverse_block_expand(scratch, count);
        bits::BitVector rebuilt;
        for (std::size_t c = 0; c < count; ++c) {
          rebuilt.assign_from_words(transform.chunk_row(scratch, c),
                                    params.chunk_bits);
          rebuilt.accumulate_shifted(triples[c].excess, n);
          EXPECT_EQ(rebuilt, expected[c])
              << "level=" << simd::level_name(level) << " m=" << params.m
              << " chunk_bits=" << params.chunk_bits << " count=" << count
              << " chunk=" << c;
        }
      }
    }
  }
}

TEST(TransformBlock, ScratchReuseAcrossDirectionsStaysClean) {
  // The engine reuses ONE scratch for forward and inverse blocks; a
  // forward pass stages full chunks (excess bits beyond the n-bit word)
  // into the plane, and inverse_block_reserve must scrub them so
  // chunk_row()'s zeros-above-n contract holds.
  gd::GdParams params;  // paper defaults: m=8, 256-bit chunks
  const gd::GdTransform transform(params);
  const std::size_t count = 6;
  const std::size_t chunk_bytes = params.chunk_bits / 8;
  std::vector<std::uint8_t> payload(count * chunk_bytes);
  for (auto& b : payload) b = 0xFF;  // excess bit set in every chunk
  std::vector<const std::uint8_t*> rows(count);
  for (std::size_t c = 0; c < count; ++c) {
    rows[c] = payload.data() + c * chunk_bytes;
  }
  gd::TransformBlockScratch scratch;
  std::vector<gd::TransformedChunk> fwd(count);
  transform.forward_block(rows, fwd, scratch);
  transform.inverse_block_reserve(count, scratch);
  for (std::size_t c = 0; c < count; ++c) {
    transform.inverse_block_stage(scratch, c, fwd[c].basis, fwd[c].syndrome);
  }
  transform.inverse_block_expand(scratch, count);
  bits::BitVector rebuilt;
  bits::BitVector original;
  for (std::size_t c = 0; c < count; ++c) {
    rebuilt.assign_from_words(transform.chunk_row(scratch, c),
                              params.chunk_bits);
    rebuilt.accumulate_shifted(fwd[c].excess, params.n());
    original.assign_from_bytes({payload.data() + c * chunk_bytes, chunk_bytes},
                               params.chunk_bits);
    EXPECT_EQ(rebuilt, original) << "chunk=" << c;
  }
}

}  // namespace
}  // namespace zipline
