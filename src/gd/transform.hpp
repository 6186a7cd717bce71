// The GD chunk transform: chunk <-> (excess, basis, syndrome).
//
// A chunk of `chunk_bits` is split into the low n = 2^m - 1 bits (the
// Hamming word) and the high `excess` bits that travel verbatim. The
// Hamming word is canonicalized into a k-bit basis plus an m-bit syndrome
// (paper Fig. 1); the inverse regenerates the word from the basis and
// syndrome (paper Fig. 2). Lossless for every possible chunk because
// Hamming codes are perfect codes.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/bitvector.hpp"
#include "gd/params.hpp"
#include "hamming/hamming.hpp"

namespace zipline::gd {

/// Decomposition of one chunk.
struct TransformedChunk {
  bits::BitVector excess;  ///< chunk_bits - n verbatim high-order bits
  bits::BitVector basis;   ///< k bits
  std::uint32_t syndrome = 0;  ///< m bits
};

/// Caller-owned word-plane scratch for the block transform entry points.
/// Rows live `stride` words apart with >= 8 words of tail padding past the
/// last row (the AVX-512 block kernels issue masked loads that may touch
/// one full vector per row; the padding keeps those reads inside the
/// allocation). Grow-only, like every engine arena: steady-state reuse is
/// allocation-free.
struct TransformBlockScratch {
  std::vector<std::uint64_t> chunk_plane;  ///< count rows of chunk words
  std::vector<std::uint64_t> basis_plane;  ///< count rows of basis words
  std::vector<std::uint32_t> syndromes;    ///< one per row
  std::vector<std::uint32_t> parities;     ///< expand-side fold scratch
};

class GdTransform {
 public:
  explicit GdTransform(const GdParams& params);

  [[nodiscard]] const GdParams& params() const noexcept { return params_; }
  [[nodiscard]] const hamming::HammingCode& code() const noexcept {
    return code_;
  }

  /// Forward transform; chunk.size() must equal params().chunk_bits.
  [[nodiscard]] TransformedChunk forward(const bits::BitVector& chunk) const;

  /// Inverse transform, reconstructing the exact original chunk.
  [[nodiscard]] bits::BitVector inverse(const TransformedChunk& t) const;
  [[nodiscard]] bits::BitVector inverse(const bits::BitVector& excess,
                                        const bits::BitVector& basis,
                                        std::uint32_t syndrome) const;

  // --- in-place variants (the batch engine's hot path) -----------------
  // `word_scratch` is caller-owned n-bit working storage; passing the same
  // scratch across calls makes both directions allocation-free once every
  // buffer has reached its steady-state capacity.

  /// Forward transform into `out`, reusing its vectors.
  void forward_into(const bits::BitVector& chunk, TransformedChunk& out,
                    bits::BitVector& word_scratch) const;

  /// Inverse transform into `out`, reusing its storage.
  void inverse_into(const bits::BitVector& excess,
                    const bits::BitVector& basis, std::uint32_t syndrome,
                    bits::BitVector& out, bits::BitVector& word_scratch) const;

  // --- block variants (the engine's transform fast path) ----------------
  // A whole unit's chunks move through each transform stage as ONE kernel
  // call over a contiguous word-plane (multi-stream syndrome fold, block
  // funnel shifts), instead of a per-chunk BitVector call chain. Output is
  // byte-identical to the chunk-at-a-time path at every kernel level
  // (tests/transform_block_test.cpp property-checks the matrix).

  /// Words per chunk row in the plane (ceil(chunk_bits / 64)).
  [[nodiscard]] std::size_t chunk_plane_stride() const noexcept {
    return (params_.chunk_bits + 63) / 64;
  }
  /// Words per basis row in the plane (ceil(k / 64)).
  [[nodiscard]] std::size_t basis_plane_stride() const noexcept {
    return (params_.k() + 63) / 64;
  }

  /// Forward-transforms one chunk per entry of `rows` (chunk_bits % 8 ==
  /// 0; each pointer addresses chunk_bits/8 bytes) into
  /// out[0..rows.size()), reusing each TransformedChunk's storage. The
  /// rows may come from different payloads: staging is a per-row gather,
  /// so a unit spanning many packets is still one kernel batch.
  /// Equivalent to forward_into per chunk.
  void forward_block(std::span<const std::uint8_t* const> rows,
                     std::span<TransformedChunk> out,
                     TransformBlockScratch& scratch) const;

  /// Sizes the scratch for `count` inverse rows (grow-only; newly grown
  /// plane words are zero and stay zero outside the expanded region).
  void inverse_block_reserve(std::size_t count,
                             TransformBlockScratch& scratch) const;

  /// Stages one (basis, syndrome) pair into plane row `row`. Rows may be
  /// staged sparsely (the engine skips raw packets); only rows
  /// [0, count) of the following inverse_block_expand are read.
  void inverse_block_stage(TransformBlockScratch& scratch, std::size_t row,
                           const bits::BitVector& basis,
                           std::uint32_t syndrome) const;

  /// Expands every staged row [0, count) into its n-bit word in the chunk
  /// plane (one block kernel batch). Compose the full chunk by reading
  /// chunk_row(r) and accumulating the excess at bit n.
  void inverse_block_expand(TransformBlockScratch& scratch,
                            std::size_t count) const;

  /// Row `row` of the chunk plane: chunk_plane_stride() words holding the
  /// expanded n-bit word (bits at and above n zero — ready for
  /// BitVector::assign_from_words at chunk_bits).
  [[nodiscard]] std::span<const std::uint64_t> chunk_row(
      const TransformBlockScratch& scratch, std::size_t row) const noexcept {
    return {scratch.chunk_plane.data() + row * chunk_plane_stride(),
            chunk_plane_stride()};
  }

 private:
  GdParams params_;
  hamming::HammingCode code_;
};

}  // namespace zipline::gd
