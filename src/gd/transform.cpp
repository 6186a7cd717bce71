#include "gd/transform.hpp"

#include <algorithm>
#include <cstring>

#include "common/contracts.hpp"
#include "common/simd.hpp"

namespace zipline::gd {

namespace {

/// Tail padding past the last plane row: the AVX-512 block kernels load a
/// full masked vector per row, so up to 8 words past a row's logical end
/// must stay inside the allocation.
constexpr std::size_t kPlanePad = 8;

constexpr std::uint64_t low_mask(std::size_t bits) noexcept {
  return bits >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << bits) - 1;
}

/// Stages one chunk's bytes into `row` as BitVector word layout (word 0 =
/// low powers; the LAST byte is bits 0-7) — the in-plane twin of
/// BitVector::assign_from_bytes. bytes.size() * 8 must equal `size`.
void stage_chunk_row(std::uint64_t* row, std::size_t row_words,
                     std::span<const std::uint8_t> bytes, std::size_t size) {
  if (size % 64 == 0) {
    // Whole words: the wire-order unpack kernel is exactly this mapping.
    simd::active().unpack_words_be_rev(row, bytes.data(), size / 64);
    return;
  }
  std::fill(row, row + row_words, 0);
  std::size_t bit = 0;
  for (std::size_t byte_idx = bytes.size(); byte_idx-- > 0 && bit < size;) {
    row[bit / 64] |= std::uint64_t{bytes[byte_idx]} << (bit % 64);
    bit += 8;
  }
}

}  // namespace

GdTransform::GdTransform(const GdParams& params)
    : params_(params), code_(params.m, params.resolved_generator()) {
  params_.validate();
}

TransformedChunk GdTransform::forward(const bits::BitVector& chunk) const {
  TransformedChunk out;
  bits::BitVector word;
  forward_into(chunk, out, word);
  return out;
}

void GdTransform::forward_into(const bits::BitVector& chunk,
                               TransformedChunk& out,
                               bits::BitVector& word_scratch) const {
  ZL_EXPECTS(chunk.size() == params_.chunk_bits);
  const std::size_t n = params_.n();
  chunk.slice_into(0, n, word_scratch);
  chunk.slice_into(n, params_.excess_bits(), out.excess);
  code_.canonicalize_into(word_scratch, out.basis, out.syndrome);
}

bits::BitVector GdTransform::inverse(const TransformedChunk& t) const {
  return inverse(t.excess, t.basis, t.syndrome);
}

bits::BitVector GdTransform::inverse(const bits::BitVector& excess,
                                     const bits::BitVector& basis,
                                     std::uint32_t syndrome) const {
  bits::BitVector out;
  bits::BitVector word;
  inverse_into(excess, basis, syndrome, out, word);
  return out;
}

void GdTransform::inverse_into(const bits::BitVector& excess,
                               const bits::BitVector& basis,
                               std::uint32_t syndrome, bits::BitVector& out,
                               bits::BitVector& word_scratch) const {
  ZL_EXPECTS(excess.size() == params_.excess_bits());
  ZL_EXPECTS(basis.size() == params_.k());
  ZL_EXPECTS(syndrome < (std::uint32_t{1} << params_.m));
  code_.expand_into(basis, syndrome, word_scratch);
  out.assign_zero(params_.chunk_bits);
  out.accumulate_shifted(word_scratch, 0);
  out.accumulate_shifted(excess, params_.n());
}

void GdTransform::forward_block(std::span<const std::uint8_t* const> rows,
                                std::span<TransformedChunk> out,
                                TransformBlockScratch& scratch) const {
  ZL_EXPECTS(params_.chunk_bits % 8 == 0);
  const std::size_t count = rows.size();
  ZL_EXPECTS(out.size() >= count);
  const std::size_t chunk_bytes = params_.chunk_bits / 8;
  const std::size_t n = params_.n();
  const std::size_t cstride = chunk_plane_stride();
  const std::size_t bstride = basis_plane_stride();
  const std::size_t word_words = (n + 63) / 64;
  const std::size_t excess = params_.excess_bits();
  if (scratch.chunk_plane.size() < count * cstride + kPlanePad) {
    scratch.chunk_plane.resize(count * cstride + kPlanePad);
  }
  if (scratch.basis_plane.size() < count * bstride + kPlanePad) {
    scratch.basis_plane.resize(count * bstride + kPlanePad);
  }
  if (scratch.syndromes.size() < count) scratch.syndromes.resize(count);
  // Stage every chunk into the word-plane, peel its excess bits, and trim
  // the row to the n-bit Hamming word.
  for (std::size_t c = 0; c < count; ++c) {
    std::uint64_t* row = scratch.chunk_plane.data() + c * cstride;
    stage_chunk_row(row, cstride, {rows[c], chunk_bytes},
                    params_.chunk_bits);
    bits::BitVector& ex = out[c].excess;
    ex.assign_zero(excess);
    for (std::size_t o = 0; o < excess; o += 64) {
      const std::size_t lo = n + o;
      std::uint64_t v = row[lo / 64] >> (lo % 64);
      if (lo % 64 != 0 && lo / 64 + 1 < cstride) {
        v |= row[lo / 64 + 1] << (64 - lo % 64);
      }
      const std::size_t width = std::min<std::size_t>(64, excess - o);
      ex.or_uint(o, v & low_mask(width), width);
    }
    row[word_words - 1] &= low_mask(n % 64 == 0 ? 64 : n % 64);
    std::fill(row + word_words, row + cstride, 0);
  }
  // One kernel batch: syndromes of every row, then every basis slice.
  code_.canonicalize_block(scratch.chunk_plane.data(), cstride, count,
                           scratch.basis_plane.data(), bstride,
                           scratch.syndromes.data());
  for (std::size_t c = 0; c < count; ++c) {
    out[c].basis.assign_from_words(
        {scratch.basis_plane.data() + c * bstride, bstride}, params_.k());
    out[c].syndrome = scratch.syndromes[c];
  }
}

void GdTransform::inverse_block_reserve(std::size_t count,
                                        TransformBlockScratch& scratch) const {
  const std::size_t cstride = chunk_plane_stride();
  const std::size_t bstride = basis_plane_stride();
  const std::size_t word_words = (params_.n() + 63) / 64;
  if (scratch.chunk_plane.size() < count * cstride + kPlanePad) {
    scratch.chunk_plane.resize(count * cstride + kPlanePad);
  }
  if (scratch.basis_plane.size() < count * bstride + kPlanePad) {
    scratch.basis_plane.resize(count * bstride + kPlanePad);
  }
  if (scratch.syndromes.size() < count) scratch.syndromes.resize(count);
  if (scratch.parities.size() < count) scratch.parities.resize(count);
  // chunk_row() promises zeros above the n-bit word; expand only writes
  // the word region, so scrub anything a prior forward_block staged there.
  if (cstride > word_words) {
    for (std::size_t c = 0; c < count; ++c) {
      std::uint64_t* row = scratch.chunk_plane.data() + c * cstride;
      std::fill(row + word_words, row + cstride, 0);
    }
  }
}

void GdTransform::inverse_block_stage(TransformBlockScratch& scratch,
                                      std::size_t row,
                                      const bits::BitVector& basis,
                                      std::uint32_t syndrome) const {
  ZL_EXPECTS(basis.size() == params_.k());
  const auto words = basis.words();
  std::memcpy(scratch.basis_plane.data() + row * basis_plane_stride(),
              words.data(), words.size() * sizeof(std::uint64_t));
  scratch.syndromes[row] = syndrome;
}

void GdTransform::inverse_block_expand(TransformBlockScratch& scratch,
                                       std::size_t count) const {
  code_.expand_block(scratch.basis_plane.data(), basis_plane_stride(),
                     scratch.syndromes.data(), count,
                     scratch.chunk_plane.data(), chunk_plane_stride(),
                     scratch.parities.data());
}

}  // namespace zipline::gd
