#include "common/bitvector.hpp"

#include <algorithm>
#include <bit>

#include "common/contracts.hpp"
#include "common/simd.hpp"

namespace zipline::bits {

namespace {
constexpr std::size_t kWordBits = 64;

std::size_t words_for(std::size_t bits) {
  return (bits + kWordBits - 1) / kWordBits;
}
}  // namespace

BitVector::BitVector(std::size_t size)
    : size_(size), words_(words_for(size), 0) {}

BitVector::BitVector(std::size_t size, std::uint64_t value) : BitVector(size) {
  ZL_EXPECTS(size >= kWordBits || value < (std::uint64_t{1} << size) ||
             size == 0);
  if (!words_.empty()) {
    words_[0] = value;
    trim_top_word();
    ZL_EXPECTS(words_[0] == value);  // value must fit
  } else {
    ZL_EXPECTS(value == 0);
  }
}

BitVector BitVector::from_string(std::string_view msb_first) {
  BitVector v(msb_first.size());
  for (std::size_t i = 0; i < msb_first.size(); ++i) {
    const char c = msb_first[i];
    ZL_EXPECTS(c == '0' || c == '1');
    if (c == '1') v.set(msb_first.size() - 1 - i);
  }
  return v;
}

BitVector BitVector::from_bytes(std::span<const std::uint8_t> bytes,
                                std::size_t size) {
  BitVector v;
  v.assign_from_bytes(bytes, size);
  return v;
}

void BitVector::assign_zero(std::size_t size) {
  size_ = size;
  words_.assign(words_for(size), 0);
}

void BitVector::assign_from_bytes(std::span<const std::uint8_t> bytes,
                                  std::size_t size) {
  ZL_EXPECTS(size <= bytes.size() * 8);
  assign_zero(size);
  // The final bit of the last byte is bit 0; walk backwards, a byte at a
  // time (this is the batch engine's chunk-staging loop — keep it off the
  // per-bit path). `bit` advances in steps of 8 from 0, so a byte never
  // straddles a word boundary.
  std::size_t bit = 0;
  for (std::size_t byte_idx = bytes.size(); byte_idx-- > 0 && bit < size;) {
    const std::size_t remaining = size - bit;
    const std::uint64_t b =
        remaining >= 8 ? bytes[byte_idx]
                       : bytes[byte_idx] &
                             ((std::uint64_t{1} << remaining) - 1);
    words_[bit / kWordBits] |= b << (bit % kWordBits);
    bit += 8;
  }
}

void BitVector::assign_from_words(std::span<const std::uint64_t> words,
                                  std::size_t size) {
  ZL_EXPECTS(size <= words.size() * kWordBits);
  size_ = size;
  const std::size_t count = words_for(size);
  words_.resize(count);
  std::copy(words.begin(), words.begin() + static_cast<std::ptrdiff_t>(count),
            words_.begin());
  trim_top_word();
}

std::span<std::uint64_t> BitVector::low_words(std::size_t count) {
  ZL_EXPECTS(count * kWordBits <= size_);
  return {words_.data(), count};
}

bool BitVector::get(std::size_t i) const {
  ZL_EXPECTS(i < size_);
  return (words_[i / kWordBits] >> (i % kWordBits)) & 1;
}

void BitVector::set(std::size_t i, bool value) {
  ZL_EXPECTS(i < size_);
  const std::uint64_t mask = std::uint64_t{1} << (i % kWordBits);
  if (value) {
    words_[i / kWordBits] |= mask;
  } else {
    words_[i / kWordBits] &= ~mask;
  }
}

void BitVector::reset(std::size_t i) { set(i, false); }

void BitVector::flip(std::size_t i) {
  ZL_EXPECTS(i < size_);
  words_[i / kWordBits] ^= std::uint64_t{1} << (i % kWordBits);
}

bool BitVector::none() const noexcept {
  return std::all_of(words_.begin(), words_.end(),
                     [](std::uint64_t w) { return w == 0; });
}

std::size_t BitVector::popcount() const noexcept {
  std::size_t total = 0;
  for (const std::uint64_t w : words_) total += std::popcount(w);
  return total;
}

BitVector& BitVector::operator^=(const BitVector& other) {
  ZL_EXPECTS(size_ == other.size_);
  for (std::size_t i = 0; i < words_.size(); ++i) words_[i] ^= other.words_[i];
  return *this;
}

BitVector BitVector::slice(std::size_t lo, std::size_t len) const {
  BitVector out;
  slice_into(lo, len, out);
  return out;
}

void BitVector::slice_into(std::size_t lo, std::size_t len,
                           BitVector& out) const {
  ZL_EXPECTS(lo + len <= size_);
  ZL_EXPECTS(&out != this);
  out.assign_zero(len);
  const std::size_t shift = lo % kWordBits;
  const std::size_t base = lo / kWordBits;
  for (std::size_t w = 0; w < out.words_.size(); ++w) {
    std::uint64_t value = words_[base + w] >> shift;
    if (shift != 0 && base + w + 1 < words_.size()) {
      value |= words_[base + w + 1] << (kWordBits - shift);
    }
    out.words_[w] = value;
  }
  out.trim_top_word();
}

void BitVector::accumulate_shifted(const BitVector& v, std::size_t shift) {
  ZL_EXPECTS(v.size_ + shift <= size_);
  const std::size_t s = shift % kWordBits;
  const std::size_t base = shift / kWordBits;
  for (std::size_t w = 0; w < v.words_.size(); ++w) {
    words_[base + w] |= v.words_[w] << s;
    if (s != 0 && base + w + 1 < words_.size()) {
      words_[base + w + 1] |= v.words_[w] >> (kWordBits - s);
    }
  }
}

BitVector BitVector::concat(const BitVector& high, const BitVector& low) {
  BitVector out(high.size_ + low.size_);
  out.words_ = low.words_;
  out.words_.resize(words_for(out.size_), 0);
  const std::size_t shift = low.size_ % kWordBits;
  const std::size_t base = low.size_ / kWordBits;
  for (std::size_t w = 0; w < high.words_.size(); ++w) {
    out.words_[base + w] |= high.words_[w] << shift;
    if (shift != 0 && base + w + 1 < out.words_.size()) {
      out.words_[base + w + 1] |= high.words_[w] >> (kWordBits - shift);
    }
  }
  out.trim_top_word();
  return out;
}

BitVector BitVector::shifted_up(std::size_t count) const {
  return concat(*this, BitVector(count));
}

std::uint64_t BitVector::to_uint64() const {
  ZL_EXPECTS(size_ <= 64);
  return words_.empty() ? 0 : words_[0];
}

std::vector<std::uint8_t> BitVector::to_bytes() const {
  std::vector<std::uint8_t> out;
  out.reserve((size_ + 7) / 8);
  append_bytes_to(out);
  return out;
}

void BitVector::append_bytes_to(std::vector<std::uint8_t>& out) const {
  const std::size_t start = out.size();
  out.resize(start + (size_ + 7) / 8, 0);
  if (size_ % kWordBits == 0) {
    // Whole words: the wire-order pack kernel is exactly this mapping.
    simd::active().pack_words_be_rev(out.data() + start, words_.data(),
                                     words_.size());
    return;
  }
  // `bit` advances in steps of 8 from 0, so a byte never straddles a word.
  std::size_t bit = 0;
  for (std::size_t byte_idx = out.size(); byte_idx-- > start && bit < size_;) {
    out[byte_idx] = static_cast<std::uint8_t>(
        (words_[bit / kWordBits] >> (bit % kWordBits)) & 0xFF);
    bit += 8;
  }
}

void BitVector::or_uint(std::size_t lo, std::uint64_t value,
                        std::size_t width) {
  ZL_EXPECTS(lo + width <= size_);
  ZL_EXPECTS(width <= kWordBits);
  ZL_EXPECTS(width == kWordBits || value < (std::uint64_t{1} << width));
  if (width == 0) return;
  const std::size_t word = lo / kWordBits;
  const std::size_t off = lo % kWordBits;
  words_[word] |= value << off;
  if (off != 0 && off + width > kWordBits) {
    words_[word + 1] |= value >> (kWordBits - off);
  }
}

std::string BitVector::to_string() const {
  std::string s;
  s.reserve(size_);
  for (std::size_t i = size_; i-- > 0;) s.push_back(get(i) ? '1' : '0');
  return s;
}

std::uint64_t BitVector::hash() const noexcept {
  std::uint64_t h = 1469598103934665603ull ^ size_;
  for (const std::uint64_t w : words_) {
    h ^= w;
    h *= 1099511628211ull;
    h ^= h >> 32;
  }
  return h;
}

std::strong_ordering operator<=>(const BitVector& a,
                                 const BitVector& b) noexcept {
  if (a.size_ != b.size_) return a.size_ <=> b.size_;
  for (std::size_t i = a.words_.size(); i-- > 0;) {
    if (a.words_[i] != b.words_[i]) return a.words_[i] <=> b.words_[i];
  }
  return std::strong_ordering::equal;
}

void BitVector::trim_top_word() noexcept {
  const std::size_t used = size_ % kWordBits;
  if (used != 0 && !words_.empty()) {
    words_.back() &= (std::uint64_t{1} << used) - 1;
  }
}

}  // namespace zipline::bits
