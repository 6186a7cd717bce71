#include "baseline/deflate.hpp"

#include <gtest/gtest.h>

#include <string_view>

#include "common/rng.hpp"

namespace zipline::baseline {
namespace {

std::vector<std::uint8_t> bytes_of(std::string_view s) {
  return {s.begin(), s.end()};
}

TEST(Deflate, EmptyInput) {
  const auto compressed = deflate_compress({});
  EXPECT_FALSE(compressed.empty());
  EXPECT_TRUE(deflate_decompress(compressed).empty());
}

TEST(Deflate, TinyInputs) {
  for (const auto text : {"a", "ab", "abc", "\x00\x00\x00", "zzzzzz"}) {
    const auto data = bytes_of(text);
    EXPECT_EQ(deflate_decompress(deflate_compress(data)), data) << text;
  }
}

TEST(Deflate, TextRoundTripAndShrinks) {
  std::vector<std::uint8_t> data;
  for (int i = 0; i < 200; ++i) {
    const auto line = bytes_of(
        "the quick brown fox jumps over the lazy dog; pack my box with five "
        "dozen liquor jugs\n");
    data.insert(data.end(), line.begin(), line.end());
  }
  const auto compressed = deflate_compress(data);
  EXPECT_EQ(deflate_decompress(compressed), data);
  EXPECT_LT(compressed.size(), data.size() / 10);  // highly repetitive text
}

TEST(Deflate, IncompressibleRandomDataRoundTrips) {
  Rng rng(17);
  std::vector<std::uint8_t> data(100000);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.next_u64());
  const auto compressed = deflate_compress(data);
  EXPECT_EQ(deflate_decompress(compressed), data);
  // Random bytes cannot shrink; expansion must stay small (<1%).
  EXPECT_LT(compressed.size(), data.size() * 101 / 100);
}

TEST(Deflate, AllZerosCompressExtremelyWell) {
  const std::vector<std::uint8_t> data(1 << 16, 0);
  const auto compressed = deflate_compress(data);
  EXPECT_EQ(deflate_decompress(compressed), data);
  EXPECT_LT(compressed.size(), 300u);
}

TEST(Deflate, LongRangeMatchesAcrossWindow) {
  // Two identical 10 kB segments 20 kB apart: still inside the window.
  Rng rng(19);
  std::vector<std::uint8_t> segment(10000);
  for (auto& b : segment) b = static_cast<std::uint8_t>(rng.next_u64());
  std::vector<std::uint8_t> filler(20000);
  for (auto& b : filler) b = static_cast<std::uint8_t>(rng.next_u64());
  std::vector<std::uint8_t> data;
  data.insert(data.end(), segment.begin(), segment.end());
  data.insert(data.end(), filler.begin(), filler.end());
  data.insert(data.end(), segment.begin(), segment.end());
  const auto compressed = deflate_compress(data);
  EXPECT_EQ(deflate_decompress(compressed), data);
  // The second segment must be found as matches: output well below 2x
  // segment+filler entropy size.
  EXPECT_LT(compressed.size(), 32000u);
}

TEST(Deflate, NearDuplicateChunksLikeSensorData) {
  // The paper's synthetic workload shape: 32 B chunks, few distinct bases,
  // single-bit noise. DEFLATE copes but pays for broken matches.
  Rng rng(23);
  std::vector<std::vector<std::uint8_t>> bases(8);
  for (auto& basis : bases) {
    basis.resize(32);
    for (auto& b : basis) b = static_cast<std::uint8_t>(rng.next_u64());
  }
  std::vector<std::uint8_t> data;
  for (int i = 0; i < 5000; ++i) {
    auto chunk = bases[rng.next_below(bases.size())];
    chunk[28 + rng.next_below(4)] ^=
        static_cast<std::uint8_t>(1u << rng.next_below(8));
    data.insert(data.end(), chunk.begin(), chunk.end());
  }
  const auto compressed = deflate_compress(data);
  EXPECT_EQ(deflate_decompress(compressed), data);
  EXPECT_LT(compressed.size(), data.size() / 4);
}

TEST(Deflate, MultiBlockStreams) {
  // 200 kB of four-letter noise spans several DEFLATE blocks.
  Rng rng(29);
  std::vector<std::uint8_t> data(200000);
  for (auto& b : data) {
    b = static_cast<std::uint8_t>('a' + rng.next_below(4));
  }
  const auto compressed = deflate_compress(data);
  EXPECT_EQ(deflate_decompress(compressed), data);
}

TEST(Deflate, StoredBlocksDecodable) {
  // A hand-crafted stored block: BFINAL=1 BTYPE=00, LEN=3.
  const std::vector<std::uint8_t> stream = {0x01, 0x03, 0x00, 0xFC, 0xFF,
                                            'x',  'y',  'z'};
  EXPECT_EQ(deflate_decompress(stream), bytes_of("xyz"));
}

TEST(Deflate, CorruptStreamsThrow) {
  const auto data = bytes_of("hello world hello world hello world");
  auto compressed = deflate_compress(data);
  // Truncation.
  const std::span<const std::uint8_t> truncated(compressed.data(),
                                                compressed.size() / 2);
  EXPECT_THROW((void)deflate_decompress(truncated), std::runtime_error);
  // Invalid block type 11 at the start.
  const std::vector<std::uint8_t> bad_type = {0x07};
  EXPECT_THROW((void)deflate_decompress(bad_type), std::runtime_error);
}

TEST(Gzip, ContainerRoundTrip) {
  const auto data = bytes_of("zipline compresses packets at line speed");
  const auto container = gzip_compress(data);
  // RFC 1952 magic.
  ASSERT_GE(container.size(), 18u);
  EXPECT_EQ(container[0], 0x1F);
  EXPECT_EQ(container[1], 0x8B);
  EXPECT_EQ(container[2], 0x08);
  EXPECT_EQ(gzip_decompress(container), data);
}

TEST(Gzip, DetectsCorruptedPayload) {
  const auto data = bytes_of("payload payload payload payload");
  auto container = gzip_compress(data);
  // Flip a bit in the stored CRC.
  container[container.size() - 6] ^= 1;
  EXPECT_THROW((void)gzip_decompress(container), std::runtime_error);
}

TEST(Gzip, DetectsWrongLength) {
  const auto data = bytes_of("payload payload payload payload");
  auto container = gzip_compress(data);
  // Flip a bit in the stored ISIZE (input length mod 2^32).
  container[container.size() - 4] ^= 1;
  EXPECT_THROW((void)gzip_decompress(container), std::runtime_error);
}

TEST(Gzip, RejectsTrailingBytes) {
  auto container = gzip_compress(bytes_of("payload"));
  container.push_back(0);
  EXPECT_THROW((void)gzip_decompress(container), std::runtime_error);
}

TEST(Gzip, RejectsBadMagic) {
  std::vector<std::uint8_t> garbage(32, 0xAA);
  EXPECT_THROW((void)gzip_decompress(garbage), std::runtime_error);
  EXPECT_THROW((void)gzip_decompress(std::vector<std::uint8_t>{0x1F}),
               std::runtime_error);
}

// Property sweep: deterministic pseudo-random inputs of many sizes and
// alphabet widths all round-trip.
struct DeflateCase {
  std::size_t size;
  int alphabet;
};

class DeflateRoundTrip : public ::testing::TestWithParam<DeflateCase> {};

TEST_P(DeflateRoundTrip, Lossless) {
  const auto [size, alphabet] = GetParam();
  Rng rng(size * 31 + static_cast<std::uint64_t>(alphabet));
  std::vector<std::uint8_t> data(size);
  for (auto& b : data) {
    b = static_cast<std::uint8_t>(rng.next_below(
        static_cast<std::uint64_t>(alphabet)));
  }
  EXPECT_EQ(deflate_decompress(deflate_compress(data)), data);
  EXPECT_EQ(gzip_decompress(gzip_compress(data)), data);
}

INSTANTIATE_TEST_SUITE_P(
    SizesAndAlphabets, DeflateRoundTrip,
    ::testing::Values(DeflateCase{1, 1}, DeflateCase{100, 2},
                      DeflateCase{1000, 3}, DeflateCase{4096, 16},
                      DeflateCase{65535, 64}, DeflateCase{65536, 256},
                      DeflateCase{100001, 5}, DeflateCase{300000, 200}));

}  // namespace
}  // namespace zipline::baseline
