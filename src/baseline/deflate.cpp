#include "baseline/deflate.hpp"

#include <zlib.h>

#include <algorithm>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>

namespace zipline::baseline {

namespace {

/// zlib's windowBits: a negative value selects raw DEFLATE, +16 the gzip
/// wrapper. Both use the full 32 KiB window.
constexpr int kRawDeflate = -MAX_WBITS;
constexpr int kGzip = MAX_WBITS + 16;
/// The gzip tool's default level, and zlib's default memory level.
constexpr int kLevel = 6;
constexpr int kMemLevel = 8;

/// zlib counts bytes in 32-bit uInt, so buffers are handed over at most
/// this many bytes at a time.
constexpr std::size_t kMaxStep = std::numeric_limits<uInt>::max();

/// Runs `step` (a deflate or inflate call) over `input` until zlib stops,
/// growing `out` whenever zlib fills it; returns the code zlib stopped on
/// (anything but Z_OK). On return `out` holds exactly the bytes produced.
template <typename Step>
int pump(z_stream& zs, std::span<const std::uint8_t> input,
         std::vector<std::uint8_t>& out, Step step) {
  // zlib's API is not const-correct; it never writes through next_in.
  zs.next_in = const_cast<Bytef*>(input.data());
  std::size_t in_left = input.size();
  int rc = Z_OK;
  while (rc == Z_OK) {
    if (zs.avail_in == 0 && in_left > 0) {
      zs.avail_in = static_cast<uInt>(std::min(in_left, kMaxStep));
      in_left -= zs.avail_in;
    }
    if (zs.avail_out == 0) {
      const std::size_t produced = zs.total_out;
      if (produced == out.size()) {
        out.resize(std::max<std::size_t>(64, 2 * out.size()));
      }
      zs.next_out = out.data() + produced;
      zs.avail_out =
          static_cast<uInt>(std::min(out.size() - produced, kMaxStep));
    }
    rc = step(in_left == 0 ? Z_FINISH : Z_NO_FLUSH);
  }
  out.resize(zs.total_out);
  return rc;
}

std::vector<std::uint8_t> compress(std::span<const std::uint8_t> input,
                                   int window_bits) {
  z_stream zs{};
  if (deflateInit2(&zs, kLevel, Z_DEFLATED, window_bits, kMemLevel,
                   Z_DEFAULT_STRATEGY) != Z_OK) {
    throw std::runtime_error("zlib: deflateInit2 failed");
  }
  const std::unique_ptr<z_stream, decltype(&deflateEnd)> end(&zs, deflateEnd);
  std::vector<std::uint8_t> out(deflateBound(&zs, input.size()));
  const int rc = pump(zs, input, out,
                      [&zs](int flush) { return deflate(&zs, flush); });
  if (rc != Z_STREAM_END) throw std::runtime_error("zlib: deflate failed");
  return out;
}

std::vector<std::uint8_t> decompress(std::span<const std::uint8_t> input,
                                     int window_bits, const char* format) {
  z_stream zs{};
  if (inflateInit2(&zs, window_bits) != Z_OK) {
    throw std::runtime_error("zlib: inflateInit2 failed");
  }
  const std::unique_ptr<z_stream, decltype(&inflateEnd)> end(&zs, inflateEnd);
  std::vector<std::uint8_t> out(2 * input.size());
  const int rc = pump(zs, input, out,
                      [&zs](int) { return inflate(&zs, Z_NO_FLUSH); });
  if (rc != Z_STREAM_END) {
    throw std::runtime_error(std::string(format) + ": " +
                             (zs.msg != nullptr ? zs.msg : "truncated stream"));
  }
  if (zs.total_in != input.size()) {
    throw std::runtime_error(std::string(format) +
                             ": trailing bytes after the end of the stream");
  }
  return out;
}

}  // namespace

std::vector<std::uint8_t> deflate_compress(
    std::span<const std::uint8_t> input) {
  return compress(input, kRawDeflate);
}

std::vector<std::uint8_t> deflate_decompress(
    std::span<const std::uint8_t> compressed) {
  return decompress(compressed, kRawDeflate, "deflate");
}

std::vector<std::uint8_t> gzip_compress(std::span<const std::uint8_t> input) {
  return compress(input, kGzip);
}

std::vector<std::uint8_t> gzip_decompress(
    std::span<const std::uint8_t> container) {
  return decompress(container, kGzip, "gzip");
}

}  // namespace zipline::baseline
