// DEFLATE (RFC 1951) and gzip (RFC 1952) through zlib.
//
// This is the baseline the paper compares ZipLine against (§7: "we extract
// all payloads in a regular file that we compress with the gzip
// compression tool"), so it calls the library that tool is built on, at
// the tool's default level 6. The paper's point that DEFLATE "requires a
// minimum of 3 kB to compress data" (its 32 KiB window and code tables) is
// what makes it infeasible in-switch — here it runs on the host as the
// comparison point.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace zipline::baseline {

/// Compresses `input` into a raw DEFLATE stream.
[[nodiscard]] std::vector<std::uint8_t> deflate_compress(
    std::span<const std::uint8_t> input);

/// Decompresses a raw DEFLATE stream. Throws std::runtime_error on
/// malformed input.
[[nodiscard]] std::vector<std::uint8_t> deflate_decompress(
    std::span<const std::uint8_t> compressed);

/// Compresses into a gzip container (header + DEFLATE + CRC-32 + size),
/// the `gzip` tool's format.
[[nodiscard]] std::vector<std::uint8_t> gzip_compress(
    std::span<const std::uint8_t> input);

/// Decompresses a gzip container, verifying CRC-32 and length. Throws
/// std::runtime_error on malformed input.
[[nodiscard]] std::vector<std::uint8_t> gzip_decompress(
    std::span<const std::uint8_t> container);

}  // namespace zipline::baseline
