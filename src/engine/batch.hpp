// Reusable batch arenas for the ZipLine engine.
//
// A batch is a flat byte arena plus a descriptor array: no per-packet heap
// objects, no vector-of-vectors. clear() drops the contents but keeps the
// capacity, so a batch reused across calls stops touching the allocator
// once it has grown to the working-set size — the property the engine's
// line-rate claim rests on (see engine/README.md).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "gd/packet.hpp"

namespace zipline::engine {

/// One encoded packet inside an EncodeBatch: wire payload bytes live at
/// [offset, offset + size) of the batch arena.
struct PacketDesc {
  gd::PacketType type = gd::PacketType::raw;
  std::uint32_t offset = 0;
  std::uint32_t size = 0;
  std::uint32_t syndrome = 0;   ///< types 2/3
  std::uint32_t basis_id = 0;   ///< type 3 only
};

/// Encoded packets, flat. Also usable as a staging area for raw chunk
/// frames (descriptors with type raw) fed to the switch model or a host.
class EncodeBatch {
 public:
  /// Drops all packets, keeping the arena capacity.
  void clear() noexcept {
    storage_.clear();
    packets_.clear();
  }

  void reserve(std::size_t packet_count, std::size_t storage_bytes) {
    packets_.reserve(packet_count);
    storage_.reserve(storage_bytes);
  }

  [[nodiscard]] bool empty() const noexcept { return packets_.empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return packets_.size(); }
  [[nodiscard]] std::size_t storage_bytes() const noexcept {
    return storage_.size();
  }

  [[nodiscard]] std::span<const PacketDesc> packets() const noexcept {
    return packets_;
  }
  [[nodiscard]] const PacketDesc& packet(std::size_t i) const {
    return packets_[i];
  }
  [[nodiscard]] std::span<const std::uint8_t> storage() const noexcept {
    return storage_;
  }
  [[nodiscard]] std::span<const std::uint8_t> payload(
      const PacketDesc& desc) const {
    return std::span(storage_).subspan(desc.offset, desc.size);
  }
  [[nodiscard]] std::span<const std::uint8_t> payload(std::size_t i) const {
    return payload(packets_[i]);
  }

  /// Appends one packet whose serialized wire payload is `bytes`.
  void append(gd::PacketType type, std::uint32_t syndrome,
              std::uint32_t basis_id, std::span<const std::uint8_t> bytes);

 private:
  std::vector<std::uint8_t> storage_;
  std::vector<PacketDesc> packets_;
};

/// One decoded chunk inside a DecodeBatch.
struct ChunkDesc {
  gd::PacketType from_type = gd::PacketType::raw;  ///< wire type it came from
  std::uint32_t offset = 0;
  std::uint32_t size = 0;
};

/// Decoded output, flat. Chunks land in arrival order, so bytes() IS the
/// reassembled payload when the stream carries chunks followed by a raw
/// tail (the encoder's framing).
class DecodeBatch {
 public:
  void clear() noexcept {
    bytes_.clear();
    chunks_.clear();
  }

  void reserve(std::size_t chunk_count, std::size_t byte_count) {
    chunks_.reserve(chunk_count);
    bytes_.reserve(byte_count);
  }

  [[nodiscard]] bool empty() const noexcept { return chunks_.empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return chunks_.size(); }
  [[nodiscard]] std::span<const std::uint8_t> bytes() const noexcept {
    return bytes_;
  }
  [[nodiscard]] std::span<const ChunkDesc> chunks() const noexcept {
    return chunks_;
  }
  [[nodiscard]] std::span<const std::uint8_t> chunk(std::size_t i) const {
    const ChunkDesc& d = chunks_[i];
    return std::span(bytes_).subspan(d.offset, d.size);
  }

  /// Copies the reassembled payload out (prefer reading bytes() directly).
  [[nodiscard]] std::vector<std::uint8_t> to_vector() const {
    return bytes_;
  }

  /// Moves the reassembled payload out, leaving the batch empty (the
  /// zero-copy hand-off for callers that own the batch).
  [[nodiscard]] std::vector<std::uint8_t> release_bytes() {
    std::vector<std::uint8_t> out = std::move(bytes_);
    clear();
    return out;
  }

  /// Appends one recovered chunk's bytes (or pass-through raw bytes:
  /// type-1 packets / tails, from_type raw).
  void append(gd::PacketType from_type, std::span<const std::uint8_t> bytes);

 private:
  std::vector<std::uint8_t> bytes_;
  std::vector<ChunkDesc> chunks_;
};

}  // namespace zipline::engine
