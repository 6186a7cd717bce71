#include "engine/batch.hpp"

#include "common/contracts.hpp"

namespace zipline::engine {

void EncodeBatch::append(gd::PacketType type, std::uint32_t syndrome,
                         std::uint32_t basis_id,
                         std::span<const std::uint8_t> bytes) {
  ZL_EXPECTS(storage_.size() + bytes.size() <= 0xFFFFFFFFu);
  PacketDesc desc;
  desc.type = type;
  desc.offset = static_cast<std::uint32_t>(storage_.size());
  desc.size = static_cast<std::uint32_t>(bytes.size());
  desc.syndrome = syndrome;
  desc.basis_id = basis_id;
  storage_.insert(storage_.end(), bytes.begin(), bytes.end());
  packets_.push_back(desc);
}

void DecodeBatch::append(gd::PacketType from_type,
                         std::span<const std::uint8_t> bytes) {
  ZL_EXPECTS(bytes_.size() + bytes.size() <= 0xFFFFFFFFu);
  ChunkDesc desc;
  desc.from_type = from_type;
  desc.offset = static_cast<std::uint32_t>(bytes_.size());
  desc.size = static_cast<std::uint32_t>(bytes.size());
  bytes_.insert(bytes_.end(), bytes.begin(), bytes.end());
  chunks_.push_back(desc);
}

}  // namespace zipline::engine
