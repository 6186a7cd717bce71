// Batch engine correctness: the batch path must be byte-identical to the
// per-chunk GdEncoder/GdDecoder adapter path (they are the same state
// machine), round-trip losslessly under every eviction policy and batch
// size, and stream into sinks without changing a byte.
#include "engine/engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <tuple>
#include <vector>

#include "common/rng.hpp"
#include "engine/sink.hpp"
#include "gd/codec.hpp"
#include "net/pcap.hpp"

namespace zipline::engine {
namespace {

using gd::EvictionPolicy;
using gd::GdParams;
using gd::PacketType;

std::vector<std::uint8_t> random_bytes(Rng& rng, std::size_t count) {
  std::vector<std::uint8_t> out(count);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.next_u64());
  return out;
}

/// Payload with redundancy: chunks drawn from a small pool with single-bit
/// noise, so hits, misses and (with a small dictionary) evictions all occur.
std::vector<std::uint8_t> redundant_payload(Rng& rng, std::size_t chunks,
                                            std::size_t chunk_bytes,
                                            std::size_t pool_size) {
  std::vector<std::vector<std::uint8_t>> pool;
  pool.reserve(pool_size);
  for (std::size_t i = 0; i < pool_size; ++i) {
    pool.push_back(random_bytes(rng, chunk_bytes));
  }
  std::vector<std::uint8_t> payload;
  payload.reserve(chunks * chunk_bytes);
  for (std::size_t i = 0; i < chunks; ++i) {
    auto chunk = pool[rng.next_below(pool.size())];
    if (rng.next_bool(0.5)) {
      chunk[rng.next_below(chunk.size())] ^=
          static_cast<std::uint8_t>(1u << rng.next_below(8));
    }
    payload.insert(payload.end(), chunk.begin(), chunk.end());
  }
  return payload;
}

class BatchProperty
    : public ::testing::TestWithParam<std::tuple<EvictionPolicy, std::size_t>> {
};

// The acceptance property: random payloads, all three eviction policies,
// batch sizes 1/7/64 and one chunk past three unit windows — batch
// results byte-identical to the per-chunk adapter, and decode restores
// the exact input.
TEST_P(BatchProperty, ByteIdenticalToAdapterAndLossless) {
  const auto [policy, batch_chunks] = GetParam();
  GdParams params;
  params.id_bits = 4;  // 16 entries: small enough to force evictions
  Rng rng(0xE11 + static_cast<std::uint64_t>(batch_chunks) * 31 +
          static_cast<std::uint64_t>(policy));

  Engine batch_encoder{params, policy};
  Engine batch_decoder{params, policy};
  gd::GdEncoder adapter_encoder{params, policy};
  gd::GdDecoder adapter_decoder{params, policy};

  EncodeBatch encoded;
  DecodeBatch decoded;
  for (int round = 0; round < 8; ++round) {
    // Odd tail on some rounds exercises the raw record path.
    const std::size_t tail = (round % 2 == 0) ? 0 : 5 + rng.next_below(20);
    const auto payload = [&] {
      auto p = redundant_payload(rng, batch_chunks,
                                 params.raw_payload_bytes(), 24);
      const auto extra = random_bytes(rng, tail);
      p.insert(p.end(), extra.begin(), extra.end());
      return p;
    }();

    encoded.clear();
    batch_encoder.encode_payload(payload, encoded);
    const auto adapter_packets = adapter_encoder.encode_payload(payload);

    // Packet-for-packet byte identity with the per-chunk adapter.
    ASSERT_EQ(encoded.size(), adapter_packets.size());
    for (std::size_t i = 0; i < encoded.size(); ++i) {
      EXPECT_EQ(encoded.packet(i).type, adapter_packets[i].type);
      const auto serialized = adapter_packets[i].serialize(params);
      const auto view = encoded.payload(i);
      ASSERT_EQ(view.size(), serialized.size());
      EXPECT_TRUE(std::equal(view.begin(), view.end(), serialized.begin()));
    }

    // Identical statistics: same transitions, same accounting.
    EXPECT_EQ(batch_encoder.stats().chunks, adapter_encoder.stats().chunks);
    EXPECT_EQ(batch_encoder.stats().compressed_packets,
              adapter_encoder.stats().compressed_packets);
    EXPECT_EQ(batch_encoder.stats().uncompressed_packets,
              adapter_encoder.stats().uncompressed_packets);
    EXPECT_EQ(batch_encoder.stats().bytes_in,
              adapter_encoder.stats().bytes_in);
    EXPECT_EQ(batch_encoder.stats().bytes_out,
              adapter_encoder.stats().bytes_out);

    // Batch decode restores the exact payload.
    decoded.clear();
    batch_decoder.decode_batch(encoded, decoded);
    ASSERT_EQ(decoded.bytes().size(), payload.size());
    EXPECT_TRUE(std::equal(decoded.bytes().begin(), decoded.bytes().end(),
                           payload.begin()));

    // And so does the adapter decoder fed the adapter packets (mirrored
    // dictionaries stay in sync across both representations).
    EXPECT_EQ(adapter_decoder.decode_payload(adapter_packets), payload);

    // One unit per call, however many windows the payload spans.
    const auto calls = static_cast<std::uint64_t>(round) + 1;
    EXPECT_EQ(batch_encoder.stats().batches, calls);
    EXPECT_EQ(batch_decoder.stats().batches, calls);
  }
}

INSTANTIATE_TEST_SUITE_P(
    PoliciesAndBatchSizes, BatchProperty,
    ::testing::Combine(::testing::Values(EvictionPolicy::lru,
                                         EvictionPolicy::fifo,
                                         EvictionPolicy::random),
                       ::testing::Values(std::size_t{1}, std::size_t{7},
                                         std::size_t{64},
                                         // crosses the unit window
                                         3 * Engine::kWindowChunks + 1)));

void expect_same_stats(const gd::CodecStats& got, const gd::CodecStats& want) {
  EXPECT_EQ(got.chunks, want.chunks);
  EXPECT_EQ(got.raw_packets, want.raw_packets);
  EXPECT_EQ(got.uncompressed_packets, want.uncompressed_packets);
  EXPECT_EQ(got.compressed_packets, want.compressed_packets);
  EXPECT_EQ(got.bytes_in, want.bytes_in);
  EXPECT_EQ(got.bytes_out, want.bytes_out);
}

// The public phases (transform -> resolve -> emit, the shape every batch
// runs) must compose to the exact bytes and stats of the per-chunk
// GdEncoder / GdDecoder reference, raw tail included, in both directions.
TEST(EngineSplitPhase, ComposesToSinglePassBytesAndStats) {
  GdParams params;
  params.id_bits = 5;  // evictions under load
  Rng rng(0x591);
  const auto payload =
      redundant_payload(rng, 64, params.raw_payload_bytes(), 12);
  std::vector<std::uint8_t> ragged = payload;
  ragged.resize(ragged.size() + 7, 0xAB);  // raw tail

  gd::GdEncoder reference{params};
  const auto packets = reference.encode_payload(ragged);

  Engine split{params};
  EncodeUnit unit;
  EncodeBatch split_batch;
  split.encode_transform(ragged, unit);
  split.encode_resolve(unit);
  split.encode_emit(unit, split_batch);

  ASSERT_EQ(split_batch.size(), packets.size());
  EXPECT_EQ(split_batch.packets().back().type, PacketType::raw);
  for (std::size_t i = 0; i < packets.size(); ++i) {
    EXPECT_EQ(split_batch.packet(i).type, packets[i].type);
    const auto want = packets[i].serialize(params);
    const auto got = split_batch.payload(i);
    ASSERT_TRUE(std::equal(got.begin(), got.end(), want.begin(), want.end()))
        << "packet " << i;
  }
  expect_same_stats(split.stats(), reference.stats());
  EXPECT_EQ(split.stats().batches, 1u);

  // Decode side: parse -> resolve -> emit equals the GdDecoder reference.
  gd::GdDecoder dec_reference{params};
  EXPECT_EQ(dec_reference.decode_payload(packets), ragged);

  Engine dec_split{params};
  DecodeUnit dunit;
  DecodeBatch out_split;
  dec_split.decode_parse(split_batch, dunit);
  dec_split.decode_resolve(dunit);
  dec_split.decode_emit(dunit, out_split);

  const auto y = out_split.bytes();
  EXPECT_EQ(std::vector<std::uint8_t>(y.begin(), y.end()), ragged);
  expect_same_stats(dec_split.stats(), dec_reference.stats());
  EXPECT_EQ(dec_split.stats().batches, 1u);
}

TEST(EncodeBatch, ClearKeepsCapacity) {
  Engine engine{GdParams{}};
  Rng rng(2);
  const auto payload = random_bytes(rng, 64 * 32);
  EncodeBatch batch;
  engine.encode_payload(payload, batch);
  EXPECT_EQ(batch.size(), 64u);
  const auto bytes_before = batch.storage_bytes();
  batch.clear();
  EXPECT_TRUE(batch.empty());
  EXPECT_EQ(batch.storage_bytes(), 0u);
  engine.encode_payload(payload, batch);  // second pass: all hits -> type 3
  EXPECT_EQ(batch.size(), 64u);
  EXPECT_LT(batch.storage_bytes(), bytes_before);
  for (const PacketDesc& desc : batch.packets()) {
    EXPECT_EQ(desc.type, PacketType::compressed);
  }
}

TEST(EngineSinks, CountingSinkMatchesDescriptors) {
  GdParams params;
  Engine engine{params};
  Rng rng(3);
  auto payload = random_bytes(rng, 10 * params.raw_payload_bytes());
  payload.resize(payload.size() + 3);  // raw tail
  EncodeBatch batch;
  engine.encode_payload(payload, batch);

  CountingSink counter;
  drain(batch, counter);
  EXPECT_EQ(counter.packets, batch.size());
  EXPECT_EQ(counter.payload_bytes, batch.storage_bytes());
  EXPECT_EQ(counter.raw, 1u);
  EXPECT_EQ(counter.uncompressed + counter.compressed, 10u);
  EXPECT_EQ(counter.uncompressed, engine.stats().uncompressed_packets);
  EXPECT_EQ(counter.compressed, engine.stats().compressed_packets);
}

TEST(EngineSinks, FrameSinkRoundTripsThroughEthernet) {
  GdParams params;
  Engine encoder{params};
  Engine decoder{params};
  Rng rng(4);
  const auto payload = random_bytes(rng, 16 * params.raw_payload_bytes());
  EncodeBatch batch;
  encoder.encode_payload(payload, batch);

  DecodeBatch decoded;
  FrameSink frames(net::MacAddress::local(1), net::MacAddress::local(2),
                   [&](const net::EthernetFrame& frame) {
                     decoder.decode_wire(
                         gd::packet_type_for_ether(frame.ether_type),
                         frame.payload, decoded);
                   });
  drain(batch, frames);
  ASSERT_EQ(decoded.bytes().size(), payload.size());
  EXPECT_TRUE(std::equal(decoded.bytes().begin(), decoded.bytes().end(),
                         payload.begin()));
}

TEST(EngineSinks, PcapSinkWritesReadableCapture) {
  const std::string path = "/tmp/zipline_engine_sink_test.pcap";
  GdParams params;
  Engine encoder{params};
  Rng rng(5);
  const auto payload = random_bytes(rng, 8 * params.raw_payload_bytes());
  EncodeBatch batch;
  encoder.encode_payload(payload, batch);
  {
    net::PcapWriter writer(path);
    PcapSink sink(writer, net::MacAddress::local(1),
                  net::MacAddress::local(2));
    drain(batch, sink);
  }

  Engine decoder{params};
  DecodeBatch decoded;
  net::PcapReader reader(path);
  std::size_t frames = 0;
  while (auto record = reader.next()) {
    const auto frame = net::EthernetFrame::parse(record->data,
                                                 /*verify_fcs=*/false);
    decoder.decode_wire(gd::packet_type_for_ether(frame.ether_type),
                        frame.payload, decoded);
    ++frames;
  }
  EXPECT_EQ(frames, batch.size());
  ASSERT_EQ(decoded.bytes().size(), payload.size());
  EXPECT_TRUE(std::equal(decoded.bytes().begin(), decoded.bytes().end(),
                         payload.begin()));
  std::remove(path.c_str());
}

}  // namespace
}  // namespace zipline::engine
