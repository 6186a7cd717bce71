// Backend round-trip properties for the zipline::io burst layer.
//
// The acceptance property of the API redesign: traffic pushed through
// source -> Node(encode) -> sink -> Node(decode) -> source recovers the
// original payloads bit-exactly, across dictionary ownership modes ×
// eviction policies × worker counts — and every arrangement's encoded
// output is byte-identical to the serial reference (workers = 1), which
// is itself the pre-redesign engine path. The pcap backends must
// reproduce the pre-redesign zipline_pcap window loop file-for-file.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <tuple>
#include <vector>

#include "common/contracts.hpp"
#include "common/rng.hpp"
#include "engine/engine.hpp"
#include "io/memory_ring.hpp"
#include "io/node.hpp"
#include "io/pcap_io.hpp"
#include "io/runner.hpp"
#include "io/sim_port.hpp"
#include "io/trace_source.hpp"
#include "net/pcap.hpp"
#include "trace/synthetic.hpp"
#include "zipline/program.hpp"

namespace zipline::io {
namespace {

using engine::DictionaryOwnership;
using engine::Engine;
using engine::FlowSteering;
using gd::EvictionPolicy;
using gd::GdParams;

/// Redundant multi-flow workload: bursts of chunk-pool payloads with bit
/// noise and ragged tails, so hits, misses, evictions and raw packets all
/// occur.
std::vector<Burst> make_workload(Rng& rng, const GdParams& params,
                                 std::size_t bursts, std::size_t packets,
                                 std::size_t flows) {
  const std::size_t chunk_bytes = params.raw_payload_bytes();
  std::vector<std::vector<std::uint8_t>> pool;
  for (int i = 0; i < 24; ++i) {
    std::vector<std::uint8_t> chunk(chunk_bytes);
    for (auto& b : chunk) b = static_cast<std::uint8_t>(rng.next_u64());
    pool.push_back(chunk);
  }
  std::vector<Burst> workload(bursts);
  for (Burst& burst : workload) {
    for (std::size_t p = 0; p < packets; ++p) {
      std::vector<std::uint8_t> payload;
      const std::size_t chunks = 1 + rng.next_below(5);
      for (std::size_t c = 0; c < chunks; ++c) {
        auto chunk = pool[rng.next_below(pool.size())];
        if (rng.next_bool(0.35)) {
          chunk[rng.next_below(chunk.size())] ^=
              static_cast<std::uint8_t>(1u << rng.next_below(8));
        }
        payload.insert(payload.end(), chunk.begin(), chunk.end());
      }
      if (rng.next_bool(0.25)) {
        for (std::size_t t = 0; t < 1 + rng.next_below(9); ++t) {
          payload.push_back(static_cast<std::uint8_t>(rng.next_u64()));
        }
      }
      PacketMeta meta;
      meta.flow = static_cast<std::uint32_t>(rng.next_below(flows));
      meta.timestamp_us = p;
      meta.process = true;
      burst.append(gd::PacketType::raw, 0, 0, payload, meta);
    }
  }
  return workload;
}

bool same_packets(const Burst& a, const Burst& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const engine::PacketDesc& x = a.desc(i);
    const engine::PacketDesc& y = b.desc(i);
    if (x.type != y.type || x.syndrome != y.syndrome ||
        x.basis_id != y.basis_id) {
      return false;
    }
    const auto pa = a.payload(i);
    const auto pb = b.payload(i);
    if (!std::equal(pa.begin(), pa.end(), pb.begin(), pb.end())) return false;
    if (a.meta(i).flow != b.meta(i).flow ||
        a.meta(i).ether_type != b.meta(i).ether_type) {
      return false;
    }
  }
  return true;
}

NodeOptions base_options(DictionaryOwnership ownership, EvictionPolicy policy,
                         std::size_t workers, const GdParams& params) {
  NodeOptions options = NodeOptions{}
                            .with_params(params)
                            .with_ownership(ownership)
                            .with_policy(policy)
                            .with_workers(workers)
                            .with_shards(2)
                            .with_queue_depth(4);
  if (ownership == DictionaryOwnership::shared && workers > 1) {
    options.with_steering(FlowSteering::load_aware);
  }
  return options;
}

/// The six codec counters. EngineStats::batches counts emitted units,
/// which differ by arrangement — see expected_batches.
void expect_same_engine_stats(const engine::EngineStats& got,
                              const engine::EngineStats& want) {
  EXPECT_EQ(got.chunks, want.chunks);
  EXPECT_EQ(got.raw_packets, want.raw_packets);
  EXPECT_EQ(got.uncompressed_packets, want.uncompressed_packets);
  EXPECT_EQ(got.compressed_packets, want.compressed_packets);
  EXPECT_EQ(got.bytes_in, want.bytes_in);
  EXPECT_EQ(got.bytes_out, want.bytes_out);
}

/// EngineStats::batches of a node that processed `bursts`: a serial node
/// emits one unit per engine per burst (one engine under shared
/// ownership, one per flow under per_flow), the worker pool one per
/// processed packet.
std::uint64_t expected_batches(const std::vector<Burst>& bursts,
                               DictionaryOwnership ownership,
                               std::size_t workers) {
  std::uint64_t units = 0;
  for (const Burst& burst : bursts) {
    std::set<std::uint32_t> engines;
    for (std::size_t i = 0; i < burst.size(); ++i) {
      if (!burst.meta(i).process) continue;
      if (workers > 1) {
        ++units;
      } else {
        engines.insert(ownership == DictionaryOwnership::shared
                           ? 0
                           : burst.meta(i).flow);
      }
    }
    units += engines.size();
  }
  return units;
}

class BackendRoundTrip
    : public ::testing::TestWithParam<
          std::tuple<DictionaryOwnership, EvictionPolicy, std::size_t>> {};

// source -> Node(encode) -> ring -> Node(decode) -> ring recovers every
// payload, and the encoded stream is byte-identical to the serial
// (workers = 1) reference — the pre-redesign engine path.
TEST_P(BackendRoundTrip, RingNodeRingNodeRecoversPayloads) {
  const auto [ownership, policy, workers] = GetParam();
  GdParams params;
  params.id_bits = 6;  // small table -> evictions under load
  Rng rng(0x10B5 + static_cast<std::uint64_t>(policy) * 31 + workers * 7 +
          (ownership == DictionaryOwnership::shared ? 1000 : 0));
  const std::vector<Burst> workload =
      make_workload(rng, params, /*bursts=*/6, /*packets=*/24, /*flows=*/6);

  // Stage the workload into a ring, as a NIC RX queue would.
  MemoryRing rx_ring(workload.size());
  for (const Burst& burst : workload) {
    ASSERT_TRUE(rx_ring.try_push(burst));
  }

  // Encode through the configured arrangement.
  MemoryRing encoded_ring(workload.size());
  Node encoder(base_options(ownership, policy, workers, params)
                   .with_direction(Direction::encode));
  {
    MemoryRingSource source(rx_ring);
    MemoryRingSink sink(encoded_ring);
    Runner runner;
    const RunnerStats stats = runner.run(source, encoder, sink);
    EXPECT_EQ(stats.bursts, workload.size());
    EXPECT_EQ(sink.dropped_bursts(), 0u);
  }

  // Serial reference: the same traffic through workers = 1 (per_flow:
  // one private engine per flow; shared: ONE engine in submission order
  // — the two pre-redesign serial arrangements).
  std::vector<Burst> reference(workload.size());
  Node serial(base_options(ownership, policy, /*workers=*/1, params)
                  .with_direction(Direction::encode));
  for (std::size_t b = 0; b < workload.size(); ++b) {
    serial.process(workload[b], reference[b]);
  }
  // Every arrangement accounts the same traffic identically; only the
  // number of emitted units depends on the arrangement.
  expect_same_engine_stats(encoder.stats().engine, serial.stats().engine);
  EXPECT_EQ(encoder.stats().engine.batches,
            expected_batches(workload, ownership, workers));
  EXPECT_EQ(serial.stats().engine.batches,
            expected_batches(workload, ownership, 1));

  // Decode back through the mirrored arrangement and compare.
  MemoryRing decoded_ring(workload.size());
  Node decoder(base_options(ownership, policy, workers, params)
                   .with_direction(Direction::decode));
  {
    MemoryRingSource source(encoded_ring);
    MemoryRingSink sink(decoded_ring);
    Runner runner;
    runner.run(source, decoder, sink);
    EXPECT_EQ(sink.dropped_bursts(), 0u);
  }
  Node serial_decoder(base_options(ownership, policy, /*workers=*/1, params)
                          .with_direction(Direction::decode));
  for (const Burst& burst : reference) {
    Burst restored;
    serial_decoder.process(burst, restored);
  }
  expect_same_engine_stats(decoder.stats().engine,
                           serial_decoder.stats().engine);
  EXPECT_EQ(decoder.stats().engine.batches,
            expected_batches(reference, ownership, workers));
  EXPECT_EQ(serial_decoder.stats().engine.batches,
            expected_batches(reference, ownership, 1));

  // A multi-chunk payload fans out into several wire packets (chunks +
  // raw tail), each of which decodes to its own packet — packet counts
  // differ, but the byte STREAM must survive the full loop, globally and
  // per flow (which also proves flow keys ride the metadata correctly).
  const auto flatten = [](const Burst& burst, std::map<std::uint32_t,
                          std::vector<std::uint8_t>>& per_flow,
                          std::vector<std::uint8_t>& all) {
    for (std::size_t i = 0; i < burst.size(); ++i) {
      const auto payload = burst.payload(i);
      all.insert(all.end(), payload.begin(), payload.end());
      auto& f = per_flow[burst.meta(i).flow];
      f.insert(f.end(), payload.begin(), payload.end());
    }
  };
  Burst decoded;
  for (std::size_t b = 0; b < workload.size(); ++b) {
    ASSERT_TRUE(decoded_ring.try_pop(decoded)) << "burst " << b;
    std::map<std::uint32_t, std::vector<std::uint8_t>> got_flows;
    std::vector<std::uint8_t> got_all;
    flatten(decoded, got_flows, got_all);
    std::map<std::uint32_t, std::vector<std::uint8_t>> want_flows;
    std::vector<std::uint8_t> want_all;
    flatten(workload[b], want_flows, want_all);
    ASSERT_EQ(got_all, want_all) << "burst " << b;
    ASSERT_EQ(got_flows, want_flows) << "burst " << b;
  }

  // Re-encode to verify byte-identity (the ring was consumed): every
  // arrangement must equal its serial reference packet-for-packet.
  Node encoder2(base_options(ownership, policy, workers, params)
                    .with_direction(Direction::encode));
  Burst out;
  for (std::size_t b = 0; b < workload.size(); ++b) {
    out.clear();
    encoder2.process(workload[b], out);
    ASSERT_TRUE(same_packets(out, reference[b]))
        << "burst " << b << " diverged from the serial reference";
  }
}

INSTANTIATE_TEST_SUITE_P(
    OwnershipPolicyWorkers, BackendRoundTrip,
    ::testing::Combine(::testing::Values(DictionaryOwnership::per_flow,
                                         DictionaryOwnership::shared),
                       ::testing::Values(EvictionPolicy::lru,
                                         EvictionPolicy::fifo,
                                         EvictionPolicy::random),
                       ::testing::Values(std::size_t{1}, std::size_t{4})));

/// Traffic shaped to stress a serial node's burst-level engine unit:
/// passthrough interleaved with processed packets, payloads with raw
/// tails, chunkless tail-only and empty payloads, bursts whose rows cross
/// window boundaries, one payload longer than a window, and one burst of
/// more packets than a window holds. Chunks come from a pool larger than
/// a 64-entry dictionary, so evictions happen inside one unit.
std::vector<Burst> make_unit_workload(Rng& rng, const GdParams& params) {
  const std::size_t chunk_bytes = params.raw_payload_bytes();
  std::vector<std::vector<std::uint8_t>> pool(96);
  for (auto& chunk : pool) {
    chunk.resize(chunk_bytes);
    for (auto& b : chunk) b = static_cast<std::uint8_t>(rng.next_u64());
  }
  const auto random_payload = [&](std::size_t chunks, std::size_t tail) {
    std::vector<std::uint8_t> payload;
    for (std::size_t c = 0; c < chunks; ++c) {
      auto chunk = pool[rng.next_below(pool.size())];
      if (rng.next_bool(0.3)) chunk[rng.next_below(chunk_bytes)] ^= 0x10;
      payload.insert(payload.end(), chunk.begin(), chunk.end());
    }
    for (std::size_t t = 0; t < tail; ++t) {
      payload.push_back(static_cast<std::uint8_t>(rng.next_u64()));
    }
    return payload;
  };
  const auto add = [&](Burst& burst, std::vector<std::uint8_t> payload,
                       bool process) {
    PacketMeta meta;
    meta.flow = static_cast<std::uint32_t>(rng.next_below(3));
    meta.timestamp_us = burst.size();
    meta.ether_type = process ? 0 : 0x0800;
    meta.process = process;
    burst.append(gd::PacketType::raw, 0, 0, payload, meta);
  };
  std::vector<Burst> bursts;
  for (int round = 0; round < 3; ++round) {
    // ~3.5 chunks per packet: more than one 256-row window per flow.
    Burst& mixed = bursts.emplace_back();
    for (int p = 0; p < 300; ++p) {
      const std::size_t chunks = rng.next_below(8);
      const std::size_t tail =
          rng.next_bool(0.3) ? 1 + rng.next_below(chunk_bytes - 1) : 0;
      add(mixed, random_payload(chunks, tail), !rng.next_bool(0.15));
    }
  }
  Burst& long_payload = bursts.emplace_back();
  add(long_payload, random_payload(2, 0), false);
  add(long_payload, random_payload(Engine::kWindowChunks + 45, 7), true);
  add(long_payload, random_payload(3, 0), true);
  Burst& tails = bursts.emplace_back();
  for (std::size_t p = 0; p < 3 * Engine::kWindowChunks + 60; ++p) {
    add(tails, random_payload(0, 1 + rng.next_below(chunk_bytes - 1)),
        p % 7 != 3);
  }
  return bursts;
}

/// The per-packet reference a serial node must match: one
/// Engine::encode_payload or decode_wire call per processed packet, in
/// input order, on one engine per flow (per_flow) or one engine for all
/// (shared); passthrough copied through.
class PerPacketReference {
 public:
  explicit PerPacketReference(const NodeOptions& options)
      : options_(options) {}

  void process(const Burst& in, Burst& out) {
    for (std::size_t i = 0; i < in.size(); ++i) {
      PacketMeta meta = in.meta(i);
      if (!meta.process) {
        out.append_from(in, i);
        continue;
      }
      const std::uint32_t key =
          options_.ownership == DictionaryOwnership::shared ? 0 : meta.flow;
      engine::Engine& eng =
          engines_
              .try_emplace(key, options_.params, options_.policy,
                           options_.learn, options_.dictionary_shards)
              .first->second;
      if (options_.direction == Direction::encode) {
        encoded_.clear();
        eng.encode_payload(in.payload(i), encoded_);
        for (const engine::PacketDesc& desc : encoded_.packets()) {
          meta.ether_type = gd::ether_type_for(desc.type);
          out.append(desc.type, desc.syndrome, desc.basis_id,
                     encoded_.payload(desc), meta);
        }
      } else {
        decoded_.clear();
        eng.decode_wire(in.desc(i).type, in.payload(i), decoded_);
        meta.ether_type = gd::ether_type_for(gd::PacketType::raw);
        out.append(gd::PacketType::raw, 0, 0, decoded_.bytes(), meta);
      }
    }
  }

  [[nodiscard]] engine::EngineStats stats() const {
    engine::EngineStats total;
    for (const auto& [key, eng] : engines_) {
      const engine::EngineStats& s = eng.stats();
      total.chunks += s.chunks;
      total.raw_packets += s.raw_packets;
      total.uncompressed_packets += s.uncompressed_packets;
      total.compressed_packets += s.compressed_packets;
      total.bytes_in += s.bytes_in;
      total.bytes_out += s.bytes_out;
    }
    return total;
  }

 private:
  NodeOptions options_;
  std::map<std::uint32_t, engine::Engine> engines_;
  engine::EncodeBatch encoded_;
  engine::DecodeBatch decoded_;
};

class SerialUnitProperty
    : public ::testing::TestWithParam<
          std::tuple<DictionaryOwnership, EvictionPolicy>> {};

// A serial node runs each burst as one engine unit per engine; packet for
// packet and counter for counter it must equal the per-packet reference,
// in both directions, and the round trip must restore every payload.
TEST_P(SerialUnitProperty, BurstUnitEqualsPerPacketReference) {
  const auto [ownership, policy] = GetParam();
  GdParams params;
  params.id_bits = 6;  // 64 entries: evictions inside one unit
  Rng rng(0x5E41 + static_cast<std::uint64_t>(policy) * 13 +
          (ownership == DictionaryOwnership::shared ? 500 : 0));
  const std::vector<Burst> workload = make_unit_workload(rng, params);

  const NodeOptions options = base_options(ownership, policy, 1, params);
  Node encoder(NodeOptions(options).with_direction(Direction::encode));
  PerPacketReference encode_ref(
      NodeOptions(options).with_direction(Direction::encode));
  Node decoder(NodeOptions(options).with_direction(Direction::decode));
  PerPacketReference decode_ref(
      NodeOptions(options).with_direction(Direction::decode));
  for (std::size_t b = 0; b < workload.size(); ++b) {
    Burst encoded;
    Burst want_encoded;
    encoder.process(workload[b], encoded);
    encode_ref.process(workload[b], want_encoded);
    ASSERT_TRUE(same_packets(encoded, want_encoded)) << "encode, burst " << b;

    Burst decoded;
    Burst want_decoded;
    decoder.process(encoded, decoded);
    decode_ref.process(encoded, want_decoded);
    ASSERT_TRUE(same_packets(decoded, want_decoded)) << "decode, burst " << b;

    // Each processed packet's chunks and tail decode back to its payload.
    std::vector<std::uint8_t> got;
    std::vector<std::uint8_t> want;
    for (std::size_t i = 0; i < decoded.size(); ++i) {
      got.insert(got.end(), decoded.payload(i).begin(),
                 decoded.payload(i).end());
    }
    for (std::size_t i = 0; i < workload[b].size(); ++i) {
      want.insert(want.end(), workload[b].payload(i).begin(),
                  workload[b].payload(i).end());
    }
    ASSERT_EQ(got, want) << "round trip, burst " << b;
  }
  expect_same_engine_stats(encoder.stats().engine, encode_ref.stats());
  expect_same_engine_stats(decoder.stats().engine, decode_ref.stats());
  EXPECT_GT(encoder.stats().dictionary.evictions, 0u);
  EXPECT_EQ(encoder.stats().engine.batches,
            expected_batches(workload, ownership, 1));
}

INSTANTIATE_TEST_SUITE_P(
    OwnershipPolicy, SerialUnitProperty,
    ::testing::Combine(::testing::Values(DictionaryOwnership::per_flow,
                                         DictionaryOwnership::shared),
                       ::testing::Values(EvictionPolicy::lru,
                                         EvictionPolicy::fifo,
                                         EvictionPolicy::random)));

// Passthrough packets traverse the node untouched and keep their
// positions between processed packets — in both the serial and the
// parallel arrangement.
TEST(NodePassthrough, PositionsAndBytesSurvive) {
  GdParams params;
  Rng rng(0xAA55);
  for (const std::size_t workers : {std::size_t{1}, std::size_t{3}}) {
    Burst in;
    std::vector<std::size_t> passthrough_positions;
    for (std::size_t i = 0; i < 40; ++i) {
      PacketMeta meta;
      meta.flow = static_cast<std::uint32_t>(i % 5);
      meta.ether_type = 0x0800;
      std::vector<std::uint8_t> payload;
      if (rng.next_bool(0.4)) {
        meta.process = false;
        payload.resize(10 + rng.next_below(60));
        passthrough_positions.push_back(i);
      } else {
        meta.process = true;
        payload.resize(params.raw_payload_bytes());
      }
      for (auto& b : payload) b = static_cast<std::uint8_t>(rng.next_u64());
      in.append(gd::PacketType::raw, 0, 0, payload, meta);
    }

    Node node(NodeOptions{}
                  .with_params(params)
                  .with_workers(workers)
                  .with_shared_dictionary()
                  .with_queue_depth(4));
    Burst out;
    node.process(in, out);
    ASSERT_EQ(out.size(), in.size());
    for (std::size_t i = 0; i < in.size(); ++i) {
      if (!in.meta(i).process) {
        const auto got = out.payload(i);
        const auto want = in.payload(i);
        EXPECT_TRUE(std::equal(got.begin(), got.end(), want.begin(),
                               want.end()))
            << "passthrough packet " << i << " (workers " << workers << ")";
        EXPECT_EQ(out.meta(i).ether_type, in.meta(i).ether_type);
        EXPECT_FALSE(out.meta(i).process);
      } else {
        EXPECT_NE(out.desc(i).type, gd::PacketType::raw);
        EXPECT_NE(out.meta(i).ether_type, 0x0800);
      }
    }
    EXPECT_EQ(node.stats().passthrough, passthrough_positions.size());
  }
}

// A stage failure inside a parallel burst (here: a full-size type-3
// packet referencing an identifier nobody installed) must surface at
// process() as the ferried engine error — not as a drain-cursor
// violation — drop only the failed unit's output, keep every other
// packet, and leave the node usable for the next burst.
TEST(NodeErrors, ParallelStageFailureSurfacesAndNodeStaysUsable) {
  GdParams params;
  Node node(NodeOptions{}
                .with_direction(Direction::decode)
                .with_params(params)
                .with_workers(2)
                .with_shared_dictionary()
                .with_steering(FlowSteering::load_aware)
                .with_queue_depth(4));

  // A healthy type-2 wire packet to ride along with the poisoned one.
  engine::Engine encoder(params);
  Rng rng(0xBAD10);
  std::vector<std::uint8_t> payload(params.raw_payload_bytes());
  for (auto& b : payload) b = static_cast<std::uint8_t>(rng.next_u64());
  engine::EncodeBatch healthy;
  encoder.encode_payload(payload, healthy);
  ASSERT_EQ(healthy.packet(0).type, gd::PacketType::uncompressed);

  Burst in;
  PacketMeta meta;
  meta.flow = 1;
  const std::vector<std::uint8_t> poison(params.type3_payload_bytes(), 0);
  in.append(gd::PacketType::compressed, 0, 0, poison, meta);  // unknown ID
  meta.flow = 2;
  meta.process = false;
  in.append(gd::PacketType::raw, 0, 0, payload, meta);  // passthrough
  meta.flow = 3;
  meta.process = true;
  in.append(healthy.packet(0).type, 0, 0, healthy.payload(0), meta);

  Burst out;
  EXPECT_THROW(node.process(in, out), ContractViolation);

  // Next burst flows normally: the pipeline drained before rethrowing.
  Burst in2;
  meta.flow = 3;
  in2.append(healthy.packet(0).type, 0, 0, healthy.payload(0), meta);
  Burst out2;
  node.process(in2, out2);
  ASSERT_EQ(out2.size(), 1u);
  const auto got = out2.payload(0);
  EXPECT_TRUE(std::equal(got.begin(), got.end(), payload.begin(),
                         payload.end()));
}

// The serial twin: a decode burst carrying an unknown-ID type-3 packet or
// a truncated type-2 packet throws ContractViolation out of process(), and
// the next bursts on the same node decode bit-exactly — no stale rows or
// tails survive in the burst-level unit scratch. The poisoned bursts
// teach the dictionary nothing (raw packets only around the bad one), so
// the mirrored dictionaries stay in step.
TEST(NodeErrors, SerialDecodeFailureLeavesNoStaleUnitState) {
  const GdParams params;
  for (const auto ownership :
       {DictionaryOwnership::per_flow, DictionaryOwnership::shared}) {
    Rng rng(0x5E7A1);
    const std::vector<Burst> workload =
        make_workload(rng, params, /*bursts=*/3, /*packets=*/40, /*flows=*/3);
    Node encoder(NodeOptions{}.with_params(params).with_ownership(ownership));
    Node decoder(NodeOptions{}
                     .with_direction(Direction::decode)
                     .with_params(params)
                     .with_ownership(ownership));
    std::vector<Burst> encoded(workload.size());
    for (std::size_t b = 0; b < workload.size(); ++b) {
      encoder.process(workload[b], encoded[b]);
    }
    const auto restores = [&](std::size_t b) {
      Burst decoded;
      decoder.process(encoded[b], decoded);
      std::vector<std::uint8_t> got;
      std::vector<std::uint8_t> want;
      for (std::size_t i = 0; i < decoded.size(); ++i) {
        got.insert(got.end(), decoded.payload(i).begin(),
                   decoded.payload(i).end());
      }
      for (std::size_t i = 0; i < workload[b].size(); ++i) {
        want.insert(want.end(), workload[b].payload(i).begin(),
                    workload[b].payload(i).end());
      }
      return got == want;
    };
    ASSERT_TRUE(restores(0));

    // All-ones type-3 body: identifier 2^id_bits - 1, far past the few
    // hundred bases learned so far.
    const std::vector<std::uint8_t> unknown_id(params.type3_payload_bytes(),
                                               0xFF);
    const std::vector<std::uint8_t> truncated(
        params.type2_payload_bytes() - 1, 0x5A);
    const std::vector<std::uint8_t> raw(9, 0x33);
    for (const auto& [type, bad] :
         {std::pair{gd::PacketType::compressed, &unknown_id},
          std::pair{gd::PacketType::uncompressed, &truncated}}) {
      Burst poisoned;
      PacketMeta meta;
      for (std::uint32_t flow = 0; flow < 3; ++flow) {
        meta.flow = flow;
        poisoned.append(gd::PacketType::raw, 0, 0, raw, meta);
      }
      meta.flow = 1;
      poisoned.append(type, 0, 0, *bad, meta);
      poisoned.append(gd::PacketType::raw, 0, 0, raw, meta);
      Burst out;
      EXPECT_THROW(decoder.process(poisoned, out), ContractViolation)
          << "type " << static_cast<int>(type);
    }

    EXPECT_TRUE(restores(1)) << "burst after the failures";
    EXPECT_TRUE(restores(2));
  }
}

// The flush window (NodeOptions::burst_size) must not change output
// bytes — it only bounds the in-flight set within one process() call.
TEST(NodeOptionsTest, FlushWindowDoesNotChangeOutput) {
  GdParams params;
  Rng rng(0xF1A5);
  std::vector<Burst> workload =
      make_workload(rng, params, /*bursts=*/2, /*packets=*/30, /*flows=*/5);

  const auto run = [&](std::size_t burst_size) {
    Node node(NodeOptions{}
                  .with_params(params)
                  .with_workers(3)
                  .with_shared_dictionary()
                  .with_queue_depth(4)
                  .with_burst_size(burst_size));
    std::vector<Burst> outs(workload.size());
    for (std::size_t b = 0; b < workload.size(); ++b) {
      node.process(workload[b], outs[b]);
    }
    return outs;
  };
  const auto windowed = run(/*burst_size=*/7);
  const auto unwindowed = run(/*burst_size=*/1024);
  for (std::size_t b = 0; b < workload.size(); ++b) {
    EXPECT_TRUE(same_packets(windowed[b], unwindowed[b])) << "burst " << b;
  }
}

// An empty burst in a ring must not read as end-of-stream.
TEST(MemoryRingTest, EmptyBurstDoesNotStrandLaterBursts) {
  GdParams params;
  MemoryRing ring(4);
  Burst empty;
  Burst full;
  PacketMeta meta;
  const std::vector<std::uint8_t> payload(params.raw_payload_bytes(), 0x5A);
  full.append(gd::PacketType::raw, 0, 0, payload, meta);
  ASSERT_TRUE(ring.try_push(full));
  ASSERT_TRUE(ring.try_push(empty));
  ASSERT_TRUE(ring.try_push(full));

  MemoryRingSource source(ring);
  Burst out;
  EXPECT_EQ(source.rx_burst(out), 1u);
  EXPECT_EQ(source.rx_burst(out), 1u);  // skipped the empty burst
  EXPECT_EQ(source.rx_burst(out), 0u);  // genuinely drained
}

class PcapBackendTest : public ::testing::Test {
 protected:
  void TearDown() override {
    for (const auto& p : {raw_, encoded_, reference_, decoded_}) {
      std::remove(p.c_str());
    }
  }
  std::string temp(const char* name) {
    return (std::filesystem::temp_directory_path() / name).string();
  }
  std::string raw_ = temp("zipline_io_raw.pcap");
  std::string encoded_ = temp("zipline_io_encoded.pcap");
  std::string reference_ = temp("zipline_io_reference.pcap");
  std::string decoded_ = temp("zipline_io_decoded.pcap");
};

std::vector<std::uint8_t> read_file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

// PcapSource -> Node(shared, parallel, p2c) -> PcapSink must
// reproduce the pre-redesign zipline_pcap window loop file-for-file: the
// reference below is that loop's semantics run on a serial shared-style
// engine (byte-identical to the old shared parallel path by the ordered
// turnstile property), and the decode pass must restore the original
// capture exactly.
TEST_F(PcapBackendTest, EncodeDecodeMatchesPreRedesignLoop) {
  const GdParams params;
  trace::SyntheticSensorConfig config;
  config.chunk_count = 3000;
  const auto payloads = trace::generate_synthetic_sensor(config);
  trace::write_payloads_pcap(raw_, payloads, 10000.0);

  // Node path.
  {
    PcapSourceOptions source_options;
    source_options.direction = Direction::encode;
    source_options.params = params;
    source_options.burst_size = 512;
    PcapSource source(raw_, source_options);
    PcapSink sink(encoded_);
    Node node(NodeOptions{}
                  .with_params(params)
                  .with_workers(3)
                  .with_shared_dictionary()
                  .with_steering(FlowSteering::load_aware)
                  .with_queue_depth(4));
    Runner runner;
    const RunnerStats stats = runner.run(source, node, sink);
    EXPECT_EQ(stats.packets_in, payloads.size());
  }

  // Pre-redesign reference: serial shared-style engine over the same
  // windowed classification rules.
  {
    net::PcapReader reader(raw_);
    net::PcapWriter writer(reference_);
    engine::Engine eng(params);
    engine::EncodeBatch batch;
    net::EthernetFrame out_frame;
    while (auto record = reader.next()) {
      net::EthernetFrame frame =
          net::EthernetFrame::parse(record->data, /*verify_fcs=*/false);
      if (frame.ether_type == gd::ether_type_for(gd::PacketType::raw) &&
          frame.payload.size() >= params.raw_payload_bytes()) {
        batch.clear();
        eng.encode_payload(
            std::span(frame.payload).first(params.raw_payload_bytes()),
            batch);
        ASSERT_EQ(batch.size(), 1u);
        const engine::PacketDesc& desc = batch.packet(0);
        out_frame.dst = frame.dst;
        out_frame.src = frame.src;
        out_frame.ether_type = gd::ether_type_for(desc.type);
        const auto payload = batch.payload(desc);
        out_frame.payload.assign(payload.begin(), payload.end());
        writer.write_frame(out_frame, record->timestamp_us);
      } else {
        writer.write_frame(frame, record->timestamp_us);
      }
    }
  }

  EXPECT_EQ(read_file_bytes(encoded_), read_file_bytes(reference_))
      << "Node pcap replay diverged from the pre-redesign loop";

  // Decode pass restores the original capture byte-for-byte.
  {
    PcapSourceOptions source_options;
    source_options.direction = Direction::decode;
    source_options.params = params;
    source_options.burst_size = 512;
    PcapSource source(encoded_, source_options);
    PcapSink sink(decoded_);
    Node node(NodeOptions{}
                  .with_direction(Direction::decode)
                  .with_params(params)
                  .with_workers(3)
                  .with_shared_dictionary()
                  .with_steering(FlowSteering::load_aware)
                  .with_queue_depth(4));
    Runner runner;
    runner.run(source, node, sink);
  }
  EXPECT_EQ(read_file_bytes(decoded_), read_file_bytes(raw_))
      << "decode did not restore the original capture";
}

TEST(TraceSourceTest, DrainsEveryPayloadInBursts) {
  trace::SyntheticSensorConfig config;
  config.chunk_count = 1000;
  TraceSourceOptions options;
  options.burst_size = 128;
  options.flow_of = [](std::size_t i) {
    return static_cast<std::uint32_t>(i % 7);
  };
  TraceSource source = TraceSource::synthetic_sensor(config, options);
  ASSERT_EQ(source.payload_count(), 1000u);

  Burst burst;
  std::size_t total = 0;
  std::size_t bursts = 0;
  while (source.rx_burst(burst) > 0) {
    ++bursts;
    total += burst.size();
    ASSERT_LE(burst.size(), 128u);
    for (std::size_t i = 0; i < burst.size(); ++i) {
      EXPECT_TRUE(burst.meta(i).process);
      EXPECT_EQ(burst.desc(i).type, gd::PacketType::raw);
    }
  }
  EXPECT_EQ(total, 1000u);
  EXPECT_EQ(bursts, (1000 + 127) / 128);
  EXPECT_EQ(source.rx_burst(burst), 0u);
  source.reset();
  EXPECT_GT(source.rx_burst(burst), 0u);
}

// SimPort must be a faithful adapter: bursts pushed through it produce
// exactly what prog::run_batch produces for the same frames.
TEST(SimPortTest, MatchesDirectRunBatch) {
  prog::ZipLineConfig config;
  config.op = prog::SwitchOp::encode;
  config.learning = prog::LearningMode::data_plane;
  Rng rng(0x51A);
  const GdParams& params = config.params;

  engine::EncodeBatch traffic;
  std::vector<std::uint8_t> chunk(params.raw_payload_bytes());
  for (int i = 0; i < 50; ++i) {
    for (auto& b : chunk) b = static_cast<std::uint8_t>(rng.next_u64());
    traffic.append(gd::PacketType::raw, 0, 0, chunk);
  }

  // Direct path.
  auto program_a = std::make_shared<prog::ZipLineProgram>(config);
  tofino::SwitchModel direct("direct", program_a);
  engine::EncodeBatch direct_out;
  prog::run_batch(direct, traffic, &direct_out, /*ingress_port=*/1);

  // SimPort path, fed the same frames as a burst.
  auto program_b = std::make_shared<prog::ZipLineProgram>(config);
  tofino::SwitchModel adapted("adapted", program_b);
  SimPort port(adapted, /*ingress_port=*/1);
  Burst in;
  for (std::size_t i = 0; i < traffic.size(); ++i) {
    PacketMeta meta;
    meta.ether_type = gd::ether_type_for(gd::PacketType::raw);
    in.append(gd::PacketType::raw, 0, 0, traffic.payload(i), meta);
  }
  SimPortSink ingress(port);
  ingress.tx_burst(in);

  SimPortSource egress(port);
  Burst out;
  std::size_t cursor = 0;
  while (egress.rx_burst(out) > 0) {
    for (std::size_t i = 0; i < out.size(); ++i, ++cursor) {
      ASSERT_LT(cursor, direct_out.size());
      EXPECT_EQ(out.desc(i).type, direct_out.packet(cursor).type);
      const auto got = out.payload(i);
      const auto want = direct_out.payload(cursor);
      EXPECT_TRUE(std::equal(got.begin(), got.end(), want.begin(),
                             want.end()))
          << "egress packet " << cursor;
    }
  }
  EXPECT_EQ(cursor, direct_out.size());
  EXPECT_EQ(port.totals().forwarded + port.totals().dropped, traffic.size());
}

// The two passthrough-splice overloads must be byte-identical: the
// copying append_from (the frozen baseline / external-caller path) and
// the view-based append_view_from (the zero-copy path) — across all
// three payload backings.
TEST(BurstViews, AppendFromOverloadsAreByteIdentical) {
  Rng rng(0xB17);
  BufferPool pool(4096, 4);
  SegmentWriter writer(pool);
  std::vector<std::uint8_t> stable(300);  // external backing, outlives all
  for (auto& b : stable) b = static_cast<std::uint8_t>(rng.next_u64());

  Burst from;
  for (std::size_t i = 0; i < 12; ++i) {
    PacketMeta meta;
    meta.flow = static_cast<std::uint32_t>(i);
    meta.ether_type = 0x0800;
    std::vector<std::uint8_t> payload(20 + rng.next_below(80));
    for (auto& b : payload) b = static_cast<std::uint8_t>(rng.next_u64());
    switch (i % 3) {
      case 0:  // owned arena
        from.append(gd::PacketType::raw, static_cast<std::uint32_t>(i), 0,
                    payload, meta);
        break;
      case 1:  // raw external view
        from.append_view(gd::PacketType::raw, static_cast<std::uint32_t>(i),
                         0, std::span(stable).subspan(i * 20, 40), meta);
        break;
      case 2:  // pool segment
        from.append_segment(gd::PacketType::raw,
                            static_cast<std::uint32_t>(i), 0,
                            writer.write(payload), writer.segment(), meta);
        break;
    }
  }

  Burst copied;
  Burst viewed;
  for (std::size_t i = 0; i < from.size(); ++i) {
    copied.append_from(from, i);
    viewed.append_view_from(from, i);
  }
  EXPECT_TRUE(same_packets(copied, viewed));
  EXPECT_TRUE(same_packets(copied, from));
  // The copying overload paid in bytes; the view overload paid nothing.
  EXPECT_GT(copied.bytes_copied(), 0u);
  EXPECT_EQ(viewed.bytes_copied(), 0u);
  // Segment-backed splices share the segment: same memory, not a copy.
  EXPECT_EQ(viewed.payload(2).data(), from.payload(2).data());
}

// MemoryRing::try_pop moves the slot out (swap) instead of copying:
// pointer identity for segment-backed payloads proves the payload bytes
// never moved across the push+pop, and the ring's copy counter stays 0.
TEST(MemoryRingTest, PopMovesSlotOutWithoutCopying) {
  BufferPool pool(4096, 4);
  SegmentWriter writer(pool);
  Rng rng(0x90B);
  Burst in;
  std::vector<std::uint8_t> payload(256);
  for (auto& b : payload) b = static_cast<std::uint8_t>(rng.next_u64());
  PacketMeta meta;
  meta.flow = 7;
  in.append_segment(gd::PacketType::raw, 0, 0, writer.write(payload),
                    writer.segment(), meta);

  MemoryRing ring(2);
  ASSERT_TRUE(ring.try_push(in));
  EXPECT_EQ(ring.stats().bytes_copied, 0u)
      << "segment-backed push must share the ref, not copy payload";

  Burst popped;
  ASSERT_TRUE(ring.try_pop(popped));
  ASSERT_EQ(popped.size(), 1u);
  EXPECT_EQ(popped.payload(0).data(), in.payload(0).data())
      << "pop must hand out the pushed segment memory itself";
  EXPECT_TRUE(same_packets(popped, in));
  EXPECT_EQ(ring.stats().bytes_copied, 0u);

  // Owned payloads still ride the ring correctly (copied at push, moved
  // at pop), and the push price is visible in the ring stats.
  Burst owned;
  owned.append(gd::PacketType::raw, 0, 0, payload, meta);
  ASSERT_TRUE(ring.try_push(owned));
  EXPECT_EQ(ring.stats().bytes_copied, payload.size());
  ASSERT_TRUE(ring.try_pop(popped));
  EXPECT_TRUE(same_packets(popped, owned));
}

// A Burst copy must be self-contained: raw external views are
// materialized (the backing store may die), segment views share refs
// (the segment cannot die under a live ref).
TEST(BurstViews, CopyMaterializesExternalViewsAndSharesSegments) {
  BufferPool pool(4096, 4);
  SegmentWriter writer(pool);
  Rng rng(0xC0);
  std::vector<std::uint8_t> seg_payload(128);
  for (auto& b : seg_payload) b = static_cast<std::uint8_t>(rng.next_u64());

  Burst copy;
  std::vector<std::uint8_t> want_external;
  {
    std::vector<std::uint8_t> transient(64);
    for (auto& b : transient) b = static_cast<std::uint8_t>(rng.next_u64());
    want_external = transient;
    Burst original;
    PacketMeta meta;
    original.append_view(gd::PacketType::raw, 0, 0, transient, meta);
    original.append_segment(gd::PacketType::raw, 0, 0,
                            writer.write(seg_payload), writer.segment(),
                            meta);
    copy = original;
    // Segment view: shared, not copied.
    EXPECT_EQ(copy.payload(1).data(), original.payload(1).data());
    // External view: materialized into the copy's own arena.
    EXPECT_NE(copy.payload(0).data(), original.payload(0).data());
    // `transient` and `original` die here; `copy` must not care.
  }
  EXPECT_EQ(std::vector<std::uint8_t>(copy.payload(0).begin(),
                                      copy.payload(0).end()),
            want_external);
  EXPECT_EQ(std::vector<std::uint8_t>(copy.payload(1).begin(),
                                      copy.payload(1).end()),
            seg_payload);
}

// Passthrough is spliced by view: in every arrangement (serial and
// parallel, per-flow and shared) the node copies exactly the engine's
// output bytes and nothing for passthrough packets, and every passthrough
// packet leaves at its input position with its bytes unchanged.
TEST(NodePassthrough, SplicedByViewAtInputPosition) {
  GdParams params;
  for (const auto ownership :
       {DictionaryOwnership::per_flow, DictionaryOwnership::shared}) {
    for (const std::size_t workers : {std::size_t{1}, std::size_t{4}}) {
      SCOPED_TRACE(::testing::Message()
                   << "ownership="
                   << (ownership == DictionaryOwnership::shared ? "shared"
                                                                : "per_flow")
                   << " workers=" << workers);
      Rng rng(0x2E0 + workers +
              (ownership == DictionaryOwnership::shared ? 100 : 0));
      // Segment-backed traffic, half passthrough — the shape a pooled
      // source (pcap, sim port) serves. A processed payload is one chunk,
      // so it encodes to exactly one wire packet and output position k
      // belongs to input packet k.
      BufferPool pool(16384, 16);
      SegmentWriter writer(pool);
      Burst in;
      for (std::size_t i = 0; i < 48; ++i) {
        PacketMeta meta;
        meta.flow = static_cast<std::uint32_t>(i % 5);
        meta.ether_type = 0x0800;
        meta.process = i % 2 == 0;
        std::vector<std::uint8_t> payload(
            meta.process ? params.raw_payload_bytes()
                         : 10 + rng.next_below(90));
        for (auto& b : payload) {
          b = static_cast<std::uint8_t>(rng.next_u64());
        }
        in.append_segment(gd::PacketType::raw, 0, 0, writer.write(payload),
                          writer.segment(), meta);
      }

      Node node(base_options(ownership, EvictionPolicy::lru, workers, params)
                    .with_direction(Direction::encode));
      Burst out;
      std::uint64_t engine_bytes = 0;
      for (int round = 0; round < 3; ++round) {
        out.clear();
        node.process(in, out);
        ASSERT_EQ(out.size(), in.size());
        for (std::size_t k = 0; k < out.size(); ++k) {
          ASSERT_EQ(out.meta(k).process, in.meta(k).process) << "packet " << k;
          if (out.meta(k).process) {
            engine_bytes += out.payload(k).size();
            continue;
          }
          EXPECT_EQ(out.desc(k).type, in.desc(k).type) << "packet " << k;
          EXPECT_EQ(out.meta(k).flow, in.meta(k).flow) << "packet " << k;
          EXPECT_EQ(out.meta(k).ether_type, in.meta(k).ether_type)
              << "packet " << k;
          EXPECT_TRUE(std::equal(out.payload(k).begin(), out.payload(k).end(),
                                 in.payload(k).begin(), in.payload(k).end()))
              << "packet " << k;
        }
      }
      const NodeStats stats = node.stats();
      EXPECT_EQ(stats.passthrough, 3u * 24u);
      EXPECT_EQ(stats.bytes_copied, engine_bytes)
          << "passthrough packets must cost no copied bytes";
    }
  }
}

}  // namespace
}  // namespace zipline::io
