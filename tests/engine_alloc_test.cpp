// Allocation-counting hook for the engine's line-rate claim: in steady
// state (dictionary warm, arena capacities grown) the batch encode and
// decode paths must perform ZERO heap allocations per chunk.
//
// The hook replaces the global operator new/delete for this test binary
// and counts every allocation; the tests warm an engine up, then assert
// the counter does not move across many full batches.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include "common/rng.hpp"
#include "engine/engine.hpp"
#include "hamming/hamming.hpp"
#include "engine/parallel.hpp"
#include "io/buffer_pool.hpp"
#include "io/memory_ring.hpp"
#include "io/node.hpp"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

std::uint64_t allocation_count() {
  return g_allocations.load(std::memory_order_relaxed);
}

void* counted_alloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void* counted_aligned_alloc(std::size_t size, std::size_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  const std::size_t padded = (size + align - 1) / align * align;
  if (void* p = std::aligned_alloc(align, padded ? padded : align)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, static_cast<std::size_t>(align));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace zipline::engine {
namespace {

std::vector<std::uint8_t> random_payload(Rng& rng, std::size_t bytes) {
  std::vector<std::uint8_t> out(bytes);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.next_u64());
  return out;
}

TEST(EngineAllocation, HookCountsAllocations) {
  const std::uint64_t before = allocation_count();
  auto* sink = new std::vector<int>(128);
  delete sink;
  EXPECT_GT(allocation_count(), before);
}

// The acceptance criterion: batch-64 encode, steady state, zero heap
// allocations per chunk.
TEST(EngineAllocation, Batch64EncodeSteadyStateIsAllocationFree) {
  const gd::GdParams params;
  Engine engine{params};
  Rng rng(0xA110C);
  const auto payload = random_payload(rng, 64 * params.raw_payload_bytes());

  EncodeBatch batch;
  // Warmup: learn every basis, grow the arena and all scratch buffers.
  for (int i = 0; i < 4; ++i) {
    batch.clear();
    engine.encode_payload(payload, batch);
  }

  const std::uint64_t before = allocation_count();
  for (int i = 0; i < 50; ++i) {
    batch.clear();
    engine.encode_payload(payload, batch);
  }
  EXPECT_EQ(allocation_count(), before)
      << "steady-state batch encode must not touch the heap";
  EXPECT_EQ(batch.size(), 64u);
}

TEST(EngineAllocation, Batch64DecodeSteadyStateIsAllocationFree) {
  const gd::GdParams params;
  Engine encoder{params};
  Engine decoder{params};
  Rng rng(0xDEC0DE);
  const auto payload = random_payload(rng, 64 * params.raw_payload_bytes());

  EncodeBatch encoded;
  encoder.encode_payload(payload, encoded);
  DecodeBatch decoded;
  for (int i = 0; i < 4; ++i) {
    decoded.clear();
    decoder.decode_batch(encoded, decoded);
  }

  const std::uint64_t before = allocation_count();
  for (int i = 0; i < 50; ++i) {
    decoded.clear();
    decoder.decode_batch(encoded, decoded);
  }
  EXPECT_EQ(allocation_count(), before)
      << "steady-state batch decode must not touch the heap";
  EXPECT_EQ(decoded.bytes().size(), payload.size());
}

// The engine stages a batch through its own unit one window at a time, so
// the unit scratch is sized by the window, not the payload: once a
// window-sized payload has warmed it, a payload sixteen windows long
// allocates nothing (the output arenas are reserved up front, and the
// long payload repeats the warmup window so every basis is already known).
TEST(EngineAllocation, UnitScratchIsBoundedByTheWindow) {
  const gd::GdParams params;
  Rng rng(0x817D0);
  const auto window =
      random_payload(rng, Engine::kWindowChunks * params.raw_payload_bytes());
  std::vector<std::uint8_t> payload;
  for (int i = 0; i < 16; ++i) {
    payload.insert(payload.end(), window.begin(), window.end());
  }

  Engine encoder{params};
  Engine decoder{params};
  EncodeBatch warm_encoded;
  encoder.encode_payload(window, warm_encoded);
  DecodeBatch decoded;
  decoder.decode_batch(warm_encoded, decoded);

  EncodeBatch encoded;
  encoded.reserve(payload.size() / params.raw_payload_bytes(),
                  payload.size());
  decoded.clear();
  decoded.reserve(payload.size() / params.raw_payload_bytes(),
                  payload.size());

  const std::uint64_t before = allocation_count();
  encoder.encode_payload(payload, encoded);
  decoder.decode_batch(encoded, decoded);
  EXPECT_EQ(allocation_count(), before)
      << "a payload longer than the window must reuse the window's scratch";
  ASSERT_EQ(decoded.bytes().size(), payload.size());
  EXPECT_TRUE(std::equal(decoded.bytes().begin(), decoded.bytes().end(),
                         payload.begin()));

  // The same bound through a serial node pair, whose engine unit is a
  // whole burst: once one window of one-chunk packets has warmed a flow's
  // engines, a 1024-packet burst on that flow — one-chunk packets
  // alternating with chunkless tail-only ones, so both the row and the
  // packet bound of a window are needed — allocates nothing. A
  // 1024-packet burst on ANOTHER flow (other engines) first grows the
  // node's per-burst packet indices, which scale with the burst by
  // design; the output bursts are reserved up front.
  const std::size_t chunk_bytes = params.raw_payload_bytes();
  const auto burst_of = [&](std::size_t packets, std::uint32_t flow,
                            bool tails) {
    io::Burst burst;
    io::PacketMeta meta;
    meta.flow = flow;
    for (std::size_t p = 0; p < packets; ++p) {
      const std::size_t bytes = tails && p % 2 == 1 ? 11 : chunk_bytes;
      burst.append_view(gd::PacketType::raw, 0, 0,
                        std::span(payload).subspan(p * chunk_bytes, bytes),
                        meta);
    }
    return burst;
  };
  const std::size_t long_packets = 4 * Engine::kWindowChunks;
  io::Node node_encoder(io::NodeOptions{}.with_params(params));
  io::Node node_decoder(io::NodeOptions{}
                            .with_direction(io::Direction::decode)
                            .with_params(params));
  io::Burst wire;
  io::Burst restored;
  for (const io::Burst& warm : {burst_of(long_packets, /*flow=*/1, false),
                                burst_of(Engine::kWindowChunks, 0, false)}) {
    wire.clear();
    restored.clear();
    node_encoder.process(warm, wire);
    node_decoder.process(wire, restored);
  }
  const io::Burst long_burst = burst_of(long_packets, 0, true);
  wire.clear();
  wire.reserve(long_packets, long_packets * chunk_bytes);
  restored.clear();
  restored.reserve(long_packets, long_packets * chunk_bytes);

  const std::uint64_t before_node = allocation_count();
  node_encoder.process(long_burst, wire);
  node_decoder.process(wire, restored);
  EXPECT_EQ(allocation_count(), before_node)
      << "a burst longer than the window must reuse the window's scratch";
  ASSERT_EQ(restored.size(), long_packets);
  for (std::size_t p = 0; p < long_packets; ++p) {
    ASSERT_TRUE(std::ranges::equal(restored.payload(p),
                                   long_burst.payload(p)))
        << "packet " << p;
  }
}

// The worker pool inherits the engine's discipline: job slots, rings and
// per-flow engines are fixed after warmup, so a steady-state submit/flush
// cycle performs zero heap allocations on ANY thread (the counter below is
// process-global, so worker-thread allocations would trip it too).
TEST(EngineAllocation, WorkerPoolSteadyStateIsAllocationFree) {
  const gd::GdParams params;
  ParallelOptions options;
  options.workers = 2;
  options.queue_depth = 4;
  options.dictionary_shards = 2;

  Rng rng(0x9001);
  std::vector<std::vector<std::uint8_t>> payloads;
  for (int flow = 0; flow < 4; ++flow) {
    payloads.push_back(random_payload(rng, 32 * params.raw_payload_bytes()));
  }

  std::uint64_t sink_bytes = 0;
  ParallelEncoder pool(params, options,
                       [&](const ParallelEncoder::Unit& unit) {
                         sink_bytes += unit.output->storage_bytes();
                       });
  // Warmup: create every flow engine, learn every basis, grow all arenas.
  for (int round = 0; round < 4; ++round) {
    for (std::uint32_t flow = 0; flow < 4; ++flow) {
      pool.submit(flow, payloads[flow]);
    }
    pool.flush();
  }

  const std::uint64_t before = allocation_count();
  for (int round = 0; round < 25; ++round) {
    for (std::uint32_t flow = 0; flow < 4; ++flow) {
      pool.submit(flow, payloads[flow]);
    }
    pool.flush();
  }
  EXPECT_EQ(allocation_count(), before)
      << "steady-state worker-pool encode must not touch the heap";
  EXPECT_EQ(pool.delivered(), pool.submitted());
  EXPECT_GT(sink_bytes, 0u);
}

// The shared-dictionary pipeline keeps the discipline: the one dictionary
// service, the per-worker engines, the split-phase unit scratch and the
// steering map are all warm after a few rounds, so steady-state
// submit/flush cycles allocate nothing on any thread even though every
// dictionary op takes a shard lock and every resolve phase crosses the
// turnstile.
TEST(EngineAllocation, SharedDictionaryPoolSteadyStateIsAllocationFree) {
  const gd::GdParams params;
  ParallelOptions options;
  options.workers = 2;
  options.queue_depth = 4;
  options.dictionary_shards = 2;
  options.ownership = DictionaryOwnership::shared;
  options.steering = FlowSteering::load_aware;

  Rng rng(0x5A4ED);
  std::vector<std::vector<std::uint8_t>> payloads;
  for (int flow = 0; flow < 4; ++flow) {
    payloads.push_back(random_payload(rng, 32 * params.raw_payload_bytes()));
  }

  std::uint64_t sink_bytes = 0;
  ParallelEncoder pool(params, options,
                       [&](const ParallelEncoder::Unit& unit) {
                         sink_bytes += unit.output->storage_bytes();
                       });
  for (int round = 0; round < 4; ++round) {
    for (std::uint32_t flow = 0; flow < 4; ++flow) {
      pool.submit(flow, payloads[flow]);
    }
    pool.flush();
  }

  const std::uint64_t before = allocation_count();
  for (int round = 0; round < 25; ++round) {
    for (std::uint32_t flow = 0; flow < 4; ++flow) {
      pool.submit(flow, payloads[flow]);
    }
    pool.flush();
  }
  EXPECT_EQ(allocation_count(), before)
      << "steady-state shared-dictionary encode must not touch the heap";
  EXPECT_EQ(pool.delivered(), pool.submitted());
  EXPECT_GT(sink_bytes, 0u);
}

// The io burst rings inherit the arena discipline: slots copy bursts in
// and out through grow-only vectors, so a ring cycling same-shaped
// bursts — the DPDK-style steady state — never touches the heap once
// slots and the pop-side burst have grown to the working set.
TEST(EngineAllocation, MemoryRingSteadyStateIsAllocationFree) {
  const gd::GdParams params;
  Rng rng(0x12116);
  io::Burst burst;
  for (int p = 0; p < 16; ++p) {
    io::PacketMeta meta;
    meta.flow = static_cast<std::uint32_t>(p % 4);
    burst.append(gd::PacketType::raw, 0, 0,
                 random_payload(rng, 8 * params.raw_payload_bytes()), meta);
  }

  io::MemoryRing ring(4);
  io::Burst popped;
  // Warmup: grow every slot arena and the pop-side burst.
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(ring.try_push(burst));
    ASSERT_TRUE(ring.try_pop(popped));
  }

  const std::uint64_t before = allocation_count();
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(ring.try_push(burst));
    ASSERT_TRUE(ring.try_pop(popped));
  }
  EXPECT_EQ(allocation_count(), before)
      << "steady-state ring push/pop must not touch the heap";
  EXPECT_EQ(popped.size(), burst.size());
}

// The full source -> Node -> sink loop on rings: after warmup (flows
// learned, arenas grown, rings cycled) a whole burst pass through a
// serial node allocates nothing.
TEST(EngineAllocation, RingNodeRingSteadyStateIsAllocationFree) {
  const gd::GdParams params;
  Rng rng(0x10D3);
  io::Burst in;
  for (int p = 0; p < 8; ++p) {
    io::PacketMeta meta;
    meta.flow = static_cast<std::uint32_t>(p % 2);
    in.append(gd::PacketType::raw, 0, 0,
              random_payload(rng, 16 * params.raw_payload_bytes()), meta);
  }

  io::Node node(io::NodeOptions{}.with_params(params));
  io::MemoryRing ring(2);
  io::Burst staged;
  io::Burst out;
  for (int i = 0; i < 8; ++i) {  // warmup: learn + grow
    ASSERT_TRUE(ring.try_push(in));
    ASSERT_TRUE(ring.try_pop(staged));
    out.clear();
    node.process(staged, out);
  }

  const std::uint64_t before = allocation_count();
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(ring.try_push(in));
    ASSERT_TRUE(ring.try_pop(staged));
    out.clear();
    node.process(staged, out);
  }
  EXPECT_EQ(allocation_count(), before)
      << "steady-state ring -> node -> burst pass must not touch the heap";
  EXPECT_GT(out.size(), 0u);

  // The sensor shape: 256 one-chunk packets, the whole burst one engine
  // unit, through a serial encode node AND a serial decode node.
  io::Burst sensor;
  const auto chunks = random_payload(rng, 64 * params.raw_payload_bytes());
  for (std::size_t p = 0; p < Engine::kWindowChunks; ++p) {
    sensor.append(gd::PacketType::raw, 0, 0,
                  std::span(chunks).subspan((p % 64) *
                                                params.raw_payload_bytes(),
                                            params.raw_payload_bytes()),
                  io::PacketMeta{});
  }
  io::Node encoder(io::NodeOptions{}.with_params(params));
  io::Node decoder(io::NodeOptions{}
                       .with_direction(io::Direction::decode)
                       .with_params(params));
  io::Burst wire;
  io::Burst restored;
  const auto round_trip = [&] {
    wire.clear();
    restored.clear();
    encoder.process(sensor, wire);
    decoder.process(wire, restored);
  };
  for (int i = 0; i < 4; ++i) round_trip();  // warmup: learn + grow
  const std::uint64_t before_sensor = allocation_count();
  for (int i = 0; i < 50; ++i) round_trip();
  EXPECT_EQ(allocation_count(), before_sensor)
      << "steady-state one-chunk bursts through serial encode and decode "
         "nodes must not touch the heap";
  ASSERT_EQ(restored.size(), sensor.size());
  EXPECT_TRUE(std::ranges::equal(restored.payload(255), sensor.payload(255)));
}

// The buffer pool is the ring discipline one level down: every pooled
// segment is carved from one slab in the constructor, so steady-state
// acquire / copy-ref / out-of-order release traffic recycles through the
// lock-free free list without touching the heap. (Overflow fallbacks DO
// allocate — that is their documented job — hence the stats check.)
TEST(EngineAllocation, BufferPoolSteadyStateIsAllocationFree) {
  io::BufferPool pool(4096, 8);
  const std::uint64_t before = allocation_count();
  for (int i = 0; i < 100; ++i) {
    io::SegmentRef a = pool.acquire(4096);
    io::SegmentRef b = pool.acquire(64);
    io::SegmentRef shared = a;  // refcount traffic is heap-free too
    a.reset();                  // released out of order vs b
  }
  EXPECT_EQ(allocation_count(), before)
      << "steady-state pool acquire/release must not touch the heap";
  EXPECT_EQ(pool.stats().overflow_allocations, 0u);
  EXPECT_EQ(pool.free_segments(), 8u);
}

// Segment-backed bursts through a ring — the pooled-source steady state:
// pushes share segment refs, pops swap slots out, so the cycle is both
// allocation-free AND payload-copy-free.
TEST(EngineAllocation, SegmentBurstRingSteadyStateIsCopyAndAllocationFree) {
  Rng rng(0x5E6);
  io::BufferPool pool(16384, 8);
  io::SegmentWriter writer(pool);
  io::Burst burst;
  const auto payload = random_payload(rng, 1024);
  for (int p = 0; p < 16; ++p) {
    io::PacketMeta meta;
    meta.flow = static_cast<std::uint32_t>(p % 4);
    burst.append_segment(gd::PacketType::raw, 0, 0, writer.write(payload),
                         writer.segment(), meta);
  }

  io::MemoryRing ring(4);
  io::Burst popped;
  for (int i = 0; i < 8; ++i) {  // warmup: grow slot vectors
    ASSERT_TRUE(ring.try_push(burst));
    ASSERT_TRUE(ring.try_pop(popped));
  }

  const std::uint64_t before_alloc = allocation_count();
  const std::uint64_t before_copied = ring.stats().bytes_copied;
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(ring.try_push(burst));
    ASSERT_TRUE(ring.try_pop(popped));
  }
  EXPECT_EQ(allocation_count(), before_alloc)
      << "steady-state segment-burst ring cycle must not touch the heap";
  EXPECT_EQ(ring.stats().bytes_copied, before_copied)
      << "segment-backed pushes must move refs, not payload bytes";
  EXPECT_EQ(popped.payload(0).data(), burst.payload(0).data());
}

// encode() routes through expand_into; with a warmed output vector the
// scratch-flavoured expansion must never touch the heap — the allocation
// half of the encode-reroute regression (hamming_test pins identity).
TEST(EngineAllocation, HammingExpandIntoSteadyStateIsAllocationFree) {
  const hamming::HammingCode code(8);
  Rng rng(0x4A11);
  bits::BitVector message(code.k());
  for (std::size_t i = 0; i < code.k(); ++i) {
    if (rng.next_bool(0.5)) message.set(i);
  }
  bits::BitVector out;
  code.expand_into(message, 0, out);  // warm the output capacity
  const std::uint64_t before = allocation_count();
  for (int i = 0; i < 100; ++i) {
    code.expand_into(message, 0, out);
  }
  EXPECT_EQ(allocation_count(), before)
      << "warmed expand_into must not allocate";
  EXPECT_TRUE(code.is_codeword(out));
}

// The contrast case documenting what the adapters cost: the per-chunk
// GdPacket path allocates (it returns owning packets), which is exactly
// why batch consumers should hold an Engine instead.
TEST(EngineAllocation, PerChunkAdapterPathAllocates) {
  const gd::GdParams params;
  Engine engine{params};
  Rng rng(0xADA);
  bits::BitVector chunk(params.chunk_bits);
  for (std::size_t i = 0; i < params.chunk_bits; ++i) {
    if (rng.next_bool(0.5)) chunk.set(i);
  }
  (void)engine.encode_chunk_packet(chunk);  // learn
  const std::uint64_t before = allocation_count();
  (void)engine.encode_chunk_packet(chunk);
  EXPECT_GT(allocation_count(), before);
}

}  // namespace
}  // namespace zipline::engine
