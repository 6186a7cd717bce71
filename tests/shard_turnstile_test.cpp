// Per-shard resolve turnstile properties.
//
// PR 6 replaced the shared ordered pipeline's single global resolve
// turnstile with one turnstile per dictionary shard: a unit waits only on
// earlier units touching the SAME shards, so disjoint footprints resolve
// concurrently. The acceptance property is unchanged from the global
// turnstile it replaced: shared-mode parallel output is byte-identical to
// ONE single-threaded engine processing every unit in submission order —
// now also under EvictionPolicy::clock — plus the new observability
// contracts:
//
//   * workers == 1 admits every unit instantly: turnstile_waits == 0;
//   * clock_touches counts recency marks only under the clock policy;
//   * both counters flow through DictionaryHandle and io::Node stats.
#include "engine/parallel.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <tuple>
#include <vector>

#include "common/rng.hpp"
#include "io/node.hpp"

namespace zipline::engine {
namespace {

using gd::EvictionPolicy;
using gd::GdParams;

/// Value snapshot of an encoded batch (descriptors + arena bytes).
struct BatchImage {
  std::vector<PacketDesc> packets;
  std::vector<std::uint8_t> storage;

  static BatchImage of(const EncodeBatch& batch) {
    BatchImage image;
    image.packets.assign(batch.packets().begin(), batch.packets().end());
    image.storage.assign(batch.storage().begin(), batch.storage().end());
    return image;
  }

  friend bool operator==(const BatchImage& a, const BatchImage& b) {
    if (a.storage != b.storage || a.packets.size() != b.packets.size()) {
      return false;
    }
    for (std::size_t i = 0; i < a.packets.size(); ++i) {
      const PacketDesc& x = a.packets[i];
      const PacketDesc& y = b.packets[i];
      if (x.type != y.type || x.offset != y.offset || x.size != y.size ||
          x.syndrome != y.syndrome || x.basis_id != y.basis_id) {
        return false;
      }
    }
    return true;
  }
};

/// Zipf(s≈1.1) sampler over `n` flows.
class Zipf {
 public:
  Zipf(std::size_t n, double s) {
    cdf_.reserve(n);
    double total = 0;
    for (std::size_t k = 1; k <= n; ++k) {
      total += 1.0 / std::pow(static_cast<double>(k), s);
      cdf_.push_back(total);
    }
    for (double& c : cdf_) c /= total;
  }

  std::uint32_t operator()(Rng& rng) const {
    const double u = rng.next_double();
    for (std::size_t i = 0; i < cdf_.size(); ++i) {
      if (u <= cdf_[i]) return static_cast<std::uint32_t>(i);
    }
    return static_cast<std::uint32_t>(cdf_.size() - 1);
  }

 private:
  std::vector<double> cdf_;
};

struct Schedule {
  std::vector<std::uint32_t> flows;
  std::vector<std::vector<std::uint8_t>> payloads;
};

/// Zipf-skewed schedule with chunk redundancy within and across flows
/// (hits, misses, evictions) and ragged raw tails.
Schedule make_zipf_schedule(Rng& rng, const GdParams& params,
                            std::size_t units, std::size_t flow_count) {
  const Zipf zipf(flow_count, 1.1);
  Schedule schedule;
  const std::size_t chunk_bytes = params.raw_payload_bytes();
  std::vector<std::vector<std::uint8_t>> pool;
  for (std::size_t i = 0; i < 24; ++i) {
    std::vector<std::uint8_t> chunk(chunk_bytes);
    for (auto& b : chunk) b = static_cast<std::uint8_t>(rng.next_u64());
    pool.push_back(chunk);
  }
  for (std::size_t u = 0; u < units; ++u) {
    schedule.flows.push_back(zipf(rng));
    const std::size_t chunks = 1 + rng.next_below(10);
    std::vector<std::uint8_t> payload;
    for (std::size_t c = 0; c < chunks; ++c) {
      auto chunk = pool[rng.next_below(pool.size())];
      if (rng.next_bool(0.35)) {
        chunk[rng.next_below(chunk.size())] ^=
            static_cast<std::uint8_t>(1u << rng.next_below(8));
      }
      payload.insert(payload.end(), chunk.begin(), chunk.end());
    }
    if (rng.next_bool(0.25)) {
      for (std::size_t t = 0; t < 1 + rng.next_below(12); ++t) {
        payload.push_back(static_cast<std::uint8_t>(rng.next_u64()));
      }
    }
    schedule.payloads.push_back(std::move(payload));
  }
  return schedule;
}

/// The serial reference: ONE engine encodes every unit in submission
/// order — the switch's single table.
std::vector<BatchImage> serial_shared_reference(const GdParams& params,
                                                const ParallelOptions& options,
                                                const Schedule& schedule) {
  Engine engine(params, options.policy, options.learn,
                options.dictionary_shards);
  std::vector<BatchImage> images;
  EncodeBatch batch;
  for (const auto& payload : schedule.payloads) {
    batch.clear();
    engine.encode_payload(payload, batch);
    images.push_back(BatchImage::of(batch));
  }
  return images;
}

ParallelOptions shared_options(EvictionPolicy policy, std::size_t shards,
                               std::size_t workers) {
  ParallelOptions options;
  options.workers = workers;
  options.queue_depth = 4;  // small rings -> full turnstiles
  options.dictionary_shards = shards;
  options.policy = policy;
  options.ownership = DictionaryOwnership::shared;
  options.steering = FlowSteering::load_aware;
  return options;
}

/// Runs the shared parallel encoder over `schedule` and asserts ordered,
/// byte-identical delivery against the serial reference. Returns the
/// shared service's aggregate stats after the run.
gd::DictionaryStats run_and_check_identity(const GdParams& params,
                                           const ParallelOptions& options,
                                           const Schedule& schedule) {
  const auto expected = serial_shared_reference(params, options, schedule);
  std::vector<BatchImage> actual(schedule.flows.size());
  std::uint64_t expected_seq = 0;
  ParallelEncoder encoder(params, options,
                          [&](const ParallelEncoder::Unit& unit) {
                            EXPECT_EQ(unit.seq, expected_seq++);
                            actual[unit.seq] = BatchImage::of(*unit.output);
                          });
  for (std::size_t u = 0; u < schedule.flows.size(); ++u) {
    encoder.submit(schedule.flows[u], schedule.payloads[u]);
  }
  encoder.flush();
  EXPECT_EQ(encoder.delivered(), schedule.flows.size());
  for (std::size_t u = 0; u < schedule.flows.size(); ++u) {
    EXPECT_TRUE(actual[u] == expected[u])
        << "unit " << u << " (flow " << schedule.flows[u]
        << ") diverged from the serial shared-dictionary engine";
  }
  EXPECT_NE(encoder.shared_dictionary(), nullptr);
  return encoder.shared_dictionary()->stats();
}

class TurnstileProperty
    : public ::testing::TestWithParam<
          std::tuple<EvictionPolicy, std::size_t, std::size_t>> {};

// Acceptance: per-shard turnstiles preserve the global-turnstile
// property — shared ordered parallel output byte-identical to the serial
// engine — for every policy (clock included), shard count and worker
// count; and the new counters honour their contracts.
TEST_P(TurnstileProperty, PerShardTurnstilesKeepSerialByteIdentity) {
  const auto [policy, shards, workers] = GetParam();
  GdParams params;
  params.id_bits = 5;  // 32 identifiers -> evictions under load
  const ParallelOptions options = shared_options(policy, shards, workers);

  Rng rng(0x7572 + static_cast<std::uint64_t>(policy) * 131 + shards * 17 +
          workers * 3);
  const Schedule schedule = make_zipf_schedule(rng, params, 150, 12);
  const gd::DictionaryStats stats =
      run_and_check_identity(params, options, schedule);

  if (workers == 1) {
    // One worker registers and resolves strictly in sequence: nobody is
    // ever ahead of it at a gate.
    EXPECT_EQ(stats.turnstile_waits, 0u);
  }
  if (policy == EvictionPolicy::clock) {
    // Redundant schedule -> hits -> recency marks.
    EXPECT_GT(stats.clock_touches, 0u);
  } else {
    EXPECT_EQ(stats.clock_touches, 0u);
  }
  // Batched resolve contract survives the turnstile split: at most one
  // stripe acquisition per (unit, shard) pair, plus the final stats()
  // sweep (one acquisition per shard).
  EXPECT_LE(stats.stripe_acquisitions,
            schedule.flows.size() * shards + shards);
}

INSTANTIATE_TEST_SUITE_P(
    PoliciesShardsWorkers, TurnstileProperty,
    ::testing::Combine(::testing::Values(EvictionPolicy::lru,
                                         EvictionPolicy::fifo,
                                         EvictionPolicy::random,
                                         EvictionPolicy::clock),
                       ::testing::Values(std::size_t{1}, std::size_t{2},
                                         std::size_t{8}),
                       ::testing::Values(std::size_t{1}, std::size_t{4})));

// The counters surface through the Node facade: a parallel shared node
// aggregates its service's DictionaryStats (same insertions as the serial
// shared node fed the same burst), the serial node reports its private
// dictionaries' stats, and workers == 1 shows zero turnstile waits.
TEST(TurnstileStats, CountersFlowThroughNodeStats) {
  GdParams params;
  params.id_bits = 5;
  Rng rng(0x0DE5);
  const Schedule schedule = make_zipf_schedule(rng, params, 80, 6);

  io::Burst in;
  for (std::size_t u = 0; u < schedule.flows.size(); ++u) {
    io::PacketMeta meta;
    meta.flow = schedule.flows[u];
    in.append(gd::PacketType::raw, 0, 0, schedule.payloads[u], meta);
  }

  const auto base = NodeOptions{}
                        .with_direction(io::Direction::encode)
                        .with_params(params)
                        .with_shared_dictionary()
                        .with_policy(EvictionPolicy::clock)
                        .with_shards(2);

  io::Node serial(base);
  io::Node parallel(NodeOptions{base}
                        .with_workers(4)
                        .with_steering(FlowSteering::load_aware));
  io::Burst out_serial;
  io::Burst out_parallel;
  serial.process(in, out_serial);
  parallel.process(in, out_parallel);

  const io::NodeStats s = serial.stats();
  const io::NodeStats p = parallel.stats();
  // Same bytes, same dictionary history.
  EXPECT_EQ(p.dictionary.insertions, s.dictionary.insertions);
  EXPECT_EQ(p.dictionary.hits, s.dictionary.hits);
  EXPECT_GT(p.dictionary.clock_touches, 0u);
  EXPECT_GT(s.dictionary.clock_touches, 0u);
  // The serial node has no turnstiles (and its private dictionary takes
  // no stripe locks at all).
  EXPECT_EQ(s.dictionary.turnstile_waits, 0u);
  EXPECT_EQ(s.dictionary.stripe_acquisitions, 0u);
  EXPECT_GT(p.dictionary.stripe_acquisitions, 0u);
}

}  // namespace
}  // namespace zipline::engine
