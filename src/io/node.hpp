// zipline::Node — ONE facade over every way this repo runs the codec.
//
// A Node is the software network element the paper's switch is in
// hardware: bursts of packets enter one side, processed (or passthrough)
// packets leave the other, in order. Behind the facade the node selects
// the engine arrangement from NodeOptions:
//
//   * workers == 1            -> serial engine(s), no threads. per_flow
//     ownership keeps one private Engine per flow key; shared ownership
//     keeps ONE engine for the whole direction (the switch's single
//     table). Each engine takes ALL of a burst's packets it serves as ONE
//     engine unit (engine::Engine::encode_packets / decode_packets), run
//     through transform -> resolve -> emit in 256-row windows: the whole
//     burst under shared ownership, one unit per flow under per_flow.
//   * workers > 1             -> engine::ParallelPipeline with the
//     ordered drain, per_flow or shared dictionary ownership, pinned or
//     load-aware steering (per flow and sticky under per_flow ownership,
//     per unit under shared ownership).
//
// All arrangements are byte-identical for the same (flow, payload) unit
// sequence: per-flow modes per flow, shared modes globally (the ordered
// resolve turnstile — see engine/parallel.hpp). tests/io_backend_test.cpp
// property-tests the full matrix against the serial references.
//
// On encode, a packet's payload becomes one or more wire packets (chunks
// + raw tail); on decode, one wire packet becomes one recovered raw
// packet. The serial arrangement emits straight into `out` and then puts
// the packets in input order; the worker pool runs one packet per unit.
// Packets whose meta says process == false traverse untouched, keeping
// their position — the switch's passthrough for non-ZipLine traffic. They
// are spliced into `out` by view (segment refs shared, owned or external
// payloads viewed into `in`), never copied.
//
// Drive a Node with io::Runner (runner.hpp): source -> node -> sink until
// the source drains. One process() call is one flush boundary; the
// dictionary lives in the node, across bursts.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/simd.hpp"
#include "engine/engine.hpp"
#include "engine/parallel.hpp"
#include "io/burst.hpp"

namespace zipline::io {

enum class Direction : std::uint8_t { encode, decode };

/// Builder-style configuration: chain the with_* setters, hand the result
/// to Node. Example:
///
///   Node node(NodeOptions{}
///                 .with_direction(Direction::encode)
///                 .with_workers(8)
///                 .with_shared_dictionary()
///                 .with_steering(engine::FlowSteering::load_aware));
struct NodeOptions {
  Direction direction = Direction::encode;
  gd::GdParams params{};
  /// 1 = serial (no threads); >1 = engine::ParallelPipeline worker pool.
  std::size_t workers = 1;
  std::size_t dictionary_shards = 1;
  gd::EvictionPolicy policy = gd::EvictionPolicy::lru;
  bool learn = true;
  engine::DictionaryOwnership ownership =
      engine::DictionaryOwnership::per_flow;
  engine::FlowSteering steering = engine::FlowSteering::pinned;
  /// In-flight units per worker in parallel modes.
  std::size_t queue_depth = 16;
  /// Flush window inside one process() call: at most this many units are
  /// in flight (and, on decode, staged) at once; the pipeline drains at
  /// each window boundary. Has no effect on output bytes — flush
  /// boundaries never change the dictionary op order.
  std::size_t burst_size = 256;

  NodeOptions& with_direction(Direction d) { direction = d; return *this; }
  NodeOptions& with_params(const gd::GdParams& p) { params = p; return *this; }
  NodeOptions& with_workers(std::size_t n) { workers = n; return *this; }
  NodeOptions& with_shards(std::size_t n) { dictionary_shards = n; return *this; }
  NodeOptions& with_policy(gd::EvictionPolicy p) { policy = p; return *this; }
  NodeOptions& with_learn(bool on) { learn = on; return *this; }
  NodeOptions& with_ownership(engine::DictionaryOwnership o) {
    ownership = o;
    return *this;
  }
  NodeOptions& with_shared_dictionary() {
    ownership = engine::DictionaryOwnership::shared;
    return *this;
  }
  NodeOptions& with_steering(engine::FlowSteering s) { steering = s; return *this; }
  /// Does nothing: the worker pool no longer steals (shared ownership
  /// places every unit on the least-loaded of two sampled workers
  /// instead). Kept only because the frozen benchmark source
  /// perfbench/src/inproc.cpp calls it.
  NodeOptions& with_work_stealing(bool /*on*/) { return *this; }
  NodeOptions& with_queue_depth(std::size_t n) { queue_depth = n; return *this; }
  NodeOptions& with_burst_size(std::size_t n) { burst_size = n; return *this; }
};

/// Aggregate view over the node's internal engines. Quiescent-only in
/// parallel modes (between process() calls), like the pipeline's own
/// aggregate_stats().
struct NodeStats {
  engine::EngineStats engine;      ///< summed over every internal engine
  std::uint64_t bursts = 0;        ///< process() calls
  std::uint64_t units = 0;         ///< packets run through an engine
  std::uint64_t passthrough = 0;   ///< packets carried through untouched
  /// Bases resident across the node's dictionaries. In per_flow parallel
  /// mode the flow dictionaries live inside the pipeline workers and are
  /// not aggregated here (reported as 0).
  std::size_t dictionary_bases = 0;
  /// Dictionary operation counters summed over the node's dictionaries
  /// (hits, inserts, evictions, clock_touches, turnstile_waits, ...).
  /// Zero in per_flow parallel mode, like dictionary_bases.
  gd::DictionaryStats dictionary;
  std::size_t workers = 1;
  /// Resolved zipline::simd kernel level the node's hot loops (syndrome
  /// fold, bit packing, block shifts) dispatch to. Process-wide, recorded
  /// here so bench JSON can say which code path actually ran on the
  /// producing host.
  simd::KernelLevel kernel_level = simd::KernelLevel::scalar;
  /// The level that was ASKED for (ZIPLINE_SIMD override or CPU probe)
  /// before build-support clamping. kernel_level_requested != kernel_level
  /// makes a clamped request — e.g. avx512 forced on a non-AVX-512 build —
  /// visible in stats instead of silently downgrading.
  simd::KernelLevel kernel_level_requested = simd::KernelLevel::scalar;
  /// Per-slot resolved levels from the active kernel table (indexed by
  /// simd::KernelSlot). Slots without an implementation at the table's
  /// headline level report the tier that actually serves them (e.g. block
  /// shifts run scalar inside an sse42 table).
  std::array<simd::KernelLevel, simd::kKernelSlotCount> kernel_slot_levels{};
  /// Payload bytes the node physically copied while producing output:
  /// engine output appended into `out` and parallel-decode unit staging.
  /// Passthrough splices and segment-ref shares cost 0 here (burst-level
  /// deltas of Burst::bytes_copied).
  std::uint64_t bytes_copied = 0;
  /// bytes_copied averaged over input packets (units + passthrough) —
  /// the per-packet memory-traffic price of traversing the node, the
  /// headline counter of BM_NodeEncodeBurst's passthrough sweep.
  double copies_per_packet = 0.0;
};

class Node {
 public:
  explicit Node(NodeOptions options);
  ~Node();

  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  /// Runs one burst through the node, appending results to `out` (which
  /// callers clear between bursts to recycle its arena) in input order.
  /// One call is one flush boundary: every unit of `in` is delivered
  /// before it returns. `in` must stay valid for the duration of the
  /// call (unit inputs are views into its payloads) — and until `out` is
  /// cleared, copied, or consumed: passthrough packets in `out` may VIEW
  /// `in`'s payload memory (segment-backed ones carry their own refs and
  /// are lifetime-safe regardless). io::Runner's pump and a ring push
  /// both satisfy this (a Burst copy materializes foreign views).
  void process(const Burst& in, Burst& out);

  [[nodiscard]] const NodeOptions& options() const noexcept {
    return options_;
  }
  [[nodiscard]] NodeStats stats() const;

 private:
  /// A serial engine plus the unit it runs in the current burst.
  struct SerialEngine {
    explicit SerialEngine(const NodeOptions& o)
        : engine(o.params, o.policy, o.learn, o.dictionary_shards) {}
    engine::Engine engine;
    std::uint64_t burst = 0;  ///< last burst (bursts_ value) it served
    std::uint32_t unit = 0;   ///< its unit's index in that burst
  };
  /// engine::UnitSink landing a serial unit's output in `out`.
  struct OutputSink;

  [[nodiscard]] SerialEngine& serial_engine(std::uint32_t flow);
  /// Appends one output packet of input packet `i` to `out`, with `i`'s
  /// metadata: the wire packet on encode, the recovered raw packet on
  /// decode.
  void append_output(const Burst& in, std::size_t i,
                     const engine::PacketDesc& desc,
                     std::span<const std::uint8_t> bytes, Burst& out) const;
  void append_passthrough(const Burst& in, std::size_t i, Burst& out);
  void copy_passthrough(const Burst& in, Burst& out, std::size_t end);
  void process_serial(const Burst& in, Burst& out);
  void process_parallel(const Burst& in, Burst& out);

  NodeOptions options_;

  // Serial arrangement: engines created on first use, reused forever.
  std::unordered_map<std::uint32_t, SerialEngine> flow_engines_;
  std::optional<SerialEngine> shared_engine_;
  // Per-burst serial staging, grow-only: the burst's units, its processed
  // packets grouped by unit (input order within each), and the input
  // packet behind every packet appended to `out`.
  std::vector<SerialEngine*> unit_engines_;
  std::vector<std::uint32_t> packet_unit_;   ///< per processed packet
  std::vector<std::uint32_t> unit_begin_;    ///< unit -> unit_packets_ offset
  std::vector<std::uint32_t> unit_packets_;  ///< input indices, by unit
  std::vector<std::uint32_t> out_source_;
  std::vector<std::uint32_t> sort_counts_;

  // Parallel arrangement (one direction per node).
  std::unique_ptr<engine::ParallelEncoder> parallel_encoder_;
  std::unique_ptr<engine::ParallelDecoder> parallel_decoder_;
  /// Per-unit staging for parallel decode: one single-packet EncodeBatch
  /// per in-flight unit of the current burst, arenas recycled across
  /// bursts. Grown (if needed) before any submit, so element addresses
  /// are stable while units are in flight.
  std::vector<engine::EncodeBatch> staged_;

  // Per-burst delivery state (valid inside process()): the ordered drain
  // delivers units in submission order, so one cursor splices passthrough
  // packets back in at their original positions.
  const Burst* in_ = nullptr;
  Burst* out_ = nullptr;
  std::vector<std::uint32_t> unit_index_;  ///< unit # within burst -> packet
  std::uint64_t burst_base_seq_ = 0;
  std::size_t next_input_ = 0;

  // Counters (engine stats live in the engines themselves).
  std::uint64_t bursts_ = 0;
  std::uint64_t units_ = 0;
  std::uint64_t passthrough_ = 0;
  std::uint64_t bytes_copied_ = 0;
};

}  // namespace zipline::io

namespace zipline {
// The facade names, at the namespace the rest of the library lives in.
using io::Node;      // NOLINT(misc-unused-using-decls)
using io::NodeOptions;  // NOLINT(misc-unused-using-decls)
}  // namespace zipline
