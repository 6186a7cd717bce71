// Multi-core batch pipeline over the engine: stager -> workers -> sink.
//
// Batches are self-contained units of work, so horizontal scale falls out
// of handing whole EncodeBatch / DecodeBatch units to a fixed pool of
// worker threads. The caller thread is both the stager and the sink: it
// routes each submitted unit to a worker over that worker's SPSC input
// ring, and collects finished units from the workers' SPSC output rings.
//
// Dictionary ownership (ParallelOptions::ownership):
//
//   * per_flow (default) — every flow owns a private Engine (dictionary,
//     transform, stats) on the worker it is steered to. Units of one flow
//     are processed in submission order by one thread, so the delivered
//     output is byte-identical to running each flow through a
//     single-threaded Engine; dictionary memory scales with the number of
//     flows.
//   * shared — all workers of the pipeline's direction consult and teach
//     ONE gd::ConcurrentShardedDictionary (striped writes, lock-free
//     seqlock reads), the paper's one-table-per-direction switch
//     reality: flows deduplicate against each other and dictionary
//     memory no longer scales with workers or flows. Only the resolve
//     (dictionary) phases are sequenced — PER SHARD, via per-shard
//     turnstiles — while transforms and serialization run concurrently.
//     Each resolve gathers its unit's dictionary operations into one
//     batched plan (gd::BatchOp) grouped by shard, and basis hashing
//     happens in the concurrent transform/parse phase, so each gate's
//     critical section is one shard's map work and nothing else. The
//     dictionary still replays, per shard, the exact operation order a
//     single-threaded Engine would produce, making the parallel output
//     byte-identical to the serial engine and replayable by any decoder
//     (tests/flow_steering_test.cpp and tests/shard_turnstile_test.cpp
//     assert both, under Zipf-skewed flows).
//
// Either way a worker runs its unit as the engine's transform -> resolve
// -> emit phases (engine/engine.hpp) on the job slot's unit scratch; the
// ownership mode only decides whether the resolve waits its turn.
//
// Per-shard turnstile admission (shared mode): admission is two phase.
// After its (concurrent) transform+plan a unit passes a short
// REGISTRATION turnstile in global submission order, where it takes one
// ticket per shard its plan touches — registration holds no locks and
// does no dictionary work, it only assigns tickets. Each shard then has
// its own gate admitting ticket holders in ticket order: a unit waits
// only behind EARLIER units that touch the SAME shards, so units with
// disjoint shard footprints resolve concurrently. Per-shard ticket order
// equals global submission order restricted to that shard — exactly the
// per-shard op sequence a serial engine produces — which preserves byte-
// identity. A unit's wait-for edges always point at units registered (=
// submitted) before it, so the wait graph is acyclic; gates advance even
// for failed units. The shared service counts admissions that actually
// blocked in DictionaryStats::turnstile_waits.
//
// Placement (ParallelOptions::steering). Every unit goes to exactly one
// worker's FIFO input ring, and each worker pops only its own ring.
//
//   * pinned — flow % workers, the historical static pin.
//   * load_aware — power-of-two-choices on the workers' free job slots.
//
// Under per_flow ownership a flow's private engine lives on one worker,
// so the choice is made at the flow's FIRST unit and is sticky thereafter
// (flow_worker() reports it). Under shared ownership the choice is made
// afresh for EVERY unit: any worker may encode any flow, and placement
// never affects output bytes, because the registration turnstile orders
// the dictionary work by submission order whatever ring a unit rode. Hot
// flows of a Zipf-skewed mix thereby spread over the whole pool.
//
// Deadlock freedom (shared mode): let k be the oldest unregistered unit.
// Every unit ahead of k on its FIFO ring was submitted earlier, so it is
// already registered; registered units wait only at shard gates, behind
// earlier registered units, each of which a worker is actively running —
// so the earliest of them always progresses. Hence k's worker finishes
// what it holds, pops k, and k registers. This needs every unit to run on
// the worker whose ring it was placed on. The pool once let idle workers
// pop the head of OTHER workers' rings, which wedged: a thief found its
// own ring empty just before the stager pushed k into it and k+1 onto
// another ring, stole k+1 and blocked in the registration turnstile
// waiting for k, while every other worker popped a later unit from its
// own ring and blocked too — k sat at a ring head no free worker would
// ever pop.
//
// Ordered drain: the sink callback observes units in global submission
// order, regardless of which worker finished first. A worker completes
// its ring's units in ring order, so the stager only logs each unit's
// worker at submit time; the drain then pops the output ring of the
// worker holding the next expected unit, whose head is that unit.
//
// Memory discipline matches the engine core: job slots (with their batch
// arenas and unit scratch) are fixed at construction and recycled
// through the rings, so in steady state a submit/flush cycle performs zero
// heap allocations on any thread (tests/engine_alloc_test.cpp asserts it
// for both ownership modes).
#pragma once

#include <atomic>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/contracts.hpp"
#include "common/rng.hpp"
#include "engine/batch.hpp"
#include "engine/engine.hpp"
#include "gd/concurrent_dictionary.hpp"

namespace zipline::engine {

/// Who owns the dictionary the workers consult (see file comment).
enum class DictionaryOwnership : std::uint8_t {
  per_flow,  ///< private Engine + dictionary per flow (historical default)
  shared,    ///< one ConcurrentShardedDictionary for the whole direction
};

/// How units pick their worker (per flow and sticky under per_flow
/// ownership, per unit under shared ownership — see file comment).
enum class FlowSteering : std::uint8_t {
  pinned,      ///< flow % workers
  load_aware,  ///< power-of-two-choices on free job slots
};

struct ParallelOptions {
  /// Fixed worker-pool size. One worker degenerates to the single-threaded
  /// engine with a thread in the middle.
  std::size_t workers = 1;
  /// In-flight units per worker (job slots = ring depth).
  std::size_t queue_depth = 16;
  /// Dictionary shards (gd/sharded_dictionary.hpp): per flow engine in
  /// per_flow mode, lock stripes of the one service in shared mode.
  std::size_t dictionary_shards = 1;
  gd::EvictionPolicy policy = gd::EvictionPolicy::lru;
  bool learn = true;
  DictionaryOwnership ownership = DictionaryOwnership::per_flow;
  FlowSteering steering = FlowSteering::pinned;
};

namespace detail {

/// Fixed-capacity single-producer single-consumer ring of job-slot
/// indices. Capacity rounds up to a power of two.
class SpscRing {
 public:
  explicit SpscRing(std::size_t capacity);

  bool try_push(std::uint32_t value) noexcept;
  bool try_pop(std::uint32_t& value) noexcept;

 private:
  std::vector<std::uint32_t> slots_;
  std::size_t mask_ = 0;
  alignas(64) std::atomic<std::size_t> head_{0};  // consumer cursor
  alignas(64) std::atomic<std::size_t> tail_{0};  // producer cursor
};

}  // namespace detail

/// Encode stage: payload bytes -> EncodeBatch. The payload memory must
/// stay valid until the unit is delivered to the sink.
struct EncodeStage {
  using Input = std::span<const std::uint8_t>;
  using Output = EncodeBatch;
  using Scratch = EncodeUnit;
  static void transform(Engine& engine, const Input& in, Scratch& scratch) {
    engine.encode_transform(in, scratch);
  }
  static void resolve(Engine& engine, Scratch& scratch) {
    engine.encode_resolve(scratch);
  }
  // Split resolve for the per-shard turnstiles: plan (pure) -> the
  // pipeline's per-shard Engine::resolve_shard calls -> finish (pure).
  static void plan(Engine& engine, Scratch& scratch) {
    engine.encode_resolve_plan(scratch);
  }
  static void finish(Engine& engine, Scratch& scratch) {
    engine.encode_resolve_finish(scratch);
  }
  static void emit(Engine& engine, const Scratch& scratch, Output& out) {
    out.clear();
    engine.encode_emit(scratch, out);
  }
};

/// Decode stage: encoded batch -> DecodeBatch. The input batch must stay
/// valid until the unit is delivered to the sink.
struct DecodeStage {
  using Input = const EncodeBatch*;
  using Output = DecodeBatch;
  using Scratch = DecodeUnit;
  static void transform(Engine& engine, const Input& in, Scratch& scratch) {
    engine.decode_parse(*in, scratch);
  }
  static void resolve(Engine& engine, Scratch& scratch) {
    engine.decode_resolve(scratch);
  }
  static void plan(Engine& engine, Scratch& scratch) {
    engine.decode_resolve_plan(scratch);
  }
  static void finish(Engine& engine, Scratch& scratch) {
    engine.decode_resolve_finish(scratch);
  }
  static void emit(Engine& engine, const Scratch& scratch, Output& out) {
    out.clear();
    engine.decode_emit(scratch, out);
  }
};

template <typename Stage>
class ParallelPipeline {
 public:
  /// One finished unit of work, streamed to the sink. The output view is
  /// valid only for the duration of the sink call — the slot (and its
  /// arena) is recycled as soon as the sink returns.
  struct Unit {
    std::uint64_t seq = 0;    ///< global submission sequence number
    std::uint32_t flow = 0;
    const typename Stage::Output* output = nullptr;
  };
  using Sink = std::function<void(const Unit&)>;

  ParallelPipeline(const gd::GdParams& params, const ParallelOptions& options,
                   Sink sink);
  ~ParallelPipeline();

  ParallelPipeline(const ParallelPipeline&) = delete;
  ParallelPipeline& operator=(const ParallelPipeline&) = delete;

  /// Stages one unit for `flow` on the worker steer() picks. Blocks
  /// (draining finished units into the sink) when that worker has no free
  /// job slot.
  void submit(std::uint32_t flow, typename Stage::Input input);

  /// Blocks until every submitted unit has been delivered to the sink.
  /// If any unit's stage threw, rethrows the first such exception here on
  /// the caller thread (the failed unit is not delivered to the sink;
  /// later units still complete). Worker threads never terminate the
  /// process on a stage exception.
  void flush();

  [[nodiscard]] std::uint64_t submitted() const noexcept { return submitted_; }
  [[nodiscard]] std::uint64_t delivered() const noexcept { return delivered_; }
  [[nodiscard]] const ParallelOptions& options() const noexcept {
    return options_;
  }
  [[nodiscard]] const gd::GdParams& params() const noexcept { return params_; }

  /// Statistics of the private engine serving `flow`, or nullptr if the
  /// flow never submitted (or the pipeline runs a shared dictionary, where
  /// flows have no private engine — use aggregate_stats()). Only
  /// meaningful when the pipeline is quiescent (after flush() and before
  /// the next submit()).
  [[nodiscard]] const EngineStats* flow_stats(std::uint32_t flow) const;

  /// Sum of every engine's statistics (per-flow engines or per-worker
  /// shared-mode engines). Quiescent-only, like flow_stats().
  [[nodiscard]] EngineStats aggregate_stats() const;

  /// The one dictionary service all workers share, or nullptr in per_flow
  /// mode. There is exactly one per pipeline — dictionary memory does not
  /// scale with the worker count.
  [[nodiscard]] const gd::ConcurrentShardedDictionary* shared_dictionary()
      const noexcept {
    return service_.has_value() ? &*service_ : nullptr;
  }

  /// The worker a flow is stuck to, if it ever submitted (diagnostics).
  /// Always nullopt under shared ownership, where every unit is placed on
  /// its own and no flow is stuck anywhere.
  [[nodiscard]] std::optional<std::size_t> flow_worker(
      std::uint32_t flow) const {
    const auto it = flow_worker_.find(flow);
    if (it == flow_worker_.end()) return std::nullopt;
    return static_cast<std::size_t>(it->second);
  }

 private:
  struct Job {
    std::uint64_t seq = 0;
    std::uint32_t flow = 0;
    typename Stage::Input input{};
    typename Stage::Output output;
    typename Stage::Scratch scratch;  ///< the unit's phase staging
    /// Per-shard admission tickets taken at registration (shared mode;
    /// sized to dictionary_shards at construction) and the unit's
    /// touched-shard list (grow-free: reserved to dictionary_shards).
    std::vector<std::uint64_t> tickets;
    std::vector<std::uint32_t> touched;
    std::exception_ptr error;  ///< stage failure, ferried to the caller
  };

  struct Worker {
    Worker(const gd::GdParams& params, const ParallelOptions& options,
           gd::ConcurrentShardedDictionary* service);
    std::vector<Job> jobs;            // fixed slot pool, arenas recycled
    detail::SpscRing in;              // stager -> worker (slot indices)
    detail::SpscRing out;             // worker -> sink (slot indices)
    std::vector<std::uint32_t> free_slots;  // caller-owned free stack
    alignas(64) std::atomic<std::uint64_t> doorbell{0};
    std::unordered_map<std::uint32_t, Engine> engines;  // per_flow mode
    std::optional<Engine> engine;                       // shared mode
    std::thread thread;
  };

  void worker_loop(Worker& self);
  [[nodiscard]] bool next_job(Worker& self, std::uint32_t& slot);
  void run_private(Worker& self, Job& job);
  void run_shared(Worker& self, Job& job);
  [[nodiscard]] std::uint32_t steer(std::uint32_t flow);
  [[nodiscard]] std::uint32_t place(std::uint32_t flow);
  [[nodiscard]] std::size_t load(std::uint32_t worker) const noexcept {
    return options_.queue_depth - workers_[worker]->free_slots.size();
  }
  void pump(bool may_block);
  void deliver(Worker& owner, std::uint32_t slot);

  gd::GdParams params_;
  ParallelOptions options_;
  Sink sink_;
  std::optional<gd::ConcurrentShardedDictionary> service_;  // shared mode
  std::vector<std::unique_ptr<Worker>> workers_;
  /// One admission gate per dictionary shard (shared mode).
  /// next_ticket is a PLAIN field: it is only ever read/written while the
  /// registration turnstile admits exactly one unit, and the turnstile's
  /// release/acquire handoff chain orders those accesses. turn is the
  /// gate's admission counter, advanced by every ticket holder (even
  /// failed ones).
  struct alignas(64) ShardGate {
    std::uint64_t next_ticket = 0;
    std::atomic<std::uint64_t> turn{0};
  };

  std::atomic<bool> stop_{false};
  alignas(64) std::atomic<std::uint64_t> completions_{0};
  /// Registration turnstile (shared mode): units pass it in global
  /// submission order to take their per-shard tickets — no locks, no
  /// dictionary work, just ticket assignment. Advanced by every unit,
  /// even failed ones (which register an empty footprint).
  alignas(64) std::atomic<std::uint64_t> register_turn_{0};
  std::unique_ptr<ShardGate[]> gates_;  // [dictionary_shards], shared mode

  // Caller-thread state (stager + sink side).
  std::uint64_t submitted_ = 0;
  std::uint64_t delivered_ = 0;
  /// Worker each in-flight unit was placed on, indexed by seq modulo the
  /// total slot count (which bounds the in-flight units, so entries never
  /// collide): the ordered drain's map from next seq to output ring.
  std::vector<std::uint32_t> placement_;
  std::unordered_map<std::uint32_t, std::uint32_t> flow_worker_;  // per_flow
  Rng steer_rng_{0x57EE21};
  std::exception_ptr first_error_;
};

using ParallelEncoder = ParallelPipeline<EncodeStage>;
using ParallelDecoder = ParallelPipeline<DecodeStage>;

// --- member definitions ----------------------------------------------------
// In the header so consumers can instantiate the pipeline over their own
// stages (gd/stream.cpp decodes whole containers this way); the common
// encode/decode stages are compiled once in parallel.cpp.

template <typename Stage>
ParallelPipeline<Stage>::Worker::Worker(
    const gd::GdParams& params, const ParallelOptions& options,
    gd::ConcurrentShardedDictionary* service)
    : jobs(options.queue_depth),
      in(options.queue_depth),
      out(options.queue_depth) {
  free_slots.reserve(options.queue_depth);
  for (std::size_t slot = options.queue_depth; slot-- > 0;) {
    free_slots.push_back(static_cast<std::uint32_t>(slot));
  }
  if (service != nullptr) {
    // Size the per-shard ticket arrays up front so the admission path
    // allocates nothing in steady state (engine_alloc_test).
    for (Job& job : jobs) {
      job.tickets.resize(options.dictionary_shards);
      job.touched.reserve(options.dictionary_shards);
    }
    engine.emplace(params, *service, options.learn);
  }
}

template <typename Stage>
ParallelPipeline<Stage>::ParallelPipeline(const gd::GdParams& params,
                                          const ParallelOptions& options,
                                          Sink sink)
    : params_(params), options_(options), sink_(std::move(sink)) {
  ZL_EXPECTS(options_.workers >= 1 && options_.workers < (1u << 16));
  ZL_EXPECTS(options_.queue_depth >= 1);
  if (options_.ownership == DictionaryOwnership::shared) {
    service_.emplace(params_.dictionary_capacity(), options_.policy,
                     options_.dictionary_shards);
    gates_ = std::make_unique<ShardGate[]>(options_.dictionary_shards);
  }
  workers_.reserve(options_.workers);
  for (std::size_t i = 0; i < options_.workers; ++i) {
    workers_.push_back(std::make_unique<Worker>(
        params_, options_, service_.has_value() ? &*service_ : nullptr));
  }
  placement_.resize(options_.workers * options_.queue_depth);
  for (auto& worker : workers_) {
    Worker* w = worker.get();
    w->thread = std::thread([this, w] { worker_loop(*w); });
  }
}

template <typename Stage>
ParallelPipeline<Stage>::~ParallelPipeline() {
  try {
    flush();
  } catch (...) {
    // Teardown without a prior flush(): the error already missed its
    // delivery point; dropping it beats terminating.
  }
  stop_.store(true, std::memory_order_release);
  for (auto& worker : workers_) {
    worker->doorbell.fetch_add(1, std::memory_order_release);
    worker->doorbell.notify_one();
  }
  for (auto& worker : workers_) {
    if (worker->thread.joinable()) worker->thread.join();
  }
}

template <typename Stage>
bool ParallelPipeline<Stage>::next_job(Worker& self, std::uint32_t& slot) {
  for (;;) {
    // Snapshot the doorbell before the pop: a push (or stop) landing
    // after the snapshot changes the value, so the wait below cannot
    // sleep through it.
    const std::uint64_t seen = self.doorbell.load(std::memory_order_acquire);
    if (self.in.try_pop(slot)) return true;
    if (stop_.load(std::memory_order_acquire)) return false;
    self.doorbell.wait(seen, std::memory_order_acquire);
  }
}

template <typename Stage>
void ParallelPipeline<Stage>::run_private(Worker& self, Job& job) {
  try {
    // One private engine per flow: created on the flow's first unit
    // (warmup), found allocation-free afterwards. A per_flow job only
    // ever runs on its flow's sticky worker, so the flow's engine lives
    // here, and the unit runs transform -> resolve -> emit back to back
    // on the slot's scratch: a private dictionary needs none of
    // run_shared's turnstiles.
    const auto [it, inserted] =
        self.engines.try_emplace(job.flow, params_, options_.policy,
                                 options_.learn, options_.dictionary_shards);
    Engine& engine = it->second;
    Stage::transform(engine, job.input, job.scratch);
    Stage::resolve(engine, job.scratch);
    Stage::emit(engine, job.scratch, job.output);
  } catch (...) {
    // Never let a stage failure (e.g. a contract violation on hostile
    // input) escape the thread and terminate the process; flush()
    // rethrows it on the caller thread instead.
    job.error = std::current_exception();
  }
}

template <typename Stage>
void ParallelPipeline<Stage>::run_shared(Worker& self, Job& job) {
  Engine& engine = *self.engine;
  // Two-phase per-shard admission (see file comment): the pure transform
  // AND the plan (op gathering + shard grouping, no dictionary access)
  // run concurrently; the unit then registers in global submission order,
  // taking one ticket per touched shard, and is admitted to each shard's
  // dictionary work in ticket order. Per-shard ticket order == global
  // submission order restricted to that shard — exactly the per-shard op
  // sequence a serial engine produces — which is the property the
  // byte-identity and decode guarantees rest on.
  bool planned = false;
  try {
    Stage::transform(engine, job.input, job.scratch);
    Stage::plan(engine, job.scratch);
    planned = true;
  } catch (...) {
    job.error = std::current_exception();
  }
  job.touched.clear();
  if (planned) {
    for (std::size_t s = 0; s < options_.dictionary_shards; ++s) {
      if (engine.resolve_plan_touches(s)) {
        job.touched.push_back(static_cast<std::uint32_t>(s));
      }
    }
  }
  // Registration turnstile: take tickets in submission order. A failed
  // (or shardless) unit registers an empty footprint — it holds no
  // tickets, so no later unit ever waits on it at a gate — and the
  // turnstile itself advances even on failure, or every later unit would
  // deadlock behind the gap.
  std::uint64_t turn = register_turn_.load(std::memory_order_acquire);
  while (turn != job.seq) {
    register_turn_.wait(turn, std::memory_order_acquire);
    turn = register_turn_.load(std::memory_order_acquire);
  }
  for (const std::uint32_t s : job.touched) {
    job.tickets[s] = gates_[s].next_ticket++;
  }
  register_turn_.store(job.seq + 1, std::memory_order_release);
  register_turn_.notify_all();
  // Per-shard admission: wait only behind earlier ticket holders of the
  // SAME shard. Units with disjoint footprints pass their gates without
  // ever waiting on each other. Every gate advances even when this unit's
  // work failed, keeping later ticket holders live.
  for (const std::uint32_t s : job.touched) {
    ShardGate& gate = gates_[s];
    const std::uint64_t ticket = job.tickets[s];
    std::uint64_t admitted = gate.turn.load(std::memory_order_acquire);
    if (admitted != ticket) {
      // Count only admissions that actually block: the disjoint-footprint
      // regime leaves this counter at zero.
      service_->note_turnstile_wait();
      do {
        gate.turn.wait(admitted, std::memory_order_acquire);
        admitted = gate.turn.load(std::memory_order_acquire);
      } while (admitted != ticket);
    }
    if (!job.error) {
      try {
        engine.resolve_shard(s);
      } catch (...) {
        job.error = std::current_exception();
      }
    }
    gate.turn.store(ticket + 1, std::memory_order_release);
    gate.turn.notify_all();
  }
  if (!job.error) {
    try {
      Stage::finish(engine, job.scratch);
      Stage::emit(engine, job.scratch, job.output);
    } catch (...) {
      job.error = std::current_exception();
    }
  }
}

template <typename Stage>
void ParallelPipeline<Stage>::worker_loop(Worker& self) {
  std::uint32_t slot = 0;
  while (next_job(self, slot)) {
    Job& job = self.jobs[slot];
    job.error = nullptr;
    if (options_.ownership == DictionaryOwnership::shared) {
      run_shared(self, job);
    } else {
      run_private(self, job);
    }
    const bool pushed = self.out.try_push(slot);
    ZL_ASSERT(pushed && "output ring sized to the slot pool");
    completions_.fetch_add(1, std::memory_order_release);
    completions_.notify_one();
  }
}

template <typename Stage>
void ParallelPipeline<Stage>::deliver(Worker& owner, std::uint32_t slot) {
  Job& job = owner.jobs[slot];
  // Account the unit and recycle the slot BEFORE the sink runs: a throwing
  // sink then propagates to the caller with the pipeline still consistent
  // (no leaked slot, no flush()/destructor hang). The job's output stays
  // intact through the sink call — free_slots is only consumed by
  // submit(), on this same thread.
  owner.free_slots.push_back(slot);
  ++delivered_;
  if (job.error) {
    if (!first_error_) first_error_ = job.error;
    job.error = nullptr;
  } else if (sink_) {
    sink_(Unit{job.seq, job.flow, &job.output});
  }
}

template <typename Stage>
void ParallelPipeline<Stage>::pump(bool may_block) {
  // Snapshot before popping: a completion that lands after it bumps the
  // counter past the snapshot, so a blocking wait returns immediately.
  const std::uint64_t seen = completions_.load(std::memory_order_acquire);
  bool progressed = false;
  while (delivered_ < submitted_) {
    // The next unit in submission order is the oldest undelivered unit of
    // the worker it was placed on, and that worker completes its ring in
    // order — so it is the head of that worker's output ring, or not done.
    Worker& owner = *workers_[placement_[delivered_ % placement_.size()]];
    std::uint32_t slot = 0;
    if (!owner.out.try_pop(slot)) break;
    ZL_ASSERT(owner.jobs[slot].seq == delivered_);
    progressed = true;
    deliver(owner, slot);
  }
  if (!progressed && may_block && delivered_ < submitted_) {
    completions_.wait(seen, std::memory_order_acquire);
  }
}

template <typename Stage>
std::uint32_t ParallelPipeline<Stage>::steer(std::uint32_t flow) {
  // Shared ownership: any worker may run any unit, so place each one on
  // its own. per_flow: the flow's engine lives on one worker, so the
  // first unit's placement sticks.
  if (options_.ownership == DictionaryOwnership::shared) return place(flow);
  const auto it = flow_worker_.find(flow);
  if (it != flow_worker_.end()) return it->second;
  const std::uint32_t choice = place(flow);
  flow_worker_.emplace(flow, choice);
  return choice;
}

template <typename Stage>
std::uint32_t ParallelPipeline<Stage>::place(std::uint32_t flow) {
  if (options_.steering == FlowSteering::pinned || options_.workers == 1) {
    return static_cast<std::uint32_t>(flow % options_.workers);
  }
  // Power of two choices on the current loads (occupied job slots):
  // sample two distinct candidates, keep the emptier one.
  const std::size_t count = options_.workers;
  const auto a = static_cast<std::uint32_t>(steer_rng_.next_below(count));
  auto b = static_cast<std::uint32_t>(steer_rng_.next_below(count - 1));
  if (b >= a) ++b;
  return load(a) <= load(b) ? a : b;
}

template <typename Stage>
void ParallelPipeline<Stage>::submit(std::uint32_t flow,
                                     typename Stage::Input input) {
  const std::uint32_t index = steer(flow);
  Worker& worker = *workers_[index];
  while (worker.free_slots.empty()) {
    pump(/*may_block=*/true);
  }
  const std::uint32_t slot = worker.free_slots.back();
  worker.free_slots.pop_back();
  Job& job = worker.jobs[slot];
  job.seq = submitted_++;
  job.flow = flow;
  job.input = input;
  placement_[job.seq % placement_.size()] = index;
  const bool pushed = worker.in.try_push(slot);
  ZL_ASSERT(pushed && "input ring sized to the slot pool");
  worker.doorbell.fetch_add(1, std::memory_order_release);
  worker.doorbell.notify_one();
}

template <typename Stage>
void ParallelPipeline<Stage>::flush() {
  while (delivered_ < submitted_) {
    pump(/*may_block=*/true);
  }
  if (first_error_) {
    std::exception_ptr error = first_error_;
    first_error_ = nullptr;
    std::rethrow_exception(error);
  }
}

template <typename Stage>
const EngineStats* ParallelPipeline<Stage>::flow_stats(
    std::uint32_t flow) const {
  const auto wi = flow_worker_.find(flow);
  if (wi == flow_worker_.end()) return nullptr;
  const Worker& worker = *workers_[wi->second];
  const auto it = worker.engines.find(flow);
  return it == worker.engines.end() ? nullptr : &it->second.stats();
}

template <typename Stage>
EngineStats ParallelPipeline<Stage>::aggregate_stats() const {
  EngineStats total;
  const auto add = [&total](const EngineStats& s) {
    total.chunks += s.chunks;
    total.raw_packets += s.raw_packets;
    total.uncompressed_packets += s.uncompressed_packets;
    total.compressed_packets += s.compressed_packets;
    total.bytes_in += s.bytes_in;
    total.bytes_out += s.bytes_out;
    total.batches += s.batches;
  };
  for (const auto& worker : workers_) {
    if (worker->engine.has_value()) add(worker->engine->stats());
    for (const auto& [flow, engine] : worker->engines) add(engine.stats());
  }
  return total;
}

extern template class ParallelPipeline<EncodeStage>;
extern template class ParallelPipeline<DecodeStage>;

}  // namespace zipline::engine
