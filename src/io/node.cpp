#include "io/node.hpp"

#include <algorithm>
#include <numeric>

#include "common/contracts.hpp"
#include "gd/packet.hpp"

namespace zipline::io {

namespace {

engine::ParallelOptions parallel_options(const NodeOptions& o) {
  engine::ParallelOptions p;
  p.workers = o.workers;
  p.queue_depth = o.queue_depth;
  p.dictionary_shards = o.dictionary_shards;
  p.policy = o.policy;
  p.learn = o.learn;
  p.ownership = o.ownership;
  p.steering = o.steering;
  return p;
}

void accumulate(engine::EngineStats& total, const engine::EngineStats& s) {
  total.chunks += s.chunks;
  total.raw_packets += s.raw_packets;
  total.uncompressed_packets += s.uncompressed_packets;
  total.compressed_packets += s.compressed_packets;
  total.bytes_in += s.bytes_in;
  total.bytes_out += s.bytes_out;
  total.batches += s.batches;
}

}  // namespace

Node::Node(NodeOptions options) : options_(options) {
  ZL_EXPECTS(options_.workers >= 1);
  ZL_EXPECTS(options_.burst_size >= 1);
  if (options_.workers == 1) return;  // serial engines, created on first use
  const engine::ParallelOptions popts = parallel_options(options_);
  if (options_.direction == Direction::encode) {
    parallel_encoder_ = std::make_unique<engine::ParallelEncoder>(
        options_.params, popts,
        [this](const engine::ParallelEncoder::Unit& unit) {
          const std::size_t target =
              unit_index_[unit.seq - burst_base_seq_];
          copy_passthrough(*in_, *out_, target);
          const engine::EncodeBatch& batch = *unit.output;
          for (const engine::PacketDesc& desc : batch.packets()) {
            append_output(*in_, target, desc, batch.payload(desc), *out_);
          }
          next_input_ = target + 1;
        });
  } else {
    parallel_decoder_ = std::make_unique<engine::ParallelDecoder>(
        options_.params, popts,
        [this](const engine::ParallelDecoder::Unit& unit) {
          const std::size_t target =
              unit_index_[unit.seq - burst_base_seq_];
          copy_passthrough(*in_, *out_, target);
          append_output(*in_, target, engine::PacketDesc{},
                        unit.output->bytes(), *out_);
          next_input_ = target + 1;
        });
  }
}

Node::~Node() = default;

Node::SerialEngine& Node::serial_engine(std::uint32_t flow) {
  if (options_.ownership == engine::DictionaryOwnership::shared) {
    // The switch's one-table-per-direction reality: one engine (hence
    // one dictionary) sees every flow's packets in input order.
    if (!shared_engine_) shared_engine_.emplace(options_);
    return *shared_engine_;
  }
  return flow_engines_.try_emplace(flow, options_).first->second;
}

/// Lands each output packet in `out` and notes which input packet it
/// came from; `packets` maps the unit's packet positions to input indices.
struct Node::OutputSink {
  Node* node;
  const Burst* in;
  Burst* out;
  std::span<const std::uint32_t> packets;

  void on_packet(std::size_t packet, const engine::PacketDesc& desc,
                 std::span<const std::uint8_t> bytes) {
    node->append_output(*in, packets[packet], desc, bytes, *out);
    node->out_source_.push_back(packets[packet]);
  }
};

void Node::append_output(const Burst& in, std::size_t i,
                         const engine::PacketDesc& desc,
                         std::span<const std::uint8_t> bytes,
                         Burst& out) const {
  const gd::PacketType type = options_.direction == Direction::decode
                                  ? gd::PacketType::raw
                                  : desc.type;
  out.append(type, desc.syndrome, desc.basis_id, bytes, in.meta(i));
  out.meta(out.size() - 1).ether_type = gd::ether_type_for(type);
}

void Node::append_passthrough(const Burst& in, std::size_t i, Burst& out) {
  out.append_view_from(in, i);
  ++passthrough_;
}

void Node::copy_passthrough(const Burst& in, Burst& out, std::size_t end) {
  for (; next_input_ < end; ++next_input_) {
    // Deliveries arrive in submission (== input) order, so a processed
    // packet the cursor crosses belongs to a FAILED unit: the pipeline
    // delivered it without invoking the sink and ferried its error to
    // flush(), which rethrows after the burst drains. Its output is
    // dropped here; everything else is passthrough.
    if (!in.meta(next_input_).process) append_passthrough(in, next_input_, out);
  }
}

void Node::process(const Burst& in, Burst& out) {
  ++bursts_;
  next_input_ = 0;
  const std::uint64_t out_before = out.bytes_copied();
  if (options_.workers > 1) {
    process_parallel(in, out);
  } else {
    process_serial(in, out);
  }
  bytes_copied_ += out.bytes_copied() - out_before;
}

void Node::process_serial(const Burst& in, Burst& out) {
  // One unit per engine: number the engines this burst touches in order
  // of first use, then group the processed packets by unit (a counting
  // sort, input order kept within each unit).
  unit_engines_.clear();
  packet_unit_.clear();
  for (std::size_t i = 0; i < in.size(); ++i) {
    if (!in.meta(i).process) continue;
    SerialEngine& se = serial_engine(in.meta(i).flow);
    if (se.burst != bursts_) {
      se.burst = bursts_;
      se.unit = static_cast<std::uint32_t>(unit_engines_.size());
      unit_engines_.push_back(&se);
    }
    packet_unit_.push_back(se.unit);
  }
  units_ += packet_unit_.size();
  unit_begin_.assign(unit_engines_.size() + 1, 0);
  for (const std::uint32_t u : packet_unit_) ++unit_begin_[u];
  std::partial_sum(unit_begin_.begin(), unit_begin_.end(), unit_begin_.begin());
  unit_packets_.resize(packet_unit_.size());
  // Backwards, so each unit_begin_[u] ends at the unit's first slot.
  for (std::size_t i = in.size(), p = packet_unit_.size(); i-- > 0;) {
    if (in.meta(i).process) {
      unit_packets_[--unit_begin_[packet_unit_[--p]]] =
          static_cast<std::uint32_t>(i);
    }
  }

  // Run every unit, each emitting straight into `out`.
  const std::size_t base = out.size();
  out_source_.clear();
  for (std::size_t u = 0; u < unit_engines_.size(); ++u) {
    const std::span<const std::uint32_t> packets(
        unit_packets_.data() + unit_begin_[u],
        unit_begin_[u + 1] - unit_begin_[u]);
    OutputSink sink{this, &in, &out, packets};
    engine::Engine& eng = unit_engines_[u]->engine;
    std::size_t k = 0;
    if (options_.direction == Direction::encode) {
      eng.encode_packets(
          [&](std::span<const std::uint8_t>& payload) {
            if (k == packets.size()) return false;
            payload = in.payload(packets[k++]);
            return true;
          },
          sink);
    } else {
      eng.decode_packets(
          [&](engine::WirePacket& wire) {
            if (k == packets.size()) return false;
            wire = {in.desc(packets[k]).type, in.payload(packets[k])};
            ++k;
            return true;
          },
          sink);
    }
  }
  for (std::size_t i = 0; i < in.size(); ++i) {
    if (in.meta(i).process) continue;
    append_passthrough(in, i, out);
    out_source_.push_back(static_cast<std::uint32_t>(i));
  }

  // Put `out` in input order: a stable counting sort on the source
  // packet, moving descriptors only. Already sorted — nothing moves — when
  // one unit served the whole burst and nothing passed through.
  if (std::is_sorted(out_source_.begin(), out_source_.end())) return;
  sort_counts_.assign(in.size() + 1, 0);
  for (const std::uint32_t i : out_source_) ++sort_counts_[i + 1];
  std::partial_sum(sort_counts_.begin(), sort_counts_.end(),
                   sort_counts_.begin());
  for (std::uint32_t& i : out_source_) i = sort_counts_[i]++;
  out.reorder(base, out_source_);
}

void Node::process_parallel(const Burst& in, Burst& out) {
  in_ = &in;
  out_ = &out;
  unit_index_.clear();
  burst_base_seq_ = options_.direction == Direction::encode
                        ? parallel_encoder_->submitted()
                        : parallel_decoder_->submitted();
  const auto flush = [this] {
    if (options_.direction == Direction::encode) {
      parallel_encoder_->flush();
    } else {
      parallel_decoder_->flush();
    }
  };
  if (options_.direction == Direction::decode) {
    // Grow the unit staging pool BEFORE any submit: in-flight units hold
    // pointers into staged_, which must not reallocate under them. The
    // flush window bounds it — slots recycle at each window boundary.
    std::size_t processed = 0;
    for (std::size_t i = 0; i < in.size(); ++i) {
      if (in.meta(i).process) ++processed;
    }
    const std::size_t target = std::min(processed, options_.burst_size);
    if (staged_.size() < target) staged_.resize(target);
  }
  try {
    // Units flush in windows of burst_size: bounds the in-flight set
    // (and the decode staging pool) without changing the output — flush
    // boundaries never affect the dictionary op order.
    std::size_t in_window = 0;
    for (std::size_t i = 0; i < in.size(); ++i) {
      const PacketMeta& meta = in.meta(i);
      if (!meta.process) continue;  // spliced back in by the drain cursor
      unit_index_.push_back(static_cast<std::uint32_t>(i));
      ++units_;
      if (options_.direction == Direction::encode) {
        parallel_encoder_->submit(meta.flow, in.payload(i));
      } else {
        engine::EncodeBatch& staged = staged_[in_window];
        staged.clear();
        const engine::PacketDesc& d = in.desc(i);
        staged.append(d.type, d.syndrome, d.basis_id, in.payload(i));
        bytes_copied_ += in.payload(i).size();  // unit staging is a real copy
        parallel_decoder_->submit(meta.flow, &staged);
      }
      if (++in_window == options_.burst_size) {
        flush();
        in_window = 0;
      }
    }
    flush();
  } catch (...) {
    // A failed unit surfaced at flush(), which drains every in-flight
    // unit before rethrowing — the pipeline is quiescent and the node
    // stays usable for the next burst; only this burst's output is
    // incomplete. Drop the burst-local views before rethrowing.
    in_ = nullptr;
    out_ = nullptr;
    throw;
  }
  copy_passthrough(in, out, in.size());
  in_ = nullptr;
  out_ = nullptr;
}

NodeStats Node::stats() const {
  NodeStats s;
  s.bursts = bursts_;
  s.units = units_;
  s.passthrough = passthrough_;
  s.workers = options_.workers;
  s.kernel_level = simd::level();
  s.kernel_level_requested = simd::requested();
  s.kernel_slot_levels = simd::active().slot_levels;
  s.bytes_copied = bytes_copied_;
  const std::uint64_t packets_in = units_ + passthrough_;
  s.copies_per_packet =
      packets_in == 0 ? 0.0
                      : static_cast<double>(bytes_copied_) /
                            static_cast<double>(packets_in);
  if (parallel_encoder_ != nullptr) {
    s.engine = parallel_encoder_->aggregate_stats();
    if (const auto* dict = parallel_encoder_->shared_dictionary()) {
      s.dictionary_bases = dict->size();
      s.dictionary = dict->stats();
    }
  } else if (parallel_decoder_ != nullptr) {
    s.engine = parallel_decoder_->aggregate_stats();
    if (const auto* dict = parallel_decoder_->shared_dictionary()) {
      s.dictionary_bases = dict->size();
      s.dictionary = dict->stats();
    }
  } else {
    const auto add = [&s](const engine::Engine& eng) {
      accumulate(s.engine, eng.stats());
      s.dictionary_bases += eng.dictionary().size();
      s.dictionary += eng.dictionary_handle().stats();
    };
    if (shared_engine_.has_value()) add(shared_engine_->engine);
    for (const auto& [flow, se] : flow_engines_) add(se.engine);
  }
  return s;
}

}  // namespace zipline::io
