// Struct-of-arrays node state for the cell engine.
//
// The first engine stored one `NodeState` struct per node: a heap-owned id
// string, a `std::deque<Chunk>` queue (one allocation per ~512 chunks,
// pointer-chasing iteration), a `std::vector<double>` of latency samples,
// all interleaved so a service sweep touching only poses and rates dragged
// the whole struct through cache. At city scale (16 cells x 10k nodes) that
// layout is the bottleneck, and it costs one allocation per node per
// growing queue.
//
// `NodeSoA` stores each field as its own contiguous column, indexed by the
// node slot the engine hands out. Variable-length per-node state (the
// traffic FIFO, the latency samples) lives in shared chain pools as
// intrusive singly-linked chains with split value/next storage: a chunk
// costs 20 bytes, a latency sample 12, both recycled through free lists.
// The columns the sweep hot loop reads (pose, rate, alive) are dense and
// prefetch-friendly. Columns grow by ~12.5% when full rather than doubling:
// a handed-off node that overflows a pre-reserved fleet must not double the
// measured bytes-per-node (memory_bytes() counts capacity).
//
// The engine owns the semantics (who counts what, when); this class owns
// the layout. Columns are public on purpose — `nodes_.queued_bits[i]` in
// the engine reads like the old `n.queued_bits` — while the pooled chains
// are behind member functions that keep the head/tail/free-list discipline
// in one place.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "milback/cell/id_table.hpp"
#include "milback/cell/chain_pool.hpp"
#include "milback/channel/backscatter_channel.hpp"
#include "milback/core/round_types.hpp"
#include "milback/core/session.hpp"
#include "milback/obs/registry.hpp"

namespace milback::cell {

/// One queued traffic chunk: bits still pending and when they arrived
/// (latency closes against the arrival stamp when the chunk fully drains).
struct Chunk {
  double bits = 0.0;
  double arrival_s = 0.0;
};

class NodeSoA {
 public:
  /// Chain terminator / "no slot" sentinel for the pooled chains.
  static constexpr std::uint32_t kNone = 0xffffffffu;

  /// Appends a node row; every column gets its default. Returns the slot.
  std::size_t add(NodeId node_id, const core::TrafficSpec& spec,
                  double join_s, bool alive_now);

  std::size_t size() const noexcept { return id.size(); }

  /// --- Traffic FIFO (pooled chain, oldest chunk first) --------------------

  bool queue_empty(std::size_t i) const { return chunk_head_[i] == kNone; }

  /// Appends a chunk to node i's FIFO (bookkeeping of queued/offered bits
  /// stays with the caller — this is layout only).
  void push_chunk(std::size_t i, double bits, double arrival_s);

  /// Oldest chunk (mutable: the drain loop decrements bits in place).
  /// Requires a non-empty queue.
  Chunk& front_chunk(std::size_t i);

  /// Drops the oldest chunk, recycling its slot. Requires a non-empty queue.
  void pop_front_chunk(std::size_t i);

  /// Drains node i's FIFO into a vector (oldest first), recycling every
  /// slot — the handoff path: the backlog leaves with the node.
  std::vector<Chunk> take_chunks(std::size_t i);

  /// --- Latency samples (pooled chain, insertion order) --------------------

  /// Appends a latency sample for node i (insertion order is preserved so
  /// report statistics match the old vector layout sample-for-sample).
  void push_latency(std::size_t i, double latency_s);

  /// Replaces `out`'s contents with node i's samples in insertion order
  /// (report construction: one buffer reused across nodes, no allocation
  /// once it has grown to the longest chain).
  void latencies(std::size_t i, std::vector<double>& out) const;

  /// --- Capacity ----------------------------------------------------------

  /// Bytes reserved for all columns and pools (capacity, not size — what
  /// this store actually holds from the allocator).
  std::size_t allocated_bytes() const noexcept;

  /// Pre-sizes every column for `n` rows (one allocation burst up front
  /// instead of doubling during population build-up).
  void reserve(std::size_t n);

  /// --- Columns (index = node slot handed out by add()) --------------------

  std::vector<NodeId> id;
  std::vector<channel::NodePose> pose;
  std::vector<double> arrival_rate_bps;
  std::vector<double> burstiness;
  std::vector<double> join_time_s;
  std::vector<double> leave_time_s;       // -1 = still in the cell
  std::vector<std::uint8_t> alive;
  std::vector<double> rate_bps;
  std::vector<double> queued_bits;
  std::vector<double> offered_bits;
  std::vector<double> delivered_bits;
  std::vector<double> peak_queue_bits;
  std::vector<std::uint32_t> rounds_served;
  /// Sized lazily by the engine in sessions mode only (a session's scanner,
  /// tracker and counters, ~300 bytes/row, would push a row past the
  /// per-node byte budget, so probe-mode cells never pay for the column).
  /// A session holds no link: it steps on the engine's.
  std::vector<std::optional<core::AdaptiveSession>> session;
  /// Per-node telemetry handles. Sized lazily by the engine the first time
  /// it registers a node with metrics enabled (68 bytes/row — outside the
  /// per-node budget, so metrics-off fleets never allocate the columns).
  /// Empty columns mean "no per-node telemetry"; the engine's record sites
  /// check for that.
  std::vector<obs::Histogram> obs_latency;
  std::vector<obs::Histogram> obs_snr;
  std::vector<obs::Counter> obs_drops;

 private:
  /// Grows every column by ~12.5% when the id column is at capacity (called
  /// by add() before pushing a row).
  void grow_if_full();

  std::vector<std::uint32_t> chunk_head_, chunk_tail_;
  /// Latency chains are PREPENDED (newest first) so no tail column is
  /// needed; latencies() reverses its fill to restore insertion
  /// order (report statistics stay sample-for-sample identical).
  std::vector<std::uint32_t> latency_head_;
  ChainPool<Chunk> chunk_pool_;
  ChainPool<double> latency_pool_;
};

}  // namespace milback::cell
