#include "milback/cell/node_soa.hpp"

#include <algorithm>

#include "milback/core/contract.hpp"

namespace milback::cell {

std::size_t NodeSoA::add(NodeId node_id, const core::TrafficSpec& spec,
                         double join_s, bool alive_now) {
  MILBACK_REQUIRE(node_id.valid(), "NodeSoA::add: id must be interned");
  require_finite(join_s, "join_s");
  grow_if_full();
  id.push_back(node_id);
  pose.push_back(spec.pose);
  arrival_rate_bps.push_back(spec.arrival_rate_bps);
  burstiness.push_back(spec.burstiness);
  join_time_s.push_back(join_s);
  leave_time_s.push_back(-1.0);
  alive.push_back(alive_now ? 1 : 0);
  rate_bps.push_back(0.0);
  queued_bits.push_back(0.0);
  offered_bits.push_back(0.0);
  delivered_bits.push_back(0.0);
  peak_queue_bits.push_back(0.0);
  rounds_served.push_back(0);
  if (!session.empty()) session.emplace_back();
  if (!obs_latency.empty()) obs_latency.emplace_back();
  if (!obs_snr.empty()) obs_snr.emplace_back();
  if (!obs_drops.empty()) obs_drops.emplace_back();
  chunk_head_.push_back(kNone);
  chunk_tail_.push_back(kNone);
  latency_head_.push_back(kNone);
  return id.size() - 1;
}

void NodeSoA::push_chunk(std::size_t i, double bits, double arrival_s) {
  MILBACK_REQUIRE(i < size(), "NodeSoA::push_chunk: node out of range");
  require_positive(bits, "chunk bits");
  const std::uint32_t slot = chunk_pool_.acquire();
  chunk_pool_.value(slot) = Chunk{bits, arrival_s};
  if (chunk_tail_[i] == kNone) {
    chunk_head_[i] = slot;
  } else {
    chunk_pool_.next(chunk_tail_[i]) = slot;
  }
  chunk_tail_[i] = slot;
}

Chunk& NodeSoA::front_chunk(std::size_t i) {
  MILBACK_REQUIRE(i < size() && chunk_head_[i] != kNone,
                  "NodeSoA::front_chunk: empty queue");
  return chunk_pool_.value(chunk_head_[i]);
}

void NodeSoA::pop_front_chunk(std::size_t i) {
  MILBACK_REQUIRE(i < size() && chunk_head_[i] != kNone,
                  "NodeSoA::pop_front_chunk: empty queue");
  const std::uint32_t slot = chunk_head_[i];
  chunk_head_[i] = chunk_pool_.next(slot);
  if (chunk_head_[i] == kNone) chunk_tail_[i] = kNone;
  chunk_pool_.release(slot);
}

std::vector<Chunk> NodeSoA::take_chunks(std::size_t i) {
  MILBACK_REQUIRE(i < size(), "NodeSoA::take_chunks: node out of range");
  std::vector<Chunk> out;
  std::uint32_t slot = chunk_head_[i];
  while (slot != kNone) {
    out.push_back(chunk_pool_.value(slot));
    const std::uint32_t next = chunk_pool_.next(slot);
    chunk_pool_.release(slot);
    slot = next;
  }
  chunk_head_[i] = kNone;
  chunk_tail_[i] = kNone;
  return out;
}

void NodeSoA::push_latency(std::size_t i, double latency_s) {
  MILBACK_REQUIRE(i < size(), "NodeSoA::push_latency: node out of range");
  // Prepend (no tail column); latencies() restores insertion order.
  const std::uint32_t slot = latency_pool_.acquire();
  latency_pool_.value(slot) = latency_s;
  latency_pool_.next(slot) = latency_head_[i];
  latency_head_[i] = slot;
}

void NodeSoA::latencies(std::size_t i, std::vector<double>& out) const {
  MILBACK_REQUIRE(i < size(), "NodeSoA::latencies: node out of range");
  out.clear();
  for (std::uint32_t slot = latency_head_[i]; slot != kNone;
       slot = latency_pool_.next(slot)) {
    out.push_back(latency_pool_.value(slot));
  }
  // The chain is newest-first; reports consume samples oldest-first (the
  // mean's summation order — hence its rounding — must not change).
  std::reverse(out.begin(), out.end());
}

namespace {
template <typename T>
std::size_t column_bytes(const std::vector<T>& v) noexcept {
  return v.capacity() * sizeof(T);
}
}  // namespace

std::size_t NodeSoA::allocated_bytes() const noexcept {
  return column_bytes(id) + column_bytes(pose) + column_bytes(arrival_rate_bps) +
         column_bytes(burstiness) + column_bytes(join_time_s) +
         column_bytes(leave_time_s) + column_bytes(alive) + column_bytes(rate_bps) +
         column_bytes(queued_bits) + column_bytes(offered_bits) +
         column_bytes(delivered_bits) + column_bytes(peak_queue_bits) +
         column_bytes(rounds_served) + column_bytes(session) +
         column_bytes(obs_latency) + column_bytes(obs_snr) +
         column_bytes(obs_drops) + column_bytes(chunk_head_) +
         column_bytes(chunk_tail_) + column_bytes(latency_head_) +
         chunk_pool_.allocated_bytes() + latency_pool_.allocated_bytes();
}

void NodeSoA::grow_if_full() {
  if (id.size() < id.capacity() || id.capacity() == 0) return;
  // ~12.5% headroom, not the libstdc++ 2x: rows added past a reserve (nodes
  // handed off into a full cell) must not double the measured footprint.
  reserve(id.capacity() + id.capacity() / 8 + 16);
}

// milback-analyze: no-contract(total: any reserve size is valid; zero is a no-op)
void NodeSoA::reserve(std::size_t n) {
  id.reserve(n);
  pose.reserve(n);
  arrival_rate_bps.reserve(n);
  burstiness.reserve(n);
  join_time_s.reserve(n);
  leave_time_s.reserve(n);
  alive.reserve(n);
  rate_bps.reserve(n);
  queued_bits.reserve(n);
  offered_bits.reserve(n);
  delivered_bits.reserve(n);
  peak_queue_bits.reserve(n);
  rounds_served.reserve(n);
  // Lazy columns (sessions, per-node metric handles) only reserve once they
  // are in use — reserving an empty vector would allocate the very capacity
  // the budget-probe configuration avoids.
  if (!obs_latency.empty()) obs_latency.reserve(n);
  if (!obs_snr.empty()) obs_snr.reserve(n);
  if (!obs_drops.empty()) obs_drops.reserve(n);
  chunk_head_.reserve(n);
  chunk_tail_.reserve(n);
  latency_head_.reserve(n);
}

}  // namespace milback::cell
