#include "milback/cell/event_queue.hpp"

#include <algorithm>
#include <cmath>

#include "milback/core/contract.hpp"

namespace milback::cell {

// milback-analyze: no-contract(total over the EventKind enum; unknown values render as "?")
const char* event_kind_name(EventKind kind) noexcept {
  switch (kind) {
    case EventKind::kJoin: return "join";
    case EventKind::kLeave: return "leave";
    case EventKind::kMove: return "move";
    case EventKind::kArrival: return "arrival";
    case EventKind::kService: return "service";
    case EventKind::kBlockageStart: return "blockage-start";
    case EventKind::kBlockageEnd: return "blockage-end";
  }
  return "?";
}

std::uint64_t EventQueue::push(const Event& e) {
  MILBACK_REQUIRE(std::isfinite(e.time_s) && e.time_s >= 0.0,
                  "EventQueue::push: event time must be finite and >= 0");
  MILBACK_REQUIRE(e.node == Event::kCellWide || e.node < kNodeNone,
                  "EventQueue::push: node index exceeds packed payload range");
  MILBACK_REQUIRE(e.priority >= 0 && e.priority < 4,
                  "EventQueue::push: priority exceeds packed handle range");
  MILBACK_REQUIRE(next_seq_ <= kSeqMask,
                  "EventQueue::push: seq space exhausted (2^30 events)");
  const std::uint32_t slot = payloads_.acquire();
  Payload& p = payloads_[slot];
  p.value = e.value;
  const std::uint32_t node =
      e.node == Event::kCellWide ? kNodeNone : static_cast<std::uint32_t>(e.node);
  p.node_kind = (static_cast<std::uint32_t>(e.kind) << kNodeBits) | node;
  p.pose_slot = SlabPool<channel::NodePose>::kNone;
  if (e.kind == EventKind::kMove) {
    p.pose_slot = poses_.acquire();
    poses_[p.pose_slot] = e.pose;
  }
  const std::uint64_t seq = next_seq_++;
  if (heap_.size() == heap_.capacity() && !heap_.empty()) {
    // ~12.5% headroom instead of the libstdc++ 2x: heap capacity is part of
    // the measured bytes-per-node and doubling would dominate it.
    heap_.reserve(heap_.capacity() + heap_.capacity() / 8 + 16);
  }
  const std::uint32_t pri_seq = (static_cast<std::uint32_t>(e.priority) << kSeqBits) |
                                static_cast<std::uint32_t>(seq);
  heap_.push_back(Handle{e.time_s, pri_seq, slot});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
  return seq;
}

std::uint64_t EventQueue::reserve_seqs(std::size_t n) {
  MILBACK_REQUIRE(n <= std::uint64_t{kSeqMask} + 1 - next_seq_,
                  "EventQueue::reserve_seqs: seq space exhausted (2^30 events)");
  const std::uint64_t first = next_seq_;
  next_seq_ += n;
  return first;
}

double EventQueue::next_time_s() const {
  MILBACK_REQUIRE(!heap_.empty(), "EventQueue::next_time_s: queue is empty");
  return heap_.front().time_s;
}

Event EventQueue::materialize(const Handle& h) const {
  const Payload& p = payloads_[h.slot];
  const std::uint32_t node = p.node_kind & kNodeNone;
  Event e;
  e.time_s = h.time_s;
  e.priority = static_cast<int>(h.pri_seq >> kSeqBits);
  e.kind = static_cast<EventKind>(p.node_kind >> kNodeBits);
  e.node = node == kNodeNone ? Event::kCellWide : std::size_t{node};
  if (p.pose_slot != SlabPool<channel::NodePose>::kNone) e.pose = poses_[p.pose_slot];
  e.value = p.value;
  e.seq = h.pri_seq & kSeqMask;
  return e;
}

const Event& EventQueue::top() const {
  MILBACK_REQUIRE(!heap_.empty(), "EventQueue::top: queue is empty");
  top_cache_ = materialize(heap_.front());
  return top_cache_;
}

Event EventQueue::pop() {
  MILBACK_REQUIRE(!heap_.empty(), "EventQueue::pop: queue is empty");
  const Handle h = heap_.front();
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  heap_.pop_back();
  Event e = materialize(h);
  const Payload& p = payloads_[h.slot];
  if (p.pose_slot != SlabPool<channel::NodePose>::kNone) poses_.release(p.pose_slot);
  payloads_.release(h.slot);
  return e;
}

std::size_t EventQueue::allocated_bytes() const noexcept {
  return heap_.capacity() * sizeof(Handle) + payloads_.allocated_bytes() +
         poses_.allocated_bytes();
}

}  // namespace milback::cell
