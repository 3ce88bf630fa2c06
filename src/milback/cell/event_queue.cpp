#include "milback/cell/event_queue.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "milback/core/contract.hpp"

namespace milback::cell {
namespace {

/// At equal time a sweep runs after every other kind.
int rank(EventKind kind) noexcept { return kind == EventKind::kService ? 1 : 0; }

/// Heap comparator: `a` pops after `b`.
bool later(const Event& a, const Event& b) noexcept {
  if (a.time_s != b.time_s) return a.time_s > b.time_s;
  if (rank(a.kind) != rank(b.kind)) return rank(a.kind) > rank(b.kind);
  return a.seq > b.seq;
}

}  // namespace

std::uint64_t EventQueue::push(const Event& e) {
  MILBACK_REQUIRE(std::isfinite(e.time_s) && e.time_s >= 0.0,
                  "EventQueue::push: event time must be finite and >= 0");
  const std::uint64_t seq = next_seq_++;
  heap_.push_back(e);
  heap_.back().seq = seq;
  std::push_heap(heap_.begin(), heap_.end(), later);
  return seq;
}

std::uint64_t EventQueue::reserve_seqs(std::size_t n) {
  MILBACK_REQUIRE(n <= std::numeric_limits<std::uint64_t>::max() - next_seq_,
                  "EventQueue::reserve_seqs: block would wrap the 64-bit seq space");
  const std::uint64_t first = next_seq_;
  next_seq_ += n;
  return first;
}

const Event& EventQueue::top() const {
  MILBACK_REQUIRE(!heap_.empty(), "EventQueue::top: queue is empty");
  return heap_.front();
}

Event EventQueue::pop() {
  MILBACK_REQUIRE(!heap_.empty(), "EventQueue::pop: queue is empty");
  std::pop_heap(heap_.begin(), heap_.end(), later);
  const Event e = heap_.back();
  heap_.pop_back();
  return e;
}

}  // namespace milback::cell
