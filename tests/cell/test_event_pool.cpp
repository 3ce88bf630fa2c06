// Pooled-event churn property: the slab-backed EventQueue recycles payload
// slots through a free list, and that reuse must be invisible to the
// ordering contract — under sustained interleaved push/pop churn the pop
// sequence must match a naive reference queue exactly, and the pool must
// stop growing once the live depth stops growing (the zero-steady-state-
// allocation property the cell engine relies on).
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "milback/cell/event_queue.hpp"
#include "milback/util/rng.hpp"

namespace milback::cell {
namespace {

/// Naive reference: stores whole events, re-sorts on every pop. Shares no
/// code with EventQueue beyond the Event struct.
class ReferenceQueue {
 public:
  std::uint64_t push(Event e) {
    e.seq = next_seq_++;
    events_.push_back(e);
    return e.seq;
  }
  bool empty() const { return events_.empty(); }
  Event pop() {
    auto it = std::min_element(
        events_.begin(), events_.end(), [](const Event& a, const Event& b) {
          if (a.time_s != b.time_s) return a.time_s < b.time_s;
          if (a.priority != b.priority) return a.priority < b.priority;
          return a.seq < b.seq;
        });
    Event e = *it;
    events_.erase(it);
    return e;
  }

 private:
  std::vector<Event> events_;
  std::uint64_t next_seq_ = 0;
};

Event random_event(Rng& rng) {
  Event e;
  // Coarse time grid on purpose: collisions exercise the priority and seq
  // tie-breakers, not just the time key.
  e.time_s = 0.001 * double(rng.uniform_int(0, 40));
  e.priority = int(rng.uniform_int(kPriorityChurn, kPriorityService));
  const int kind = int(rng.uniform_int(0, 6));
  e.kind = static_cast<EventKind>(kind);
  e.node = (kind <= 3) ? std::size_t(rng.uniform_int(0, 9)) : Event::kCellWide;
  if (e.kind == EventKind::kMove) {
    e.pose = {1.0 + rng.uniform(0.0, 5.0), rng.uniform(-60.0, 60.0),
              rng.uniform(-30.0, 30.0)};
  }
  e.value = rng.uniform(0.0, 20.0);
  return e;
}

void expect_events_equal(const Event& a, const Event& b) {
  EXPECT_DOUBLE_EQ(a.time_s, b.time_s);
  EXPECT_EQ(a.priority, b.priority);
  EXPECT_EQ(a.kind, b.kind);
  EXPECT_EQ(a.node, b.node);
  EXPECT_EQ(a.seq, b.seq);
  EXPECT_DOUBLE_EQ(a.value, b.value);
  if (a.kind == EventKind::kMove) {
    EXPECT_DOUBLE_EQ(a.pose.distance_m, b.pose.distance_m);
    EXPECT_DOUBLE_EQ(a.pose.azimuth_deg, b.pose.azimuth_deg);
    EXPECT_DOUBLE_EQ(a.pose.orientation_deg, b.pose.orientation_deg);
  }
}

TEST(EventPool, ChurnPreservesTotalOrderAgainstReference) {
  Rng rng(2024);
  EventQueue queue;
  ReferenceQueue reference;
  // Warm-up: build depth so the churn phase has a populated free list.
  for (int i = 0; i < 64; ++i) {
    const Event e = random_event(rng);
    queue.push(e);
    reference.push(e);
  }
  // Churn: biased random walk over push/pop; every pop is cross-checked.
  for (int step = 0; step < 4000; ++step) {
    const bool do_push = queue.empty() || rng.uniform(0.0, 1.0) < 0.5;
    if (do_push) {
      const Event e = random_event(rng);
      const std::uint64_t seq = queue.push(e);
      const std::uint64_t ref_seq = reference.push(e);
      ASSERT_EQ(seq, ref_seq);
    } else {
      expect_events_equal(queue.pop(), reference.pop());
    }
  }
  while (!queue.empty()) {
    expect_events_equal(queue.pop(), reference.pop());
  }
  EXPECT_TRUE(reference.empty());
}

TEST(EventPool, SteadyStateChurnAllocatesNothing) {
  Rng rng(7);
  EventQueue queue;
  for (int i = 0; i < 128; ++i) queue.push(random_event(rng));
  // First churn phase: the pools climb to their high-water marks (payload
  // slots track queue depth, pose slots track the worst-case number of
  // simultaneously-live kMove events).
  for (int i = 0; i < 4096; ++i) {
    queue.push(random_event(rng));
    queue.pop();
  }
  const std::size_t slots = queue.pooled_slots();
  const std::size_t bytes = queue.allocated_bytes();
  // Second, equally long phase at the same depth and event mix: every slot
  // comes off a free list — the high-water mark and the reserved bytes must
  // not move.
  for (int i = 0; i < 4096; ++i) {
    queue.push(random_event(rng));
    queue.pop();
  }
  EXPECT_EQ(queue.pooled_slots(), slots);
  EXPECT_EQ(queue.allocated_bytes(), bytes);
}

TEST(EventPool, DrainAfterDeepChurnMatchesSortedOrder) {
  Rng rng(99);
  EventQueue queue;
  ReferenceQueue reference;
  // Several full fill/drain cycles: every cycle reuses slots freed by the
  // previous one, with all pops deferred so the heap sees maximum depth.
  for (int cycle = 0; cycle < 5; ++cycle) {
    for (int i = 0; i < 200; ++i) {
      const Event e = random_event(rng);
      queue.push(e);
      reference.push(e);
    }
    double last_time = -1.0;
    while (!queue.empty()) {
      const Event got = queue.pop();
      expect_events_equal(got, reference.pop());
      EXPECT_GE(got.time_s, last_time);
      last_time = got.time_s;
    }
  }
}

}  // namespace
}  // namespace milback::cell
