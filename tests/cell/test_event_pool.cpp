// Heap churn property: under sustained interleaved push/pop churn the
// EventQueue's pop sequence must match a naive reference queue exactly —
// same events, same seqs, same (time, rank, seq) order.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "milback/cell/event_queue.hpp"
#include "milback/util/rng.hpp"

namespace milback::cell {
namespace {

/// Naive reference: stores whole events, scans for the minimum on every
/// pop. Shares no code with EventQueue beyond the Event struct.
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
          if (rank(a) != rank(b)) return rank(a) < rank(b);
          return a.seq < b.seq;
        });
    Event e = *it;
    events_.erase(it);
    return e;
  }

 private:
  /// A sweep runs after every other kind at equal time.
  static int rank(const Event& e) { return e.kind == EventKind::kService ? 1 : 0; }

  std::vector<Event> events_;
  std::uint64_t next_seq_ = 0;
};

Event random_event(Rng& rng) {
  Event e;
  // Coarse time grid on purpose: collisions exercise the rank and seq
  // tie-breakers, not just the time key.
  e.time_s = 0.001 * double(rng.uniform_int(0, 40));
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
  // Warm-up: build depth so the churn phase sifts through a real heap.
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

TEST(EventPool, DrainAfterDeepChurnMatchesSortedOrder) {
  Rng rng(99);
  EventQueue queue;
  ReferenceQueue reference;
  // Several full fill/drain cycles, with all pops deferred so the heap sees
  // maximum depth.
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
