// Event queue ordering tests: the (time, rank, seq) total order is the
// cell engine's determinism foundation.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>

#include "milback/cell/event_queue.hpp"
#include "milback/core/contract.hpp"

namespace milback::cell {
namespace {

Event at(double time_s, EventKind kind = EventKind::kService) {
  Event e;
  e.time_s = time_s;
  e.kind = kind;
  return e;
}

TEST(EventQueue, OrdersByTimeFirst) {
  EventQueue q;
  q.push(at(2.0, EventKind::kJoin));
  q.push(at(0.5, EventKind::kService));
  q.push(at(1.0, EventKind::kMove));
  EXPECT_DOUBLE_EQ(q.pop().time_s, 0.5);
  EXPECT_DOUBLE_EQ(q.pop().time_s, 1.0);
  EXPECT_DOUBLE_EQ(q.pop().time_s, 2.0);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, PriorityBreaksTimeTies) {
  // At the same instant churn and blockage settle the cell first, then the
  // service sweep sees the final state, whatever the push order.
  EventQueue q;
  q.push(at(1.0, EventKind::kService));
  q.push(at(1.0, EventKind::kJoin));
  q.push(at(1.0, EventKind::kBlockageStart));
  EXPECT_EQ(q.pop().kind, EventKind::kJoin);
  EXPECT_EQ(q.pop().kind, EventKind::kBlockageStart);
  EXPECT_EQ(q.pop().kind, EventKind::kService);
}

TEST(EventQueue, SeqBreaksRemainingTiesInPushOrder) {
  EventQueue q;
  Event a = at(1.0, EventKind::kLeave);
  a.node = 0;
  Event b = at(1.0, EventKind::kJoin);
  b.node = 1;
  const auto seq_a = q.push(a);
  const auto seq_b = q.push(b);
  EXPECT_LT(seq_a, seq_b);
  EXPECT_EQ(q.pop().node, 0u);
  EXPECT_EQ(q.pop().node, 1u);
}

TEST(EventQueue, PushStampsMonotonicSeq) {
  EventQueue q;
  Event e = at(0.0);
  e.seq = 999;  // caller-set seq is overwritten
  EXPECT_EQ(q.push(e), 0u);
  EXPECT_EQ(q.push(e), 1u);
  EXPECT_EQ(q.top().seq, 0u);
  EXPECT_EQ(q.pop().seq, 0u);
  EXPECT_EQ(q.pop().seq, 1u);
}

TEST(EventQueue, ReservedSeqsAreTheSeqsPushesWouldTake) {
  EventQueue q;
  EXPECT_EQ(q.push(at(1.0, EventKind::kJoin)), 0u);
  EXPECT_EQ(q.reserve_seqs(5), 1u);
  EXPECT_EQ(q.push(at(1.0, EventKind::kJoin)), 6u);  // the seq after the block
  EXPECT_EQ(q.reserve_seqs(0), 7u);                  // an empty block takes none
  EXPECT_EQ(q.push(at(0.5)), 7u);
  EXPECT_EQ(q.size(), 3u);  // a reservation queues nothing
  EXPECT_EQ(q.pop().seq, 7u);
  EXPECT_EQ(q.pop().seq, 0u);
  EXPECT_EQ(q.pop().seq, 6u);
}

TEST(EventQueue, SeqsRunPast2To30) {
  // Reached by reservation alone: no event is pushed to climb the seq space.
  // A 30-bit seq field would wrap or abort here; a run this long must go on
  // with the same (time, rank, seq) order.
  constexpr std::uint64_t kPast = (std::uint64_t{1} << 30) + 5;
  EventQueue q;
  EXPECT_EQ(q.reserve_seqs(kPast), 0u);
  EXPECT_EQ(q.push(at(2.0, EventKind::kService)), kPast);
  EXPECT_EQ(q.push(at(2.0, EventKind::kJoin)), kPast + 1);
  EXPECT_EQ(q.push(at(1.0, EventKind::kMove)), kPast + 2);
  EXPECT_EQ(q.reserve_seqs(3), kPast + 3);
  EXPECT_EQ(q.push(at(1.0, EventKind::kLeave)), kPast + 6);

  const Event first = q.pop();
  EXPECT_EQ(first.kind, EventKind::kMove);
  EXPECT_EQ(first.seq, kPast + 2);
  const Event second = q.pop();
  EXPECT_EQ(second.kind, EventKind::kLeave);
  EXPECT_EQ(second.seq, kPast + 6);
  const Event third = q.pop();  // churn before the sweep at equal time
  EXPECT_EQ(third.kind, EventKind::kJoin);
  EXPECT_EQ(third.seq, kPast + 1);
  const Event fourth = q.pop();
  EXPECT_EQ(fourth.kind, EventKind::kService);
  EXPECT_EQ(fourth.seq, kPast);
  EXPECT_TRUE(q.empty());
  // Only a block that would wrap the 64-bit space is refused.
  EXPECT_THROW(q.reserve_seqs(std::numeric_limits<std::size_t>::max()),
               ContractViolation);
  EXPECT_EQ(q.reserve_seqs(0), kPast + 7);
}

TEST(EventQueue, RejectsNonFiniteOrNegativeTime) {
  EventQueue q;
  EXPECT_THROW(q.push(at(-1.0)), milback::ContractViolation);
  EXPECT_THROW(q.push(at(std::numeric_limits<double>::quiet_NaN())),
               milback::ContractViolation);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, TopAndPopRequireNonEmpty) {
  EventQueue q;
  EXPECT_THROW(q.top(), milback::ContractViolation);
  EXPECT_THROW(q.pop(), milback::ContractViolation);
}

}  // namespace
}  // namespace milback::cell
