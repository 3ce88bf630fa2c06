// Event queue ordering tests: the (time, priority, seq) total order is the
// cell engine's determinism foundation.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>

#include "milback/cell/event_queue.hpp"
#include "milback/core/contract.hpp"

namespace milback::cell {
namespace {

Event at(double time_s, int priority, EventKind kind = EventKind::kService) {
  Event e;
  e.time_s = time_s;
  e.priority = priority;
  e.kind = kind;
  return e;
}

TEST(EventQueue, OrdersByTimeFirst) {
  EventQueue q;
  q.push(at(2.0, kPriorityChurn));
  q.push(at(0.5, kPriorityService));
  q.push(at(1.0, kPriorityArrival));
  EXPECT_DOUBLE_EQ(q.pop().time_s, 0.5);
  EXPECT_DOUBLE_EQ(q.pop().time_s, 1.0);
  EXPECT_DOUBLE_EQ(q.pop().time_s, 2.0);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, PriorityBreaksTimeTies) {
  // At the same instant: churn settles the population, then arrivals land,
  // then the service sweep sees the final state.
  EventQueue q;
  q.push(at(1.0, kPriorityService, EventKind::kService));
  q.push(at(1.0, kPriorityChurn, EventKind::kJoin));
  q.push(at(1.0, kPriorityArrival, EventKind::kArrival));
  EXPECT_EQ(q.pop().kind, EventKind::kJoin);
  EXPECT_EQ(q.pop().kind, EventKind::kArrival);
  EXPECT_EQ(q.pop().kind, EventKind::kService);
}

TEST(EventQueue, SeqBreaksRemainingTiesInPushOrder) {
  EventQueue q;
  Event a = at(1.0, kPriorityChurn, EventKind::kLeave);
  a.node = 0;
  Event b = at(1.0, kPriorityChurn, EventKind::kJoin);
  b.node = 1;
  const auto seq_a = q.push(a);
  const auto seq_b = q.push(b);
  EXPECT_LT(seq_a, seq_b);
  EXPECT_EQ(q.pop().node, 0u);
  EXPECT_EQ(q.pop().node, 1u);
}

TEST(EventQueue, PushStampsMonotonicSeq) {
  EventQueue q;
  Event e = at(0.0, kPriorityService);
  e.seq = 999;  // caller-set seq is overwritten
  EXPECT_EQ(q.push(e), 0u);
  EXPECT_EQ(q.push(e), 1u);
  EXPECT_EQ(q.pop().seq, 0u);
  EXPECT_EQ(q.pop().seq, 1u);
}

TEST(EventQueue, ReservedSeqsAreTheSeqsPushesWouldTake) {
  EventQueue q;
  EXPECT_EQ(q.push(at(1.0, kPriorityChurn)), 0u);
  EXPECT_EQ(q.reserve_seqs(5), 1u);
  EXPECT_EQ(q.push(at(1.0, kPriorityChurn)), 6u);  // the seq after the block
  EXPECT_EQ(q.reserve_seqs(0), 7u);                // an empty block takes none
  EXPECT_EQ(q.push(at(0.5, kPriorityService)), 7u);
  EXPECT_EQ(q.size(), 3u);  // a reservation queues nothing
  EXPECT_EQ(q.pop().seq, 7u);
  EXPECT_EQ(q.pop().seq, 0u);
  EXPECT_EQ(q.pop().seq, 6u);
}

TEST(EventQueue, SeqReservationAcross2To30Throws) {
  // Reached by reservation alone: no event is pushed to climb the seq space.
  constexpr std::uint64_t kSeqSpace = std::uint64_t{1} << 30;
  EventQueue q;
  EXPECT_EQ(q.reserve_seqs(kSeqSpace - 3), 0u);
  EXPECT_THROW(q.reserve_seqs(4), ContractViolation);  // would end past 2^30
  EXPECT_EQ(q.reserve_seqs(2), kSeqSpace - 3);        // a failed call took none
  EXPECT_EQ(q.push(at(1.0, kPriorityChurn)), kSeqSpace - 1);  // the last seq
  EXPECT_THROW(q.push(at(2.0, kPriorityChurn)), ContractViolation);
  EXPECT_THROW(q.reserve_seqs(1), ContractViolation);
  EXPECT_EQ(q.reserve_seqs(0), kSeqSpace);
  EXPECT_EQ(q.pop().seq, kSeqSpace - 1);
}

TEST(EventQueue, RejectsNonFiniteOrNegativeTime) {
  EventQueue q;
  EXPECT_THROW(q.push(at(-1.0, kPriorityChurn)), milback::ContractViolation);
  EXPECT_THROW(q.push(at(std::numeric_limits<double>::quiet_NaN(), 0)),
               milback::ContractViolation);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, TopAndPopRequireNonEmpty) {
  EventQueue q;
  EXPECT_THROW(q.top(), milback::ContractViolation);
  EXPECT_THROW(q.pop(), milback::ContractViolation);
}

TEST(EventQueue, KindNamesAreHumanReadable) {
  EXPECT_STREQ(event_kind_name(EventKind::kJoin), "join");
  EXPECT_STREQ(event_kind_name(EventKind::kService), "service");
  EXPECT_STREQ(event_kind_name(EventKind::kBlockageStart), "blockage-start");
}

}  // namespace
}  // namespace milback::cell
