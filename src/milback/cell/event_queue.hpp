// Discrete-event core of the cell engine: a (time, rank, seq)-ordered
// event queue.
//
// Every change to a MilBack cell — a node joining or leaving, a pose update,
// an SDM service sweep, a blockage episode — is an Event. Ordering is total
// and deterministic:
//   1. time_s      — simulated time, earliest first;
//   2. rank(kind)  — at equal time, every other kind before kService, so a
//                    sweep always sees a settled population;
//   3. seq         — scheduling order, stamped by the queue on push, breaks
//                    the remaining ties.
// The seq stamp is also the determinism key for event randomness: handlers
// derive their draws as Rng::stream(seed, node, event.seq) — or, sharded,
// Rng::stream(seed, cell, node, event.seq) — so a run is a pure function of
// (scenario, seed) regardless of worker count. Work that runs outside the
// heap (a sweep's arrivals) reserves a block of seqs instead of pushing, so
// its keys are the seqs its pushes would have taken. Seqs are 64-bit, so no
// run length exhausts them.
//
// Storage is a plain binary heap of whole Events. Arrivals never enter it
// (they run as a pass), so it carries only churn, blockage episodes and the
// cell's one pending sweep.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "milback/channel/backscatter_channel.hpp"

namespace milback::cell {

/// What an event does when dispatched.
enum class EventKind : std::uint8_t {
  kJoin,           ///< Node enters the cell (carries its pose via the spec).
  kLeave,          ///< Node departs; its backlog freezes.
  kMove,           ///< Node pose update (mobility waypoint).
  kArrival,        ///< Traffic arrival at one node's uplink queue (the
                   ///< engine runs these as one pass per sweep on reserved
                   ///< seqs; the kind names their counter and span).
  kService,        ///< One SDM sweep: every slot visited once.
  kBlockageStart,  ///< Blockage episode begins (value = one-way loss dB).
  kBlockageEnd,    ///< Blockage episode ends.
};

/// One scheduled cell event.
struct Event {
  /// Sentinel node index for cell-wide events (service, blockage).
  static constexpr std::size_t kCellWide = static_cast<std::size_t>(-1);

  double time_s = 0.0;                   ///< Simulated dispatch time.
  EventKind kind = EventKind::kService;  ///< What to do.
  std::size_t node = kCellWide;          ///< Target node (kCellWide if none).
  channel::NodePose pose{};              ///< kMove payload.
  double value = 0.0;                    ///< kBlockageStart: loss [dB].
  std::uint64_t seq = 0;                 ///< Stamped by EventQueue::push.
};

/// Min-queue over (time_s, rank(kind), seq). Push stamps a monotonically
/// increasing seq, making the order total and run-to-run stable.
class EventQueue {
 public:
  /// Enqueues `e` (its seq field is overwritten). Returns the stamped seq.
  /// Requires a finite, non-negative time.
  std::uint64_t push(const Event& e);

  /// Reserves the next `n` seqs for events the caller runs itself instead
  /// of queueing (the cell engine's arrival pass) and returns the first:
  /// exactly the seqs n pushes would stamp, in order. The next push stamps
  /// the seq after the block.
  std::uint64_t reserve_seqs(std::size_t n);

  /// Whether any events remain.
  bool empty() const noexcept { return heap_.empty(); }

  /// Number of pending events.
  std::size_t size() const noexcept { return heap_.size(); }

  /// The next event to dispatch. Requires a non-empty queue. The reference
  /// is invalidated by the next push/pop.
  const Event& top() const;

  /// Removes and returns the next event. Requires a non-empty queue.
  Event pop();

  /// Bytes held by the heap (capacity, not live count).
  std::size_t allocated_bytes() const noexcept {
    return heap_.capacity() * sizeof(Event);
  }

 private:
  std::vector<Event> heap_;  // std::push_heap/pop_heap, earliest on top
  std::uint64_t next_seq_ = 0;
};

}  // namespace milback::cell
