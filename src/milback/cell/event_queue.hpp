// Discrete-event core of the cell engine: a (time, priority, seq)-ordered
// event queue.
//
// Every change to a MilBack cell — a node joining or leaving, a pose update,
// a traffic arrival, an SDM service sweep, a blockage episode — is an Event.
// Ordering is total and deterministic:
//   1. time_s      — simulated time, earliest first;
//   2. priority    — at equal time, lower runs first (churn before arrivals
//                    before service, so a round always sees a settled
//                    population);
//   3. seq         — scheduling order, stamped by the queue on push, breaks
//                    the remaining ties.
// The seq stamp is also the determinism key for event randomness: handlers
// derive their draws as Rng::stream(seed, node, event.seq) — or, sharded,
// Rng::stream(seed, cell, node, event.seq) — so a run is a pure function of
// (scenario, seed) regardless of worker count. Work that runs outside the
// heap (a sweep's arrivals) reserves a block of seqs instead of pushing, so
// its keys are the seqs its pushes would have taken.
//
// Storage is pooled: the heap orders 16-byte handles (the priority packed
// into the top bits of a 32-bit seq word), 16-byte event payloads live in a
// slab pool (the kind packed into the top bits of the node word), and the
// rare kMove pose payload lives in its own slab, so a steady-state run
// (push/pop churn at stable queue depth) performs zero heap allocations —
// every pop returns its slots to a free list the next push reuses. Pool
// reuse cannot perturb ordering because the ordering key (time, priority,
// seq) lives entirely in the handle, never in the pooled slot (see
// tests/cell/test_event_pool.cpp for the churn property test). The packing
// caps one queue at 2^30 events pushed over its lifetime and 2^28-1 node
// slots — both contract-checked, both far above any cell-scale run.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "milback/cell/slab_pool.hpp"
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

/// Human-readable kind (logs and test diagnostics).
const char* event_kind_name(EventKind kind) noexcept;

/// Dispatch priorities at equal time: churn settles the population first,
/// arrivals land next, the service sweep sees the final state of the round.
inline constexpr int kPriorityChurn = 0;
inline constexpr int kPriorityArrival = 1;
inline constexpr int kPriorityService = 2;

/// One scheduled cell event.
struct Event {
  /// Sentinel node index for cell-wide events (service, blockage).
  static constexpr std::size_t kCellWide = static_cast<std::size_t>(-1);

  double time_s = 0.0;                   ///< Simulated dispatch time.
  int priority = kPriorityService;       ///< Tie-break at equal time.
  EventKind kind = EventKind::kService;  ///< What to do.
  std::size_t node = kCellWide;          ///< Target node (kCellWide if none).
  channel::NodePose pose{};              ///< kMove payload.
  double value = 0.0;                    ///< kBlockageStart: loss [dB].
  std::uint64_t seq = 0;                 ///< Stamped by EventQueue::push.
};

/// Min-queue over (time_s, priority, seq). Push stamps a monotonically
/// increasing seq, making the order total and run-to-run stable. Pooled
/// storage: pops recycle their payload slots, so sustained churn at stable
/// depth allocates nothing.
class EventQueue {
 public:
  /// Enqueues `e` (its seq field is overwritten). Returns the stamped seq.
  /// Requires a finite, non-negative time and a node index that is either
  /// Event::kCellWide or a real (sub-sentinel) node slot.
  std::uint64_t push(const Event& e);

  /// Reserves the next `n` seqs for events the caller runs itself instead
  /// of queueing (the cell engine's arrival pass) and returns the first:
  /// exactly the seqs n pushes would stamp, in order, under the same 2^30
  /// lifetime cap. The next push stamps the seq after the block.
  std::uint64_t reserve_seqs(std::size_t n);

  /// Whether any events remain.
  bool empty() const noexcept { return heap_.empty(); }

  /// Number of pending events.
  std::size_t size() const noexcept { return heap_.size(); }

  /// Dispatch time of the next event (the engine's loop guard — cheaper
  /// than materializing top()). Requires a non-empty queue.
  double next_time_s() const;

  /// The next event to dispatch. Requires a non-empty queue. The reference
  /// is invalidated by the next push/pop/top call.
  const Event& top() const;

  /// Removes and returns the next event, recycling its pooled slots.
  /// Requires a non-empty queue.
  Event pop();

  /// Bytes held by the heap and the payload pools (capacity, not live
  /// count — what the queue actually reserves from the allocator).
  std::size_t allocated_bytes() const noexcept;

  /// Payload slots ever allocated (monotone; steady-state churn keeps this
  /// flat — the regression handle for the zero-allocation property).
  std::size_t pooled_slots() const noexcept { return payloads_.capacity(); }

 private:
  /// Heap entry: the full ordering key plus a slot into the payload pool.
  /// The key lives here — never in the pooled slot — so free-list reuse
  /// cannot perturb the (time, priority, seq) total order. priority and seq
  /// share one word — priority in the top 2 bits, seq below — so their
  /// lexicographic order is plain integer order on `pri_seq` and the handle
  /// packs to 16 bytes.
  struct Handle {
    double time_s;
    std::uint32_t pri_seq;
    std::uint32_t slot;
  };

  static constexpr std::uint32_t kSeqBits = 30;
  static constexpr std::uint32_t kSeqMask = (1u << kSeqBits) - 1;

  struct Later {
    bool operator()(const Handle& a, const Handle& b) const noexcept {
      if (a.time_s != b.time_s) return a.time_s > b.time_s;
      return a.pri_seq > b.pri_seq;
    }
  };

  /// Pooled event payload (everything the handle doesn't carry). The kind
  /// lives in the top 4 bits of the node word; poses are pooled separately
  /// (only kMove events carry one).
  struct Payload {
    double value;
    std::uint32_t node_kind;
    std::uint32_t pose_slot;  // SlabPool::kNone unless kind == kMove
  };

  static constexpr std::uint32_t kNodeBits = 28;
  /// In-payload node sentinel for Event::kCellWide (also the node cap).
  static constexpr std::uint32_t kNodeNone = (1u << kNodeBits) - 1;

  Event materialize(const Handle& h) const;

  std::vector<Handle> heap_;  // std::push_heap/pop_heap with Later
  SlabPool<Payload> payloads_;
  SlabPool<channel::NodePose> poses_;
  std::uint64_t next_seq_ = 0;
  mutable Event top_cache_{};
};

}  // namespace milback::cell
