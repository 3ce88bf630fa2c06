// Slab-allocated pool of intrusive singly-linked chains.
//
// The cell engine keeps two variable-length records per node: its queued
// traffic chunks and its latency samples. Allocating each of them
// individually would mean one malloc per arrival per node per sweep.
// `ChainPool` amortises them away: storage grows in fixed-size slabs that
// are never returned until the pool is destroyed, released slots go onto a
// free list, and steady-state acquire/release cycles perform zero heap
// allocations. The value and the `next` link live in parallel slabs instead
// of one padded record, so a slot costs sizeof(T) + 4 bytes exactly: 20
// bytes per queued chunk and 12 per latency sample.
//
// Slots are addressed by 32-bit index handles rather than pointers so that
// the per-node chain heads stay compact and trivially relocatable:
//
//   - `acquire()` returns a slot with next(slot) == kNone; its value is
//     stale (callers overwrite it).
//   - `release(slot)` pushes the slot onto the free list. Releasing a slot
//     twice is undefined (it would alias two live records), so callers own
//     the single-release discipline; the range contract on the accessors
//     catches stale indexes past the high-water mark.
//
// Slots are reused without re-running constructors, which is exactly right
// for the POD records the engine stores here.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "milback/core/contract.hpp"

namespace milback::cell {

template <typename T>
class ChainPool {
 public:
  /// Sentinel "no slot" handle (also the chain terminator).
  static constexpr std::uint32_t kNone = 0xffffffffu;

  explicit ChainPool(std::size_t slab_elems = 1024) : slab_elems_(slab_elems) {
    MILBACK_REQUIRE(slab_elems > 0, "ChainPool: slab_elems must be positive");
    MILBACK_REQUIRE(slab_elems < kNone, "ChainPool: slab_elems exceeds handle range");
  }

  /// Returns a free slot with next(slot) reset to kNone (the value is
  /// stale; callers overwrite it).
  std::uint32_t acquire() {
    std::uint32_t slot;
    if (!free_.empty()) {
      slot = free_.back();
      free_.pop_back();
    } else {
      if (high_water_ == values_.size() * slab_elems_) {
        values_.push_back(std::make_unique<T[]>(slab_elems_));
        nexts_.push_back(std::make_unique<std::uint32_t[]>(slab_elems_));
      }
      MILBACK_ENSURE(high_water_ < kNone, "ChainPool: handle space exhausted");
      slot = static_cast<std::uint32_t>(high_water_++);
    }
    next(slot) = kNone;
    return slot;
  }

  void release(std::uint32_t slot) {
    MILBACK_REQUIRE(slot < high_water_, "ChainPool: release of unallocated slot");
    free_.push_back(slot);
  }

  T& value(std::uint32_t slot) {
    MILBACK_REQUIRE(slot < high_water_, "ChainPool: slot out of range");
    return values_[slot / slab_elems_][slot % slab_elems_];
  }

  const T& value(std::uint32_t slot) const {
    MILBACK_REQUIRE(slot < high_water_, "ChainPool: slot out of range");
    return values_[slot / slab_elems_][slot % slab_elems_];
  }

  std::uint32_t& next(std::uint32_t slot) {
    MILBACK_REQUIRE(slot < high_water_, "ChainPool: slot out of range");
    return nexts_[slot / slab_elems_][slot % slab_elems_];
  }

  std::uint32_t next(std::uint32_t slot) const {
    MILBACK_REQUIRE(slot < high_water_, "ChainPool: slot out of range");
    return nexts_[slot / slab_elems_][slot % slab_elems_];
  }

  std::size_t live() const noexcept { return high_water_ - free_.size(); }

  std::size_t capacity() const noexcept { return values_.size() * slab_elems_; }

  std::size_t allocated_bytes() const noexcept {
    return capacity() * (sizeof(T) + sizeof(std::uint32_t)) +
           free_.capacity() * sizeof(std::uint32_t) +
           (values_.capacity() + nexts_.capacity()) * sizeof(values_[0]);
  }

 private:
  std::vector<std::unique_ptr<T[]>> values_;
  std::vector<std::unique_ptr<std::uint32_t[]>> nexts_;
  std::vector<std::uint32_t> free_;
  std::size_t high_water_ = 0;
  std::size_t slab_elems_;
};

}  // namespace milback::cell
