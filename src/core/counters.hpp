// hcsim — enum-indexed simulator event counters.
//
// The per-µop hot path (core/pipeline.cpp) bumps event counters constantly;
// a string-keyed map there costs a hash/tree lookup per event. Counters are
// therefore a fixed enum indexing a flat array — O(1) increments with no
// allocation — while the string names every reporting consumer relies on
// are preserved through a static name table.
#pragma once

#include <array>
#include <string_view>

#include "util/types.hpp"

namespace hcsim {

/// Every raw event the pipeline counts. Keep in sync with kCounterNames in
/// counters.cpp (same order); names are the stable external identifiers.
enum class Counter : u8 {
  kBbCacheHits,           // decode cache: template replayed from a prior crack
  kBbCacheInvalidations,  // decode cache: templates dropped by a rebind
  kBbCacheMisses,         // decode cache: first encounter, template built
  kBlockSplits,       // IR block mode: splits joined without a trigger
  kChunkRenameSlots,  // extra rename slots consumed by IR chunks
  kCommitted,         // µops committed
  kCopyRenameSlots,   // rename slots consumed by copy µops
  kDl0Accesses,
  kFetched,
  kFlushRefills,      // width-misprediction flush + resteer events
  kIssueFp,
  kIssueHelper,
  kIssueWide,
  kLoadAccesses,
  kMobForwards,
  kNreadyTruncations,  // NREADY probes clipped by the slot-ledger GC horizon
  kRfWriteHelper,
  kRfWriteWide,
  // Per-stage stall attribution: which constraint bound each µop's dispatch
  // (ties credit the earlier stage). kStallIssue is separate — it counts
  // executions that sat ready in the queue waiting for an issue slot.
  kStallCommit,  // dispatch bound by ROB recycling (commit pressure)
  kStallFetch,   // dispatch bound by fetch + frontend depth (no stall)
  kStallIssue,   // issued later than ready (issue-width contention)
  kStallQueue,   // dispatch bound by issue-queue backpressure
  kStallRename,  // dispatch bound by rename-width serialization
  kStoreAccesses,
  kUl1Accesses,
  kWpredLookups,
  kCount,
};

inline constexpr std::size_t kNumCounters = static_cast<std::size_t>(Counter::kCount);

/// Stable external name of a counter (e.g. "issue_wide").
std::string_view counter_name(Counter c);

/// Reverse lookup; Counter::kCount if `name` is not a known counter.
Counter counter_from_name(std::string_view name);

/// Flat array of all counters. Enum indexing is the hot path; the string
/// accessors exist for tests/reporting (reads of unknown names yield 0).
class CounterArray {
 public:
  u64& operator[](Counter c) { return v_[static_cast<std::size_t>(c)]; }
  u64 operator[](Counter c) const { return v_[static_cast<std::size_t>(c)]; }
  u64 get(Counter c) const { return v_[static_cast<std::size_t>(c)]; }

  /// Name-based access for tests and reporting (not for the hot path).
  u64 get(std::string_view name) const;
  u64& operator[](std::string_view name);  // checks the name is known

 private:
  std::array<u64, kNumCounters> v_{};
};

}  // namespace hcsim
