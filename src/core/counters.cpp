#include "core/counters.hpp"

#include "util/log.hpp"

namespace hcsim {

namespace {

/// Parallel to enum class Counter (counters.hpp) — same order.
constexpr std::string_view kCounterNames[kNumCounters] = {
    "bb_cache_hits",
    "bb_cache_invalidations",
    "bb_cache_misses",
    "block_splits",
    "chunk_rename_slots",
    "committed",
    "copy_rename_slots",
    "dl0_accesses",
    "fetched",
    "flush_refills",
    "issue_fp",
    "issue_helper",
    "issue_wide",
    "load_accesses",
    "mob_forwards",
    "nready_truncations",
    "rf_write_helper",
    "rf_write_wide",
    "stall_commit",
    "stall_fetch",
    "stall_issue",
    "stall_queue",
    "stall_rename",
    "store_accesses",
    "ul1_accesses",
    "wpred_lookups",
};

}  // namespace

std::string_view counter_name(Counter c) {
  HCSIM_CHECK(c < Counter::kCount, "counter_name: out of range");
  return kCounterNames[static_cast<std::size_t>(c)];
}

Counter counter_from_name(std::string_view name) {
  for (std::size_t i = 0; i < kNumCounters; ++i)
    if (kCounterNames[i] == name) return static_cast<Counter>(i);
  return Counter::kCount;
}

u64 CounterArray::get(std::string_view name) const {
  const Counter c = counter_from_name(name);
  return c == Counter::kCount ? 0 : get(c);
}

u64& CounterArray::operator[](std::string_view name) {
  const Counter c = counter_from_name(name);
  HCSIM_CHECK(c != Counter::kCount, "unknown counter name");
  return (*this)[c];
}

}  // namespace hcsim
