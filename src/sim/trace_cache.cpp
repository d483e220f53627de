#include "sim/trace_cache.hpp"

#include <atomic>
#include <mutex>
#include <vector>

#include "util/log.hpp"
#include "wload/executor.hpp"

namespace hcsim {

namespace {

/// One cached trace. Its shared_ptr's deleter takes the entry out of the
/// cache, so the cache only ever lists traces that some handle keeps alive.
struct Slot {
  std::once_flag generated;
  Trace trace;
};

class TraceCache {
 public:
  TraceHandle acquire(const WorkloadProfile& profile, u64 n_records, bool pin) {
    std::shared_ptr<Slot> slot;
    {
      std::lock_guard<std::mutex> lock(mu_);
      Entry* entry = find(profile, n_records);
      if (entry) slot = entry->slot.lock();
      if (!slot) {
        // New key, or one whose last handle is dropping right now: its
        // deleter waits on mu_ and then finds a different live slot here,
        // so it leaves this entry alone.
        slot = std::shared_ptr<Slot>(new Slot, [this](Slot* s) { release(s); });
        if (!entry) entry = &entries_.emplace_back(Entry{profile, n_records, {}, {}, {}});
        entry->live = slot.get();
        entry->slot = slot;
      }
      if (pin && !entry->pin) entry->pin = slot;
    }
    // Concurrent acquirers of one key wait here for one generation; other
    // keys generate in parallel.
    std::call_once(slot->generated, [&] {
      slot->trace = generate_trace(profile, n_records);
      generations_.fetch_add(1, std::memory_order_relaxed);
    });
    return TraceHandle(slot, &slot->trace);
  }

  TraceCacheStats stats() {
    std::lock_guard<std::mutex> lock(mu_);
    TraceCacheStats s;
    for (const Entry& e : entries_) s.live += !e.pin && !e.slot.expired();
    s.generated = generations_.load(std::memory_order_relaxed);
    return s;
  }

 private:
  struct Entry {
    WorkloadProfile profile;
    u64 n_records = 0;
    Slot* live = nullptr;  // identifies the slot `slot` points to
    std::weak_ptr<Slot> slot;
    std::shared_ptr<Slot> pin;  // set by cached_trace(): never expires
  };

  /// Linear: the cache holds the traces of the jobs in flight plus pinned
  /// ones, a few dozen at most. The key is the whole profile, compared with
  /// ==, so a profile with a NaN field never matches, and is never handed
  /// another profile's trace.
  Entry* find(const WorkloadProfile& profile, u64 n_records) {
    for (Entry& e : entries_)
      if (e.n_records == n_records && e.profile == profile) return &e;
    return nullptr;
  }

  void release(Slot* s) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      for (auto it = entries_.begin(); it != entries_.end(); ++it)
        if (it->live == s) {
          if (it + 1 != entries_.end()) *it = std::move(entries_.back());
          entries_.pop_back();
          break;
        }
    }
    delete s;  // frees the records outside the lock
  }

  std::mutex mu_;
  std::vector<Entry> entries_;
  std::atomic<u64> generations_{0};
};

/// Never destroyed: a handle or a pin may outlive any static destructor.
TraceCache& cache() {
  static TraceCache* const c = new TraceCache;
  return *c;
}

}  // namespace

TraceHandle acquire_trace(const WorkloadProfile& profile, u64 n_records) {
  return cache().acquire(profile, n_records, /*pin=*/false);
}

const Trace& cached_trace(const WorkloadProfile& profile, u64 n_records) {
  return *cache().acquire(profile, n_records, /*pin=*/true);
}

u64 stream_threshold() {
  // 2M records ≈ 64MB of trace — the most one cached (workload, length) key
  // should cost while its jobs run. Deliberately not cached in a static:
  // the threshold-boundary tests move it at runtime.
  return env_u64("HCSIM_STREAM_THRESHOLD", 2000000);
}

TraceCacheStats trace_cache_stats() { return cache().stats(); }

}  // namespace hcsim
