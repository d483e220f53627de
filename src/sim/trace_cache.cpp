#include "sim/trace_cache.hpp"

#include <sys/mman.h>
#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <mutex>
#include <vector>

#include "util/log.hpp"
#include "wload/executor.hpp"

namespace hcsim {

namespace {

/// Hands the whole pages of a dying trace's records back to the OS before
/// the records are freed. A trace is the largest block a sweep allocates.
/// Once glibc has freed one, its dynamic mmap threshold rises past a
/// trace's size, so later traces come from, and return to, the heap of
/// whichever worker allocated them and stay resident there. The peak RSS of
/// a 2-thread cumulative sweep at 300k µops then hung on which worker
/// generated and freed which trace (26-36 MB from run to run on one input);
/// with the pages returned it follows the live traces (26-30 MB). The
/// block's first and last partial pages, which hold the allocator's
/// bookkeeping, are left alone. A failed madvise only leaves the pages
/// resident, as free() would.
void release_pages(const std::vector<TraceRecord>& records) {
  const auto page = static_cast<std::uintptr_t>(sysconf(_SC_PAGESIZE));
  const auto begin = reinterpret_cast<std::uintptr_t>(records.data());
  const std::uintptr_t lo = (begin + page - 1) & ~(page - 1);
  const std::uintptr_t hi = (begin + records.capacity() * sizeof(TraceRecord)) & ~(page - 1);
  if (hi > lo) madvise(reinterpret_cast<void*>(lo), hi - lo, MADV_DONTNEED);
}

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
    release_pages(s->trace.records);
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
  // 2M records ≈ 64MB of trace — the most one cached trace should cost
  // while its jobs run. That bounds the traces of sampled cached sweep
  // cells and of simulate_workload's unsampled runs (hcsim_run); an
  // unsampled cached sweep cell keeps no trace, only 4 + 2 × keys bytes
  // per record (exp::simulate_cells), 12MB for a one-key cell at 2M.
  // Deliberately not cached in a static: the threshold-boundary tests move
  // it at runtime.
  return env_u64("HCSIM_STREAM_THRESHOLD", 2000000);
}

TraceCacheStats trace_cache_stats() { return cache().stats(); }

}  // namespace hcsim
