// hcsim — two-level memory hierarchy + memory order buffer.
//
// Models the Table 1 hierarchy: DL0 32KB/8-way/3-cycle/2 ports,
// UL1 4MB/16-way/13-cycle/1 port, 450-cycle main memory. An access splits
// into two halves. The tag probe (probe_hierarchy) names the level that
// serves it and depends only on the order of accesses, so the pipeline takes
// it from a shared OutcomeModel (core/outcome_model.hpp). The port half
// (MemoryPorts) models contention by per-level slot ledgers at wide-cycle
// granularity and is all timing, so each pipeline keeps its own.
// MemorySystem joins the two for callers that want one object.
//
// The Mob class models a shared memory order buffer with store-to-load
// forwarding. The pipeline does not use it: the model retires each store at
// the end of its own program-order step, so a load never finds an older
// store in flight, and there is no store-to-load forwarding.
#pragma once

#include "util/slot_schedule.hpp"
#include "mem/cache.hpp"
#include "util/types.hpp"

namespace hcsim {

struct MemoryConfig {
  CacheConfig dl0{"DL0", 32 * 1024, 64, 8, 3, 2};
  CacheConfig ul1{"UL1", 4 * 1024 * 1024, 64, 16, 13, 1};
  u32 main_memory_cycles = 450;
};

/// The level of the hierarchy that serves an access. Doubles as the value of
/// a memory µop's 2-bit outcome event (core/outcome_model.hpp).
enum class MemLevel : u8 { kDl0 = 0, kUl1 = 1, kMain = 2 };

/// Probe DL0, and UL1 only on a DL0 miss, allocating on a miss at each level
/// probed: the level that serves `addr`. Repeating an access right after
/// itself finds DL0 (the line is the newest in its set) and changes no later
/// verdict, because the LRU order stays the same.
inline MemLevel probe_hierarchy(Cache& dl0, Cache& ul1, u32 addr) {
  if (dl0.access(addr)) return MemLevel::kDl0;
  return ul1.access(addr) ? MemLevel::kUl1 : MemLevel::kMain;
}

/// The hierarchy's port ledgers and latencies: the one latency rule.
class MemoryPorts {
 public:
  explicit MemoryPorts(const MemoryConfig& cfg);

  /// Schedule an access whose address generation finished at wide cycle
  /// `agu_done_cycle` and that `level` serves. Returns the wide cycle at which
  /// the data is available. Caches are pipelined: a port is occupied for one
  /// cycle per access while the access latency overlaps with younger
  /// accesses. Inline: one call per load/store on the per-µop hot path, and
  /// the DL0 hit exit dominates.
  u64 access(u64 agu_done_cycle, MemLevel level, bool is_store) {
    const u64 dl0_done = dl0_ports_.reserve(agu_done_cycle) + dl0_latency_;
    if (level == MemLevel::kDl0) return dl0_done;
    const u64 ul1_done = ul1_ports_.reserve(dl0_done) + ul1_latency_;
    // Stores that miss all the way allocate without stalling the pipeline on
    // the full memory round trip (write-allocate, store buffer drains them);
    // loads pay the main-memory latency.
    if (level == MemLevel::kUl1 || is_store) return ul1_done;
    return ul1_done + main_memory_cycles_;
  }

 private:
  SlotSchedule dl0_ports_;  // ports per wide cycle (pipelined)
  SlotSchedule ul1_ports_;
  u64 dl0_latency_;
  u64 ul1_latency_;
  u64 main_memory_cycles_;
};

/// Tags and ports together: probe_hierarchy, then MemoryPorts::access.
class MemorySystem {
 public:
  explicit MemorySystem(const MemoryConfig& cfg);

  /// Probe the tags for `addr` and schedule the access on the ports; see
  /// MemoryPorts::access.
  u64 access(u64 agu_done_cycle, u32 addr, bool is_store) {
    return ports_.access(agu_done_cycle, probe_hierarchy(dl0_, ul1_, addr), is_store);
  }

  const Cache& dl0() const { return dl0_; }
  const Cache& ul1() const { return ul1_; }
  const MemoryConfig& config() const { return cfg_; }

 private:
  MemoryConfig cfg_;
  Cache dl0_;
  Cache ul1_;
  MemoryPorts ports_;
};

/// Memory order buffer: tracks in-flight stores so loads can forward from
/// or wait on older same-address stores. Entries are keyed by the dynamic
/// sequence number assigned at dispatch; both clusters share this structure.
/// Entries live in a flat power-of-two ring ordered by seq — the window is
/// short (stores retire at commit), so the reverse forwarding scan walks a
/// few contiguous entries instead of chasing std::deque segment pointers.
class Mob {
 public:
  Mob() : stores_(kInitialCap), mask_(kInitialCap - 1) {}

  // One call per store (x2) / per load on the per-µop hot path: inline.
  void add_store(SeqNum seq, u32 addr, u64 data_ready_cycle) {
    if (tail_ - head_ > mask_) [[unlikely]] grow();
    stores_[tail_ & mask_] = StoreEntry{seq, addr, data_ready_cycle};
    ++tail_;
  }

  void store_retired(SeqNum seq) {
    while (head_ != tail_ && stores_[head_ & mask_].seq <= seq) ++head_;
  }

  /// Result of a load disambiguation probe.
  struct LoadCheck {
    bool forwarded = false;    // an older store supplies the data
    u64 ready_cycle = 0;       // when the forwarded data is available
  };

  /// Check a load at sequence `seq`, address `addr`, against older stores.
  LoadCheck check_load(SeqNum seq, u32 addr) const {
    LoadCheck res;
    if (head_ == tail_) [[likely]] return res;
    // Youngest older store to the same word wins (store-to-load forwarding).
    const u32 word = addr & ~3u;
    for (u64 i = tail_; i != head_;) {
      const StoreEntry& e = stores_[--i & mask_];
      if (e.seq >= seq) continue;
      if ((e.addr & ~3u) == word) {
        res.forwarded = true;
        res.ready_cycle = e.data_ready_cycle;
        return res;
      }
    }
    return res;
  }

  /// Squash all stores younger than or equal to `seq` (pipeline flush).
  void squash_from(SeqNum seq);

  std::size_t size() const { return tail_ - head_; }

 private:
  struct StoreEntry {
    SeqNum seq;
    u32 addr;
    u64 data_ready_cycle;
  };
  static constexpr u64 kInitialCap = 64;  // power of two

  void grow();

  std::vector<StoreEntry> stores_;  // ring ordered by seq, [head_, tail_)
  u64 mask_;
  u64 head_ = 0;
  u64 tail_ = 0;
};

}  // namespace hcsim
