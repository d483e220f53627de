#include "mem/memory_system.hpp"

#include <algorithm>

namespace hcsim {

MemoryPorts::MemoryPorts(const MemoryConfig& cfg)
    : dl0_ports_(cfg.dl0.ports, /*cycle_ticks=*/1),
      ul1_ports_(cfg.ul1.ports, /*cycle_ticks=*/1),
      dl0_latency_(cfg.dl0.latency_cycles),
      ul1_latency_(cfg.ul1.latency_cycles),
      main_memory_cycles_(cfg.main_memory_cycles) {}

MemorySystem::MemorySystem(const MemoryConfig& cfg)
    : cfg_(cfg), dl0_(cfg.dl0), ul1_(cfg.ul1), ports_(cfg) {}

void Mob::squash_from(SeqNum seq) {
  while (tail_ != head_ && stores_[(tail_ - 1) & mask_].seq >= seq) --tail_;
}

void Mob::grow() {
  const u64 cap = (mask_ + 1) * 2;
  std::vector<StoreEntry> bigger(cap);
  for (u64 i = head_; i != tail_; ++i) bigger[i & (cap - 1)] = stores_[i & mask_];
  stores_ = std::move(bigger);
  mask_ = cap - 1;
}

}  // namespace hcsim
