// hcsim tests — a std::unordered_map word store, the reference model for
// SyntheticMemory's open-addressing table (src/wload/executor.hpp).
//
// This is how SyntheticMemory kept its written words before the flat table:
// one map node per word, looked up on every load. Unwritten words read what a
// SyntheticMemory that was never stored to synthesizes, so the two differ
// only in how written words are kept; test_executor.cpp checks them against
// each other.
#pragma once

#include <unordered_map>

#include "wload/executor.hpp"

namespace hcsim {

class MapMemory {
 public:
  explicit MapMemory(const WorkloadProfile& profile) : pristine_(profile) {}

  u32 load(u32 addr, bool byte) const {
    const u32 word_addr = addr & ~3u;
    const auto it = written_.find(word_addr);
    const u32 word = it != written_.end() ? it->second : pristine_.load(word_addr, false);
    if (!byte) return word;
    const unsigned shift = (addr & 3u) * 8u;
    return (word >> shift) & 0xFFu;
  }

  void store(u32 addr, u32 value, bool byte) {
    const u32 word_addr = addr & ~3u;
    if (!byte) {
      written_[word_addr] = value;
      return;
    }
    u32 word = load(word_addr, /*byte=*/false);
    const unsigned shift = (addr & 3u) * 8u;
    word = (word & ~(0xFFu << shift)) | ((value & 0xFFu) << shift);
    written_[word_addr] = word;
  }

  std::size_t written_words() const { return written_.size(); }

 private:
  SyntheticMemory pristine_;  // never stored to: synthesizes unwritten words
  std::unordered_map<u32, u32> written_;
};

}  // namespace hcsim
