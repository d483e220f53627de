// hcsim tests — compare two SimResults field by field.
#pragma once

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <string_view>

#include "core/sim_result.hpp"

namespace hcsim {

/// The first field in which `a` and `b` differ, as "field: a vs b", or ""
/// when they agree on every integer field, every counter, the copy-wait
/// histogram and the derived doubles. The doubles are computed from the
/// integers the same way on both sides, so exact equality is expected too.
inline std::string result_difference(const SimResult& a, const SimResult& b) {
  std::ostringstream diff;
  const auto field = [&diff](std::string_view name, auto x, auto y) {
    if (x != y && diff.tellp() == 0) diff << name << ": " << x << " vs " << y;
  };
  field("uops", a.uops, b.uops);
  field("final_tick", a.final_tick, b.final_tick);
  field("to_wide", a.to_wide, b.to_wide);
  field("to_helper", a.to_helper, b.to_helper);
  field("br_steered", a.br_steered, b.br_steered);
  field("cr_steered", a.cr_steered, b.cr_steered);
  field("split_uops", a.split_uops, b.split_uops);
  field("chunk_uops", a.chunk_uops, b.chunk_uops);
  field("replicated_loads", a.replicated_loads, b.replicated_loads);
  field("copies", a.copies, b.copies);
  field("copies_w2n", a.copies_w2n, b.copies_w2n);
  field("copies_n2w", a.copies_n2w, b.copies_n2w);
  field("copy_prefetches", a.copy_prefetches, b.copy_prefetches);
  field("cp_useful", a.cp_useful, b.cp_useful);
  field("cp_wasted", a.cp_wasted, b.cp_wasted);
  field("wp_correct", a.wp_correct, b.wp_correct);
  field("wp_nonfatal", a.wp_nonfatal, b.wp_nonfatal);
  field("wp_fatal", a.wp_fatal, b.wp_fatal);
  field("cr_violations", a.cr_violations, b.cr_violations);
  field("branches", a.branches, b.branches);
  field("branch_mispredicts", a.branch_mispredicts, b.branch_mispredicts);
  field("nready_w2n", a.nready_w2n, b.nready_w2n);
  field("nready_n2w", a.nready_n2w, b.nready_n2w);
  for (std::size_t i = 0; i < kNumCounters; ++i) {
    const Counter c = static_cast<Counter>(i);
    field(counter_name(c), a.counters.get(c), b.counters.get(c));
  }
  field("copy_wait.total", a.copy_wait.total(), b.copy_wait.total());
  field("copy_wait.bins", a.copy_wait.bins(), b.copy_wait.bins());
  for (std::size_t i = 0; i <= a.copy_wait.bins(); ++i)
    field("copy_wait.bin " + std::to_string(i), a.copy_wait.bin(i), b.copy_wait.bin(i));
  field("dl0_hit_rate", a.dl0_hit_rate, b.dl0_hit_rate);
  field("ul1_hit_rate", a.ul1_hit_rate, b.ul1_hit_rate);
  field("wide_cycles", a.wide_cycles, b.wide_cycles);
  field("ipc", a.ipc, b.ipc);
  return diff.str();
}

inline void expect_identical(const SimResult& a, const SimResult& b) {
  EXPECT_EQ(result_difference(a, b), "");
}

}  // namespace hcsim
