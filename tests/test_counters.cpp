// Tests for the enum-indexed counter array and its string-name bridge.
#include <gtest/gtest.h>

#include "core/counters.hpp"

namespace hcsim {
namespace {

TEST(Counters, NameTableRoundTrips) {
  for (std::size_t i = 0; i < kNumCounters; ++i) {
    const Counter c = static_cast<Counter>(i);
    const std::string_view name = counter_name(c);
    EXPECT_FALSE(name.empty());
    EXPECT_EQ(counter_from_name(name), c) << name;
  }
}

TEST(Counters, UnknownNameIsRejected) {
  EXPECT_EQ(counter_from_name("no_such_counter"), Counter::kCount);
  const CounterArray a;
  EXPECT_EQ(a.get("no_such_counter"), 0u);  // unknown names read as 0
}

TEST(Counters, EnumAndStringAccessAlias) {
  CounterArray a;
  a[Counter::kIssueWide] += 3;
  a["issue_wide"] += 2;
  EXPECT_EQ(a.get(Counter::kIssueWide), 5u);
  EXPECT_EQ(a.get("issue_wide"), 5u);
}

}  // namespace
}  // namespace hcsim
