// Tests for the statistics primitives.
#include <gtest/gtest.h>

#include "util/stats.hpp"

namespace hcsim {
namespace {

TEST(RunningStat, Empty) {
  RunningStat s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(RunningStat, MeanAndVariance) {
  RunningStat s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.stddev(), 2.138, 0.001);  // sample stddev
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(RunningStat, MergeEqualsSequential) {
  RunningStat a, b, all;
  for (int i = 0; i < 100; ++i) {
    const double x = i * 0.37 - 5;
    (i % 2 ? a : b).add(x);
    all.add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(RunningStat, MergeWithEmpty) {
  RunningStat a, empty;
  a.add(3.0);
  a.merge(empty);
  EXPECT_EQ(a.count(), 1u);
  empty.merge(a);
  EXPECT_EQ(empty.count(), 1u);
  EXPECT_DOUBLE_EQ(empty.mean(), 3.0);
}

TEST(Ratio, Basics) {
  Ratio r;
  EXPECT_DOUBLE_EQ(r.value(), 0.0);  // no division by zero
  r.add(true);
  r.add(true);
  r.add(false);
  r.add(true);
  EXPECT_DOUBLE_EQ(r.value(), 0.75);
  EXPECT_DOUBLE_EQ(r.percent(), 75.0);
}

TEST(Ratio, AddN) {
  Ratio r;
  r.add_n(30, 100);
  r.add_n(20, 100);
  EXPECT_DOUBLE_EQ(r.percent(), 25.0);
}

TEST(Histogram, BinningAndOverflow) {
  Histogram h(8);
  h.add(0);
  h.add(7);
  h.add(8);    // overflow bin
  h.add(100);  // overflow bin
  EXPECT_EQ(h.total(), 4u);
  EXPECT_EQ(h.bin(0), 1u);
  EXPECT_EQ(h.bin(7), 1u);
  EXPECT_EQ(h.bin(8), 2u);
}

TEST(Histogram, MeanUsesUncappedValues) {
  Histogram h(4);
  h.add(2);
  h.add(10);  // overflows the bins but not the mean
  EXPECT_DOUBLE_EQ(h.mean(), 6.0);
}

TEST(Histogram, Quantiles) {
  Histogram h(100);
  for (u64 v = 0; v < 100; ++v) h.add(v);
  EXPECT_NEAR(static_cast<double>(h.quantile(0.5)), 49.0, 1.0);
  EXPECT_NEAR(static_cast<double>(h.quantile(0.9)), 89.0, 1.0);
  EXPECT_EQ(h.quantile(1.0), 99u);
}

TEST(Histogram, FractionAtMost) {
  Histogram h(10);
  for (u64 v = 0; v < 10; ++v) h.add(v);
  EXPECT_DOUBLE_EQ(h.fraction_at_most(4), 0.5);
  EXPECT_DOUBLE_EQ(h.fraction_at_most(9), 1.0);
}

TEST(Histogram, WeightedAdd) {
  Histogram h(4);
  h.add(1, 10);
  EXPECT_EQ(h.total(), 10u);
  EXPECT_EQ(h.bin(1), 10u);
}

TEST(Geomean, Basics) {
  EXPECT_DOUBLE_EQ(geomean({}), 0.0);
  EXPECT_NEAR(geomean({2.0, 8.0}), 4.0, 1e-9);
  EXPECT_NEAR(geomean({1.0, 1.0, 1.0}), 1.0, 1e-12);
}

}  // namespace
}  // namespace hcsim
