// Tests for the set-associative cache model.
#include <gtest/gtest.h>

#include <random>

#include "mem/cache.hpp"

namespace hcsim {
namespace {

CacheConfig small_cache(u32 ways) {
  CacheConfig c;
  c.name = "test";
  c.size_bytes = 1024;
  c.line_bytes = 64;
  c.ways = ways;
  return c;
}

TEST(Cache, ColdMissThenHit) {
  Cache c(small_cache(2));
  EXPECT_FALSE(c.access(0x1000));
  EXPECT_TRUE(c.access(0x1000));
  EXPECT_TRUE(c.access(0x1004));  // same line
  EXPECT_FALSE(c.access(0x1040));  // next line
}

TEST(Cache, ProbeDoesNotAllocate) {
  Cache c(small_cache(2));
  EXPECT_FALSE(c.probe(0x2000));
  EXPECT_FALSE(c.probe(0x2000));  // still absent
  c.access(0x2000);
  EXPECT_TRUE(c.probe(0x2000));
}

TEST(Cache, LruEviction) {
  // 1024B / 64B lines / 2 ways = 8 sets. Lines mapping to the same set are
  // 8*64 = 512 bytes apart.
  Cache c(small_cache(2));
  c.access(0x0000);
  c.access(0x0200);  // same set, second way
  EXPECT_TRUE(c.access(0x0000));  // refresh LRU of line A
  c.access(0x0400);  // evicts 0x0200 (LRU), not 0x0000
  EXPECT_TRUE(c.probe(0x0000));
  EXPECT_FALSE(c.probe(0x0200));
  EXPECT_TRUE(c.probe(0x0400));
}

TEST(Cache, AssociativityConflicts) {
  Cache direct(small_cache(1));
  direct.access(0x0000);
  direct.access(0x0400);  // same set in a direct-mapped cache
  EXPECT_FALSE(direct.probe(0x0000));  // evicted

  Cache assoc(small_cache(4));
  assoc.access(0x0000);
  assoc.access(0x0400);
  EXPECT_TRUE(assoc.probe(0x0000));  // enough ways
}

TEST(Cache, FullyAssociativeHoldsWorkingSet) {
  CacheConfig cfg = small_cache(16);  // 1024/64 = 16 lines, 1 set
  Cache c(cfg);
  for (u32 i = 0; i < 16; ++i) c.access(i * 64);
  for (u32 i = 0; i < 16; ++i) EXPECT_TRUE(c.probe(i * 64)) << i;
}

TEST(Cache, HitRatioAccounting) {
  Cache c(small_cache(2));
  c.access(0x0000);  // miss
  c.access(0x0000);  // hit
  c.access(0x0000);  // hit
  EXPECT_EQ(c.accesses(), 3u);
  EXPECT_NEAR(c.hit_ratio().value(), 2.0 / 3.0, 1e-12);
}

TEST(Cache, InvalidateAll) {
  Cache c(small_cache(2));
  c.access(0x0000);
  c.invalidate_all();
  EXPECT_FALSE(c.probe(0x0000));
}

TEST(Cache, LargerWorkingSetThanCacheThrashes) {
  Cache c(small_cache(2));  // 1KB
  // Stream 8KB twice: second pass still misses (capacity).
  for (int pass = 0; pass < 2; ++pass)
    for (u32 a = 0; a < 8192; a += 64) c.access(a);
  EXPECT_LT(c.hit_ratio().value(), 0.01);
}

TEST(CacheDeath, RejectsBadGeometry) {
  CacheConfig c = small_cache(2);
  c.line_bytes = 48;  // not a power of two
  EXPECT_DEATH({ Cache bad(c); }, "power of two");
  CacheConfig tiny = small_cache(32);
  tiny.size_bytes = 64;  // smaller than one set
  EXPECT_DEATH({ Cache bad(tiny); }, "smaller");
}

class CacheGeometry : public ::testing::TestWithParam<std::tuple<u32, u32>> {};

// The pipeline replays a flushed memory µop's access as a DL0 hit without
// touching the tags. That is exact only if repeating an access right after
// itself leaves every later hit or miss unchanged: the line is already the
// newest in its set, so the LRU order stays the same.
TEST(Cache, RepeatingTheNewestAccessChangesNoLaterVerdict) {
  std::mt19937 rng(20061);
  for (u32 ways = 1; ways <= 4; ++ways) {
    for (u32 sets : {1u, 2u, 4u, 8u}) {
      CacheConfig cfg = small_cache(ways);
      cfg.size_bytes = cfg.line_bytes * ways * sets;
      // Twice as many lines as the cache holds, so hits and misses mix.
      const u32 lines = 2 * ways * sets;
      for (int trial = 0; trial < 20; ++trial) {
        Cache once(cfg), repeated(cfg);
        for (int i = 0; i < 400; ++i) {
          const u32 addr = (rng() % lines) * cfg.line_bytes + rng() % cfg.line_bytes;
          ASSERT_EQ(once.access(addr), repeated.access(addr))
              << ways << " ways, " << sets << " sets, trial " << trial << ", access " << i;
          if (rng() % 3 == 0) ASSERT_TRUE(repeated.access(addr));
        }
      }
    }
  }
}

TEST_P(CacheGeometry, TableOneConfigsWork) {
  const auto [size, ways] = GetParam();
  CacheConfig cfg;
  cfg.size_bytes = size;
  cfg.ways = ways;
  Cache c(cfg);
  c.access(0x12345678);
  EXPECT_TRUE(c.probe(0x12345678));
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheGeometry,
    ::testing::Values(std::tuple<u32, u32>{32 * 1024, 8},       // DL0 (Table 1)
                      std::tuple<u32, u32>{4 * 1024 * 1024, 16},  // UL1 (Table 1)
                      std::tuple<u32, u32>{1024, 1},
                      std::tuple<u32, u32>{64 * 1024, 4}));

}  // namespace
}  // namespace hcsim
