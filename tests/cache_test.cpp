// Tests for the cache substrate and the cache-filtering bus monitor.
#include <gtest/gtest.h>

#include "sim/cache.h"
#include "sim/program_library.h"

namespace abenc::sim {
namespace {

CacheConfig Tiny() { return CacheConfig{16, 4, 2}; }  // 128 B, 2-way

TEST(CacheTest, ColdMissThenHit) {
  Cache cache(Tiny());
  EXPECT_FALSE(cache.Access(0x1000, false).hit);
  EXPECT_TRUE(cache.Access(0x1000, false).hit);
  EXPECT_TRUE(cache.Access(0x100C, false).hit);   // same 16-byte line
  EXPECT_FALSE(cache.Access(0x1010, false).hit);  // next line
  EXPECT_EQ(cache.stats().accesses, 4u);
  EXPECT_EQ(cache.stats().misses, 2u);
}

TEST(CacheTest, LruEvictsTheColdestWay) {
  Cache cache(Tiny());
  // Three lines mapping to the same set (set bits = line bits % 4).
  const std::uint32_t a = 0x0000;            // set 0
  const std::uint32_t b = 0x0040;            // line 4 -> set 0
  const std::uint32_t c = 0x0080;            // line 8 -> set 0
  cache.Access(a, false);
  cache.Access(b, false);
  cache.Access(a, false);          // a is now MRU
  cache.Access(c, false);          // evicts b
  EXPECT_TRUE(cache.Access(a, false).hit);
  EXPECT_FALSE(cache.Access(b, false).hit);
}

TEST(CacheTest, DirtyEvictionReportsWriteback) {
  Cache cache(Tiny());
  cache.Access(0x0000, true);                   // dirty line, set 0
  cache.Access(0x0040, false);                  // fills way 2
  const auto result = cache.Access(0x0080, false);  // evicts dirty 0x0000
  EXPECT_TRUE(result.writeback);
  EXPECT_EQ(result.victim_line, 0x0000u);
  EXPECT_EQ(cache.stats().writebacks, 1u);
}

TEST(CacheTest, CleanEvictionHasNoWriteback) {
  Cache cache(Tiny());
  cache.Access(0x0000, false);
  cache.Access(0x0040, false);
  EXPECT_FALSE(cache.Access(0x0080, false).writeback);
}

TEST(CacheTest, StoreHitMarksLineDirty) {
  Cache cache(Tiny());
  cache.Access(0x0000, false);   // clean fill
  cache.Access(0x0004, true);    // store hit dirties it
  cache.Access(0x0040, false);
  EXPECT_TRUE(cache.Access(0x0080, false).writeback);
}

TEST(CacheTest, SequentialSweepMissesOncePerLine) {
  Cache cache(CacheConfig{16, 64, 2});
  for (std::uint32_t a = 0; a < 4096; a += 4) cache.Access(a, false);
  EXPECT_EQ(cache.stats().misses, 4096u / 16u);
}

TEST(CacheTest, RejectsNonPowerOfTwoGeometry) {
  EXPECT_THROW(Cache(CacheConfig{12, 64, 2}), std::invalid_argument);
  EXPECT_THROW(Cache(CacheConfig{16, 3, 2}), std::invalid_argument);
  EXPECT_THROW(Cache(CacheConfig{16, 64, 3}), std::invalid_argument);
}

TEST(CacheTest, ResetClearsContentsAndStats) {
  Cache cache(Tiny());
  cache.Access(0x1000, true);
  cache.Reset();
  EXPECT_EQ(cache.stats().accesses, 0u);
  EXPECT_FALSE(cache.Access(0x1000, false).hit);
}

TEST(CacheFilteredMonitorTest, OnlyMissesReachTheExternalBus) {
  CacheFilteredMonitor monitor(Tiny(), Tiny(), "probe");
  // Four fetches in one line: one external reference.
  for (std::uint32_t a = 0x400000; a < 0x400010; a += 4) {
    monitor.OnInstructionFetch(a);
  }
  const AddressTrace fetches =
      monitor.multiplexed_trace().Filtered(AccessKind::kInstruction);
  EXPECT_EQ(fetches.size(), 1u);
  EXPECT_EQ(fetches[0].address, 0x400000u);
  // Addresses on the external bus are line-aligned.
  monitor.OnDataAccess(0x1234'5678 & ~0u, false);
  const AddressTrace data =
      monitor.multiplexed_trace().Filtered(AccessKind::kData);
  ASSERT_EQ(data.size(), 1u);
  EXPECT_EQ(data[0].address % 16, 0u);
}

TEST(CacheFilteredMonitorTest, WritebackAppearsAsDataReference) {
  CacheFilteredMonitor monitor(Tiny(), Tiny());
  monitor.OnDataAccess(0x0000, true);
  monitor.OnDataAccess(0x0040, false);
  monitor.OnDataAccess(0x0080, false);  // evicts dirty 0x0000
  // 3 misses + 1 writeback.
  const AddressTrace data =
      monitor.multiplexed_trace().Filtered(AccessKind::kData);
  EXPECT_EQ(data.size(), 4u);
  EXPECT_EQ(data[3].address, 0x0000u);
}

TEST(RunBenchmarkWithCachesTest, ExternalStreamIsMuchShorterThanRaw) {
  const BenchmarkProgram& program = FindBenchmarkProgram("matlab");
  const ProgramTraces raw = RunBenchmark(program);
  const CachedProgramTraces cached = RunBenchmarkWithCaches(
      program, CacheConfig{16, 128, 2}, CacheConfig{16, 128, 2});
  EXPECT_LT(cached.external.multiplexed.size(),
            raw.multiplexed.size() / 10);
  EXPECT_GT(cached.external.multiplexed.size(), 0u);
  EXPECT_LT(cached.icache_miss_rate, 0.05);
  // Line-aligned external addresses.
  for (const TraceEntry& e : cached.external.multiplexed) {
    EXPECT_EQ(e.address % 16, 0u);
  }
}

}  // namespace
}  // namespace abenc::sim
