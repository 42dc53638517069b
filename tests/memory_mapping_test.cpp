// Tests for the Panda/Dutt-style memory-mapping optimisation.
#include <gtest/gtest.h>

#include <set>

#include "analysis/memory_mapping.h"
#include "core/binary_codec.h"
#include "core/stream_evaluator.h"
#include "sim/program_library.h"
#include "trace/synthetic.h"
#include "trace/trace_stats.h"

namespace abenc {
namespace {

long long BinaryTransitions(const AddressTrace& trace) {
  BinaryCodec codec(32);
  return Evaluate(codec, trace.ToBusAccesses(), 4, false).transitions;
}

TEST(MemoryMappingTest, PermutationIsInjectiveOverTouchedFrames) {
  SyntheticGenerator gen(2);
  const AddressTrace trace = gen.DataLike(20000, 4, 32);
  const MemoryMapping mapping = OptimizeMapping(trace, 32, 8);
  std::set<Word> codes;
  std::set<Word> frames;
  for (const auto& [frame, code] : mapping.table()) {
    frames.insert(frame);
    codes.insert(code);
  }
  EXPECT_EQ(codes, frames);  // a permutation of the touched frames
  EXPECT_EQ(codes.size(), mapping.remapped_frames());
}

TEST(MemoryMappingTest, OffsetsWithinAFrameAreUntouched) {
  const MemoryMapping mapping(8, {{0x1000, 0x2000}});
  EXPECT_EQ(mapping.Remap(0x100037), 0x200037u);
  EXPECT_EQ(mapping.Remap(0x999937), 0x999937u);  // unseen frame: identity
}

TEST(MemoryMappingTest, HotPingPongGetsHammingCloseCodes) {
  // Two hot frames whose numbers differ in all eight frame bits, plus a
  // handful of cold frames whose numbers enrich the code pool: after
  // remapping, the hot pair should sit at Hamming-close codes and the
  // stream gets far cheaper. (With only two frames a permutation could
  // never help — the distance is symmetric — so the pool matters.)
  AddressTrace trace;
  for (int i = 0; i < 2000; ++i) {
    trace.Append(i % 2 == 0 ? 0x000040u : 0xFF0040u, AccessKind::kData);
  }
  for (Word cold : {0x010040u, 0x030040u, 0x800040u, 0xFE0040u, 0x550040u}) {
    trace.Append(cold, AccessKind::kData);
  }
  const long long before = BinaryTransitions(trace);
  const MemoryMapping mapping = OptimizeMapping(trace, 32, 8);
  const AddressTrace remapped = ApplyMapping(trace, mapping);
  const long long after = BinaryTransitions(remapped);
  EXPECT_LT(after, before / 2);
  // The hot pair's codes are closer than their original distance of 8.
  const Word hot_a = mapping.Remap(0x000040) >> 8;
  const Word hot_b = mapping.Remap(0xFF0040) >> 8;
  EXPECT_LE(HammingDistance(hot_a, hot_b, 24), 2);
}

TEST(MemoryMappingTest, ApplyPreservesKindsAndLength) {
  SyntheticGenerator gen(3);
  const AddressTrace trace = gen.MultiplexedLike(3000, 0.4, 4, 32);
  const MemoryMapping mapping = OptimizeMapping(trace, 32, 8);
  const AddressTrace remapped = ApplyMapping(trace, mapping);
  ASSERT_EQ(remapped.size(), trace.size());
  for (std::size_t i = 0; i < trace.size(); ++i) {
    EXPECT_EQ(remapped[i].kind, trace[i].kind);
  }
}

TEST(MemoryMappingTest, RemappingIsReversibleThroughTheInverseTable) {
  // Because the assignment is a permutation, building the inverse map
  // restores every address — the memory controller can actually do this.
  SyntheticGenerator gen(4);
  const AddressTrace trace = gen.DataLike(5000, 4, 32);
  const MemoryMapping forward = OptimizeMapping(trace, 32, 8);
  std::unordered_map<Word, Word> inverse_table;
  for (const auto& [frame, code] : forward.table()) {
    inverse_table[code] = frame;
  }
  const MemoryMapping inverse(8, std::move(inverse_table));
  for (const TraceEntry& e : trace) {
    EXPECT_EQ(inverse.Remap(forward.Remap(e.address)), e.address);
  }
}

TEST(MemoryMappingTest, HelpsOnRealDataStreams) {
  // On the database-flavoured kernel (irregular frame hopping) the
  // remap should not hurt and typically helps noticeably.
  const AddressTrace data =
      sim::RunBenchmark(sim::FindBenchmarkProgram("oracle")).data();
  const long long before = BinaryTransitions(data);
  const MemoryMapping mapping = OptimizeMapping(data, 32, 8);
  const long long after = BinaryTransitions(ApplyMapping(data, mapping));
  EXPECT_LT(after, before);
}

}  // namespace
}  // namespace abenc
