// Cross-module integration tests: the full pipelines the benches rely on,
// and the paper's headline claims as assertions.
#include <gtest/gtest.h>

#include <filesystem>
#include <sstream>

#include "core/codec_factory.h"
#include "core/stream_evaluator.h"
#include "gate/circuits.h"
#include "gate/power.h"
#include "gate/simulator.h"
#include "sim/cache.h"
#include "sim/program_library.h"
#include "trace/trace_io.h"
#include "trace/trace_stats.h"

namespace abenc {
namespace {

long long Transitions(const std::string& codec_name,
                      const std::vector<BusAccess>& accesses) {
  CodecOptions options;
  auto codec = MakeCodec(codec_name, options);
  return Evaluate(*codec, accesses, options.stride, true).transitions;
}

// ---------------------------------------------------------------------------
// Paper-claim assertions on simulator streams (the Table 2-7 shapes)
// ---------------------------------------------------------------------------

TEST(PaperClaimsTest, T0BeatsBusInvertOnEveryInstructionStream) {
  for (const sim::BenchmarkProgram& p : sim::BenchmarkPrograms()) {
    const auto traces = sim::RunBenchmark(p);
    const auto accesses = traces.instruction().ToBusAccesses();
    EXPECT_LT(Transitions("t0", accesses), Transitions("bus-invert", accesses))
        << p.name;
  }
}

TEST(PaperClaimsTest, BusInvertNeverSavesOnInstructionStreams) {
  // Table 2: sequential fetch steps have tiny Hamming distance, so the
  // majority voter never fires and bus-invert degenerates to binary.
  for (const sim::BenchmarkProgram& p : sim::BenchmarkPrograms()) {
    const auto traces = sim::RunBenchmark(p);
    const auto accesses = traces.instruction().ToBusAccesses();
    EXPECT_EQ(Transitions("bus-invert", accesses),
              Transitions("binary", accesses))
        << p.name;
  }
}

TEST(PaperClaimsTest, BusInvertBeatsT0OnDataStreamsOverall) {
  // Table 3's claim is about the aggregate: bus-invert is the better
  // redundant code for data address buses on average (individual
  // benchmarks can flip, in the paper and here).
  long long bi_total = 0;
  long long t0_total = 0;
  std::size_t bi_wins = 0;
  std::size_t rows = 0;
  for (const sim::BenchmarkProgram& p : sim::BenchmarkPrograms()) {
    const auto traces = sim::RunBenchmark(p);
    const auto accesses = traces.data().ToBusAccesses();
    const long long bi = Transitions("bus-invert", accesses);
    const long long t0 = Transitions("t0", accesses);
    bi_total += bi;
    t0_total += t0;
    if (bi < t0) ++bi_wins;
    ++rows;
  }
  EXPECT_LT(bi_total, t0_total);
  EXPECT_GE(bi_wins, rows - 2);  // at most two benchmark-level flips
}

TEST(PaperClaimsTest, DualT0BIWinsEveryMultiplexedStream) {
  // The headline of Table 7: dual T0_BI is the best code for the MIPS
  // multiplexed address bus — strictly better than binary, T0 and the
  // other mixed codes on every benchmark.
  for (const sim::BenchmarkProgram& p : sim::BenchmarkPrograms()) {
    const auto traces = sim::RunBenchmark(p);
    const auto accesses = traces.multiplexed.ToBusAccesses();
    const long long dual = Transitions("dual-t0-bi", accesses);
    EXPECT_LT(dual, Transitions("binary", accesses)) << p.name;
    EXPECT_LT(dual, Transitions("t0", accesses)) << p.name;
    EXPECT_LT(dual, Transitions("bus-invert", accesses)) << p.name;
    EXPECT_LT(dual, Transitions("dual-t0", accesses)) << p.name;
    EXPECT_LE(dual, Transitions("t0-bi", accesses)) << p.name;
  }
}

TEST(PaperClaimsTest, DualT0NeverSavesOnPureDataStreams) {
  // Table 6's exact 0.00% column: with SEL stuck low the dual T0 code is
  // binary by construction.
  for (const sim::BenchmarkProgram& p : sim::BenchmarkPrograms()) {
    const auto traces = sim::RunBenchmark(p);
    const auto accesses = traces.data().ToBusAccesses();
    EXPECT_EQ(Transitions("dual-t0", accesses),
              Transitions("binary", accesses))
        << p.name;
  }
}

TEST(PaperClaimsTest, T0FamilyIdenticalOnInstructionStreams) {
  // Table 5: on a pure instruction bus (SEL always high) T0, dual T0 and
  // dual T0_BI reduce to the same behaviour.
  const auto traces = sim::RunBenchmark(sim::FindBenchmarkProgram("gzip"));
  const auto accesses = traces.instruction().ToBusAccesses();
  const long long t0 = Transitions("t0", accesses);
  EXPECT_EQ(Transitions("dual-t0", accesses), t0);
  EXPECT_EQ(Transitions("dual-t0-bi", accesses), t0);
}

// ---------------------------------------------------------------------------
// Full pipelines
// ---------------------------------------------------------------------------

TEST(PipelineTest, SimulatorToFileToCodecRoundTrip) {
  namespace fs = std::filesystem;
  const auto traces = sim::RunBenchmark(sim::FindBenchmarkProgram("gunzip"));
  const std::string path =
      (fs::temp_directory_path() / "abenc_integration.btrace").string();
  SaveTrace(path, traces.multiplexed);
  const AddressTrace loaded = LoadTrace(path);
  ASSERT_EQ(loaded.size(), traces.multiplexed.size());

  // Savings computed on the reloaded trace match the in-memory ones.
  const long long a = Transitions("dual-t0-bi",
                                  traces.multiplexed.ToBusAccesses());
  const long long b = Transitions("dual-t0-bi", loaded.ToBusAccesses());
  EXPECT_EQ(a, b);
  fs::remove(path);
}

TEST(PipelineTest, GateLevelPowerTracksBehaviouralTransitions) {
  // The encoder output power at a dominant external load must rank the
  // codes exactly as the behavioural transition counts do.
  const auto traces = sim::RunBenchmark(sim::FindBenchmarkProgram("nova"));
  auto accesses = traces.multiplexed.ToBusAccesses();
  accesses.resize(std::min<std::size_t>(accesses.size(), 20000));

  const double load_pf = 50.0;
  gate::CodecCircuit binary = gate::BuildBinaryEncoder(32, 0.01);
  gate::CodecCircuit dual = gate::BuildDualT0BIEncoder(32, 4, 0.01);
  gate::GateSimulator binary_sim(binary.netlist);
  gate::GateSimulator dual_sim(dual.netlist);
  for (const BusAccess& access : accesses) {
    binary_sim.Cycle(gate::DriveInputs(binary, access.address, access.sel));
    dual_sim.Cycle(gate::DriveInputs(dual, access.address, access.sel));
  }
  const double binary_pads =
      gate::PadPowerMw(binary.netlist, binary_sim, load_pf);
  const double dual_pads = gate::PadPowerMw(dual.netlist, dual_sim, load_pf);

  const double behavioural_ratio =
      static_cast<double>(Transitions("dual-t0-bi", accesses)) /
      static_cast<double>(Transitions("binary", accesses));
  EXPECT_NEAR(dual_pads / binary_pads, behavioural_ratio, 0.02);
}

TEST(PipelineTest, CacheFilteringPreservesDecodability) {
  const sim::CachedProgramTraces cached = sim::RunBenchmarkWithCaches(
      sim::FindBenchmarkProgram("oracle"), sim::CacheConfig{16, 128, 2},
      sim::CacheConfig{16, 128, 2});
  CodecOptions options;
  options.stride = 16;  // line-granular external bus
  for (const std::string& name :
       {std::string("t0"), std::string("dual-t0-bi")}) {
    auto codec = MakeCodec(name, options);
    EXPECT_NO_THROW(Evaluate(*codec,
                             cached.external.multiplexed.ToBusAccesses(),
                             options.stride, true))
        << name;
  }
}

}  // namespace
}  // namespace abenc
