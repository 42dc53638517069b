#include "sim/program_library.h"

#include <stdexcept>

#include "obs/metrics.h"
#include "sim/cache.h"
#include "sim/programs.h"

namespace abenc::sim {
namespace {

// Per-bus-type address counts of one captured run (no-op when no
// registry is installed).
void PublishTraceMetrics(const ProgramTraces& traces) {
  if (obs::Installed() == nullptr) return;
  const std::size_t total = traces.multiplexed.size();
  const std::size_t fetches =
      traces.multiplexed.Count(AccessKind::kInstruction);
  obs::Count("sim.bus.instruction_addresses", fetches);
  obs::Count("sim.bus.data_addresses", total - fetches);
  obs::Count("sim.bus.multiplexed_addresses", total);
  obs::Count("sim.benchmarks_run");
}

// Assembles `program` and runs it to BREAK with `observer` on its bus.
// Returns the CPU's counts; the stream stays with the observer.
ProgramTraces RunToBreak(const BenchmarkProgram& program,
                         BusObserver& observer) {
  Memory memory;
  Cpu cpu(memory, &observer);
  cpu.LoadProgram(Assemble(program.source));
  if (cpu.Run(program.step_budget) != StopReason::kBreak) {
    throw ExecutionError("benchmark '" + program.name +
                         "' exhausted its step budget of " +
                         std::to_string(program.step_budget));
  }
  ProgramTraces traces;
  traces.retired_instructions = cpu.retired_instructions();
  traces.mix = cpu.instruction_mix();
  return traces;
}

}  // namespace

const std::vector<BenchmarkProgram>& BenchmarkPrograms() {
  static const std::vector<BenchmarkProgram> kPrograms = {
      {"gzip", "LZ77-flavoured compression of a pseudo-random buffer",
       programs::kGzip, 3'000'000},
      {"gunzip", "decompression of a synthesised LZ token stream",
       programs::kGunzip, 1'000'000},
      {"ghostview", "rasterisation of random shapes into a framebuffer",
       programs::kGhostview, 1'000'000},
      {"espresso", "pairwise cube-distance minimisation over bit masks",
       programs::kEspresso, 3'000'000},
      {"nova", "greedy FSM state assignment with weighted Hamming cost",
       programs::kNova, 3'000'000},
      {"jedi", "swap-improvement symbolic encoding over a weight matrix",
       programs::kJedi, 4'000'000},
      {"latex", "paragraph filling, justification and character scanning",
       programs::kLatex, 1'500'000},
      {"matlab", "24x24 integer matrix multiply and vector reduction",
       programs::kMatlab, 1'500'000},
      {"oracle", "binary-search key lookups with record copies",
       programs::kOracle, 2'000'000},
  };
  return kPrograms;
}

const std::vector<BenchmarkProgram>& ExtendedBenchmarkPrograms() {
  static const std::vector<BenchmarkProgram> kPrograms = {
      {"fft", "Walsh-Hadamard butterflies over 512 words",
       programs::kFft, 1'000'000},
      {"qsort", "recursive quicksort with real call frames",
       programs::kQsort, 2'000'000},
      {"dhry", "linked-list pointer chasing plus string rounds",
       programs::kDhry, 1'000'000},
  };
  return kPrograms;
}

const BenchmarkProgram& FindBenchmarkProgram(const std::string& name) {
  for (const BenchmarkProgram& p : BenchmarkPrograms()) {
    if (p.name == name) return p;
  }
  for (const BenchmarkProgram& p : ExtendedBenchmarkPrograms()) {
    if (p.name == name) return p;
  }
  throw std::out_of_range("no benchmark program named '" + name + "'");
}

ProgramTraces RunBenchmark(const BenchmarkProgram& program) {
  BusMonitor monitor(program.name);
  // Each retired instruction drives one fetch and at most one data
  // reference, so twice the step budget bounds the stream and it never
  // regrows. Capacity the run leaves untouched is address space, not RSS.
  monitor.Reserve(2 * program.step_budget);
  ProgramTraces traces = RunToBreak(program, monitor);
  traces.multiplexed = monitor.TakeMultiplexedTrace();
  PublishTraceMetrics(traces);
  return traces;
}

CachedProgramTraces RunBenchmarkWithCaches(const BenchmarkProgram& program,
                                           const CacheConfig& icache,
                                           const CacheConfig& dcache) {
  CacheFilteredMonitor monitor(icache, dcache, program.name);
  CachedProgramTraces result;
  result.external = RunToBreak(program, monitor);
  result.external.multiplexed = monitor.TakeMultiplexedTrace();
  result.icache_miss_rate = monitor.icache().stats().miss_rate();
  result.dcache_miss_rate = monitor.dcache().stats().miss_rate();
  PublishTraceMetrics(result.external);
  monitor.icache().PublishMetrics("icache");
  monitor.dcache().PublishMetrics("dcache");
  return result;
}

std::vector<ProgramTraces> RunAllBenchmarks() {
  std::vector<ProgramTraces> all;
  all.reserve(BenchmarkPrograms().size());
  for (const BenchmarkProgram& p : BenchmarkPrograms()) {
    all.push_back(RunBenchmark(p));
  }
  return all;
}

}  // namespace abenc::sim
