// The nine embedded benchmark kernels whose address streams stand in for
// the paper's MIPS traces (gzip, gunzip, ghostview, espresso, nova, jedi,
// latex, matlab, oracle).
//
// Each kernel is written in the assembler's MIPS subset and is chosen to
// match the workload character of its namesake: the instruction streams
// are dominated by short sequential runs broken by loops and calls, the
// data streams mix stack-frame reuse (the "-O0 loop counter" effect the
// paper calls out), sequential array sweeps and irregular references.
// DESIGN.md records this substitution.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/assembler.h"
#include "sim/cpu.h"
#include "sim/bus_monitor.h"

namespace abenc::sim {

/// One embedded benchmark.
struct BenchmarkProgram {
  std::string name;         // the paper's benchmark name, e.g. "gzip"
  std::string description;  // what the kernel computes
  std::string source;       // assembly text
  std::uint64_t step_budget = 0;  // generous upper bound on retired instrs
};

/// All nine benchmarks, in the paper's table order.
const std::vector<BenchmarkProgram>& BenchmarkPrograms();

/// Extra kernels beyond the paper's set (fft, qsort, dhry), used by the
/// extension benches and the toolchain tests; FindBenchmarkProgram knows
/// them too.
const std::vector<BenchmarkProgram>& ExtendedBenchmarkPrograms();

/// Lookup by name; throws std::out_of_range for unknown names.
const BenchmarkProgram& FindBenchmarkProgram(const std::string& name);

/// The captured address streams of one benchmark run. Only the
/// multiplexed bus is recorded; the dedicated buses are derived from it,
/// one filtered copy per call, so bind the result where it is read
/// repeatedly.
struct ProgramTraces {
  AddressTrace multiplexed;  // fetches and data references, program order
  std::uint64_t retired_instructions = 0;
  InstructionMix mix;

  /// The dedicated instruction address bus: every fetch address.
  AddressTrace instruction() const {
    return multiplexed.Filtered(AccessKind::kInstruction);
  }
  /// The dedicated data address bus: every load/store address.
  AddressTrace data() const { return multiplexed.Filtered(AccessKind::kData); }
};

/// Assemble, load and run a benchmark to completion (BREAK), capturing its
/// bus stream. Throws ExecutionError if the step budget is exhausted —
/// i.e. every library program is guaranteed to halt or the tests fail.
ProgramTraces RunBenchmark(const BenchmarkProgram& program);

/// Convenience: run every library benchmark; the workhorse of the
/// Table 2-7 benches.
std::vector<ProgramTraces> RunAllBenchmarks();

/// As RunBenchmark, but with split L1 caches in front of the recorded
/// bus: the returned traces hold the line-granular *miss* streams an
/// external bus behind the caches would carry (the paper's
/// memory-hierarchy future-work scenario). Miss rates are reported too.
struct CachedProgramTraces {
  ProgramTraces external;  // post-cache streams, line-aligned addresses
  double icache_miss_rate = 0.0;
  double dcache_miss_rate = 0.0;
};
CachedProgramTraces RunBenchmarkWithCaches(const BenchmarkProgram& program,
                                           const struct CacheConfig& icache,
                                           const struct CacheConfig& dcache);

}  // namespace abenc::sim
