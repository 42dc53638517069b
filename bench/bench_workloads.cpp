// Workload characterisation of every bundled kernel: instruction mix,
// stream statistics and working-set size — the evidence that the kernels
// stand in credibly for the paper's benchmarks (DESIGN.md records the
// substitution; this table is its measurement).
#include <iostream>

#include "report/table.h"
#include "sim/program_library.h"
#include "trace/trace_stats.h"

int main() {
  using namespace abenc;

  TextTable table({"Kernel", "Retired", "ALU", "Mem", "CtlFlow",
                   "Taken", "I in-seq", "D in-seq", "D wset(256)"});

  std::vector<sim::BenchmarkProgram> programs = sim::BenchmarkPrograms();
  for (const sim::BenchmarkProgram& p : sim::ExtendedBenchmarkPrograms()) {
    programs.push_back(p);
  }

  for (const sim::BenchmarkProgram& program : programs) {
    const sim::ProgramTraces traces = sim::RunBenchmark(program);
    const AddressTrace data = traces.data();
    const sim::InstructionMix& mix = traces.mix;
    const double total = static_cast<double>(mix.total());
    const double alu =
        100.0 * static_cast<double>(mix.alu + mix.shift + mix.muldiv) /
        total;
    const double mem =
        100.0 * static_cast<double>(mix.load + mix.store) / total;
    const double ctl =
        100.0 * static_cast<double>(mix.branch + mix.jump + mix.call) /
        total;
    table.AddRow(
        {program.name,
         FormatCount(static_cast<long long>(traces.retired_instructions)),
         FormatPercent(alu), FormatPercent(mem), FormatPercent(ctl),
         FormatPercent(100.0 * mix.taken_ratio()),
         FormatPercent(InSequencePercent(traces.instruction(), 32, 4)),
         FormatPercent(InSequencePercent(data, 32, 4)),
         FormatFixed(WorkingSetSize(data, 256), 0)});
  }

  std::cout << "Workload characterisation of the bundled kernels\n"
            << "(mix percentages of retired instructions; D wset(256) = "
               "avg distinct data\naddresses per 256 references)\n\n"
            << table.ToString()
            << "\nThe regime the paper's argument needs: instruction\n"
               "streams far more sequential than data streams, a\n"
               "meaningful load/store share, and mixed branch outcomes.\n";
  return 0;
}
