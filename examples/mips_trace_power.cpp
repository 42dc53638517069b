// End-to-end flow on a "real" program: run one of the bundled benchmark
// kernels on the MIPS-subset simulator, capture its bus streams, pick the
// best code per bus, and estimate the off-chip I/O power saved.
//
//   $ ./mips_trace_power [benchmark] [off-chip-load-pF]
//   $ ./mips_trace_power gzip 50
#include <iostream>
#include <string>

#include "core/codec_factory.h"
#include "core/stream_evaluator.h"
#include "report/table.h"
#include "sim/program_library.h"
#include "trace/trace_stats.h"

namespace {

using namespace abenc;

// Average switched I/O power of a stream on an off-chip bus: every line
// transition charges/discharges the external load once.
double IoPowerMw(long long transitions, std::size_t cycles, double load_pf) {
  if (cycles == 0) return 0.0;
  const double alpha =
      static_cast<double>(transitions) / static_cast<double>(cycles);
  return 0.5 * load_pf * 1e-12 * 3.3 * 3.3 * 100e6 * alpha * 1e3;
}

void Report(const std::string& bus, const AddressTrace& trace,
            double load_pf) {
  const auto accesses = trace.ToBusAccesses();
  CodecOptions options;
  auto binary = MakeCodec("binary", options);
  const EvalResult base = Evaluate(*binary, accesses, options.stride, true);

  std::cout << bus << " bus: " << accesses.size() << " references, "
            << FormatPercent(base.in_sequence_percent) << " in-sequence\n";

  TextTable table({"Code", "Transitions", "Savings", "I/O power (mW)"});
  std::string best_name = "binary";
  long long best_transitions = base.transitions;
  for (const std::string& name : AllCodecNames()) {
    auto codec = MakeCodec(name, options);
    const EvalResult r = Evaluate(*codec, accesses, options.stride, true);
    table.AddRow({codec->display_name(), FormatCount(r.transitions),
                  FormatPercent(SavingsPercent(r.transitions,
                                               base.transitions)),
                  FormatFixed(IoPowerMw(r.transitions, r.stream_length,
                                        load_pf),
                              2)});
    if (r.transitions < best_transitions) {
      best_transitions = r.transitions;
      best_name = codec->display_name();
    }
  }
  std::cout << table.ToString();
  std::cout << "-> best code for this bus: " << best_name << ", saving "
            << FormatFixed(IoPowerMw(base.transitions - best_transitions,
                                     base.stream_length, load_pf),
                           2)
            << " mW of I/O power at " << load_pf << " pF/line\n\n";
}

}  // namespace

int main(int argc, char** argv) {
  const std::string name = argc > 1 ? argv[1] : "gzip";
  const double load_pf = argc > 2 ? std::stod(argv[2]) : 50.0;

  const sim::BenchmarkProgram* program = nullptr;
  try {
    program = &sim::FindBenchmarkProgram(name);
  } catch (const std::out_of_range&) {
    std::cerr << "unknown benchmark '" << name << "'; available:";
    for (const auto& p : sim::BenchmarkPrograms()) std::cerr << ' ' << p.name;
    std::cerr << '\n';
    return 1;
  }

  std::cout << "Running '" << program->name << "' (" << program->description
            << ") on the MIPS-subset simulator...\n";
  const sim::ProgramTraces traces = sim::RunBenchmark(*program);
  const sim::InstructionMix& mix = traces.mix;
  const double total = static_cast<double>(mix.total());
  std::cout << traces.retired_instructions << " instructions retired ("
            << FormatFixed(100.0 * static_cast<double>(mix.alu + mix.shift +
                                                       mix.muldiv) /
                               total,
                           0)
            << "% ALU, "
            << FormatFixed(100.0 * static_cast<double>(mix.load + mix.store) /
                               total,
                           0)
            << "% memory, "
            << FormatFixed(100.0 * static_cast<double>(mix.branch + mix.jump +
                                                       mix.call) /
                               total,
                           0)
            << "% control flow, "
            << FormatFixed(100.0 * mix.taken_ratio(), 0)
            << "% of branches taken)\n\n";

  Report("instruction", traces.instruction(), load_pf);
  Report("data", traces.data(), load_pf);
  Report("multiplexed", traces.multiplexed, load_pf);
  return 0;
}
