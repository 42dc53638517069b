// The paper's closing question, end to end: which code belongs on which
// bus of the memory hierarchy? One benchmark kernel is run once; its
// references are followed through three buses —
//
//   level 1: the on-chip CPU <-> L1 multiplexed address bus
//            (every reference, small per-line capacitance),
//   level 2: the off-chip L1 <-> memory-controller bus
//            (line-granular miss stream through the pads),
//   level 3: the controller <-> DRAM row/column address pins
//            (RAS/CAS cycles, open-page policy)
//
// — and every candidate code is priced on each with the I/O power model.
//
//   $ ./hierarchy_power [benchmark]
#include <iostream>
#include <string>

#include "core/codec_factory.h"
#include "core/stream_evaluator.h"
#include "report/table.h"
#include "sim/cache.h"
#include "sim/dram.h"
#include "sim/program_library.h"

namespace {

using namespace abenc;

double IoPowerMw(long long transitions, std::size_t cycles, double load_pf) {
  if (cycles == 0) return 0.0;
  const double alpha =
      static_cast<double>(transitions) / static_cast<double>(cycles);
  return 0.5 * load_pf * 1e-12 * 3.3 * 3.3 * 100e6 * alpha * 1e3;
}

struct LevelResult {
  std::string best_code;
  double binary_mw = 0.0;
  double best_mw = 0.0;
};

LevelResult PriceLevel(const std::string& title,
                       const std::vector<BusAccess>& accesses,
                       const CodecOptions& options, double load_pf,
                       const std::vector<std::string>& codes,
                       bool flip_sel_for_dual) {
  TextTable table({"Code", "Transitions", "Peak", "Savings", "I/O mW"});
  auto binary = MakeCodec("binary", options);
  const EvalResult base = Evaluate(*binary, accesses, options.stride, true);

  LevelResult level;
  level.best_code = "binary";
  level.binary_mw = IoPowerMw(base.transitions, base.stream_length, load_pf);
  level.best_mw = level.binary_mw;

  table.AddRow({"binary", FormatCount(base.transitions),
                FormatCount(base.peak_transitions), "0.00%",
                FormatFixed(level.binary_mw, 2)});
  for (const std::string& name : codes) {
    auto codec = MakeCodec(name, options);
    std::vector<BusAccess> stream = accesses;
    std::string label = name;
    if (flip_sel_for_dual && name.rfind("dual", 0) == 0) {
      for (BusAccess& a : stream) a.sel = !a.sel;  // gate on CAS cycles
      label += " (CAS-gated)";
    }
    const EvalResult r = Evaluate(*codec, stream, options.stride, true);
    const double mw = IoPowerMw(r.transitions, r.stream_length, load_pf);
    table.AddRow({label, FormatCount(r.transitions),
                  FormatCount(r.peak_transitions),
                  FormatPercent(SavingsPercent(r.transitions,
                                               base.transitions)),
                  FormatFixed(mw, 2)});
    if (mw < level.best_mw) {
      level.best_mw = mw;
      level.best_code = label;
    }
  }
  std::cout << title << " (" << accesses.size() << " bus cycles, "
            << load_pf << " pF/line, "
            << FormatPercent(base.in_sequence_percent)
            << " in-sequence)\n"
            << table.ToString() << "-> best: " << level.best_code << "\n\n";
  return level;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string name = argc > 1 ? argv[1] : "oracle";
  const sim::BenchmarkProgram* program = nullptr;
  try {
    program = &sim::FindBenchmarkProgram(name);
  } catch (const std::out_of_range&) {
    std::cerr << "unknown benchmark '" << name << "'\n";
    return 1;
  }
  std::cout << "Hierarchy study for '" << program->name << "'\n\n";

  // One simulation run feeds all three levels.
  const sim::ProgramTraces raw = sim::RunBenchmark(*program);
  const sim::CacheConfig l1{16, 128, 2};
  const sim::CachedProgramTraces cached =
      sim::RunBenchmarkWithCaches(*program, l1, l1);
  const sim::DramConfig dram;
  sim::DramBusStats dram_stats;
  const AddressTrace dram_bus =
      sim::ToDramBusTrace(cached.external.data(), dram, &dram_stats);

  const std::vector<std::string> codes = {"t0", "bus-invert", "t0-bi",
                                          "dual-t0-bi"};

  CodecOptions onchip;  // word stride, full width
  const LevelResult l1_bus =
      PriceLevel("Level 1: CPU <-> L1 bus", raw.multiplexed.ToBusAccesses(),
                 onchip, 0.5, codes, false);

  CodecOptions external;
  external.stride = l1.line_bytes;  // the external bus steps by lines
  const LevelResult ext_bus = PriceLevel(
      "Level 2: L1 <-> controller bus (post-L1 misses)",
      cached.external.multiplexed.ToBusAccesses(), external, 30.0, codes,
      false);

  CodecOptions pins;
  pins.width = dram.bus_width();
  pins.stride = 4;  // line fetches step the column by 4 words
  const LevelResult dram_pins = PriceLevel(
      "Level 3: DRAM row/column pins (open-page hit rate " +
          FormatPercent(100.0 * dram_stats.page_hit_rate()) + ")",
      dram_bus.ToBusAccesses(), pins, 15.0, codes, true);

  const double before =
      l1_bus.binary_mw + ext_bus.binary_mw + dram_pins.binary_mw;
  const double after = l1_bus.best_mw + ext_bus.best_mw + dram_pins.best_mw;
  std::cout << "Whole-hierarchy address-bus I/O power: "
            << FormatFixed(before, 2) << " mW binary everywhere -> "
            << FormatFixed(after, 2) << " mW with per-level code choice ("
            << FormatPercent(100.0 * (1.0 - after / before)) << " saved)\n"
            << "Per-level winners: " << l1_bus.best_code << " / "
            << ext_bus.best_code << " / " << dram_pins.best_code
            << " — the per-hierarchy tailoring the paper's future work\n"
            << "proposes, in one run.\n";
  return 0;
}
