// Analytical-model validation artefact: the Markov closed forms of
// analysis/markov.h printed against Monte-Carlo runs of the real codecs,
// plus the analytically located code-vs-code crossover probabilities.
#include <iostream>

#include "analysis/markov.h"
#include "core/codec_factory.h"
#include "core/stream_evaluator.h"
#include "report/table.h"
#include "trace/synthetic.h"

int main() {
  using namespace abenc;

  constexpr unsigned kWidth = 32;
  constexpr Word kStride = 4;
  const std::vector<std::string> codes = MarkovModelCodes();

  std::cout << "Markov-model validation: expected transitions/cycle, model "
               "vs measured\n(32-bit bus, stride 4, jumps uniform over the "
               "aligned space; 200k-address runs)\n\n";

  std::vector<std::string> headers = {"p(in-seq)"};
  for (const auto& name : codes) {
    headers.push_back(name + " model");
    headers.push_back("meas.");
  }
  TextTable table(std::move(headers));

  for (double p : {0.0, 0.2, 0.4, 0.6, 0.8, 0.95}) {
    std::vector<std::string> row = {FormatFixed(p, 2)};
    SyntheticGenerator gen(static_cast<std::uint64_t>(p * 1000) + 5);
    const AddressTrace trace =
        gen.Markov(200000, p, kStride, kWidth, Word{1} << kWidth);
    const auto accesses = trace.ToBusAccesses();
    for (const auto& name : codes) {
      CodecOptions options;
      options.stride = kStride;
      auto codec = MakeCodec(name, options);
      const double measured =
          Evaluate(*codec, accesses, kStride, true)
              .average_transitions_per_cycle();
      row.push_back(FormatFixed(
          MarkovExpectedTransitions(name, kWidth, kStride, p), 3));
      row.push_back(FormatFixed(measured, 3));
    }
    table.AddRow(std::move(row));
  }
  std::cout << table.ToString() << "\n";

  std::cout << "Analytical crossover probabilities (who overtakes whom):\n";
  const auto report = [&](const std::string& a, const std::string& b) {
    const double p = MarkovCrossoverProbability(a, b, kWidth, kStride);
    if (p < 0) {
      std::cout << "  " << a << " vs " << b << ": no crossover\n";
    } else {
      std::cout << "  " << a << " overtakes " << b << " above p = "
                << FormatFixed(p, 3) << "\n";
    }
  };
  report("t0", "bus-invert");
  report("gray-word", "bus-invert");
  report("t0", "gray-word");
  report("inc-xor", "t0");
  return 0;
}
