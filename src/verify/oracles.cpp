#include "verify/oracles.h"

#include <cmath>
#include <sstream>

#include "analysis/markov.h"
#include "core/experiment.h"
#include "gate/circuits.h"
#include "gate/simulator.h"
#include "trace/synthetic.h"
#include "verify/stream_gen.h"

namespace abenc::verify {
namespace {

std::string HexWord(Word value) {
  std::ostringstream out;
  out << "0x" << std::hex << value;
  return out.str();
}

bool SameResult(const EvalResult& a, const EvalResult& b) {
  return a.codec_name == b.codec_name && a.stream_length == b.stream_length &&
         a.transitions == b.transitions &&
         a.peak_transitions == b.peak_transitions &&
         a.in_sequence_percent == b.in_sequence_percent &&
         a.per_line == b.per_line;
}

}  // namespace

std::optional<PropertyFailure> CheckGateEquivalence(
    const std::string& codec_name, const CodecOptions& options,
    std::span<const BusAccess> stream, const CodecFactoryFn& factory) {
  const CodecPtr reference = factory(codec_name, options);
  // Output load prices power only; it does not change the logic.
  const gate::CircuitPair pair = gate::BuildCircuitPair(
      codec_name, options.width, options.stride, /*output_load_pf=*/0.2);
  gate::GateSimulator encoder_sim(pair.encoder.netlist);
  gate::GateSimulator decoder_sim(pair.decoder.netlist);
  const Word mask = LowMask(reference->width());

  for (std::size_t i = 0; i < stream.size(); ++i) {
    const Word address = stream[i].address & mask;
    const bool sel = stream[i].sel;
    const BusState behavioural = reference->Encode(address, sel);

    encoder_sim.Cycle(gate::DriveInputs(pair.encoder, address, sel));
    const Word gate_lines = gate::ReadBus(encoder_sim, pair.encoder.data_out);
    const Word gate_redundant =
        gate::ReadBus(encoder_sim, pair.encoder.redundant_out);
    if (gate_lines != behavioural.lines ||
        gate_redundant != behavioural.redundant) {
      return PropertyFailure{
          i, codec_name + ": gate encoder drives lines=" +
                 HexWord(gate_lines) + " red=" + HexWord(gate_redundant) +
                 ", behavioural encodes lines=" + HexWord(behavioural.lines) +
                 " red=" + HexWord(behavioural.redundant) + " at cycle " +
                 std::to_string(i)};
    }

    const Word decoded = reference->Decode(behavioural, sel);
    decoder_sim.Cycle(
        gate::DriveInputs(pair.decoder, gate_lines, sel, gate_redundant));
    const Word gate_decoded = gate::ReadBus(decoder_sim, pair.decoder.data_out);
    if (gate_decoded != decoded || decoded != address) {
      return PropertyFailure{
          i, codec_name + ": gate decoder returns " + HexWord(gate_decoded) +
                 ", behavioural decodes " + HexWord(decoded) +
                 ", address was " + HexWord(address) + " at cycle " +
                 std::to_string(i)};
    }
  }
  return std::nullopt;
}

std::optional<PropertyFailure> CheckMarkovOracle(
    const std::string& codec_name, unsigned width, Word stride,
    double p_in_sequence, std::uint64_t seed, std::size_t length,
    const CodecFactoryFn& factory) {
  CodecOptions options;
  options.width = width;
  options.stride = stride;
  const CodecPtr codec = factory(codec_name, options);

  SyntheticGenerator generator(MixSeed(seed));
  // Jumps uniform over the whole stride-aligned space, matching the
  // closed form's assumption.
  const AddressTrace trace = generator.Markov(length, p_in_sequence, stride,
                                              width, Word{1} << width);
  const double measured =
      Evaluate(*codec, trace.ToBusAccesses(), stride, false)
          .average_transitions_per_cycle();
  const double predicted =
      MarkovExpectedTransitions(codec_name, width, stride, p_in_sequence);
  const double tolerance =
      (MarkovModelIsExact(codec_name) ? 0.02 : 0.06) * predicted + 0.05;
  if (std::abs(measured - predicted) > tolerance) {
    std::ostringstream message;
    message << codec_name << ": measured " << measured
            << " transitions/cycle vs Markov prediction " << predicted
            << " (p = " << p_in_sequence << ", tolerance " << tolerance
            << ")";
    return PropertyFailure{length, message.str()};
  }
  return std::nullopt;
}

std::optional<PropertyFailure> CheckParallelIdentity(
    const std::vector<std::string>& codec_names, std::uint64_t seed,
    std::size_t stream_length, unsigned width, Word stride) {
  std::vector<NamedStream> streams;
  for (StreamFamily family : AllStreamFamilies()) {
    streams.push_back(NamedStream{
        FamilyName(family),
        GenerateStream(family, seed, stream_length, width, stride)});
  }
  CodecOptions options;
  options.width = width;
  options.stride = stride;

  RunOptions sequential;
  sequential.parallelism = 1;
  RunOptions parallel;
  parallel.parallelism = 0;  // one worker per hardware thread
  const Comparison a =
      RunComparison(codec_names, streams, options, nullptr, sequential);
  const Comparison b =
      RunComparison(codec_names, streams, options, nullptr, parallel);

  if (a.codec_names != b.codec_names || a.rows.size() != b.rows.size()) {
    return PropertyFailure{0, "parallel run changed the comparison shape"};
  }
  for (std::size_t row = 0; row < a.rows.size(); ++row) {
    if (!SameResult(a.rows[row].binary, b.rows[row].binary)) {
      return PropertyFailure{row, "binary reference differs on stream '" +
                                      a.rows[row].stream_name + "'"};
    }
    for (std::size_t cell = 0; cell < a.rows[row].cells.size(); ++cell) {
      if (!SameResult(a.rows[row].cells[cell].result,
                      b.rows[row].cells[cell].result) ||
          a.rows[row].cells[cell].savings_percent !=
              b.rows[row].cells[cell].savings_percent) {
        return PropertyFailure{
            row, "cell (" + a.rows[row].stream_name + ", " +
                     a.codec_names[cell] +
                     ") is not bit-identical between parallelism settings"};
      }
    }
  }
  return std::nullopt;
}

}  // namespace abenc::verify
