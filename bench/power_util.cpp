#include "bench/power_util.h"

#include <utility>

#include "sim/program_library.h"

namespace abenc::bench {

std::vector<BusAccess> ReferenceStream(std::size_t per_benchmark) {
  std::vector<BusAccess> stream;
  for (const sim::BenchmarkProgram& program : sim::BenchmarkPrograms()) {
    const sim::ProgramTraces traces = sim::RunBenchmark(program);
    const auto accesses = traces.multiplexed.ToBusAccesses();
    const std::size_t take = std::min(per_benchmark, accesses.size());
    stream.insert(stream.end(), accesses.begin(),
                  accesses.begin() + static_cast<std::ptrdiff_t>(take));
  }
  return stream;
}

std::vector<SimulatedCodec> SimulateSection4Codecs(
    const std::vector<BusAccess>& stream, double output_load_pf) {
  constexpr unsigned kWidth = 32;
  constexpr Word kStride = 4;
  // The paper's name for each codec, and its factory name.
  constexpr std::pair<const char*, const char*> kSection4[] = {
      {"Binary", "binary"}, {"T0", "t0"}, {"Dual T0_BI", "dual-t0-bi"}};

  std::vector<SimulatedCodec> codecs;
  for (const auto& [label, codec_name] : kSection4) {
    gate::CircuitPair pair =
        gate::BuildCircuitPair(codec_name, kWidth, kStride, output_load_pf);
    SimulatedCodec& codec = codecs.emplace_back();
    codec.name = label;
    codec.encoder = std::move(pair.encoder);
    codec.decoder = std::move(pair.decoder);
  }

  for (SimulatedCodec& codec : codecs) {
    codec.encoder_sim =
        std::make_unique<gate::GateSimulator>(codec.encoder.netlist);
    codec.decoder_sim =
        std::make_unique<gate::GateSimulator>(codec.decoder.netlist);
    for (const BusAccess& access : stream) {
      codec.encoder_sim->Cycle(
          gate::DriveInputs(codec.encoder, access.address, access.sel));
      const Word lines =
          gate::ReadBus(*codec.encoder_sim, codec.encoder.data_out);
      const Word redundant =
          gate::ReadBus(*codec.encoder_sim, codec.encoder.redundant_out);
      codec.decoder_sim->Cycle(
          gate::DriveInputs(codec.decoder, lines, access.sel, redundant));
    }
  }
  return codecs;
}

}  // namespace abenc::bench
