// Gate-level implementations of the Section 4 codecs (the encoders and
// decoders of CircuitCodecNames()), synthesised structurally from the
// cell catalogue and verified against the behavioural codecs by test.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "core/types.h"
#include "gate/netlist.h"

namespace abenc::gate {

/// Arithmetic style for the +S incrementers inside the T0-family codecs:
/// a ripple carry chain (minimal area, O(N) depth) or a parallel-prefix
/// AND tree (O(log N) depth, more cells) — incrementing by a constant
/// power of two needs only prefix ANDs, no generate terms.
enum class AdderStyle { kRipple, kPrefix };

/// A built codec circuit and its port lists.
struct CodecCircuit {
  Netlist netlist;
  std::vector<NetId> address_in;    // encoder: b(t); decoder: B(t)
  NetId sel_in = kNoNet;            // dual codes only
  std::vector<NetId> redundant_in;  // decoder side: INC / INCV
  std::vector<NetId> data_out;      // encoder: B(t); decoder: b(t)
  std::vector<NetId> redundant_out; // encoder side: INC / INV / INCV
};

/// Buffered pass-through, the paper's "binary encoder/decoder consist only
/// of internal buffers".
CodecCircuit BuildBinaryEncoder(unsigned width, double output_load_pf);
CodecCircuit BuildBinaryDecoder(unsigned width, double output_load_pf);

/// Eq. 3 encoder / Eq. 4 decoder ([6]'s architecture: address register,
/// +S incrementer, comparator, frozen-bus multiplexor).
CodecCircuit BuildT0Encoder(unsigned width, Word stride,
                            double output_load_pf,
                            AdderStyle style = AdderStyle::kRipple);
CodecCircuit BuildT0Decoder(unsigned width, Word stride,
                            double output_load_pf,
                            AdderStyle style = AdderStyle::kRipple);

/// Eq. 1 encoder (Hamming-distance evaluator + majority voter); Eq. 2
/// decoding is a conditional inversion.
CodecCircuit BuildBusInvertEncoder(unsigned width, double output_load_pf);
CodecCircuit BuildBusInvertDecoder(unsigned width, double output_load_pf);

/// Eq. 6 encoder / Eq. 7 decoder: T0 section plus a bus-invert section
/// thresholding over all N+2 encoded lines; INC and INV travel separately.
CodecCircuit BuildT0BIEncoder(unsigned width, Word stride,
                              double output_load_pf,
                              AdderStyle style = AdderStyle::kRipple);
CodecCircuit BuildT0BIDecoder(unsigned width, Word stride,
                              double output_load_pf,
                              AdderStyle style = AdderStyle::kRipple);

/// Eq. 8 encoder / Eq. 10 decoder: T0 gated by SEL with the Eq. 9 shadow
/// register; data slots pass through in binary.
CodecCircuit BuildDualT0Encoder(unsigned width, Word stride,
                                double output_load_pf,
                                AdderStyle style = AdderStyle::kRipple);
CodecCircuit BuildDualT0Decoder(unsigned width, Word stride,
                                double output_load_pf,
                                AdderStyle style = AdderStyle::kRipple);

/// Eq. 11 encoder / Eq. 12 decoder (Section 4.1 architecture: T0 section
/// producing INC, bus-invert section producing INV, output mux driven by
/// SEL and INCV = INC + INV).
CodecCircuit BuildDualT0BIEncoder(unsigned width, Word stride,
                                  double output_load_pf,
                                  AdderStyle style = AdderStyle::kRipple);
CodecCircuit BuildDualT0BIDecoder(unsigned width, Word stride,
                                  double output_load_pf,
                                  AdderStyle style = AdderStyle::kRipple);

/// A codec's encoder and the decoder that inverts it.
struct CircuitPair {
  CodecCircuit encoder;
  CodecCircuit decoder;
};

/// The circuit pair of the codec with factory name `codec`, one of
/// CircuitCodecNames(). Throws std::invalid_argument for any other name.
CircuitPair BuildCircuitPair(const std::string& codec, unsigned width,
                             Word stride, double output_load_pf,
                             AdderStyle style = AdderStyle::kRipple);

/// The factory names BuildCircuitPair covers, in registration order.
std::vector<std::string> CircuitCodecNames();

/// Input assignment for one cycle of a codec circuit.
std::map<NetId, bool> DriveInputs(const CodecCircuit& circuit, Word address,
                                  bool sel, Word redundant = 0);

/// Read a port list back as an integer (bit i = port[i]).
Word ReadBus(const class GateSimulator& sim,
             const std::vector<NetId>& ports);

}  // namespace abenc::gate
