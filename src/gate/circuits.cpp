#include "gate/circuits.h"

#include <stdexcept>
#include <string>
#include <string_view>

#include "gate/simulator.h"

namespace abenc::gate {
namespace {

std::vector<NetId> AddInputBus(Netlist& nl, const std::string& prefix,
                               unsigned width) {
  std::vector<NetId> bus;
  bus.reserve(width);
  for (unsigned i = 0; i < width; ++i) {
    bus.push_back(nl.AddInput(prefix + std::to_string(i)));
  }
  return bus;
}

std::vector<NetId> AddFlopBus(Netlist& nl, const std::string& prefix,
                              unsigned width) {
  std::vector<NetId> bus;
  bus.reserve(width);
  for (unsigned i = 0; i < width; ++i) {
    bus.push_back(nl.AddFlop(prefix + std::to_string(i)));
  }
  return bus;
}

/// value + S for a power-of-two stride: the carry into bit i (i > s) is
/// simply AND(a[s..i-1]), so the incrementer is an XOR row fed by a
/// running AND — realised either as a ripple chain (O(N) depth) or as a
/// Kogge-Stone-style parallel-prefix AND tree (O(log N) depth).
std::vector<NetId> Incrementer(Netlist& nl, const std::vector<NetId>& a,
                               Word stride,
                               AdderStyle style = AdderStyle::kRipple) {
  const unsigned s = Log2(stride);
  std::vector<NetId> sum(a.size());
  for (unsigned i = 0; i < s && i < a.size(); ++i) sum[i] = a[i];
  if (s >= a.size()) return sum;

  if (style == AdderStyle::kRipple) {
    NetId carry = kNoNet;
    for (unsigned i = s; i < a.size(); ++i) {
      if (i == s) {
        sum[i] = nl.Add(CellKind::kInv, a[i]);  // a ^ 1
        carry = a[i];                           // a & 1
      } else {
        sum[i] = nl.Add(CellKind::kXor2, a[i], carry);
        carry = nl.Add(CellKind::kAnd2, a[i], carry);
      }
    }
    return sum;
  }

  // Parallel prefix: prefix[j] = AND(a[s..s+j]) built in log depth.
  const std::size_t n = a.size() - s;
  std::vector<NetId> prefix(a.begin() + s, a.end());
  for (std::size_t hop = 1; hop < n; hop *= 2) {
    std::vector<NetId> next = prefix;
    for (std::size_t j = hop; j < n; ++j) {
      next[j] = nl.Add(CellKind::kAnd2, prefix[j], prefix[j - hop]);
    }
    prefix = std::move(next);
  }
  sum[s] = nl.Add(CellKind::kInv, a[s]);
  for (unsigned i = s + 1; i < a.size(); ++i) {
    sum[i] = nl.Add(CellKind::kXor2, a[i], prefix[i - s - 1]);
  }
  return sum;
}

/// AND-reduction tree.
NetId AndTree(Netlist& nl, std::vector<NetId> bits) {
  while (bits.size() > 1) {
    std::vector<NetId> next;
    for (std::size_t i = 0; i + 1 < bits.size(); i += 2) {
      next.push_back(nl.Add(CellKind::kAnd2, bits[i], bits[i + 1]));
    }
    if (bits.size() % 2 == 1) next.push_back(bits.back());
    bits = std::move(next);
  }
  return bits.front();
}

/// a == b over full buses (XNOR per line, AND tree).
NetId EqualAll(Netlist& nl, const std::vector<NetId>& a,
               const std::vector<NetId>& b) {
  std::vector<NetId> eq;
  eq.reserve(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    eq.push_back(nl.Add(CellKind::kXnor2, a[i], b[i]));
  }
  return AndTree(nl, std::move(eq));
}

/// Ripple-carry adder for two (possibly different-width) binary values;
/// result has max(width)+1 bits.
std::vector<NetId> Adder(Netlist& nl, const std::vector<NetId>& a,
                         const std::vector<NetId>& b) {
  const std::size_t width = std::max(a.size(), b.size());
  std::vector<NetId> sum;
  sum.reserve(width + 1);
  NetId carry = nl.Const(false);
  for (std::size_t i = 0; i < width; ++i) {
    const NetId ai = i < a.size() ? a[i] : nl.Const(false);
    const NetId bi = i < b.size() ? b[i] : nl.Const(false);
    const NetId axb = nl.Add(CellKind::kXor2, ai, bi);
    sum.push_back(nl.Add(CellKind::kXor2, axb, carry));
    const NetId t1 = nl.Add(CellKind::kAnd2, ai, bi);
    const NetId t2 = nl.Add(CellKind::kAnd2, axb, carry);
    carry = nl.Add(CellKind::kOr2, t1, t2);
  }
  sum.push_back(carry);
  return sum;
}

/// Population count of a bit vector as a binary number (balanced adder
/// tree — the "Hamming distance evaluator" of Section 4.1 when fed with
/// the XOR of old and new bus states).
std::vector<NetId> Popcount(Netlist& nl, const std::vector<NetId>& bits) {
  if (bits.empty()) return {nl.Const(false)};
  std::vector<std::vector<NetId>> counts;
  counts.reserve(bits.size());
  for (NetId b : bits) counts.push_back({b});
  while (counts.size() > 1) {
    std::vector<std::vector<NetId>> next;
    for (std::size_t i = 0; i + 1 < counts.size(); i += 2) {
      next.push_back(Adder(nl, counts[i], counts[i + 1]));
    }
    if (counts.size() % 2 == 1) next.push_back(counts.back());
    counts = std::move(next);
  }
  return counts.front();
}

/// value > threshold for a constant threshold (the "majority voter").
NetId GreaterThanConst(Netlist& nl, const std::vector<NetId>& value,
                       Word threshold) {
  NetId gt = nl.Const(false);
  NetId eq = nl.Const(true);
  for (std::size_t i = value.size(); i-- > 0;) {
    const bool k = (threshold >> i) & 1;
    if (!k) {
      // value bit 1 with everything above equal -> greater.
      gt = nl.Add(CellKind::kOr2, gt, nl.Add(CellKind::kAnd2, eq, value[i]));
      const NetId ni = nl.Add(CellKind::kInv, value[i]);
      eq = nl.Add(CellKind::kAnd2, eq, ni);
    } else {
      eq = nl.Add(CellKind::kAnd2, eq, value[i]);
    }
  }
  return gt;
}

void MarkDataOutputs(CodecCircuit& c, double load_pf,
                     const std::string& prefix) {
  for (std::size_t i = 0; i < c.data_out.size(); ++i) {
    c.netlist.MarkOutput(c.data_out[i], prefix + std::to_string(i), load_pf);
  }
  for (std::size_t i = 0; i < c.redundant_out.size(); ++i) {
    c.netlist.MarkOutput(c.redundant_out[i], prefix + "r" + std::to_string(i),
                         load_pf);
  }
}

}  // namespace

CodecCircuit BuildBinaryEncoder(unsigned width, double output_load_pf) {
  CodecCircuit c;
  c.address_in = AddInputBus(c.netlist, "b", width);
  for (unsigned i = 0; i < width; ++i) {
    c.data_out.push_back(c.netlist.Add(CellKind::kBuf, c.address_in[i]));
  }
  MarkDataOutputs(c, output_load_pf, "B");
  return c;
}

CodecCircuit BuildBinaryDecoder(unsigned width, double output_load_pf) {
  return BuildBinaryEncoder(width, output_load_pf);
}

CodecCircuit BuildT0Encoder(unsigned width, Word stride,
                            double output_load_pf, AdderStyle style) {
  CodecCircuit c;
  Netlist& nl = c.netlist;
  c.address_in = AddInputBus(nl, "b", width);
  const auto prev_addr = AddFlopBus(nl, "pa", width);
  const auto prev_bus = AddFlopBus(nl, "pb", width);
  const NetId valid = nl.AddFlop("valid");

  const auto incremented = Incrementer(nl, prev_addr, stride, style);
  const NetId eq = EqualAll(nl, c.address_in, incremented);
  const NetId seq = nl.Add(CellKind::kAnd2, eq, valid);

  for (unsigned i = 0; i < width; ++i) {
    c.data_out.push_back(
        nl.Add(CellKind::kMux2, c.address_in[i], prev_bus[i], seq));
  }
  c.redundant_out.push_back(nl.Add(CellKind::kBuf, seq));

  for (unsigned i = 0; i < width; ++i) {
    nl.ConnectFlop(prev_addr[i], c.address_in[i]);
    nl.ConnectFlop(prev_bus[i], c.data_out[i]);
  }
  nl.ConnectFlop(valid, nl.Const(true));
  MarkDataOutputs(c, output_load_pf, "B");
  return c;
}

CodecCircuit BuildT0Decoder(unsigned width, Word stride,
                            double output_load_pf, AdderStyle style) {
  CodecCircuit c;
  Netlist& nl = c.netlist;
  c.address_in = AddInputBus(nl, "B", width);
  c.redundant_in.push_back(nl.AddInput("INC"));
  const auto prev_dec = AddFlopBus(nl, "pd", width);

  const auto incremented = Incrementer(nl, prev_dec, stride, style);
  for (unsigned i = 0; i < width; ++i) {
    c.data_out.push_back(nl.Add(CellKind::kMux2, c.address_in[i],
                                incremented[i], c.redundant_in[0]));
    nl.ConnectFlop(prev_dec[i], c.data_out[i]);
  }
  MarkDataOutputs(c, output_load_pf, "b");
  return c;
}

CodecCircuit BuildBusInvertEncoder(unsigned width, double output_load_pf) {
  CodecCircuit c;
  Netlist& nl = c.netlist;
  c.address_in = AddInputBus(nl, "b", width);
  const auto prev_bus = AddFlopBus(nl, "pb", width);
  const NetId prev_inv = nl.AddFlop("pinv");

  // Hamming distance between (B(t-1) | INV(t-1)) and (b(t) | 0).
  std::vector<NetId> diff;
  diff.reserve(width + 1);
  for (unsigned i = 0; i < width; ++i) {
    diff.push_back(nl.Add(CellKind::kXor2, prev_bus[i], c.address_in[i]));
  }
  diff.push_back(prev_inv);
  const auto count = Popcount(nl, diff);
  const NetId invert = GreaterThanConst(nl, count, width / 2);

  for (unsigned i = 0; i < width; ++i) {
    c.data_out.push_back(
        nl.Add(CellKind::kXor2, c.address_in[i], invert));
    nl.ConnectFlop(prev_bus[i], c.data_out[i]);
  }
  c.redundant_out.push_back(nl.Add(CellKind::kBuf, invert));
  nl.ConnectFlop(prev_inv, invert);
  MarkDataOutputs(c, output_load_pf, "B");
  return c;
}

CodecCircuit BuildBusInvertDecoder(unsigned width, double output_load_pf) {
  CodecCircuit c;
  Netlist& nl = c.netlist;
  c.address_in = AddInputBus(nl, "B", width);
  c.redundant_in.push_back(nl.AddInput("INV"));
  for (unsigned i = 0; i < width; ++i) {
    c.data_out.push_back(
        nl.Add(CellKind::kXor2, c.address_in[i], c.redundant_in[0]));
  }
  MarkDataOutputs(c, output_load_pf, "b");
  return c;
}

CodecCircuit BuildT0BIEncoder(unsigned width, Word stride,
                              double output_load_pf, AdderStyle style) {
  CodecCircuit c;
  Netlist& nl = c.netlist;
  c.address_in = AddInputBus(nl, "b", width);
  const auto prev_addr = AddFlopBus(nl, "pa", width);
  const auto prev_bus = AddFlopBus(nl, "pb", width);
  const NetId prev_inc = nl.AddFlop("pinc");
  const NetId prev_inv = nl.AddFlop("pinv");
  const NetId valid = nl.AddFlop("valid");

  // T0 section.
  const auto incremented = Incrementer(nl, prev_addr, stride, style);
  const NetId eq = EqualAll(nl, c.address_in, incremented);
  const NetId seq = nl.Add(CellKind::kAnd2, eq, valid);

  // Bus-invert section over all N+2 encoded lines (Eq. 6's Hamming).
  std::vector<NetId> diff;
  diff.reserve(width + 2);
  for (unsigned i = 0; i < width; ++i) {
    diff.push_back(nl.Add(CellKind::kXor2, prev_bus[i], c.address_in[i]));
  }
  diff.push_back(prev_inc);
  diff.push_back(prev_inv);
  const auto count = Popcount(nl, diff);
  const NetId majority = GreaterThanConst(nl, count, (width + 2) / 2);
  const NetId not_seq = nl.Add(CellKind::kInv, seq);
  const NetId invert = nl.Add(CellKind::kAnd2, majority, not_seq);

  for (unsigned i = 0; i < width; ++i) {
    const NetId b_inv = nl.Add(CellKind::kXor2, c.address_in[i], invert);
    c.data_out.push_back(nl.Add(CellKind::kMux2, b_inv, prev_bus[i], seq));
  }
  c.redundant_out.push_back(nl.Add(CellKind::kBuf, seq));     // INC
  c.redundant_out.push_back(nl.Add(CellKind::kBuf, invert));  // INV

  for (unsigned i = 0; i < width; ++i) {
    nl.ConnectFlop(prev_addr[i], c.address_in[i]);
    nl.ConnectFlop(prev_bus[i], c.data_out[i]);
  }
  nl.ConnectFlop(prev_inc, seq);
  nl.ConnectFlop(prev_inv, invert);
  nl.ConnectFlop(valid, nl.Const(true));
  MarkDataOutputs(c, output_load_pf, "B");
  return c;
}

CodecCircuit BuildT0BIDecoder(unsigned width, Word stride,
                              double output_load_pf, AdderStyle style) {
  CodecCircuit c;
  Netlist& nl = c.netlist;
  c.address_in = AddInputBus(nl, "B", width);
  c.redundant_in.push_back(nl.AddInput("INC"));
  c.redundant_in.push_back(nl.AddInput("INV"));
  const auto prev_dec = AddFlopBus(nl, "pd", width);

  const auto incremented = Incrementer(nl, prev_dec, stride, style);
  for (unsigned i = 0; i < width; ++i) {
    const NetId uninverted =
        nl.Add(CellKind::kXor2, c.address_in[i], c.redundant_in[1]);
    c.data_out.push_back(nl.Add(CellKind::kMux2, uninverted, incremented[i],
                                c.redundant_in[0]));
    nl.ConnectFlop(prev_dec[i], c.data_out[i]);
  }
  MarkDataOutputs(c, output_load_pf, "b");
  return c;
}

CodecCircuit BuildDualT0Encoder(unsigned width, Word stride,
                                double output_load_pf, AdderStyle style) {
  CodecCircuit c;
  Netlist& nl = c.netlist;
  c.address_in = AddInputBus(nl, "b", width);
  c.sel_in = nl.AddInput("SEL");
  const auto shadow = AddFlopBus(nl, "sh", width);
  const NetId valid = nl.AddFlop("valid");
  const auto prev_bus = AddFlopBus(nl, "pb", width);

  const auto incremented = Incrementer(nl, shadow, stride, style);
  const NetId eq = EqualAll(nl, c.address_in, incremented);
  const NetId seq =
      nl.Add(CellKind::kAnd2, nl.Add(CellKind::kAnd2, eq, valid), c.sel_in);

  for (unsigned i = 0; i < width; ++i) {
    c.data_out.push_back(
        nl.Add(CellKind::kMux2, c.address_in[i], prev_bus[i], seq));
  }
  c.redundant_out.push_back(nl.Add(CellKind::kBuf, seq));

  for (unsigned i = 0; i < width; ++i) {
    nl.ConnectFlop(shadow[i], nl.Add(CellKind::kMux2, shadow[i],
                                     c.address_in[i], c.sel_in));
    nl.ConnectFlop(prev_bus[i], c.data_out[i]);
  }
  nl.ConnectFlop(valid, nl.Add(CellKind::kOr2, valid, c.sel_in));
  MarkDataOutputs(c, output_load_pf, "B");
  return c;
}

CodecCircuit BuildDualT0Decoder(unsigned width, Word stride,
                                double output_load_pf, AdderStyle style) {
  CodecCircuit c;
  Netlist& nl = c.netlist;
  c.address_in = AddInputBus(nl, "B", width);
  c.sel_in = nl.AddInput("SEL");
  c.redundant_in.push_back(nl.AddInput("INC"));
  const auto shadow = AddFlopBus(nl, "sh", width);

  const auto incremented = Incrementer(nl, shadow, stride, style);
  for (unsigned i = 0; i < width; ++i) {
    c.data_out.push_back(nl.Add(CellKind::kMux2, c.address_in[i],
                                incremented[i], c.redundant_in[0]));
    nl.ConnectFlop(shadow[i], nl.Add(CellKind::kMux2, shadow[i],
                                     c.data_out[i], c.sel_in));
  }
  MarkDataOutputs(c, output_load_pf, "b");
  return c;
}

CodecCircuit BuildDualT0BIEncoder(unsigned width, Word stride,
                                  double output_load_pf, AdderStyle style) {
  CodecCircuit c;
  Netlist& nl = c.netlist;
  c.address_in = AddInputBus(nl, "b", width);
  c.sel_in = nl.AddInput("SEL");
  const auto shadow = AddFlopBus(nl, "sh", width);
  const NetId valid = nl.AddFlop("valid");
  const auto prev_bus = AddFlopBus(nl, "pb", width);
  const NetId prev_incv = nl.AddFlop("pincv");

  // T0 section: sequentiality against the instruction shadow register.
  const auto incremented = Incrementer(nl, shadow, stride, style);
  const NetId eq = EqualAll(nl, c.address_in, incremented);
  const NetId seq =
      nl.Add(CellKind::kAnd2, nl.Add(CellKind::kAnd2, eq, valid), c.sel_in);

  // Bus-invert section: Hamming evaluator + majority voter.
  std::vector<NetId> diff;
  diff.reserve(width + 1);
  for (unsigned i = 0; i < width; ++i) {
    diff.push_back(nl.Add(CellKind::kXor2, prev_bus[i], c.address_in[i]));
  }
  diff.push_back(prev_incv);
  const auto count = Popcount(nl, diff);
  const NetId majority = GreaterThanConst(nl, count, width / 2);
  const NetId not_sel = nl.Add(CellKind::kInv, c.sel_in);
  const NetId invert = nl.Add(CellKind::kAnd2, majority, not_sel);

  // Output mux: INCV = INC + INV selects frozen bus or (conditionally
  // inverted) address.
  const NetId incv = nl.Add(CellKind::kOr2, seq, invert);
  for (unsigned i = 0; i < width; ++i) {
    const NetId b_inv = nl.Add(CellKind::kXor2, c.address_in[i], invert);
    c.data_out.push_back(nl.Add(CellKind::kMux2, b_inv, prev_bus[i], seq));
  }
  c.redundant_out.push_back(nl.Add(CellKind::kBuf, incv));

  // State updates: shadow loads only on instruction slots (Eq. 9).
  for (unsigned i = 0; i < width; ++i) {
    nl.ConnectFlop(shadow[i], nl.Add(CellKind::kMux2, shadow[i],
                                     c.address_in[i], c.sel_in));
    nl.ConnectFlop(prev_bus[i], c.data_out[i]);
  }
  nl.ConnectFlop(valid, nl.Add(CellKind::kOr2, valid, c.sel_in));
  nl.ConnectFlop(prev_incv, incv);
  MarkDataOutputs(c, output_load_pf, "B");
  return c;
}

CodecCircuit BuildDualT0BIDecoder(unsigned width, Word stride,
                                  double output_load_pf, AdderStyle style) {
  CodecCircuit c;
  Netlist& nl = c.netlist;
  c.address_in = AddInputBus(nl, "B", width);
  c.sel_in = nl.AddInput("SEL");
  c.redundant_in.push_back(nl.AddInput("INCV"));
  const auto shadow = AddFlopBus(nl, "sh", width);

  const NetId incv = c.redundant_in[0];
  const NetId use_shadow = nl.Add(CellKind::kAnd2, incv, c.sel_in);
  const NetId not_sel = nl.Add(CellKind::kInv, c.sel_in);
  const NetId inverted = nl.Add(CellKind::kAnd2, incv, not_sel);

  const auto incremented = Incrementer(nl, shadow, stride, style);
  for (unsigned i = 0; i < width; ++i) {
    const NetId b_or_inv = nl.Add(CellKind::kXor2, c.address_in[i], inverted);
    c.data_out.push_back(
        nl.Add(CellKind::kMux2, b_or_inv, incremented[i], use_shadow));
    nl.ConnectFlop(shadow[i], nl.Add(CellKind::kMux2, shadow[i],
                                     c.data_out[i], c.sel_in));
  }
  MarkDataOutputs(c, output_load_pf, "b");
  return c;
}

namespace {

/// Binary and bus-invert have no incrementer: stride and style do not
/// apply to them.
template <CodecCircuit (*Build)(unsigned, double)>
CodecCircuit WithoutAdder(unsigned width, Word, double load, AdderStyle) {
  return Build(width, load);
}

struct CircuitRow {
  std::string_view codec;  // factory name
  CodecCircuit (*encoder)(unsigned, Word, double, AdderStyle);
  CodecCircuit (*decoder)(unsigned, Word, double, AdderStyle);
};

constexpr CircuitRow kCircuits[] = {
    {"binary", WithoutAdder<BuildBinaryEncoder>,
     WithoutAdder<BuildBinaryDecoder>},
    {"t0", BuildT0Encoder, BuildT0Decoder},
    {"bus-invert", WithoutAdder<BuildBusInvertEncoder>,
     WithoutAdder<BuildBusInvertDecoder>},
    {"t0-bi", BuildT0BIEncoder, BuildT0BIDecoder},
    {"dual-t0", BuildDualT0Encoder, BuildDualT0Decoder},
    {"dual-t0-bi", BuildDualT0BIEncoder, BuildDualT0BIDecoder},
};

}  // namespace

CircuitPair BuildCircuitPair(const std::string& codec, unsigned width,
                             Word stride, double output_load_pf,
                             AdderStyle style) {
  for (const CircuitRow& row : kCircuits) {
    if (row.codec == codec) {
      return {row.encoder(width, stride, output_load_pf, style),
              row.decoder(width, stride, output_load_pf, style)};
    }
  }
  throw std::invalid_argument("no gate-level circuit for codec: " + codec);
}

std::vector<std::string> CircuitCodecNames() {
  std::vector<std::string> names;
  for (const CircuitRow& row : kCircuits) names.emplace_back(row.codec);
  return names;
}

std::map<NetId, bool> DriveInputs(const CodecCircuit& circuit, Word address,
                                  bool sel, Word redundant) {
  std::map<NetId, bool> values;
  for (std::size_t i = 0; i < circuit.address_in.size(); ++i) {
    values[circuit.address_in[i]] = (address >> i) & 1;
  }
  if (circuit.sel_in != kNoNet) values[circuit.sel_in] = sel;
  for (std::size_t i = 0; i < circuit.redundant_in.size(); ++i) {
    values[circuit.redundant_in[i]] = (redundant >> i) & 1;
  }
  return values;
}

Word ReadBus(const GateSimulator& sim, const std::vector<NetId>& ports) {
  Word value = 0;
  for (std::size_t i = 0; i < ports.size(); ++i) {
    if (sim.Value(ports[i])) value |= Word{1} << i;
  }
  return value;
}

}  // namespace abenc::gate
