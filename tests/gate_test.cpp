// Tests of the gate-level substrate: netlist construction, simulation
// semantics, power accounting, and — crucially — cycle-by-cycle
// equivalence of the synthesised codecs with their behavioural models.
#include <gtest/gtest.h>

#include <random>

#include "core/binary_codec.h"
#include "core/bus_invert_codec.h"
#include "core/codec_factory.h"
#include "core/dual_t0_codec.h"
#include "core/dual_t0bi_codec.h"
#include "core/t0_codec.h"
#include "core/t0bi_codec.h"
#include "gate/circuits.h"
#include "gate/power.h"
#include "gate/simulator.h"
#include "gate/timing.h"
#include "trace/synthetic.h"

namespace abenc::gate {
namespace {

// ---------------------------------------------------------------------------
// Netlist and simulator basics
// ---------------------------------------------------------------------------

TEST(NetlistTest, CombinationalGatesEvaluate) {
  Netlist nl;
  const NetId a = nl.AddInput("a");
  const NetId b = nl.AddInput("b");
  const NetId x = nl.Add(CellKind::kXor2, a, b);
  const NetId n = nl.Add(CellKind::kNand2, a, b);
  const NetId m = nl.Add(CellKind::kMux2, a, b, x);

  GateSimulator sim(nl);
  sim.Cycle({{a, true}, {b, false}});
  EXPECT_TRUE(sim.Value(x));
  EXPECT_TRUE(sim.Value(n));
  EXPECT_FALSE(sim.Value(m));  // sel=1 -> b
  sim.Cycle({{a, true}, {b, true}});
  EXPECT_FALSE(sim.Value(x));
  EXPECT_FALSE(sim.Value(n));
  EXPECT_TRUE(sim.Value(m));  // sel=0 -> a
}

TEST(NetlistTest, FlopDelaysByOneCycle) {
  Netlist nl;
  const NetId a = nl.AddInput("a");
  const NetId q = nl.AddFlop("q");
  nl.ConnectFlop(q, a);
  GateSimulator sim(nl);
  sim.Cycle({{a, true}});
  EXPECT_FALSE(sim.Value(q));  // reset state visible during first cycle
  sim.Cycle({{a, false}});
  EXPECT_TRUE(sim.Value(q));
  sim.Cycle({{a, false}});
  EXPECT_FALSE(sim.Value(q));
}

TEST(NetlistTest, UnconnectedFlopIsRejected) {
  Netlist nl;
  nl.AddFlop("q");
  EXPECT_THROW(GateSimulator sim(nl), std::logic_error);
}

TEST(NetlistTest, ForwardReferenceIsRejected) {
  Netlist nl;
  const NetId a = nl.AddInput("a");
  EXPECT_THROW(nl.Add(CellKind::kAnd2, a, 999), std::logic_error);
}

TEST(NetlistTest, MissingInputValueIsRejected) {
  Netlist nl;
  nl.AddInput("a");
  GateSimulator sim(nl);
  EXPECT_THROW(sim.Cycle({}), std::invalid_argument);
}

TEST(SimulatorTest, CountsToggles) {
  Netlist nl;
  const NetId a = nl.AddInput("a");
  const NetId inv = nl.Add(CellKind::kInv, a);
  GateSimulator sim(nl);
  for (int i = 0; i < 10; ++i) sim.Cycle({{a, i % 2 == 1}});
  EXPECT_EQ(sim.toggles(a), 9u);    // 0->1->0... from initial 0
  EXPECT_EQ(sim.toggles(inv), 10u); // starts false, first eval -> true
}

TEST(PowerTest, ScalesWithActivityAndLoad) {
  Netlist nl;
  const NetId a = nl.AddInput("a");
  const NetId buf = nl.Add(CellKind::kBuf, a);
  nl.MarkOutput(buf, "out", 10.0);
  GateSimulator sim(nl);
  for (int i = 0; i < 1000; ++i) sim.Cycle({{a, i % 2 == 1}});
  const PowerReport toggling = EstimatePower(nl, sim);
  // alpha ~ 1, C ~ 10 pF, 3.3 V, 100 MHz -> ~5.4 mW on the output.
  EXPECT_NEAR(toggling.output_mw, 0.5 * 10.014e-12 * 3.3 * 3.3 * 1e8 * 1e3,
              0.1);

  GateSimulator quiet(nl);
  for (int i = 0; i < 1000; ++i) quiet.Cycle({{a, true}});
  EXPECT_LT(EstimatePower(nl, quiet).total_mw, 0.01);
}

TEST(PowerTest, PadPowerUsesExternalLoad) {
  Netlist nl;
  const NetId a = nl.AddInput("a");
  const NetId buf = nl.Add(CellKind::kBuf, a);
  nl.MarkOutput(buf, "out", kPadInputCapacitancePf);
  GateSimulator sim(nl);
  for (int i = 0; i < 1000; ++i) sim.Cycle({{a, i % 2 == 1}});
  const double p50 = PadPowerMw(nl, sim, 50.0);
  const double p100 = PadPowerMw(nl, sim, 100.0);
  EXPECT_NEAR(p100 / p50, 2.0, 1e-9);
}

// ---------------------------------------------------------------------------
// Gate codecs vs behavioural codecs, cycle by cycle
// ---------------------------------------------------------------------------

void CheckEquivalence(Codec& reference, const CodecCircuit& enc,
                      const CodecCircuit& dec,
                      const std::vector<BusAccess>& stream) {
  GateSimulator enc_sim(enc.netlist);
  GateSimulator dec_sim(dec.netlist);
  reference.Reset();
  const unsigned width = static_cast<unsigned>(enc.address_in.size());
  for (std::size_t t = 0; t < stream.size(); ++t) {
    const Word b = stream[t].address & LowMask(width);
    const bool sel = stream[t].sel;
    const BusState expected = reference.Encode(b, sel);

    enc_sim.Cycle(DriveInputs(enc, b, sel));
    const Word enc_lines = ReadBus(enc_sim, enc.data_out);
    const Word enc_red = ReadBus(enc_sim, enc.redundant_out);
    ASSERT_EQ(enc_lines, expected.lines) << "cycle " << t;
    ASSERT_EQ(enc_red, expected.redundant) << "cycle " << t;

    const Word expected_b = reference.Decode(expected, sel);
    dec_sim.Cycle(DriveInputs(dec, enc_lines, sel, enc_red));
    ASSERT_EQ(ReadBus(dec_sim, dec.data_out), expected_b) << "cycle " << t;
    ASSERT_EQ(expected_b, b) << "cycle " << t;
  }
}

std::vector<BusAccess> MixedStream(unsigned width, std::size_t count) {
  SyntheticGenerator gen(17);
  const AddressTrace trace = gen.MultiplexedLike(count, 0.4, 4, width);
  return trace.ToBusAccesses();
}

TEST(GateCodecTest, BinaryEncoderMatchesBehaviouralModel) {
  const unsigned width = 16;
  BinaryCodec reference(width);
  CheckEquivalence(reference, BuildBinaryEncoder(width, 0.2),
                   BuildBinaryDecoder(width, 0.2), MixedStream(width, 500));
}

TEST(GateCodecTest, T0EncoderMatchesBehaviouralModel) {
  const unsigned width = 16;
  T0Codec reference(width, 4);
  CheckEquivalence(reference, BuildT0Encoder(width, 4, 0.2),
                   BuildT0Decoder(width, 4, 0.2), MixedStream(width, 500));
}

TEST(GateCodecTest, T0EncoderMatchesOnPureSequentialRuns) {
  const unsigned width = 16;
  T0Codec reference(width, 4);
  std::vector<BusAccess> stream;
  for (Word a = 0x1000; a < 0x1400; a += 4) stream.push_back({a, true});
  CheckEquivalence(reference, BuildT0Encoder(width, 4, 0.2),
                   BuildT0Decoder(width, 4, 0.2), stream);
}

TEST(GateCodecTest, BusInvertEncoderMatchesBehaviouralModel) {
  const unsigned width = 16;
  BusInvertCodec reference(width);
  CheckEquivalence(reference, BuildBusInvertEncoder(width, 0.2),
                   BuildBusInvertDecoder(width, 0.2),
                   MixedStream(width, 500));
}

TEST(GateCodecTest, T0BIEncoderMatchesBehaviouralModel) {
  const unsigned width = 16;
  T0BICodec reference(width, 4);
  CheckEquivalence(reference, BuildT0BIEncoder(width, 4, 0.2),
                   BuildT0BIDecoder(width, 4, 0.2), MixedStream(width, 800));
}

TEST(GateCodecTest, DualT0EncoderMatchesBehaviouralModel) {
  const unsigned width = 16;
  DualT0Codec reference(width, 4);
  CheckEquivalence(reference, BuildDualT0Encoder(width, 4, 0.2),
                   BuildDualT0Decoder(width, 4, 0.2),
                   MixedStream(width, 800));
}

TEST(GateCodecTest, EveryPaperCodeHasAnEquivalentNetlistAtFullWidth) {
  const unsigned width = 32;
  const auto stream = MixedStream(width, 200);
  {
    T0BICodec reference(width, 4);
    CheckEquivalence(reference, BuildT0BIEncoder(width, 4, 0.2),
                     BuildT0BIDecoder(width, 4, 0.2), stream);
  }
  {
    DualT0Codec reference(width, 4);
    CheckEquivalence(reference, BuildDualT0Encoder(width, 4, 0.2),
                     BuildDualT0Decoder(width, 4, 0.2), stream);
  }
  {
    BusInvertCodec reference(width);
    CheckEquivalence(reference, BuildBusInvertEncoder(width, 0.2),
                     BuildBusInvertDecoder(width, 0.2), stream);
  }
}

TEST(GateCodecTest, DualT0BIEncoderMatchesBehaviouralModel) {
  const unsigned width = 16;
  DualT0BICodec reference(width, 4);
  CheckEquivalence(reference, BuildDualT0BIEncoder(width, 4, 0.2),
                   BuildDualT0BIDecoder(width, 4, 0.2),
                   MixedStream(width, 800));
}

TEST(GateCodecTest, DualT0BIMatchesAtFullBusWidth) {
  const unsigned width = 32;
  DualT0BICodec reference(width, 4);
  CheckEquivalence(reference, BuildDualT0BIEncoder(width, 4, 0.2),
                   BuildDualT0BIDecoder(width, 4, 0.2),
                   MixedStream(width, 300));
}

// ---------------------------------------------------------------------------
// Parameterised equivalence sweep: every paper code x width x adder style
// ---------------------------------------------------------------------------

struct SweepParam {
  const char* code;  // factory name
  unsigned width;
  AdderStyle style;
};

class GateEquivalenceSweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(GateEquivalenceSweep, NetlistMatchesBehaviouralCodec) {
  const SweepParam& param = GetParam();
  const unsigned w = param.width;
  const Word s = 4;
  const double load = 0.2;
  CodecOptions options;
  options.width = w;
  options.stride = s;
  auto reference = MakeCodec(param.code, options);
  const CircuitPair pair =
      BuildCircuitPair(param.code, w, s, load, param.style);
  CheckEquivalence(*reference, pair.encoder, pair.decoder,
                   MixedStream(w, 300));
}

INSTANTIATE_TEST_SUITE_P(
    PaperCodes, GateEquivalenceSweep,
    ::testing::Values(
        SweepParam{"binary", 8, AdderStyle::kRipple},
        SweepParam{"binary", 32, AdderStyle::kRipple},
        SweepParam{"t0", 8, AdderStyle::kRipple},
        SweepParam{"t0", 24, AdderStyle::kPrefix},
        SweepParam{"t0", 32, AdderStyle::kPrefix},
        SweepParam{"bus-invert", 8, AdderStyle::kRipple},
        SweepParam{"bus-invert", 24, AdderStyle::kRipple},
        SweepParam{"t0-bi", 8, AdderStyle::kRipple},
        SweepParam{"t0-bi", 24, AdderStyle::kPrefix},
        SweepParam{"t0-bi", 32, AdderStyle::kRipple},
        SweepParam{"dual-t0", 8, AdderStyle::kPrefix},
        SweepParam{"dual-t0", 24, AdderStyle::kRipple},
        SweepParam{"dual-t0-bi", 8, AdderStyle::kRipple},
        SweepParam{"dual-t0-bi", 24, AdderStyle::kPrefix},
        SweepParam{"dual-t0-bi", 32, AdderStyle::kPrefix},
        SweepParam{"t0", 64, AdderStyle::kPrefix},
        SweepParam{"dual-t0-bi", 64, AdderStyle::kRipple}),
    [](const auto& info) {
      std::string name = info.param.code;
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name + "_w" + std::to_string(info.param.width) +
             (info.param.style == AdderStyle::kPrefix ? "_prefix"
                                                      : "_ripple");
    });

TEST(GateCodecTest, CircuitPairRejectsCodecsWithoutACircuit) {
  EXPECT_THROW(BuildCircuitPair("gray", 8, 4, 0.2), std::invalid_argument);
}

TEST(GateCodecTest, T0EncoderIsQuietOnSequentialStreams) {
  const unsigned width = 32;
  CodecCircuit enc = BuildT0Encoder(width, 4, 0.5);
  GateSimulator sim(enc.netlist);
  for (Word a = 0; a < 400; a += 4) sim.Cycle(DriveInputs(enc, a, true));
  std::uint64_t output_toggles = 0;
  for (NetId n : enc.data_out) output_toggles += sim.toggles(n);
  EXPECT_EQ(output_toggles, 0u) << "frozen bus lines must not switch";
}

TEST(GateCodecTest, DualT0BIEncoderCostsMoreThanT0) {
  // Section 4.2's qualitative claim: the dual T0_BI encoder burns roughly
  // an order of magnitude more than the T0 encoder at small on-chip loads.
  const unsigned width = 32;
  CodecCircuit t0 = BuildT0Encoder(width, 4, 0.1);
  CodecCircuit dual = BuildDualT0BIEncoder(width, 4, 0.1);
  GateSimulator t0_sim(t0.netlist);
  GateSimulator dual_sim(dual.netlist);
  const auto stream = MixedStream(width, 2000);
  for (const BusAccess& access : stream) {
    t0_sim.Cycle(DriveInputs(t0, access.address, access.sel));
    dual_sim.Cycle(DriveInputs(dual, access.address, access.sel));
  }
  // Use the glitch-aware model the Table 8/9 benches use: the deep
  // Hamming/majority logic is where the dual encoder pays.
  const double t0_mw =
      EstimatePower(t0.netlist, t0_sim, kClockHz, kVddVolts,
                    kDefaultGlitchPerLevel)
          .total_mw;
  const double dual_mw =
      EstimatePower(dual.netlist, dual_sim, kClockHz, kVddVolts,
                    kDefaultGlitchPerLevel)
          .total_mw;
  EXPECT_GT(dual_mw, 2.0 * t0_mw);
}

TEST(GateCodecTest, PrefixAdderVariantsAreEquivalent) {
  const unsigned width = 16;
  T0Codec t0_ref(width, 4);
  CheckEquivalence(t0_ref,
                   BuildT0Encoder(width, 4, 0.2, AdderStyle::kPrefix),
                   BuildT0Decoder(width, 4, 0.2, AdderStyle::kPrefix),
                   MixedStream(width, 500));
  DualT0BICodec dual_ref(width, 4);
  CheckEquivalence(dual_ref,
                   BuildDualT0BIEncoder(width, 4, 0.2, AdderStyle::kPrefix),
                   BuildDualT0BIDecoder(width, 4, 0.2, AdderStyle::kPrefix),
                   MixedStream(width, 500));
}

TEST(GateCodecTest, PrefixAdderIsFasterAndBigger) {
  const CodecCircuit ripple =
      BuildT0Encoder(32, 4, 0.2, AdderStyle::kRipple);
  const CodecCircuit prefix =
      BuildT0Encoder(32, 4, 0.2, AdderStyle::kPrefix);
  EXPECT_GT(prefix.netlist.gate_count(), ripple.netlist.gate_count());
  EXPECT_LT(AnalyzeTiming(prefix.netlist).critical_path_ns,
            AnalyzeTiming(ripple.netlist).critical_path_ns);
}

TEST(GateCodecTest, GateCountsAreSane) {
  const CodecCircuit t0 = BuildT0Encoder(32, 4, 0.1);
  const CodecCircuit dual = BuildDualT0BIEncoder(32, 4, 0.1);
  EXPECT_GT(t0.netlist.gate_count(), 32u);
  EXPECT_GT(dual.netlist.gate_count(), t0.netlist.gate_count());
  EXPECT_EQ(t0.netlist.flop_count(), 32u + 32u + 1u);
}

}  // namespace
}  // namespace abenc::gate
