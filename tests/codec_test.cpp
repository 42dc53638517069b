// Behavioural tests of every bus code: the paper's defining equations plus
// decode(encode(b)) == b property sweeps over adversarial streams.
#include <gtest/gtest.h>

#include <random>

#include "core/binary_codec.h"
#include "core/bus_invert_codec.h"
#include "core/codec_factory.h"
#include "core/dual_t0_codec.h"
#include "core/dual_t0bi_codec.h"
#include "core/gray_codec.h"
#include "core/stream_evaluator.h"
#include "core/t0_codec.h"
#include "core/t0bi_codec.h"
#include "trace/synthetic.h"

namespace abenc {
namespace {

// ---------------------------------------------------------------------------
// Per-code semantic tests (the paper's equations)
// ---------------------------------------------------------------------------

TEST(BinaryCodecTest, PassesAddressesThrough) {
  BinaryCodec codec(16);
  EXPECT_EQ(codec.Encode(0x1234, true).lines, 0x1234u);
  EXPECT_EQ(codec.Encode(0xFFFF5678, true).lines, 0x5678u);  // masked
  EXPECT_EQ(codec.redundant_lines(), 0u);
}

TEST(GrayCodecTest, SingleTransitionOnUnitStride) {
  GrayCodec codec(32, 1);
  BusState prev = codec.Encode(100, true);
  for (Word a = 101; a < 200; ++a) {
    const BusState cur = codec.Encode(a, true);
    EXPECT_EQ(TransitionsBetween(prev, cur, 32, 0), 1) << "at " << a;
    prev = cur;
  }
}

TEST(GrayCodecTest, SingleTransitionOnWordStride) {
  // The Mehta et al. adaptation: stride-4 sequences must keep the
  // one-transition property on a byte-addressable machine.
  GrayCodec codec(32, 4);
  BusState prev = codec.Encode(0x400000, true);
  for (int i = 1; i < 100; ++i) {
    const BusState cur = codec.Encode(0x400000 + 4 * i, true);
    EXPECT_EQ(TransitionsBetween(prev, cur, 32, 0), 1) << "at step " << i;
    prev = cur;
  }
}

TEST(GrayCodecTest, PlainGrayLosesTheStrideProperty) {
  GrayCodec codec(32, 1);
  long long transitions = 0;
  BusState prev = codec.Encode(0, true);
  for (int i = 1; i < 64; ++i) {
    const BusState cur = codec.Encode(4 * i, true);
    transitions += TransitionsBetween(prev, cur, 32, 0);
    prev = cur;
  }
  EXPECT_GT(transitions, 63);  // strictly worse than one per address
}

TEST(GrayCodecTest, RejectsBadStride) {
  EXPECT_THROW(GrayCodec(32, 3), CodecConfigError);
  EXPECT_THROW(GrayCodec(8, 256), CodecConfigError);
}

TEST(BusInvertCodecTest, InvertsWhenMajorityOfLinesWouldToggle) {
  BusInvertCodec codec(8);
  // From the all-zero bus, sending 0xFF has Hamming distance 8 > 4.
  const BusState s = codec.Encode(0xFF, true);
  EXPECT_EQ(s.lines, 0x00u);
  EXPECT_EQ(s.redundant, 1u);
}

TEST(BusInvertCodecTest, KeepsPolarityAtOrBelowHalf) {
  BusInvertCodec codec(8);
  const BusState s = codec.Encode(0x0F, true);  // H = 4 == N/2, keep
  EXPECT_EQ(s.lines, 0x0Fu);
  EXPECT_EQ(s.redundant, 0u);
}

TEST(BusInvertCodecTest, CountsInvLineInHammingDistance) {
  BusInvertCodec codec(8);
  ASSERT_EQ(codec.Encode(0xFF, true).redundant, 1u);  // bus: 00, INV=1
  // Candidate 0xE0: H = popcount(0x00 ^ 0xE0) + INV(t-1) = 3 + 1 = 4 <= 4.
  const BusState s = codec.Encode(0xE0, true);
  EXPECT_EQ(s.lines, 0xE0u);
  EXPECT_EQ(s.redundant, 0u);
}

// Regression pins for the suspected (and refuted) majority-threshold
// off-by-one: the code implements Eq. 1's "invert iff H > N/2" verbatim,
// which is transition-optimal for even slice widths and resolves the
// equal-cost tie 2H == N + 1 (odd slices only) toward inverting. See
// the threshold analysis in bus_invert_codec.h.

TEST(BusInvertCodecTest, ExactHalfTieKeepsPolarityInEveryPartition) {
  BusInvertCodec codec(32, 4);
  // Each byte-wide slice sees exactly H = 4 == N/2 from the all-zero
  // bus: Eq. 1's "<= N/2" branch keeps true polarity everywhere.
  const BusState s = codec.Encode(0x0F0F0F0F, true);
  EXPECT_EQ(s.lines, 0x0F0F0F0Fu);
  EXPECT_EQ(s.redundant, 0u);
}

TEST(BusInvertCodecTest, MixedTieAndMajorityPartitionsDecideIndependently) {
  BusInvertCodec codec(32, 4);
  // Byte slices from the all-zero bus: 0xF0, 0x0F, 0x0F tie at H = 4
  // (keep); 0xFF has H = 8 > 4 (invert). One INV line per slice.
  const BusState s = codec.Encode(0xFF0F0FF0, true);
  EXPECT_EQ(s.redundant, 0b1000u);
  EXPECT_EQ(s.lines, 0x000F0FF0u);
  EXPECT_EQ(codec.Decode(s, true), 0xFF0F0FF0u);
}

TEST(BusInvertCodecTest, OddSliceTieInvertsAtEqualCost) {
  // 9 lines in three 3-bit slices: the only geometry where 2H == N + 1
  // can happen. Candidate 0b011 per slice has H = 2, 2H = 4 > 3, so
  // every slice inverts — and the test proves the tie is genuinely
  // equal-cost, so the pinned choice cannot lose power.
  BusInvertCodec codec(9, 3);
  const Word address = 0b011011011;
  const BusState s = codec.Encode(address, true);
  EXPECT_EQ(s.lines, 0b100100100u);
  EXPECT_EQ(s.redundant, 0b111u);
  EXPECT_EQ(codec.Decode(s, true), address);
  // Inverted cost: 3 data-line toggles + 3 INV toggles from power-on.
  const int inverted_cost = TransitionsBetween(BusState{}, s, 9, 3);
  const int keep_cost = PopCount(address);  // what not inverting pays
  EXPECT_EQ(inverted_cost, keep_cost);
}

TEST(BusInvertCodecTest, TieAfterInversionCountsThePriorInvLine) {
  BusInvertCodec codec(32, 4);
  ASSERT_EQ(codec.Encode(0xFFFFFFFF, true).redundant, 0xFu);  // all invert
  // Bus now all-zero with every INV high. Candidate 0x07 per slice:
  // H = popcount(0x07) + INV(t-1) = 3 + 1 = 4 == N/2, keep everywhere.
  const BusState s = codec.Encode(0x07070707, true);
  EXPECT_EQ(s.lines, 0x07070707u);
  EXPECT_EQ(s.redundant, 0u);
}

TEST(BusInvertCodecTest, NeverExceedsHalfPlusOneTransitions) {
  BusInvertCodec codec(16);
  std::mt19937_64 rng(7);
  BusState prev{};
  for (int i = 0; i < 2000; ++i) {
    const BusState cur = codec.Encode(rng() & 0xFFFF, true);
    // Counting the INV line, bus-invert bounds per-cycle transitions by
    // ceil((N+1)/2).
    EXPECT_LE(TransitionsBetween(prev, cur, 16, 1), (16 + 1 + 1) / 2);
    prev = cur;
  }
}

TEST(BusInvertCodecTest, PartitionedVariantDecodesAndBounds) {
  BusInvertCodec codec(32, 4);
  EXPECT_EQ(codec.redundant_lines(), 4u);
  std::mt19937_64 rng(11);
  BusState prev{};
  for (int i = 0; i < 2000; ++i) {
    const Word b = rng() & 0xFFFFFFFFu;
    const BusState cur = codec.Encode(b, true);
    EXPECT_EQ(codec.Decode(cur, true), b);
    EXPECT_LE(TransitionsBetween(prev, cur, 32, 4), 4 * ((8 + 1 + 1) / 2));
    prev = cur;
  }
}

TEST(BusInvertCodecTest, RejectsUnevenPartitions) {
  EXPECT_THROW(BusInvertCodec(32, 3), CodecConfigError);
  EXPECT_THROW(BusInvertCodec(32, 0), CodecConfigError);
}

TEST(T0CodecTest, FreezesBusOnSequentialRun) {
  T0Codec codec(32, 4);
  const BusState first = codec.Encode(0x1000, true);
  EXPECT_EQ(first.lines, 0x1000u);
  EXPECT_EQ(first.redundant, 0u);
  BusState prev = first;
  for (int i = 1; i <= 50; ++i) {
    const BusState cur = codec.Encode(0x1000 + 4 * i, true);
    EXPECT_EQ(cur.lines, first.lines) << "bus must stay frozen";
    EXPECT_EQ(cur.redundant, 1u);
    EXPECT_EQ(TransitionsBetween(prev, cur, 32, 1), i == 1 ? 1 : 0);
    prev = cur;
  }
}

TEST(T0CodecTest, ZeroTransitionsAsymptoticallyOnInfiniteRun) {
  T0Codec codec(16, 1);
  TransitionCounter counter(16, 1);
  for (Word a = 0; a < 10000; ++a) counter.Observe(codec.Encode(a, true));
  // Only the INC assertion on the second address ever switches a line.
  EXPECT_EQ(counter.total(), 1);
}

TEST(T0CodecTest, OutOfSequenceFallsBackToBinary) {
  T0Codec codec(32, 4);
  codec.Encode(0x1000, true);
  const BusState s = codec.Encode(0x2000, true);
  EXPECT_EQ(s.lines, 0x2000u);
  EXPECT_EQ(s.redundant, 0u);
}

TEST(T0CodecTest, DecoderRegeneratesSequentialAddresses) {
  T0Codec codec(32, 4);
  for (Word a = 0x400000; a < 0x400100; a += 4) {
    const BusState s = codec.Encode(a, true);
    EXPECT_EQ(codec.Decode(s, true), a);
  }
}

TEST(T0CodecTest, StrideIsParametric) {
  T0Codec codec(32, 8);
  codec.Encode(0x100, true);
  EXPECT_EQ(codec.Encode(0x108, true).redundant, 1u);  // +8 is sequential
  T0Codec codec4(32, 4);
  codec4.Encode(0x100, true);
  EXPECT_EQ(codec4.Encode(0x108, true).redundant, 0u);  // +8 is not, for S=4
}

TEST(T0CodecTest, RejectsNonPowerOfTwoStride) {
  EXPECT_THROW(T0Codec(32, 12), CodecConfigError);
}

TEST(T0BICodecTest, SequentialTakesPriorityAndFreezes) {
  T0BICodec codec(32, 4);
  codec.Encode(0x1000, true);
  const BusState s = codec.Encode(0x1004, true);
  EXPECT_EQ(s.redundant, T0BICodec::kIncBit);
  EXPECT_EQ(s.lines, 0x1000u);
}

TEST(T0BICodecTest, InvertsDistantOutOfSequenceAddress) {
  T0BICodec codec(8, 4);
  codec.Encode(0x00, true);
  // 0xFF is not sequential and H = 8 > (8+2)/2 = 5 -> inverted.
  const BusState s = codec.Encode(0xFF, true);
  EXPECT_EQ(s.redundant, T0BICodec::kInvBit);
  EXPECT_EQ(s.lines, 0x00u);
  EXPECT_EQ(codec.Decode(s, true), 0xFFu);
}

TEST(T0BICodecTest, KeepsNearOutOfSequenceAddress) {
  T0BICodec codec(8, 4);
  codec.Encode(0x00, true);
  const BusState s = codec.Encode(0x03, true);  // H = 2 <= 5
  EXPECT_EQ(s.redundant, 0u);
  EXPECT_EQ(s.lines, 0x03u);
}

TEST(DualT0CodecTest, ShadowRegisterSurvivesDataSlots) {
  DualT0Codec codec(32, 4);
  codec.Encode(0x1000, true);             // instruction
  codec.Encode(0x7FFF0000, false);        // interleaved data access
  const BusState s = codec.Encode(0x1004, true);  // next instruction
  EXPECT_EQ(s.redundant, 1u) << "data slot must not break sequentiality";
}

TEST(DualT0CodecTest, DataSlotsAlwaysBinary) {
  DualT0Codec codec(32, 4);
  codec.Encode(0x1000, false);
  const BusState s = codec.Encode(0x1004, false);  // sequential but SEL=0
  EXPECT_EQ(s.redundant, 0u);
  EXPECT_EQ(s.lines, 0x1004u);
}

TEST(DualT0BICodecTest, OverloadedLineDisambiguatedBySel) {
  DualT0BICodec codec(8, 4);
  codec.Encode(0x10, true);
  // Instruction slot, sequential: INCV = 1, frozen lines.
  const BusState seq = codec.Encode(0x14, true);
  EXPECT_EQ(seq.redundant, 1u);
  EXPECT_EQ(seq.lines, 0x10u);
  EXPECT_EQ(codec.Decode(codec.Encode(0x10, true), true), 0x10u);
  // Data slot far away: INCV = 1 now means inverted.
  codec.Reset();
  codec.Encode(0x00, false);
  const BusState inv = codec.Encode(0xFF, false);
  EXPECT_EQ(inv.redundant, 1u);
  EXPECT_EQ(inv.lines, 0x00u);
  EXPECT_EQ(codec.Decode(inv, false), 0xFFu);
}

TEST(DualT0BICodecTest, InstructionSlotsNeverInverted) {
  DualT0BICodec codec(8, 4);
  codec.Encode(0x00, true);
  const BusState s = codec.Encode(0xFF, true);  // far, but SEL = 1
  EXPECT_EQ(s.redundant, 0u);
  EXPECT_EQ(s.lines, 0xFFu);
}

// ---------------------------------------------------------------------------
// Property sweep: decode(encode(b)) == b for every code on every stream
// ---------------------------------------------------------------------------

class CodecRoundTripTest : public ::testing::TestWithParam<std::string> {};

TEST_P(CodecRoundTripTest, RandomStream) {
  CodecOptions options;
  auto codec = MakeCodec(GetParam(), options);
  SyntheticGenerator gen(1);
  const auto trace = gen.UniformRandom(5000, options.width);
  EXPECT_NO_THROW(
      Evaluate(*codec, trace.ToBusAccesses(), options.stride, true));
}

TEST_P(CodecRoundTripTest, SequentialStream) {
  CodecOptions options;
  auto codec = MakeCodec(GetParam(), options);
  SyntheticGenerator gen(2);
  const auto trace = gen.Sequential(5000, 0x400000, options.stride,
                                    options.width);
  EXPECT_NO_THROW(
      Evaluate(*codec, trace.ToBusAccesses(), options.stride, true));
}

TEST_P(CodecRoundTripTest, MultiplexedStream) {
  CodecOptions options;
  auto codec = MakeCodec(GetParam(), options);
  SyntheticGenerator gen(3);
  const auto trace = gen.MultiplexedLike(5000, 0.4, options.stride,
                                         options.width);
  EXPECT_NO_THROW(
      Evaluate(*codec, trace.ToBusAccesses(), options.stride, true));
}

TEST_P(CodecRoundTripTest, AdversarialEdgeStream) {
  CodecOptions options;
  auto codec = MakeCodec(GetParam(), options);
  const Word top = LowMask(options.width);
  std::vector<BusAccess> stream;
  // Wrap-around runs, all-ones/all-zeros flips, repeats, +/-stride walks.
  for (int r = 0; r < 8; ++r) {
    stream.push_back({top - 4, r % 2 == 0});
    stream.push_back({top, r % 2 == 0});
    stream.push_back({0, true});
    stream.push_back({0, false});
    stream.push_back({top, true});
    for (Word a = 0; a < 40; a += options.stride) stream.push_back({a, true});
    for (Word a = 400; a > 360; a -= options.stride) {
      stream.push_back({a, false});
    }
  }
  EXPECT_NO_THROW(Evaluate(*codec, stream, options.stride, true));
}

TEST_P(CodecRoundTripTest, DecodeAfterResetForgetsHistory) {
  CodecOptions options;
  auto codec = MakeCodec(GetParam(), options);
  codec->Encode(0x1000, true);
  codec->Encode(0x1004, true);
  codec->Reset();
  // First pattern after reset is always sent verbatim by every code.
  const BusState s = codec->Encode(0x2468, true);
  EXPECT_EQ(codec->Decode(s, true), 0x2468u);
}

INSTANTIATE_TEST_SUITE_P(AllCodecs, CodecRoundTripTest,
                         ::testing::ValuesIn(AllCodecNames()),
                         [](const auto& info) {
                           std::string name = info.param;
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

// ---------------------------------------------------------------------------
// Width sweep: round trip at narrow and full widths
// ---------------------------------------------------------------------------

class CodecWidthTest
    : public ::testing::TestWithParam<std::tuple<std::string, unsigned>> {};

TEST_P(CodecWidthTest, RoundTripsAtWidth) {
  const auto& [name, width] = GetParam();
  CodecOptions options;
  options.width = width;
  options.stride = 1;
  options.wz_offset_bits = std::min(8u, width > 2 ? width - 2 : 1u);
  options.beach_cluster_bits = std::min(8u, width);
  options.mtf_entries = width <= 4 ? 4 : 16;
  if (name == "bus-invert") options.partitions = 1;
  auto codec = MakeCodec(name, options);
  SyntheticGenerator gen(width);
  const auto trace = gen.UniformRandom(2000, width);
  EXPECT_NO_THROW(Evaluate(*codec, trace.ToBusAccesses(), 1, true));
}

INSTANTIATE_TEST_SUITE_P(
    WidthsByCodec, CodecWidthTest,
    ::testing::Combine(::testing::ValuesIn(AllCodecNames()),
                       ::testing::Values(4u, 16u, 32u, 64u)),
    [](const auto& info) {
      std::string name = std::get<0>(info.param);
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name + "_w" + std::to_string(std::get<1>(info.param));
    });

// ---------------------------------------------------------------------------
// Exhaustive small-width verification: at width 4 every length-3 address
// sequence (4096 of them) must round-trip through every code.
// ---------------------------------------------------------------------------

class CodecExhaustiveTest : public ::testing::TestWithParam<std::string> {};

TEST_P(CodecExhaustiveTest, EveryLengthThreeSequenceRoundTrips) {
  CodecOptions options;
  options.width = 4;
  options.stride = 1;
  options.partitions = 1;
  options.wz_zones = 2;
  options.wz_offset_bits = 2;
  options.beach_cluster_bits = 2;
  options.mtf_entries = 4;
  auto codec = MakeCodec(GetParam(), options);
  for (Word a = 0; a < 16; ++a) {
    for (Word b = 0; b < 16; ++b) {
      for (Word c = 0; c < 16; ++c) {
        codec->Reset();
        for (Word value : {a, b, c}) {
          for (bool sel : {true}) {
            const BusState state = codec->Encode(value, sel);
            ASSERT_EQ(codec->Decode(state, sel), value)
                << GetParam() << " on <" << a << "," << b << "," << c << ">";
          }
        }
      }
    }
  }
}

TEST_P(CodecExhaustiveTest, MixedSelSequencesRoundTrip) {
  CodecOptions options;
  options.width = 4;
  options.stride = 1;
  options.wz_zones = 2;
  options.wz_offset_bits = 2;
  options.beach_cluster_bits = 2;
  options.mtf_entries = 4;
  auto codec = MakeCodec(GetParam(), options);
  // All 16 SEL patterns over a fixed 4-address window, all windows.
  for (Word base = 0; base < 16; ++base) {
    for (unsigned sel_bits = 0; sel_bits < 16; ++sel_bits) {
      codec->Reset();
      for (unsigned t = 0; t < 4; ++t) {
        const Word value = (base + t * 3) & 0xF;
        const bool sel = (sel_bits >> t) & 1;
        const BusState state = codec->Encode(value, sel);
        ASSERT_EQ(codec->Decode(state, sel), value) << GetParam();
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllCodecs, CodecExhaustiveTest,
                         ::testing::ValuesIn(AllCodecNames()),
                         [](const auto& info) {
                           std::string name = info.param;
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

// ---------------------------------------------------------------------------
// Factory
// ---------------------------------------------------------------------------

TEST(CodecFactoryTest, RejectsUnknownName) {
  // The error names what was asked for. Which names count as unknown
  // (empty, near-misses) is FactoryCoverageTest.UnknownNamesThrow.
  try {
    MakeCodec("no-such-code");
    FAIL() << "no-such-code was accepted";
  } catch (const CodecConfigError& error) {
    EXPECT_STREQ(error.what(), "unknown codec name: no-such-code");
  }
}

TEST(CodecFactoryTest, RejectsZeroWidthForEveryCodec) {
  // A 0-bit bus must be rejected as configuration, up front with
  // CodecConfigError — never reach the bit math (where LowMask/Log2
  // would only catch it as a debug assertion).
  CodecOptions options;
  options.width = 0;
  for (const std::string& name : AllCodecNames()) {
    EXPECT_THROW(MakeCodec(name, options), CodecConfigError)
        << name << " accepted width 0";
  }
}

TEST(CodecFactoryTest, RejectsOverwideBusForEveryCodec) {
  CodecOptions options;
  options.width = 65;  // beyond the 64-bit Word
  for (const std::string& name : AllCodecNames()) {
    EXPECT_THROW(MakeCodec(name, options), CodecConfigError)
        << name << " accepted width 65";
  }
}

TEST(CodecFactoryTest, NamesRoundTripThroughInstances) {
  for (const std::string& name : AllCodecNames()) {
    CodecPtr codec;
    ASSERT_NO_THROW(codec = MakeCodec(name))
        << name << " is listed but not constructible with defaults";
    ASSERT_NE(codec, nullptr) << name;
    EXPECT_EQ(codec->width(), 32u) << name;
    EXPECT_FALSE(codec->name().empty()) << name;
    EXPECT_FALSE(codec->display_name().empty());
    EXPECT_EQ(codec->total_lines(),
              codec->width() + codec->redundant_lines());
  }
}

}  // namespace
}  // namespace abenc
