// Validation of the Markov-model closed forms against Monte-Carlo runs
// of the real codecs on matching synthetic streams.
#include <gtest/gtest.h>

#include <random>

#include "analysis/markov.h"
#include "core/codec_factory.h"
#include "core/stream_evaluator.h"
#include "trace/synthetic.h"

namespace abenc {
namespace {

constexpr unsigned kWidth = 32;
constexpr Word kStride = 4;

double MonteCarlo(const std::string& code, double p) {
  CodecOptions options;
  options.width = kWidth;
  options.stride = kStride;
  auto codec = MakeCodec(code, options);
  SyntheticGenerator gen(0xFEED + static_cast<std::uint64_t>(p * 100));
  // Jumps uniform over all stride-aligned 32-bit addresses, matching the
  // model's assumption.
  const AddressTrace trace =
      gen.Markov(300000, p, kStride, kWidth, Word{1} << kWidth);
  return Evaluate(*codec, trace.ToBusAccesses(), kStride, false)
      .average_transitions_per_cycle();
}

class MarkovModelTest
    : public ::testing::TestWithParam<std::tuple<std::string, double>> {};

TEST_P(MarkovModelTest, ClosedFormMatchesMonteCarlo) {
  const auto& [code, p] = GetParam();
  const double predicted =
      MarkovExpectedTransitions(code, kWidth, kStride, p);
  const double measured = MonteCarlo(code, p);
  // Exact forms get 2% Monte-Carlo slack; an approximate form (see
  // analysis/markov.h) is bounded at 6%.
  const double tolerance =
      (MarkovModelIsExact(code) ? 0.02 : 0.06) * predicted + 0.05;
  EXPECT_NEAR(measured, predicted, tolerance) << code << " at p = " << p;
}

INSTANTIATE_TEST_SUITE_P(
    CodesAndProbabilities, MarkovModelTest,
    ::testing::Combine(::testing::ValuesIn(MarkovModelCodes()),
                       ::testing::Values(0.0, 0.3, 0.6, 0.9)),
    [](const auto& info) {
      std::string name = std::get<0>(info.param);
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name + "_p" +
             std::to_string(static_cast<int>(std::get<1>(info.param) * 10));
    });

TEST(MarkovModelTest, EndpointsMatchTable1) {
  // p = 0 reproduces the out-of-sequence row restricted to the varying
  // lines; p = 1 the in-sequence row.
  EXPECT_DOUBLE_EQ(MarkovExpectedTransitions("binary", 32, 4, 0.0), 15.0);
  EXPECT_NEAR(MarkovExpectedTransitions("binary", 32, 4, 1.0), 2.0, 1e-6);
  EXPECT_DOUBLE_EQ(MarkovExpectedTransitions("t0", 32, 4, 1.0), 0.0);
  EXPECT_DOUBLE_EQ(MarkovExpectedTransitions("inc-xor", 32, 4, 1.0), 0.0);
}

TEST(MarkovModelTest, T0AlwaysBeatsBinaryStrictlyInsideTheAxis) {
  for (double p = 0.05; p < 1.0; p += 0.05) {
    EXPECT_LT(MarkovExpectedTransitions("t0", 32, 4, p),
              MarkovExpectedTransitions("binary", 32, 4, p))
        << p;
  }
}

TEST(MarkovModelTest, CrossoverT0VsBusInvertIsFoundAndConfirmed) {
  const double p_cross =
      MarkovCrossoverProbability("t0", "bus-invert", 32, 4);
  ASSERT_GT(p_cross, 0.0);
  ASSERT_LT(p_cross, 1.0);
  // Below the crossover bus-invert wins, above it T0 wins.
  EXPECT_GT(MarkovExpectedTransitions("t0", 32, 4, p_cross - 0.05),
            MarkovExpectedTransitions("bus-invert", 32, 4, p_cross - 0.05));
  EXPECT_LT(MarkovExpectedTransitions("t0", 32, 4, p_cross + 0.05),
            MarkovExpectedTransitions("bus-invert", 32, 4, p_cross + 0.05));
}

TEST(MarkovModelTest, NoCrossoverWhenOneCodeDominates) {
  // INC-XOR is T0 minus the INC line: it dominates T0 everywhere.
  EXPECT_LT(MarkovCrossoverProbability("inc-xor", "t0", 32, 4), 0.0);
}

// ---------------------------------------------------------------------------
// Multiplexed-bus model
// ---------------------------------------------------------------------------

// An ideal multiplexed stream matching the model's assumptions exactly:
// data slots uniform over the aligned space, instruction chain Markov(p)
// surviving across data slots.
std::vector<BusAccess> IdealMuxedStream(std::size_t count, double p,
                                        double data_ratio,
                                        std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  std::uniform_int_distribution<Word> slot(0, (Word{1} << (kWidth - 2)) - 1);
  std::vector<BusAccess> stream;
  stream.reserve(count);
  Word instr = 0x400000;
  for (std::size_t i = 0; i < count; ++i) {
    if (unit(rng) < data_ratio) {
      stream.push_back({slot(rng) * kStride, false});
    } else {
      if (unit(rng) < p) {
        instr = (instr + kStride) & LowMask(kWidth);
      } else {
        Word next = slot(rng) * kStride;
        if (next == ((instr + kStride) & LowMask(kWidth))) next += kStride;
        instr = next & LowMask(kWidth);
      }
      stream.push_back({instr, true});
    }
  }
  return stream;
}

class MuxedModelTest
    : public ::testing::TestWithParam<std::tuple<std::string, double, double>> {
};

TEST_P(MuxedModelTest, ClosedFormMatchesMonteCarlo) {
  const auto& [code, p, ratio] = GetParam();
  CodecOptions options;
  options.width = kWidth;
  options.stride = kStride;
  auto codec = MakeCodec(code, options);
  const auto stream = IdealMuxedStream(
      300000, p, ratio,
      static_cast<std::uint64_t>(p * 100 + ratio * 7 + 11));
  const double measured =
      Evaluate(*codec, stream, kStride, false).average_transitions_per_cycle();
  const double predicted =
      MarkovMuxedExpectedTransitions(code, kWidth, kStride, p, ratio);
  // binary/t0/dual-t0 forms are exact; the dual-t0-bi INCV coupling is
  // approximated (documented in markov.h).
  const double tolerance =
      (code == "dual-t0-bi" ? 0.08 : 0.03) * predicted + 0.08;
  EXPECT_NEAR(measured, predicted, tolerance)
      << code << " p=" << p << " r=" << ratio;
}

INSTANTIATE_TEST_SUITE_P(
    CodesAndMixes, MuxedModelTest,
    ::testing::Combine(::testing::Values("binary", "t0", "dual-t0",
                                         "dual-t0-bi"),
                       ::testing::Values(0.6, 0.9),
                       ::testing::Values(0.1, 0.35)),
    [](const auto& info) {
      std::string name = std::get<0>(info.param);
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name + "_p" +
             std::to_string(static_cast<int>(std::get<1>(info.param) * 10)) +
             "_r" +
             std::to_string(static_cast<int>(std::get<2>(info.param) * 100));
    });

TEST(MuxedModelTest, ExplainsTheTable7Ordering) {
  // At high sequentiality and a realistic data ratio the model predicts
  // dual codes >> T0 on the multiplexed bus — Table 7's headline, and
  // the dependence on the data ratio that flips T0_BI vs dual T0.
  const double dense_t0 =
      MarkovMuxedExpectedTransitions("t0", 32, 4, 0.9, 0.35);
  const double dense_dual =
      MarkovMuxedExpectedTransitions("dual-t0", 32, 4, 0.9, 0.35);
  EXPECT_LT(dense_dual, dense_t0);
  // With very rare data slots the two converge.
  const double sparse_t0 =
      MarkovMuxedExpectedTransitions("t0", 32, 4, 0.9, 0.02);
  const double sparse_dual =
      MarkovMuxedExpectedTransitions("dual-t0", 32, 4, 0.9, 0.02);
  EXPECT_NEAR(sparse_t0, sparse_dual, 0.1 * sparse_t0 + 0.3);
}

TEST(MarkovModelTest, RejectsBadArguments) {
  EXPECT_THROW(MarkovExpectedTransitions("binary", 0, 4, 0.5),
               std::invalid_argument);
  EXPECT_THROW(MarkovExpectedTransitions("binary", 32, 3, 0.5),
               std::invalid_argument);
  EXPECT_THROW(MarkovExpectedTransitions("binary", 32, 4, 1.5),
               std::invalid_argument);
  EXPECT_THROW(MarkovExpectedTransitions("beach", 32, 4, 0.5),
               std::invalid_argument);
}

}  // namespace
}  // namespace abenc
