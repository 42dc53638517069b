// Tests for the fault-tolerant channel layer: protection codes, fault
// models, the resync beacon bound and the recovery state machine.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <random>
#include <vector>

#include "channel/fault_models.h"
#include "channel/upset.h"
#include "core/stream_evaluator.h"
#include "sim/program_library.h"
#include "trace/synthetic.h"

namespace abenc {
namespace {

std::vector<BusAccess> SequentialStream(std::size_t count) {
  SyntheticGenerator gen(1);
  return gen.Sequential(count, 0x400000, 4, 32).ToBusAccesses();
}

// The stream bench_error_resilience sweeps (gzip, multiplexed, 20000).
const std::vector<BusAccess>& GzipStream() {
  static const std::vector<BusAccess> stream = [] {
    const sim::ProgramTraces traces =
        sim::RunBenchmark(sim::FindBenchmarkProgram("gzip"));
    auto accesses = traces.multiplexed.ToBusAccesses();
    accesses.resize(std::min<std::size_t>(accesses.size(), 20000));
    return accesses;
  }();
  return stream;
}

// The codes whose decoder carries history across cycles.
const std::vector<std::string> kHistoryCodes = {
    "t0",     "t0-bi",  "dual-t0",      "dual-t0-bi",
    "offset", "inc-xor", "working-zone", "mtf"};

ChannelConfig Configure(const std::string& code,
                        Protection protection = Protection::kNone,
                        std::size_t resync_period = 0) {
  ChannelConfig config;
  config.codec_name = code;
  config.protection = protection;
  config.resync_period = resync_period;
  return config;
}

// ---------------------------------------------------------------- SECDED

TEST(SecdedTest, GeometryMatchesHamming7264) {
  // 64 message bits need 7 Hamming bits + overall parity: the industry
  // (72,64) layout. The 33-bit T0 frame (32 data + INC) needs 6 + 1.
  EXPECT_EQ(SecdedCode(64, 0).check_lines(), 8u);
  EXPECT_EQ(SecdedCode(32, 1).check_lines(), 7u);
  EXPECT_EQ(SecdedCode(32, 0).check_lines(), 7u);
  // A width-1 bus: Hamming(3,1) + overall parity, the classic (4,1) code.
  EXPECT_EQ(SecdedCode(1, 0).check_lines(), 3u);
}

TEST(SecdedTest, CleanFramesPassUntouched) {
  const SecdedCode code(32, 2);
  for (Word seed : {Word{0}, Word{0x12345678}, ~Word{0}, Word{0xA5A5A5A5}}) {
    BusState coded{seed & LowMask(32), seed & LowMask(2)};
    Word check = code.ComputeCheck(coded);
    const BusState original = coded;
    EXPECT_EQ(code.CorrectInPlace(coded, check), SecdedOutcome::kClean);
    EXPECT_EQ(coded, original);
  }
}

TEST(SecdedTest, CorrectsEverySingleLineError) {
  const SecdedCode code(32, 1);
  const BusState original{0xDEADBEEF & LowMask(32), 1};
  const Word original_check = code.ComputeCheck(original);

  for (unsigned i = 0; i < 33; ++i) {  // every message line
    BusState coded = original;
    Word check = original_check;
    if (i < 32) {
      coded.lines ^= Word{1} << i;
    } else {
      coded.redundant ^= Word{1} << (i - 32);
    }
    EXPECT_EQ(code.CorrectInPlace(coded, check),
              SecdedOutcome::kCorrectedMessage)
        << "message line " << i;
    EXPECT_EQ(coded, original) << "message line " << i;
  }
  for (unsigned j = 0; j < code.check_lines(); ++j) {  // every check line
    BusState coded = original;
    Word check = original_check ^ (Word{1} << j);
    EXPECT_EQ(code.CorrectInPlace(coded, check),
              SecdedOutcome::kCorrectedCheck)
        << "check line " << j;
    EXPECT_EQ(coded, original) << "check line " << j;
    EXPECT_EQ(check, original_check) << "check line " << j;
  }
}

TEST(SecdedTest, DetectsDoubleErrors) {
  const SecdedCode code(32, 1);
  const BusState original{0x00400128, 0};
  const Word original_check = code.ComputeCheck(original);
  for (auto [a, b] : {std::pair{0u, 1u}, std::pair{3u, 17u},
                      std::pair{31u, 32u}, std::pair{10u, 30u}}) {
    BusState coded = original;
    Word check = original_check;
    auto flip = [&](unsigned i) {
      if (i < 32) {
        coded.lines ^= Word{1} << i;
      } else {
        coded.redundant ^= Word{1} << (i - 32);
      }
    };
    flip(a);
    flip(b);
    EXPECT_EQ(code.CorrectInPlace(coded, check), SecdedOutcome::kDoubleError)
        << "lines " << a << "," << b;
  }
}

TEST(SecdedTest, ParityLineSeesEveryOddFlip) {
  const BusState state{0x00400128, 1};
  const Word parity = ComputeParity(state, 32, 1);
  for (unsigned i = 0; i < 32; ++i) {
    BusState flipped = state;
    flipped.lines ^= Word{1} << i;
    EXPECT_NE(ComputeParity(flipped, 32, 1), parity);
  }
  BusState flipped = state;
  flipped.redundant ^= 1;
  EXPECT_NE(ComputeParity(flipped, 32, 1), parity);
}

// ---------------------------------------------------------- fault models

TEST(FaultModelTest, FlipLineCoversAllSegments) {
  const ChannelGeometry geometry{4, 2, 3};
  ChannelFrame frame;
  FlipLine(frame, geometry, 2);   // data
  FlipLine(frame, geometry, 5);   // redundant
  FlipLine(frame, geometry, 7);   // check
  EXPECT_EQ(frame.coded.lines, Word{1} << 2);
  EXPECT_EQ(frame.coded.redundant, Word{1} << 1);
  EXPECT_EQ(frame.check, Word{1} << 1);
  EXPECT_THROW(FlipLine(frame, geometry, 9), std::out_of_range);
}

TEST(FaultModelTest, StuckAtOverridesInsteadOfFlipping) {
  const ChannelGeometry geometry{8, 0, 0};
  StuckAtFault stuck(3, true, 10, 20);
  ChannelFrame frame;
  stuck.Apply(frame, 5, geometry);
  EXPECT_EQ(frame.coded.lines, 0u);  // outside the active range
  stuck.Apply(frame, 10, geometry);
  EXPECT_EQ(frame.coded.lines, Word{1} << 3);
  stuck.Apply(frame, 15, geometry);  // idempotent, not a flip
  EXPECT_EQ(frame.coded.lines, Word{1} << 3);
}

TEST(FaultModelTest, BurstFlipsAdjacentLinesForItsDuration) {
  const ChannelGeometry geometry{8, 0, 0};
  BurstFault burst(10, 2, 3, 2);
  ChannelFrame frame;
  burst.Apply(frame, 9, geometry);
  EXPECT_EQ(frame.coded.lines, 0u);
  burst.Apply(frame, 10, geometry);
  EXPECT_EQ(frame.coded.lines, Word{0b11100});
  burst.Apply(frame, 11, geometry);
  EXPECT_EQ(frame.coded.lines, 0u);  // flipped back: second cycle of burst
  burst.Apply(frame, 12, geometry);
  EXPECT_EQ(frame.coded.lines, 0u);  // burst over
}

TEST(FaultModelTest, NoiseIsDeterministicPerSeed) {
  const auto stream = SequentialStream(400);
  auto run = [&](std::uint64_t seed) {
    BusChannel channel(Configure("t0", Protection::kSecded));
    channel.AddFault(std::make_unique<RandomNoiseFault>(0.01, seed));
    return RunStream(channel, stream);
  };
  const ChannelRunResult a = run(9);
  const ChannelRunResult b = run(9);
  EXPECT_EQ(a.corrupted_addresses, b.corrupted_addresses);
  EXPECT_EQ(a.counters.detected_errors, b.counters.detected_errors);
  EXPECT_GT(a.counters.detected_errors, 0u);
}

// The flip probabilities the noise model's integer draws are checked
// at: rare, the soak's and the channel tests' rates, even odds, the
// largest probability below 1, and 1.
const double kNoiseProbabilities[] = {1e-9, 0.001, 0.01, 0.5,
                                      std::nextafter(1.0, 0.0), 1.0};

TEST(FaultModelTest, NoiseFlipsMatchAUniformRealCoinPerLine) {
  // A 40-line frame (32 data + 1 redundant + 7 SECDED check lines), the
  // same seed on both sides: the model must flip exactly the lines a
  // uniform_real_distribution coin below p flips, cycle after cycle.
  const ChannelGeometry geometry{32, 1, 7};
  constexpr std::size_t kCycles = 100000;
  constexpr std::uint64_t kSeed = 0x5EED;
  for (const double p : kNoiseProbabilities) {
    SCOPED_TRACE(p);
    RandomNoiseFault model(p, kSeed);
    std::mt19937_64 rng(kSeed);
    std::uniform_real_distribution<double> coin(0.0, 1.0);
    std::size_t flips = 0;
    for (std::size_t cycle = 0; cycle < kCycles; ++cycle) {
      ChannelFrame got;
      model.Apply(got, cycle, geometry);
      ChannelFrame want;
      for (unsigned line = 0; line < geometry.total_lines(); ++line) {
        if (coin(rng) < p) {
          FlipLine(want, geometry, line);
          ++flips;
        }
      }
      ASSERT_EQ(got, want) << "cycle " << cycle;
    }
    if (p >= 0.001) {
      EXPECT_GT(flips, 0u);
    }
    if (p == 1.0) {
      EXPECT_EQ(flips, kCycles * geometry.total_lines());
    }
  }
}

TEST(FaultModelTest, NoiseAtZeroNeverFlips) {
  // At p = 0 the model returns before drawing (there is nothing a draw
  // could change); every frame passes untouched.
  const ChannelGeometry geometry{32, 1, 7};
  RandomNoiseFault model(0.0, 1);
  for (std::size_t cycle = 0; cycle < 100000; ++cycle) {
    ChannelFrame frame;
    frame.coded = BusState{0xDEADBEEF, 1};
    frame.check = 0x55;
    const ChannelFrame before = frame;
    model.Apply(frame, cycle, geometry);
    ASSERT_EQ(frame, before) << "cycle " << cycle;
  }
}

// An engine that always returns one word, so the library's own coin can
// be read for a chosen draw.
struct FixedWordEngine {
  using result_type = std::uint64_t;
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() {
    return std::numeric_limits<result_type>::max();
  }
  result_type operator()() { return word; }
  result_type word = 0;
};

TEST(FaultModelTest, NoiseFlipBoundIsExactAroundTheThreshold) {
  // Every word within 3000 of the bound, on both sides, flips exactly
  // when uniform_real_distribution fed that word draws below p.
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  for (const double p : kNoiseProbabilities) {
    SCOPED_TRACE(p);
    const std::uint64_t bound = NoiseFlipBound(p);
    const std::uint64_t from = bound < 3000 ? 0 : bound - 3000;
    const std::uint64_t to = bound > kMax - 3000 ? kMax : bound + 3000;
    std::uniform_real_distribution<double> coin(0.0, 1.0);
    FixedWordEngine engine;
    for (std::uint64_t x = from;; ++x) {
      engine.word = x;
      ASSERT_EQ(x <= bound, coin(engine) < p) << "word " << x;
      if (x == to) break;
    }
  }
  EXPECT_EQ(NoiseFlipBound(1.0), kMax);
  EXPECT_EQ(NoiseFlipBound(1e-300), 0u);  // only word 0 draws below p
}

TEST(FaultModelTest, RejectsInvalidParameters) {
  EXPECT_THROW(BurstFault(0, 0, 0), ChannelConfigError);
  EXPECT_THROW(RandomNoiseFault(1.5, 1), ChannelConfigError);
  EXPECT_THROW(RandomNoiseFault(-0.1, 1), ChannelConfigError);
}

// -------------------------------------------------------------- channel

TEST(ChannelTest, TransparentWithoutFaultsUnderEveryProtection) {
  SyntheticGenerator gen(7);
  const auto stream = gen.MultiplexedLike(2500, 0.4, 4, 32).ToBusAccesses();
  for (const std::string& code : AllCodecNames()) {
    for (Protection protection :
         {Protection::kNone, Protection::kParity, Protection::kSecded}) {
      for (std::size_t period : {std::size_t{0}, std::size_t{64}}) {
        BusChannel channel(Configure(code, protection, period));
        const ChannelRunResult run = RunStream(channel, stream);
        EXPECT_EQ(run.corrupted_addresses, 0u)
            << code << "/" << ProtectionName(protection) << "/K=" << period;
        EXPECT_EQ(run.counters.detected_errors, 0u)
            << code << "/" << ProtectionName(protection) << "/K=" << period;
      }
    }
  }
}

TEST(ChannelTest, UnprotectedChannelMatchesEvaluatorTransitions) {
  // The channel charges for exactly what Evaluate() counts when no check
  // lines are added — protected/unprotected comparisons share a baseline.
  SyntheticGenerator gen(8);
  const auto stream = gen.InstructionLike(3000, 6.0, 4, 32).ToBusAccesses();
  for (const char* code : {"binary", "t0", "dual-t0-bi", "mtf"}) {
    BusChannel channel(Configure(code));
    const ChannelRunResult run = RunStream(channel, stream);
    auto codec = MakeCodec(code, CodecOptions{});
    const EvalResult eval = Evaluate(*codec, stream);
    EXPECT_EQ(run.wire_transitions, eval.transitions) << code;
  }
}

TEST(ChannelTest, CheckLinesCostTransitions) {
  const auto stream = GzipStream();
  auto transitions = [&](Protection protection) {
    BusChannel channel(Configure("t0", protection));
    return RunStream(channel, stream).wire_transitions;
  };
  const long long bare = transitions(Protection::kNone);
  const long long parity = transitions(Protection::kParity);
  const long long secded = transitions(Protection::kSecded);
  EXPECT_GT(parity, bare);
  EXPECT_GT(secded, parity);
}

TEST(ChannelTest, BeaconFiresEveryKCyclesAndCostsVerbatimFrames) {
  const auto stream = SequentialStream(1000);
  BusChannel beaconless(Configure("t0"));
  BusChannel beaconed(Configure("t0", Protection::kNone, 100));
  const ChannelRunResult base = RunStream(beaconless, stream);
  const ChannelRunResult with = RunStream(beaconed, stream);
  EXPECT_EQ(base.counters.resync_beacons, 0u);
  EXPECT_EQ(with.counters.resync_beacons, 9u);  // cycles 100, 200, ... 900
  // Every beacon breaks a frozen T0 run with one verbatim frame.
  EXPECT_GT(with.wire_transitions, base.wire_transitions);
  EXPECT_EQ(with.corrupted_addresses, 0u);
}

TEST(ChannelTest, RejectsInvalidConfigurations) {
  EXPECT_THROW(BusChannel(Configure("no-such-code")), CodecConfigError);
  ChannelConfig no_detector = Configure("t0", Protection::kNone);
  no_detector.enable_recovery = true;
  EXPECT_THROW(BusChannel{no_detector}, ChannelConfigError);
  ChannelConfig zero_window = Configure("t0", Protection::kParity);
  zero_window.enable_recovery = true;
  zero_window.detection_window = 0;
  EXPECT_THROW(BusChannel{zero_window}, ChannelConfigError);
}

// --------------------------------------------- acceptance: SECDED sweep

TEST(ChannelAcceptanceTest, SecdedZeroCorruptionUnderResilienceSweep) {
  // The exact single-upset sweep bench_error_resilience runs (gzip
  // multiplexed stream, 60 random injections per code, seed 77, plus the
  // fixed probe grid) must decode with ZERO corrupted addresses once
  // SECDED check lines ride along — for every code.
  const auto& stream = GzipStream();
  for (const std::string& code : UpsetStudyCodecNames()) {
    const ChannelConfig config = Configure(code, Protection::kSecded);
    EXPECT_EQ(AverageUpsetCorruption(config, stream, 60, 77), 0.0) << code;
    for (std::size_t cycle = 500; cycle < stream.size();
         cycle += stream.size() / 12) {
      const UpsetResult r = MeasureSingleUpset(config, stream, cycle, 5);
      EXPECT_EQ(r.corrupted_addresses, 0u)
          << code << " @" << cycle;
      EXPECT_EQ(r.recovery_cycles, 0u) << code << " @" << cycle;
    }
  }
}

// -------------------------------------------- acceptance: beacon bound

TEST(ChannelAcceptanceTest, BeaconBoundsEveryHistoryCodeRecovery) {
  // With a period-K beacon and no ECC, the worst-case recovery span of
  // every history code is <= K: whatever decoder state an upset poisons,
  // the next beacon wipes it at both ends.
  constexpr std::size_t kPeriod = 64;
  const auto& gzip = GzipStream();
  std::vector<BusAccess> probe(gzip.begin(),
                               gzip.begin() + std::min<std::size_t>(
                                                  gzip.size(), 8000));
  for (const std::string& code : kHistoryCodes) {
    const ChannelConfig config =
        Configure(code, Protection::kNone, kPeriod);
    const unsigned lines = BusChannel(config).total_lines();
    for (std::size_t cycle :
         {std::size_t{0}, std::size_t{1}, kPeriod - 1, kPeriod, kPeriod + 1,
          std::size_t{2500}, probe.size() - 1}) {
      for (unsigned line : {0u, 12u, lines - 1}) {
        const UpsetResult r = MeasureSingleUpset(config, probe, cycle, line);
        EXPECT_LE(r.recovery_cycles, kPeriod)
            << code << " cycle " << cycle << " line " << line;
      }
    }
  }
}

TEST(ChannelAcceptanceTest, BeaconBoundHoldsOnPureSequentialWorstCase) {
  // An unbounded in-sequence run is the adversarial stream: T0 never
  // sends a natural binary resync, so a poisoned launch address smears
  // to the end of the stream — unless the beacon caps it.
  const auto stream = SequentialStream(2000);
  const UpsetResult unbounded =
      MeasureSingleUpset(Configure("t0"), stream, 0, 0);
  EXPECT_GT(unbounded.recovery_cycles, 1900u);

  for (const std::string& code : kHistoryCodes) {
    const UpsetResult bounded = MeasureSingleUpset(
        Configure(code, Protection::kNone, 64), stream, 0, 0);
    EXPECT_LE(bounded.recovery_cycles, 64u) << code;
  }
}

// ------------------------------------------------ recovery state machine

TEST(RecoveryTest, FallsBackAfterRepeatedDetectionsAndRepromotes) {
  ChannelConfig config = Configure("t0", Protection::kParity);
  config.enable_recovery = true;
  config.fallback_threshold = 3;
  config.detection_window = 64;
  config.clean_window = 100;

  BusChannel channel(config);
  for (std::size_t cycle : {100, 110, 120}) {
    channel.AddFault(std::make_unique<SingleUpsetFault>(cycle, 0));
  }
  const auto stream = SequentialStream(600);
  const ChannelRunResult run = RunStream(channel, stream);

  // Three detections inside the window demote the channel after cycle
  // 120; 100 clean cycles later it promotes back and stays there.
  EXPECT_EQ(run.counters.detected_errors, 3u);
  EXPECT_EQ(run.counters.fallbacks, 1u);
  EXPECT_EQ(run.counters.repromotions, 1u);
  EXPECT_EQ(run.counters.cycles_in_fallback, 100u);
  EXPECT_EQ(run.final_mode, ChannelMode::kActive);
  // All three upsets hit frozen T0 cycles: parity saw them, the decoder
  // never did, and both code switches were loss-free.
  EXPECT_EQ(run.corrupted_addresses, 0u);
}

TEST(RecoveryTest, DemotionBoundsAnAccumulatingDecoderSmear) {
  // The offset code accumulates decode errors forever (no resync
  // channel). Without recovery one upset poisons the rest of the stream;
  // with parity + recovery the machine demotes to binary on detection,
  // so exactly the struck cycle decodes wrong.
  const auto stream = SequentialStream(1500);
  const UpsetResult bare =
      MeasureSingleUpset(Configure("offset"), stream, 100, 3);
  EXPECT_GT(bare.corrupted_addresses, 1000u);

  ChannelConfig config = Configure("offset", Protection::kParity);
  config.enable_recovery = true;
  config.fallback_threshold = 1;
  config.detection_window = 16;
  config.clean_window = 50;
  BusChannel channel(config);
  channel.AddFault(std::make_unique<SingleUpsetFault>(100, 3));
  const ChannelRunResult run = RunStream(channel, stream);
  EXPECT_EQ(run.corrupted_addresses, 1u);
  EXPECT_EQ(run.counters.fallbacks, 1u);
  EXPECT_EQ(run.counters.repromotions, 1u);
  EXPECT_EQ(run.final_mode, ChannelMode::kActive);
}

TEST(RecoveryTest, StuckLineKeepsSecdedChannelCleanAndFlagged) {
  // A stuck-at-0 driver corrupts every cycle that drives the line high.
  // SECDED repairs each one; the counters expose the failing line's
  // activity so a deployment can alarm long before a second fault lands.
  const auto stream = SequentialStream(800);
  BusChannel bare(Configure("binary"));
  bare.AddFault(std::make_unique<StuckAtFault>(3, false));
  EXPECT_GT(RunStream(bare, stream).corrupted_addresses, 100u);

  BusChannel protected_channel(Configure("binary", Protection::kSecded));
  protected_channel.AddFault(std::make_unique<StuckAtFault>(3, false));
  const ChannelRunResult run = RunStream(protected_channel, stream);
  EXPECT_EQ(run.corrupted_addresses, 0u);
  EXPECT_GT(run.counters.corrected_errors, 100u);
  EXPECT_EQ(run.counters.corrected_errors, run.counters.detected_errors);
}

TEST(RecoveryTest, ParityMissesEvenBurstsSecdedDetectsThem) {
  // The parity line's blind spot: an even-width burst flips parity back.
  // SECDED sees the same burst as a double error — detected, though not
  // correctable. This is the quantitative case for the wider layer.
  const auto stream = SequentialStream(300);
  BusChannel parity(Configure("binary", Protection::kParity));
  parity.AddFault(std::make_unique<BurstFault>(50, 2, 2));
  const ChannelRunResult parity_run = RunStream(parity, stream);
  EXPECT_EQ(parity_run.counters.detected_errors, 0u);
  EXPECT_EQ(parity_run.corrupted_addresses, 1u);

  BusChannel secded(Configure("binary", Protection::kSecded));
  secded.AddFault(std::make_unique<BurstFault>(50, 2, 2));
  const ChannelRunResult secded_run = RunStream(secded, stream);
  EXPECT_EQ(secded_run.counters.uncorrectable_errors, 1u);
  EXPECT_EQ(secded_run.corrupted_addresses, 1u);
}

}  // namespace
}  // namespace abenc
