// Tests of the src/verify conformance subsystem: the universal invariant
// suite over every factory codec, the differential oracles (gate
// netlists, Markov closed forms, parallel engine), the ddmin stream
// minimizer, and — the property the whole harness exists for — that a
// deliberately injected encode bug is caught and its printed
// `--seed`/`--property` reproducer replays the failure deterministically.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "analysis/markov.h"
#include "gate/circuits.h"
#include "verify/minimize.h"
#include "verify/oracles.h"
#include "verify/properties.h"
#include "verify/runner.h"
#include "verify/stream_gen.h"

namespace abenc::verify {
namespace {

// ---------------------------------------------------------------------------
// Stream generators
// ---------------------------------------------------------------------------

TEST(StreamGenTest, SameSeedSameStream) {
  for (StreamFamily family : AllStreamFamilies()) {
    const auto a = GenerateStream(family, 42, 300, 32, 4);
    const auto b = GenerateStream(family, 42, 300, 32, 4);
    EXPECT_EQ(a, b) << FamilyName(family);
    EXPECT_EQ(a.size(), 300u) << FamilyName(family);
  }
}

TEST(StreamGenTest, DifferentSeedsDiverge) {
  for (StreamFamily family : AllStreamFamilies()) {
    const auto a = GenerateStream(family, 1, 300, 32, 4);
    const auto b = GenerateStream(family, 2, 300, 32, 4);
    EXPECT_NE(a, b) << FamilyName(family);
  }
}

TEST(StreamGenTest, FamilyNamesRoundTrip) {
  for (StreamFamily family : AllStreamFamilies()) {
    const auto parsed = ParseFamily(FamilyName(family));
    ASSERT_TRUE(parsed.has_value()) << FamilyName(family);
    EXPECT_EQ(*parsed, family);
  }
  EXPECT_FALSE(ParseFamily("no-such-family").has_value());
}

TEST(StreamGenTest, BoundaryFamilyHitsTheMaskEdges) {
  const auto stream =
      GenerateStream(StreamFamily::kBoundary, 3, 2000, 16, 4);
  bool saw_zero = false;
  bool saw_all_ones = false;
  for (const BusAccess& access : stream) {
    if (access.address == 0) saw_zero = true;
    if (access.address == LowMask(16)) saw_all_ones = true;
  }
  EXPECT_TRUE(saw_zero);
  EXPECT_TRUE(saw_all_ones);
}

// ---------------------------------------------------------------------------
// Universal invariant suite over every factory codec
// ---------------------------------------------------------------------------

class UniversalSuiteTest : public ::testing::TestWithParam<std::string> {};

TEST_P(UniversalSuiteTest, EveryPropertyHoldsOnEveryFamily) {
  const std::string codec = GetParam();
  CodecOptions options;  // 32-bit bus, stride 4
  const CodecFactoryFn factory = DefaultCodecFactory();
  for (const std::string& property : UniversalPropertyNames()) {
    for (StreamFamily family : AllStreamFamilies()) {
      const auto stream = GenerateStream(family, 0xC0FFEE, 400, 32, 4);
      const auto failure =
          CheckUniversalProperty(property, codec, options, stream, factory);
      EXPECT_FALSE(failure.has_value())
          << property << ":" << codec << ":" << FamilyName(family) << " — "
          << (failure ? failure->message : "");
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllCodecs, UniversalSuiteTest,
                         ::testing::ValuesIn(AllCodecNames()),
                         [](const auto& info) {
                           std::string name = info.param;
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

// ---------------------------------------------------------------------------
// Differential oracles
// ---------------------------------------------------------------------------

class GateOracleTest : public ::testing::TestWithParam<std::string> {};

TEST_P(GateOracleTest, BehaviouralCodecMatchesItsNetlist) {
  CodecOptions options;
  options.width = 16;  // keeps the netlists small; widths are swept in
  options.stride = 4;  // gate_test, equivalence is what matters here
  const auto stream =
      GenerateStream(StreamFamily::kMultiplexed, 99, 300, 16, 4);
  const auto failure = CheckGateEquivalence(GetParam(), options, stream,
                                            DefaultCodecFactory());
  EXPECT_FALSE(failure.has_value())
      << (failure ? failure->message : "");
}

INSTANTIATE_TEST_SUITE_P(GateCodecs, GateOracleTest,
                         ::testing::ValuesIn(gate::CircuitCodecNames()),
                         [](const auto& info) {
                           std::string name = info.param;
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

TEST(MarkovOracleTest, ClosedFormsAgreeWithMonteCarlo) {
  for (const std::string& codec : MarkovModelCodes()) {
    const auto failure = CheckMarkovOracle(codec, 32, 4, 0.6, 0xFEED, 60000,
                                           DefaultCodecFactory());
    EXPECT_FALSE(failure.has_value())
        << codec << " — " << (failure ? failure->message : "");
  }
}

TEST(ParallelOracleTest, ParallelEngineIsBitIdentical) {
  const auto failure = CheckParallelIdentity(AllCodecNames(), 5, 200, 32, 4);
  EXPECT_FALSE(failure.has_value()) << (failure ? failure->message : "");
}

// ---------------------------------------------------------------------------
// Minimizer
// ---------------------------------------------------------------------------

TEST(MinimizeTest, ShrinksToTheSingleTriggeringAccess) {
  std::vector<BusAccess> stream;
  for (Word a = 0; a < 200; ++a) stream.push_back({a, true});
  stream[137].address = 0xDEAD;
  const auto contains_trigger = [](std::span<const BusAccess> candidate) {
    for (const BusAccess& access : candidate) {
      if (access.address == 0xDEAD) return true;
    }
    return false;
  };
  const auto minimized = MinimizeStream(stream, contains_trigger);
  ASSERT_EQ(minimized.size(), 1u);
  EXPECT_EQ(minimized[0].address, 0xDEADu);
}

TEST(MinimizeTest, ResultStillFailsAndNeverGrows) {
  std::vector<BusAccess> stream;
  for (Word a = 0; a < 64; ++a) stream.push_back({a * 4, true});
  // Fails while at least 10 accesses survive: minimal size is exactly 10.
  const auto at_least_ten = [](std::span<const BusAccess> candidate) {
    return candidate.size() >= 10;
  };
  const auto minimized = MinimizeStream(stream, at_least_ten);
  EXPECT_EQ(minimized.size(), 10u);
  EXPECT_TRUE(at_least_ten(minimized));
}

TEST(MinimizeTest, ProbeBudgetBoundsTheWork) {
  std::vector<BusAccess> stream;
  for (Word a = 0; a < 1000; ++a) stream.push_back({a, true});
  std::size_t probes = 0;
  const auto counting = [&](std::span<const BusAccess>) {
    ++probes;
    return true;  // everything "fails": worst case for the shrinker
  };
  MinimizeStream(stream, counting, 50);
  EXPECT_LE(probes, 50u);
}

// ---------------------------------------------------------------------------
// Runner: enumeration, clean run, and the injected-bug acceptance test
// ---------------------------------------------------------------------------

TEST(RunnerTest, EnumeratesTheFullPropertyMatrix) {
  VerifyConfig config;
  const VerifyRunner runner(config);
  const auto names = runner.PropertyNames();
  // Universal properties x |codecs| x 6 families, gate oracles x 6
  // families, one markov oracle per modelled code, parallel-identity.
  const std::size_t expected =
      UniversalPropertyNames().size() * AllCodecNames().size() * 6 +
      gate::CircuitCodecNames().size() * 6 + MarkovModelCodes().size() + 1;
  EXPECT_EQ(names.size(), expected);
}

TEST(RunnerTest, FilterSelectsInstances) {
  VerifyConfig config;
  config.property_filter = "round-trip:t0:";
  const VerifyRunner runner(config);
  const auto names = runner.PropertyNames();
  EXPECT_EQ(names.size(), 6u);  // one per stream family
  for (const std::string& name : names) {
    EXPECT_EQ(name.find("round-trip:t0:"), 0u) << name;
  }
}

TEST(RunnerTest, CleanLibraryPassesTheWholeSuite) {
  VerifyConfig config;
  config.iterations = 2;
  config.stream_length = 256;
  const VerifyRunner runner(config);
  const auto failures = runner.Run();
  for (const VerifyFailure& failure : failures) {
    ADD_FAILURE() << VerifyRunner::FormatFailure(failure);
  }
  EXPECT_TRUE(failures.empty());
}

/// Forwards to a real codec but flips bus line 0 on every encode after
/// the first `corrupt_after` — the "deliberately injected encode bug" of
/// the acceptance criteria. Reset() restores the pristine state so the
/// bug is deterministic under replay.
class SabotagedCodec final : public Codec {
 public:
  SabotagedCodec(CodecPtr inner, std::size_t corrupt_after)
      : Codec(inner->width()),
        inner_(std::move(inner)),
        corrupt_after_(corrupt_after) {}

  std::string name() const override { return inner_->name(); }
  std::string display_name() const override {
    return inner_->display_name();
  }
  unsigned redundant_lines() const override {
    return inner_->redundant_lines();
  }

  BusState Encode(Word address, bool sel) override {
    BusState state = inner_->Encode(address, sel);
    if (++encodes_ > corrupt_after_) state.lines ^= 1;  // the bug
    return state;
  }

  Word Decode(const BusState& bus, bool sel) override {
    return inner_->Decode(bus, sel);
  }

  void Reset() override {
    inner_->Reset();
    encodes_ = 0;
  }

 private:
  CodecPtr inner_;
  std::size_t corrupt_after_;
  std::size_t encodes_ = 0;
};

CodecFactoryFn SabotagingFactory(std::string target, std::size_t after) {
  return [target, after](const std::string& name,
                         const CodecOptions& options) -> CodecPtr {
    CodecPtr real = MakeCodec(name, options);
    if (name == target) {
      return std::make_unique<SabotagedCodec>(std::move(real), after);
    }
    return real;
  };
}

TEST(InjectedBugTest, RoundTripCatchesACorruptedEncoder) {
  VerifyConfig config;
  config.iterations = 1;
  config.stream_length = 200;
  config.property_filter = "round-trip:binary:boundary";
  config.factory = SabotagingFactory("binary", 50);
  const VerifyRunner runner(config);

  const auto failures = runner.Run();
  ASSERT_EQ(failures.size(), 1u);
  const VerifyFailure& failure = failures[0];
  EXPECT_EQ(failure.property, "round-trip:binary:boundary");
  EXPECT_EQ(failure.index, 50u);  // the first corrupted encode

  // The printed reproducer is the documented one-liner.
  EXPECT_NE(failure.reproducer.find("--seed"), std::string::npos);
  EXPECT_NE(failure.reproducer.find("--property round-trip:binary:boundary"),
            std::string::npos);
  const std::string report = VerifyRunner::FormatFailure(failure);
  EXPECT_NE(report.find("reproduce: verify_runner --seed"),
            std::string::npos);
  EXPECT_NE(report.find("minimized stream"), std::string::npos);

  // The minimized stream is the smallest one that still reaches the
  // bug: corrupt_after accesses to arm it plus one to trip it.
  EXPECT_EQ(failure.minimized.size(), 51u);
}

TEST(InjectedBugTest, SeedAndPropertyReplayDeterministically) {
  VerifyConfig config;
  config.seed = 11;
  config.iterations = 3;
  config.stream_length = 200;
  config.property_filter = "round-trip:binary:";
  config.factory = SabotagingFactory("binary", 20);
  const auto first = VerifyRunner(config).Run();
  ASSERT_FALSE(first.empty());

  // Replay exactly as the reproducer line instructs: the reported seed,
  // one iteration, the failing property only.
  VerifyConfig replay;
  replay.seed = first[0].seed;
  replay.iterations = 1;
  replay.stream_length = config.stream_length;
  replay.property_filter = first[0].property;
  replay.factory = config.factory;
  const auto second = VerifyRunner(replay).Run();
  ASSERT_EQ(second.size(), 1u);
  EXPECT_EQ(second[0].property, first[0].property);
  EXPECT_EQ(second[0].index, first[0].index);
  EXPECT_EQ(second[0].message, first[0].message);
  EXPECT_EQ(second[0].minimized, first[0].minimized);
  EXPECT_EQ(second[0].reproducer, first[0].reproducer);
}

TEST(InjectedBugTest, GateOracleCatchesABehaviouralDrift) {
  // Sabotaging the *behavioural* codec makes it disagree with the
  // synthesised netlist: the differential oracle must notice even
  // though the sabotaged codec still round-trips through its own
  // decoder from the netlist's point of view.
  CodecOptions options;
  options.width = 16;
  const auto stream =
      GenerateStream(StreamFamily::kSequentialRuns, 21, 120, 16, 4);
  const auto failure = CheckGateEquivalence(
      "t0", options, stream, SabotagingFactory("t0", 30));
  ASSERT_TRUE(failure.has_value());
  EXPECT_EQ(failure->index, 30u);
}

TEST(InjectedBugTest, DecoderLockstepCatchesEncoderStatePeeking) {
  // A decoder that answers from state its own Encode() side wrote is
  // invisible to round-trip (encoder and decoder share the object
  // there) but breaks the moment the two ends live apart, as they do
  // on a real bus. Only decoder-lockstep separates the ends.
  class PeekingDecoderCodec final : public Codec {
   public:
    explicit PeekingDecoderCodec(CodecPtr inner)
        : Codec(inner->width()), inner_(std::move(inner)) {}
    std::string name() const override { return inner_->name(); }
    std::string display_name() const override {
      return inner_->display_name();
    }
    unsigned redundant_lines() const override {
      return inner_->redundant_lines();
    }
    BusState Encode(Word address, bool sel) override {
      last_encoded_ = address & LowMask(width());  // the leak
      return inner_->Encode(address, sel);
    }
    Word Decode(const BusState&, bool) override { return last_encoded_; }
    void Reset() override {
      inner_->Reset();
      last_encoded_ = 0;
    }

   private:
    CodecPtr inner_;
    Word last_encoded_ = 0;
  };

  const CodecFactoryFn factory = [](const std::string& name,
                                    const CodecOptions& options) -> CodecPtr {
    CodecPtr real = MakeCodec(name, options);
    if (name == "t0") {
      return std::make_unique<PeekingDecoderCodec>(std::move(real));
    }
    return real;
  };
  const auto stream =
      GenerateStream(StreamFamily::kSequentialRuns, 5, 100, 32, 4);

  // Round-trip is blind to the bug...
  EXPECT_FALSE(
      CheckRoundTrip("t0", CodecOptions{}, stream, factory).has_value());
  // ...decoder-lockstep is not.
  const auto failure =
      CheckDecoderLockstep("t0", CodecOptions{}, stream, factory);
  ASSERT_TRUE(failure.has_value());
  EXPECT_NE(failure->message.find("split decoder"), std::string::npos);
}

TEST(RunnerTest, TransitionAccountingCatchesMiscountedEvaluator) {
  // A codec whose Reset() does not restore state breaks reset-replay:
  // the suite distinguishes that from a round-trip bug.
  class LeakyResetCodec final : public Codec {
   public:
    explicit LeakyResetCodec(CodecPtr inner)
        : Codec(inner->width()), inner_(std::move(inner)) {}
    std::string name() const override { return inner_->name(); }
    std::string display_name() const override {
      return inner_->display_name();
    }
    unsigned redundant_lines() const override {
      return inner_->redundant_lines();
    }
    BusState Encode(Word address, bool sel) override {
      return inner_->Encode(address + offset_++, sel);
    }
    Word Decode(const BusState& bus, bool sel) override {
      return inner_->Decode(bus, sel);
    }
    void Reset() override { inner_->Reset(); }  // offset_ leaks on purpose

   private:
    CodecPtr inner_;
    Word offset_ = 0;
  };

  const CodecFactoryFn factory = [](const std::string& name,
                                    const CodecOptions& options) -> CodecPtr {
    CodecPtr real = MakeCodec(name, options);
    if (name == "binary") {
      return std::make_unique<LeakyResetCodec>(std::move(real));
    }
    return real;
  };
  const auto stream =
      GenerateStream(StreamFamily::kUniformRandom, 77, 100, 32, 4);
  const auto failure = CheckResetReplay("binary", CodecOptions{}, stream,
                                        factory);
  ASSERT_TRUE(failure.has_value());
  EXPECT_NE(failure->message.find("Reset()"), std::string::npos);
}

}  // namespace
}  // namespace abenc::verify
