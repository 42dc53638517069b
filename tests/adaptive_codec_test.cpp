// Tests of the adaptive meta-codec (src/core/adaptive_codec.h): the
// decision-replay contract between the two ends, the window-boundary
// edge cases (switch on the first word after reset, back-to-back
// switches, window length 1), reset-point survival, per-backend
// identity of the segmented block paths, and — the acceptance tests of
// the new decision-replay verify property — two injected protocol bugs
// (stale window statistics, delayed ESC) each caught at an exact index.
#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <string>
#include <vector>

#include "core/adaptive_codec.h"
#include "core/codec_factory.h"
#include "core/simd/kernel_dispatch.h"
#include "core/stream_evaluator.h"
#include "verify/properties.h"
#include "verify/stream_gen.h"

namespace abenc {
namespace {

using verify::AllStreamFamilies;
using verify::CheckDecisionReplay;
using verify::CheckKernelDispatchIdentity;
using verify::CheckUniversalProperty;
using verify::CodecFactoryFn;
using verify::DefaultCodecFactory;
using verify::FamilyName;
using verify::GenerateStream;
using verify::StreamFamily;
using verify::UniversalPropertyNames;

AdaptiveCodec* AsAdaptive(const CodecPtr& codec) {
  auto* adaptive = dynamic_cast<AdaptiveCodec*>(codec.get());
  EXPECT_NE(adaptive, nullptr);
  return adaptive;
}

// A factory hook that installs encoder-end sabotage on every adaptive
// instance it builds (the property constructs both its encoder and its
// decoder through this; sabotage only bites on the encoding end).
CodecFactoryFn SabotagedAdaptiveFactory(const AdaptiveSabotage& sabotage) {
  return [sabotage](const std::string& name,
                    const CodecOptions& options) -> CodecPtr {
    CodecPtr codec = MakeCodec(name, options);
    if (name == "adaptive") {
      static_cast<AdaptiveCodec*>(codec.get())->SetSabotage(sabotage);
    }
    return codec;
  };
}

std::vector<BusAccess> SequentialThenRandom(std::size_t sequential,
                                            std::size_t random) {
  std::vector<BusAccess> stream;
  for (std::size_t i = 0; i < sequential; ++i) {
    stream.push_back({0x400000 + 4 * static_cast<Word>(i), true});
  }
  const auto tail = GenerateStream(StreamFamily::kUniformRandom, 0xBADCAB1E,
                                   random, 32, 4);
  stream.insert(stream.end(), tail.begin(), tail.end());
  return stream;
}

// ---------------------------------------------------------------------------
// Construction and configuration
// ---------------------------------------------------------------------------

TEST(AdaptiveConfigTest, RejectsBadConfigurations) {
  CodecOptions options;
  options.adaptive_window = 0;
  EXPECT_THROW(MakeCodec("adaptive", options), CodecConfigError);

  options = CodecOptions{};
  options.adaptive_hysteresis = -1;
  EXPECT_THROW(MakeCodec("adaptive", options), CodecConfigError);

  options = CodecOptions{};
  options.adaptive_palette = "binary,adaptive";  // no recursion
  EXPECT_THROW(MakeCodec("adaptive", options), CodecConfigError);

  options = CodecOptions{};
  options.adaptive_palette = "binary,no-such-code";
  EXPECT_THROW(MakeCodec("adaptive", options), CodecConfigError);

  options = CodecOptions{};
  options.adaptive_palette = "binary,,t0";  // empty entry
  EXPECT_THROW(MakeCodec("adaptive", options), CodecConfigError);
}

TEST(AdaptiveConfigTest, ParsePaletteSplitsAndDefaults) {
  EXPECT_EQ(AdaptiveCodec::ParsePalette(""), AdaptiveCodec::DefaultPalette());
  EXPECT_EQ(AdaptiveCodec::ParsePalette("t0"),
            (std::vector<std::string>{"t0"}));
  EXPECT_EQ(AdaptiveCodec::ParsePalette("t0,gray,binary"),
            (std::vector<std::string>{"t0", "gray", "binary"}));
}

TEST(AdaptiveConfigTest, GeometryCoversTheWidestMember) {
  const CodecPtr codec = MakeCodec("adaptive");
  // Default palette members use at most one redundant line, and the
  // ESC overload needs at least one.
  EXPECT_EQ(codec->redundant_lines(), 1u);
  EXPECT_EQ(codec->name(), "adaptive");

  CodecOptions options;
  options.adaptive_palette = "binary,gray";  // irredundant members only
  const CodecPtr irredundant = MakeCodec("adaptive", options);
  EXPECT_EQ(irredundant->redundant_lines(), 1u)
      << "the ESC line must exist even over irredundant members";
}

// ---------------------------------------------------------------------------
// Decision behavior
// ---------------------------------------------------------------------------

TEST(AdaptiveDecisionTest, PicksTheMeasuredWinnerPerRegime) {
  CodecOptions options;
  options.adaptive_window = 32;
  options.adaptive_hysteresis = 0;
  const CodecPtr codec = MakeCodec("adaptive", options);
  AdaptiveCodec* adaptive = AsAdaptive(codec);

  // A long strongly-sequential instruction phase: the measured costs
  // must drive the active member onto a T0-family code.
  for (std::size_t i = 0; i < 256; ++i) {
    codec->Encode(0x400000 + 4 * static_cast<Word>(i), true);
  }
  EXPECT_EQ(adaptive->active_encoder_member(), "t0");
  EXPECT_FALSE(adaptive->encoder_decisions().empty());

  // The windowed statistics describe the stream, not the code.
  const AdaptiveWindowStats& stats = adaptive->encoder_window_stats();
  EXPECT_EQ(stats.accesses, options.adaptive_window);
  EXPECT_GT(stats.in_sequence_percent(), 99.0);
  EXPECT_EQ(stats.stride_histogram.count(4), 1u);
}

TEST(AdaptiveDecisionTest, HysteresisHoldsTheActiveMember) {
  // With an enormous hysteresis no cost difference justifies a switch:
  // the decision log must be all holds and the wire all member-coded.
  CodecOptions options;
  options.adaptive_window = 8;
  options.adaptive_hysteresis = 1 << 30;
  const CodecPtr codec = MakeCodec("adaptive", options);
  AdaptiveCodec* adaptive = AsAdaptive(codec);
  const auto stream = SequentialThenRandom(64, 64);
  for (const BusAccess& access : stream) {
    codec->Encode(access.address, access.sel);
  }
  ASSERT_FALSE(adaptive->encoder_decisions().empty());
  for (const AdaptiveDecision& decision : adaptive->encoder_decisions()) {
    EXPECT_FALSE(decision.switched);
    EXPECT_EQ(decision.chosen, 0);
  }
  EXPECT_EQ(adaptive->active_encoder_member(), "binary");
}

// ---------------------------------------------------------------------------
// Window-boundary edge cases
// ---------------------------------------------------------------------------

// Window length 1 makes every access after the first a boundary; this
// stream forces a switch at access 1 — the first word after reset that
// can legally switch — and another at access 2 (adjacent windows).
TEST(AdaptiveBoundaryTest, SwitchesOnTheFirstWordAfterResetAndBackToBack) {
  CodecOptions options;
  options.adaptive_window = 1;
  options.adaptive_hysteresis = 0;
  const CodecPtr codec = MakeCodec("adaptive", options);
  AdaptiveCodec* adaptive = AsAdaptive(codec);

  // 0xFFFFFFFF costs 32 through binary but 1 through Gray, so the very
  // first boundary switches binary -> gray; 0x55555555 then costs 32
  // through Gray but 16 through binary, switching straight back.
  const std::vector<BusAccess> stream = {
      {0xFFFFFFFF, true}, {0x55555555, true}, {0x0F0F0F0F, true},
      {0x12345678, true}, {0x9ABCDEF0, true}};
  std::vector<BusState> wire;
  for (const BusAccess& access : stream) {
    wire.push_back(codec->Encode(access.address, access.sel));
    EXPECT_EQ(codec->Decode(wire.back(), access.sel), access.address);
  }

  const auto& decisions = adaptive->encoder_decisions();
  ASSERT_GE(decisions.size(), 2u);
  EXPECT_EQ(decisions[0].access_index, 1u);
  EXPECT_TRUE(decisions[0].switched);
  EXPECT_EQ(decisions[0].chosen, 1) << "expected the switch to gray";
  EXPECT_EQ(decisions[1].access_index, 2u);
  EXPECT_TRUE(decisions[1].switched) << "expected back-to-back switches";
  EXPECT_EQ(decisions[1].chosen, 0) << "expected the switch back to binary";

  // Switch words go out verbatim with ESC asserted.
  EXPECT_EQ(wire[1].redundant & 1, 1u);
  EXPECT_EQ(wire[1].lines, 0x55555555u);
  EXPECT_EQ(wire[2].redundant & 1, 1u);
  EXPECT_EQ(wire[2].lines, 0x0F0F0F0Fu);

  // Reset() forgets it all: the replay takes the same decisions.
  codec->Reset();
  EXPECT_EQ(adaptive->encoder_decisions().size(), 0u);
  EXPECT_EQ(adaptive->active_encoder_member(), "binary");
  for (std::size_t i = 0; i < stream.size(); ++i) {
    EXPECT_EQ(codec->Encode(stream[i].address, stream[i].sel), wire[i])
        << "replay diverged at access " << i;
  }
}

TEST(AdaptiveBoundaryTest, EveryUniversalPropertyHoldsAtTinyWindows) {
  for (const std::size_t window : {std::size_t{1}, std::size_t{5}}) {
    CodecOptions options;
    options.adaptive_window = window;
    options.adaptive_hysteresis = 0;
    for (const std::string& property : UniversalPropertyNames()) {
      for (StreamFamily family : AllStreamFamilies()) {
        const auto stream = GenerateStream(family, 0xAB5EED, 300, 32, 4);
        const auto failure = CheckUniversalProperty(
            property, "adaptive", options, stream, DefaultCodecFactory());
        EXPECT_FALSE(failure.has_value())
            << property << " at window " << window << " on "
            << FamilyName(family) << " — "
            << (failure ? failure->message : "");
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Reset points: the service layer's eviction contract
// ---------------------------------------------------------------------------

TEST(AdaptiveResetTest, SurvivesEvaluateWithResets) {
  CodecOptions options;
  options.adaptive_window = 8;
  options.adaptive_hysteresis = 0;
  const auto stream = SequentialThenRandom(100, 100);
  // Reset points at a window boundary, mid-window, and one access after
  // a boundary — including one that lands right after a likely switch.
  const std::vector<std::size_t> reset_points = {8, 37, 64, 65, 150};

  const EvalResult with_resets = EvaluateWithSchedule(
      "adaptive", options, stream, {}, reset_points, 4, true);

  // The oracle builds a fresh instance per segment; one instance Reset()
  // at every cut (Evaluate resets it first) must agree exactly: Reset()
  // is indistinguishable from a new codec.
  const CodecPtr reused = MakeCodec("adaptive", options);
  long long transitions = 0;
  int peak = 0;
  std::size_t begin = 0;
  std::vector<std::size_t> cuts = reset_points;
  cuts.push_back(stream.size());
  for (const std::size_t cut : cuts) {
    if (cut <= begin || cut > stream.size()) continue;
    const EvalResult segment = Evaluate(
        *reused,
        std::span<const BusAccess>(stream.data() + begin, cut - begin), 4,
        true);
    transitions += segment.transitions;
    peak = std::max(peak, segment.peak_transitions);
    begin = cut;
  }
  EXPECT_EQ(with_resets.transitions, transitions);
  EXPECT_EQ(with_resets.peak_transitions, peak);
  EXPECT_EQ(with_resets.stream_length, stream.size());
}

// ---------------------------------------------------------------------------
// Decision replay across kernel backends and batched paths
// ---------------------------------------------------------------------------

TEST(AdaptiveKernelTest, DecisionReplayHoldsOnEveryBackend) {
  CodecOptions options;
  options.adaptive_window = 16;
  options.adaptive_hysteresis = 0;
  for (const simd::KernelBackend backend : simd::SupportedBackends()) {
    const simd::ScopedKernelBackend scoped(backend);
    for (StreamFamily family : AllStreamFamilies()) {
      const auto stream = GenerateStream(family, 0xFACADE, 400, 32, 4);
      const auto failure = CheckDecisionReplay("adaptive", options, stream,
                                               DefaultCodecFactory());
      EXPECT_FALSE(failure.has_value())
          << simd::BackendName(backend) << ":" << FamilyName(family) << " — "
          << (failure ? failure->message : "");
    }
  }
}

TEST(AdaptiveKernelTest, BatchedPathsAreBitIdenticalAtWindowBoundaries) {
  // Chunk sizes collide with window boundaries in every alignment; the
  // kernel-dispatch-identity property sweeps backends and the columnar
  // path on top.
  for (const std::size_t window :
       {std::size_t{1}, std::size_t{3}, std::size_t{64}}) {
    CodecOptions options;
    options.adaptive_window = window;
    options.adaptive_hysteresis = 0;
    const auto stream =
        GenerateStream(StreamFamily::kMultiplexed, 0x5EED, 500, 32, 4);
    const auto failure = CheckKernelDispatchIdentity(
        "adaptive", options, stream, DefaultCodecFactory());
    EXPECT_FALSE(failure.has_value())
        << "window " << window << " — " << (failure ? failure->message : "");
  }
}

// ---------------------------------------------------------------------------
// Sabotage acceptance: the decision-replay property catches injected
// protocol bugs at exact indices
// ---------------------------------------------------------------------------

TEST(AdaptiveSabotageTest, CleanCodecPassesTheSameSetup) {
  CodecOptions options;
  options.adaptive_window = 8;
  options.adaptive_hysteresis = 0;
  const auto stream = SequentialThenRandom(8, 56);
  const auto failure = CheckDecisionReplay("adaptive", options, stream,
                                           SabotagedAdaptiveFactory({}));
  EXPECT_FALSE(failure.has_value()) << (failure ? failure->message : "");
}

TEST(AdaptiveSabotageTest, StaleWindowStatisticsCaughtAtExactBoundary) {
  // Windows of 8: window 0 is sequential, window 1 random, so their
  // cost vectors differ. The sabotaged encoder decides boundary k from
  // window k-2's statistics; boundary 1 (access 8) still agrees (there
  // is no older window), so the first divergence is pinned to boundary
  // 2 — access 16 — where the encoder uses window 0's costs and the
  // decoder window 1's.
  CodecOptions options;
  options.adaptive_window = 8;
  options.adaptive_hysteresis = 0;
  const auto stream = SequentialThenRandom(8, 56);

  AdaptiveSabotage sabotage;
  sabotage.stale_stats = true;
  const auto failure = CheckDecisionReplay(
      "adaptive", options, stream, SabotagedAdaptiveFactory(sabotage));
  ASSERT_TRUE(failure.has_value());
  EXPECT_EQ(failure->index, 16u);
  EXPECT_NE(failure->message.find("decision logs diverge"),
            std::string::npos)
      << failure->message;
}

TEST(AdaptiveSabotageTest, DelayedEscapeBitCaughtAtTheSwitchIndex) {
  // Eight strongly-sequential accesses make T0 the measured winner of
  // window 0, so the clean codec switches exactly at access 8. The
  // sabotaged encoder sends that switch word with ESC low (and raises
  // it one access late): round-trip still passes — the decoder replays
  // the decision without reading ESC — but the wire no longer
  // witnesses the switch, and the property pins it to access 8.
  CodecOptions options;
  options.adaptive_window = 8;
  options.adaptive_hysteresis = 0;
  const auto stream = SequentialThenRandom(8, 56);

  // Pin the assumption: the clean encoder switches at access 8.
  const CodecPtr clean = MakeCodec("adaptive", options);
  for (const BusAccess& access : stream) {
    clean->Encode(access.address, access.sel);
  }
  const auto& decisions = AsAdaptive(clean)->encoder_decisions();
  ASSERT_FALSE(decisions.empty());
  ASSERT_EQ(decisions[0].access_index, 8u);
  ASSERT_TRUE(decisions[0].switched);

  AdaptiveSabotage sabotage;
  sabotage.delayed_esc = true;
  const auto failure = CheckDecisionReplay(
      "adaptive", options, stream, SabotagedAdaptiveFactory(sabotage));
  ASSERT_TRUE(failure.has_value());
  EXPECT_EQ(failure->index, 8u);
  EXPECT_NE(failure->message.find("ESC"), std::string::npos)
      << failure->message;
}

}  // namespace
}  // namespace abenc
