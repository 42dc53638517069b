// Batched/per-word bit-identity tests: EvaluateBatched() must reproduce
// Evaluate()'s EvalResult exactly for every factory codec at every chunk
// geometry, including the degenerate streams. This is the test-suite
// half of the EncodeBatch contract (the verify suite's batched-identity
// property is the fuzzable half). The stream accumulator's segment fold
// — what a service session drives — must equal EvaluateWithSchedule's
// fold of per-word segments, and the schedule oracle refuses malformed
// schedules.
#include <algorithm>
#include <cmath>
#include <cstddef>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/codec_factory.h"
#include "core/codec_kernel.h"
#include "core/stream_evaluator.h"
#include "core/trace_source.h"
#include "report/table.h"
#include "trace/trace.h"
#include "trace/trace_source.h"

namespace abenc {
namespace {

// Deterministic mixed stream: sequential runs (exercising the T0/inc-xor
// prediction hits), jumps, and SEL toggles — the shapes that make the
// stateful kernels carry state across chunk boundaries.
std::vector<BusAccess> MixedStream(std::size_t length) {
  std::vector<BusAccess> stream;
  stream.reserve(length);
  Word address = 0x1000;
  Word lcg = 12345;
  for (std::size_t i = 0; i < length; ++i) {
    lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
    if ((lcg >> 60) < 11) {
      address += 4;  // sequential most of the time, like a fetch stream
    } else {
      address = (lcg >> 16) & 0xFFFFFFFFull;
    }
    stream.push_back({address, ((lcg >> 8) & 3) != 0});
  }
  return stream;
}

void ExpectIdenticalResults(const EvalResult& per_word,
                            const EvalResult& batched,
                            const std::string& context) {
  EXPECT_EQ(per_word.transitions, batched.transitions) << context;
  EXPECT_EQ(per_word.peak_transitions, batched.peak_transitions) << context;
  EXPECT_EQ(per_word.stream_length, batched.stream_length) << context;
  // Exact double equality on purpose: both paths must run the same
  // arithmetic, not merely land close — that is what keeps the committed
  // baseline JSON byte-identical.
  EXPECT_EQ(per_word.in_sequence_percent, batched.in_sequence_percent)
      << context;
  EXPECT_EQ(per_word.per_line, batched.per_line) << context;
}

TEST(EvaluateBatchedTest, MatchesPerWordForAllFactoryCodecs) {
  const std::vector<BusAccess> stream = MixedStream(1000);
  const CodecOptions options;
  const std::size_t chunk_sizes[] = {1, 7, 64, stream.size(),
                                     stream.size() + 1};
  for (const std::string& name : AllCodecNames()) {
    const auto reference_codec = MakeCodec(name, options);
    const EvalResult reference = Evaluate(*reference_codec, stream, 4, true);
    for (const std::size_t chunk : chunk_sizes) {
      auto codec = MakeCodec(name, options);
      const EvalResult batched =
          EvaluateBatched(*codec, SpanTraceSource(stream), 4, true, chunk);
      ExpectIdenticalResults(
          reference, batched,
          name + " at chunk size " + std::to_string(chunk));
    }
  }
}

TEST(EvaluateBatchedTest, EmptyStreamMatchesPerWord) {
  const std::vector<BusAccess> stream;
  const CodecOptions options;
  for (const std::string& name : AllCodecNames()) {
    const auto reference_codec = MakeCodec(name, options);
    const EvalResult reference = Evaluate(*reference_codec, stream, 4, true);
    auto codec = MakeCodec(name, options);
    const EvalResult batched =
        EvaluateBatched(*codec, SpanTraceSource(stream), 4, true);
    ExpectIdenticalResults(reference, batched, name + " on the empty stream");
    EXPECT_EQ(batched.stream_length, 0u);
    EXPECT_EQ(batched.transitions, 0);
  }
}

TEST(EvaluateBatchedTest, SingleWordMatchesPerWord) {
  const std::vector<BusAccess> stream = {{0xDEADBEEF, true}};
  const CodecOptions options;
  for (const std::string& name : AllCodecNames()) {
    const auto reference_codec = MakeCodec(name, options);
    const EvalResult reference = Evaluate(*reference_codec, stream, 4, true);
    auto codec = MakeCodec(name, options);
    const EvalResult batched =
        EvaluateBatched(*codec, SpanTraceSource(stream), 4, true);
    ExpectIdenticalResults(reference, batched, name + " on one word");
  }
}

TEST(EvaluateBatchedTest, DefaultChunkSizeIsTheLibraryDefault) {
  // chunk_size = 0 must behave exactly like kDefaultChunkSize, and a
  // stream longer than one default chunk must still match per-word.
  const std::vector<BusAccess> stream = MixedStream(kDefaultChunkSize + 37);
  const SpanTraceSource source(stream);
  const CodecOptions options;
  auto reference_codec = MakeCodec("gray", options);
  const EvalResult reference = Evaluate(*reference_codec, stream, 4, true);
  auto implicit_codec = MakeCodec("gray", options);
  const EvalResult implicit =
      EvaluateBatched(*implicit_codec, source, 4, true, 0);
  auto explicit_codec = MakeCodec("gray", options);
  const EvalResult explicitly =
      EvaluateBatched(*explicit_codec, source, 4, true, kDefaultChunkSize);
  ExpectIdenticalResults(reference, implicit, "gray, implicit default chunk");
  ExpectIdenticalResults(reference, explicitly,
                         "gray, explicit default chunk");
}

TEST(EvaluateBatchedTest, TraceSourceOverloadMatchesSpanOverload) {
  const std::vector<BusAccess> stream = MixedStream(500);
  AddressTrace trace;
  for (const BusAccess& access : stream) {
    trace.Append(access.address,
                 access.sel ? AccessKind::kInstruction : AccessKind::kData);
  }
  const auto source = MakeTraceSource(std::move(trace));
  ASSERT_EQ(source->size(), stream.size());

  const CodecOptions options;
  for (const std::string& name : {std::string("t0"), std::string("offset"),
                                  std::string("bus-invert")}) {
    auto span_codec = MakeCodec(name, options);
    const EvalResult from_span =
        EvaluateBatched(*span_codec, SpanTraceSource(stream), 4, true, 128);
    auto source_codec = MakeCodec(name, options);
    const EvalResult from_source =
        EvaluateBatched(*source_codec, *source, 4, true, 128);
    ExpectIdenticalResults(from_span, from_source, name + " via TraceSource");
  }
}

TEST(EvaluateBatchedTest, VerifyDecodeCatchesBrokenCodecOnBatchedPath) {
  // The deferred per-chunk decode check must still fire, with the same
  // exception type the per-word path throws.
  class LyingCodec final : public Codec {
   public:
    explicit LyingCodec(unsigned width) : Codec(width) {}
    std::string name() const override { return "lying"; }
    std::string display_name() const override { return "Lying"; }
    unsigned redundant_lines() const override { return 0; }
    BusState Encode(Word address, bool) override {
      return BusState{Mask(address), 0};
    }
    Word Decode(const BusState& bus, bool) override {
      return Mask(bus.lines + 1);  // off by one
    }
    void Reset() override {}
  };
  LyingCodec codec(16);
  const std::vector<BusAccess> stream = {{1, true}, {2, true}};
  const SpanTraceSource source(stream);
  EXPECT_THROW(EvaluateBatched(codec, source, 4, true), std::logic_error);
  EXPECT_NO_THROW(EvaluateBatched(codec, source, 4, false));
}

// Drives BlockTransitionAccumulator the way a service session does: a
// fresh codec per segment, StartSegment() at every switch, and blocks of
// BusAccess rows cut on a global `chunk` grid (so a switch may land on a
// chunk edge or mid-chunk).
EvalResult AccumulateSchedule(const std::string& initial,
                              std::span<const BusAccess> stream,
                              std::span<const CodecSwitchPoint> switches,
                              std::size_t chunk) {
  CodecPtr codec = MakeCodec(initial);
  BlockTransitionAccumulator accumulator(codec->width(),
                                         codec->redundant_lines(), 4);
  std::vector<BusState> states(chunk);
  std::size_t at = 0;
  for (std::size_t next = 0; next <= switches.size(); ++next) {
    if (next > 0) {
      codec = MakeCodec(switches[next - 1].codec_name);
      accumulator.StartSegment(codec->width(), codec->redundant_lines());
    }
    const std::size_t end =
        next == switches.size()
            ? stream.size()
            : std::min(switches[next].index, stream.size());
    while (at < end) {
      const std::size_t n = std::min(chunk - at % chunk, end - at);
      const AccessView view = AccessView::Rows(stream.data() + at);
      const std::span<const BusState> block(states.data(), n);
      codec->EncodeBatch(view, n, states);
      accumulator.Consume(block, view.addresses);
      at += n;
    }
  }
  return accumulator.Result();
}

TEST(BlockTransitionAccumulatorTest, SegmentsFoldLikePerWordEvaluate) {
  const std::vector<BusAccess> stream = MixedStream(300);
  const std::size_t chunk = 64;
  struct Case {
    const char* what;
    std::string initial;
    std::vector<CodecSwitchPoint> switches;
  };
  const Case cases[] = {
      {"no switch", "t0", {}},
      {"at index 0", "t0", {{0, "bus-invert"}}},
      {"at a chunk edge", "t0", {{128, "bus-invert"}}},
      {"back-to-back, empty", "t0", {{100, "bus-invert"}, {100, "gray"}}},
      {"back-to-back, one", "t0", {{70, "bus-invert"}, {71, "gray"}}},
      {"t0 -> bus-invert -> gray", "t0", {{90, "bus-invert"}, {200, "gray"}}},
      {"gray -> t0 widens", "gray", {{50, "t0"}}},
      {"past the end", "t0", {{1000, "gray"}}},
  };
  for (const Case& c : cases) {
    const EvalResult want = EvaluateWithSchedule(c.initial, CodecOptions{},
                                                 stream, c.switches, {}, 4);
    ExpectIdenticalResults(
        want, AccumulateSchedule(c.initial, stream, c.switches, chunk),
        c.what);
  }
}

TEST(BlockTransitionAccumulatorTest, SweepOnlyConsumeMatchesPerWordCounts) {
  // The one-argument Consume is the bare transition sweep: per-word
  // transition counts, and no addresses, hence no in-sequence hits.
  const std::vector<BusAccess> stream = MixedStream(200);
  const CodecPtr codec = MakeCodec("t0");
  std::vector<BusState> states(stream.size());
  codec->EncodeBatch(AccessView::Rows(stream.data()), stream.size(), states);
  BlockTransitionAccumulator sweep(codec->width(), codec->redundant_lines());
  sweep.Consume(states);
  const EvalResult want = Evaluate(*MakeCodec("t0"), stream);
  const EvalResult got = sweep.Result();
  EXPECT_EQ(got.transitions, want.transitions);
  EXPECT_EQ(got.peak_transitions, want.peak_transitions);
  EXPECT_EQ(got.per_line, want.per_line);
  EXPECT_EQ(got.stream_length, stream.size());
  EXPECT_EQ(got.in_sequence_percent, 0.0);
}

TEST(EvaluateWithScheduleTest, ResetPointsCutIndependentSegments) {
  const std::vector<BusAccess> stream = MixedStream(200);
  const std::span<const BusAccess> all(stream);
  const std::size_t cuts[] = {0, 50, 100, 200};
  EvalResult folded;
  for (std::size_t k = 1; k < std::size(cuts); ++k) {
    const auto piece = all.subspan(cuts[k - 1], cuts[k] - cuts[k - 1]);
    FoldSegment(folded, Evaluate(*MakeCodec("t0"), piece));
  }
  const std::size_t resets[] = {50, 100};
  const EvalResult got =
      EvaluateWithSchedule("t0", CodecOptions{}, stream, {}, resets);
  EXPECT_EQ(got.transitions, folded.transitions);
  EXPECT_EQ(got.peak_transitions, folded.peak_transitions);
  EXPECT_EQ(got.per_line, folded.per_line);
  EXPECT_EQ(got.stream_length, stream.size());
  EXPECT_EQ(got.in_sequence_percent, InSequencePercent(stream, 4, 32));

  // Repeated points, a point at 0 and one past the end are no-ops.
  const std::size_t noisy[] = {0, 50, 50, 100, 1000};
  EXPECT_EQ(EvaluateWithSchedule("t0", CodecOptions{}, stream, {}, noisy)
                .transitions,
            got.transitions);
}

TEST(EvaluateWithScheduleTest, RefusesOutOfOrderResetPoints) {
  // Regression: {100, 50} used to fold as {100} alone, silently
  // dropping the 50. A replayed STATS reply must never be mis-folded.
  const std::vector<BusAccess> stream = MixedStream(200);
  const std::size_t resets[] = {100, 50};
  EXPECT_THROW(EvaluateWithSchedule("t0", CodecOptions{}, stream, {}, resets),
               std::invalid_argument);
}

TEST(EvaluateWithScheduleTest, RefusesOutOfOrderSwitches) {
  const std::vector<BusAccess> stream = MixedStream(200);
  const std::vector<CodecSwitchPoint> switches = {{100, "gray"},
                                                  {50, "bus-invert"}};
  EXPECT_THROW(
      EvaluateWithSchedule("t0", CodecOptions{}, stream, switches, {}),
      std::invalid_argument);
}

TEST(SavingsPercentTest, ZeroReferenceWithCodedTransitionsIsNaN) {
  // Regression: this used to return 0.0, silently reporting "no change"
  // for a codec that *added* transitions against a zero-transition
  // reference stream. NaN is the "no meaningful percentage" sentinel.
  EXPECT_TRUE(std::isnan(SavingsPercent(5, 0)));
  // Both zero genuinely means nothing changed.
  EXPECT_DOUBLE_EQ(SavingsPercent(0, 0), 0.0);
  // The table renderer prints the sentinel as "n/a", never "nan%".
  EXPECT_EQ(FormatPercent(SavingsPercent(5, 0)), "n/a");
}

TEST(SavingsPercentTest, ZeroReferenceSurfacesInEvaluatedStream) {
  // A constant-address stream has zero binary transitions, but inc-xor
  // still toggles on the first word (it transmits b XOR the stride
  // prediction); the savings column for that cell must be NaN.
  const std::vector<BusAccess> stream(16, BusAccess{0, true});
  const CodecOptions options;
  auto binary = MakeCodec("binary", options);
  const EvalResult reference = Evaluate(*binary, stream, 4, true);
  ASSERT_EQ(reference.transitions, 0);
  auto inc_xor = MakeCodec("inc-xor", options);
  const EvalResult coded = Evaluate(*inc_xor, stream, 4, true);
  ASSERT_GT(coded.transitions, 0);
  EXPECT_TRUE(
      std::isnan(SavingsPercent(coded.transitions, reference.transitions)));
}

}  // namespace
}  // namespace abenc
