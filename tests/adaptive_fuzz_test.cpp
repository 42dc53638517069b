// Randomized differential fuzzer for the adaptive meta-codec: every
// iteration draws a window length, hysteresis, palette and multi-phase
// stream mix from a SplitMix64 chain, then drives split encoder/decoder
// instances in lockstep against an independent reimplementation of the
// whole protocol — per-window member-codec oracles for the wire,
// shadow-counter oracles for the decisions — plus a randomly chunked
// EncodeBatch pass that must be bit-identical to the scalar wire.
//
// Deterministic and seed-replayable: a failure prints the exact
// environment-variable reproducer for its iteration and the
// `verify_runner --seed N` cross-check line. Runs under the asan and
// tsan CI jobs; ABENC_FUZZ_ITERATIONS overrides the default budget and
// ABENC_FUZZ_SEED replays one iteration.
#include <gtest/gtest.h>

#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include "core/adaptive_codec.h"
#include "core/codec_factory.h"
#include "core/transition_counter.h"
#include "verify/stream_gen.h"

namespace abenc {
namespace {

using verify::AllStreamFamilies;
using verify::GenerateStream;
using verify::MixSeed;
using verify::StreamFamily;

constexpr std::uint64_t kFuzzBaseSeed = 0xADA9717E;

// The robust member pool: every code here accepts any width in [8, 64]
// with the swept strides. (The zone/cluster/dictionary codes have their
// own shape parameters and their own tests.)
const char* const kMemberPool[] = {
    "binary", "gray",    "gray-word", "bus-invert", "t0",
    "t0-bi",  "dual-t0", "dual-t0-bi", "offset",    "inc-xor"};

struct FuzzCase {
  std::uint64_t seed = 0;
  unsigned width = 32;
  Word stride = 4;
  std::size_t window = 64;
  long long hysteresis = 0;
  std::vector<std::string> palette;
  std::vector<BusAccess> stream;

  std::string Describe() const {
    std::ostringstream out;
    out << "width " << width << ", stride " << stride << ", window "
        << window << ", hysteresis " << hysteresis << ", palette ";
    for (std::size_t i = 0; i < palette.size(); ++i) {
      out << (i == 0 ? "" : ",") << palette[i];
    }
    out << ", " << stream.size() << " accesses";
    return out.str();
  }

  std::string Reproducer(std::uint64_t iteration) const {
    std::ostringstream out;
    out << "reproduce: ABENC_FUZZ_SEED=" << iteration
        << " ./adaptive_fuzz_test; cross-check: verify_runner --seed "
        << seed << " --iterations 1 --length " << stream.size()
        << " --width " << width << " --stride " << stride
        << " --property decision-replay:adaptive:";
    return out.str();
  }
};

// One SplitMix64 chain per iteration; every draw is a pure function of
// the iteration seed, so single-iteration replay is exact.
class Chain {
 public:
  explicit Chain(std::uint64_t seed) : state_(seed) {}
  std::uint64_t Next() { return MixSeed(state_++); }
  std::uint64_t Below(std::uint64_t bound) { return Next() % bound; }

 private:
  std::uint64_t state_;
};

FuzzCase DrawCase(std::uint64_t iteration) {
  FuzzCase c;
  c.seed = MixSeed(kFuzzBaseSeed ^ iteration);
  Chain chain(c.seed);
  c.width = static_cast<unsigned>(8 + chain.Below(57));  // [8, 64]
  c.stride = Word{1} << chain.Below(4);                  // 1,2,4,8
  c.window = static_cast<std::size_t>(1 + chain.Below(97));
  c.hysteresis = static_cast<long long>(chain.Below(33));

  const std::size_t pool =
      sizeof(kMemberPool) / sizeof(kMemberPool[0]);
  const std::size_t members = 1 + chain.Below(5);
  std::vector<bool> taken(pool, false);
  for (std::size_t i = 0; i < members; ++i) {
    std::size_t pick = chain.Below(pool);
    while (taken[pick]) pick = (pick + 1) % pool;
    taken[pick] = true;
    c.palette.push_back(kMemberPool[pick]);
  }

  // A stream mix: several phases from different adversarial families,
  // so windows straddle genuine regime changes.
  const auto families = AllStreamFamilies();
  const std::size_t phases = 1 + chain.Below(4);
  for (std::size_t p = 0; p < phases; ++p) {
    const StreamFamily family = families[chain.Below(families.size())];
    const std::size_t length = 20 + chain.Below(81);
    const auto phase =
        GenerateStream(family, chain.Next(), length, c.width, c.stride);
    c.stream.insert(c.stream.end(), phase.begin(), phase.end());
  }
  return c;
}

CodecOptions OptionsFor(const FuzzCase& c) {
  CodecOptions options;
  options.width = c.width;
  options.stride = c.stride;
  options.adaptive_window = c.window;
  options.adaptive_hysteresis = c.hysteresis;
  std::string spec;
  for (std::size_t i = 0; i < c.palette.size(); ++i) {
    spec += (i == 0 ? "" : ",") + c.palette[i];
  }
  options.adaptive_palette = spec;
  return options;
}

// Independent protocol oracle: fresh member codecs for the wire, a
// second set shadowing every access behind TransitionCounters for the
// decisions. Shares no code with AdaptiveCodec beyond the members.
class ProtocolOracle {
 public:
  ProtocolOracle(const FuzzCase& c, const CodecOptions& options)
      : window_(c.window), hysteresis_(c.hysteresis), width_(c.width) {
    for (const std::string& name : c.palette) {
      wire_members_.push_back(MakeCodec(name, options));
      shadow_members_.push_back(MakeCodec(name, options));
      counters_.emplace_back(c.width,
                             shadow_members_.back()->redundant_lines());
    }
    window_base_.assign(c.palette.size(), 0);
  }

  // Returns the expected wire state for access t and folds the access
  // into the shadow oracle. `decisions` is the encoder log under test:
  // the oracle independently recomputes each entry and reports the
  // first mismatch through *error.
  BusState ExpectedWire(std::size_t t, Word address, bool sel,
                        const std::vector<AdaptiveDecision>& decisions,
                        std::string* error) {
    const Word b = address & LowMask(width_);
    bool switched = false;
    if (t != 0 && t % window_ == 0) {
      AdaptiveDecision expected;
      expected.access_index = t;
      expected.window = t / window_;
      for (std::size_t m = 0; m < counters_.size(); ++m) {
        expected.costs.push_back(counters_[m].total() - window_base_[m]);
      }
      std::size_t best = 0;
      for (std::size_t m = 1; m < expected.costs.size(); ++m) {
        if (expected.costs[m] < expected.costs[best]) best = m;
      }
      expected.switched =
          best != static_cast<std::size_t>(active_) &&
          expected.costs[static_cast<std::size_t>(active_)] -
                  expected.costs[best] >
              hysteresis_;
      if (expected.switched) active_ = static_cast<int>(best);
      expected.chosen = active_;

      if (next_decision_ >= decisions.size()) {
        *error = "missing decision at access " + std::to_string(t);
      } else if (!(decisions[next_decision_] == expected)) {
        *error = "decision at access " + std::to_string(t) +
                 " disagrees with the oracle's recomputation";
      }
      ++next_decision_;
      for (std::size_t m = 0; m < counters_.size(); ++m) {
        window_base_[m] = counters_[m].total();
      }
      switched = expected.switched;
    }

    BusState expected_wire;
    Codec& member = *wire_members_[static_cast<std::size_t>(active_)];
    if (switched) {
      expected_wire = BusState{b, 1};
      member.Reset();
      const BusState primed = member.Encode(b, sel);
      (void)member.Decode(primed, sel);
    } else {
      expected_wire = member.Encode(address, sel);
    }
    for (std::size_t m = 0; m < counters_.size(); ++m) {
      counters_[m].Observe(shadow_members_[m]->Encode(b, sel));
    }
    return expected_wire;
  }

  std::size_t decisions_consumed() const { return next_decision_; }

 private:
  std::size_t window_;
  long long hysteresis_;
  unsigned width_;
  std::vector<CodecPtr> wire_members_;
  std::vector<CodecPtr> shadow_members_;
  std::vector<TransitionCounter> counters_;
  std::vector<long long> window_base_;
  int active_ = 0;
  std::size_t next_decision_ = 0;
};

void RunIteration(std::uint64_t iteration) {
  const FuzzCase c = DrawCase(iteration);
  const CodecOptions options = OptionsFor(c);
  const std::string context = c.Describe() + "\n" + c.Reproducer(iteration);

  const CodecPtr encoder = MakeCodec("adaptive", options);
  const CodecPtr decoder = MakeCodec("adaptive", options);
  auto* enc = dynamic_cast<AdaptiveCodec*>(encoder.get());
  auto* dec = dynamic_cast<AdaptiveCodec*>(decoder.get());
  ASSERT_NE(enc, nullptr);
  ASSERT_NE(dec, nullptr);

  const Word mask = LowMask(c.width);
  std::vector<BusState> wire;
  wire.reserve(c.stream.size());
  for (std::size_t t = 0; t < c.stream.size(); ++t) {
    wire.push_back(encoder->Encode(c.stream[t].address, c.stream[t].sel));
    const Word decoded = decoder->Decode(wire.back(), c.stream[t].sel);
    ASSERT_EQ(decoded, c.stream[t].address & mask)
        << "lockstep decode diverged at access " << t << "\n" << context;
  }

  // Wire + decision oracle over the encoder's log.
  ProtocolOracle oracle(c, options);
  const auto& enc_log = enc->encoder_decisions();
  for (std::size_t t = 0; t < c.stream.size(); ++t) {
    std::string error;
    const BusState expected = oracle.ExpectedWire(
        t, c.stream[t].address, c.stream[t].sel, enc_log, &error);
    ASSERT_TRUE(error.empty()) << error << "\n" << context;
    ASSERT_EQ(wire[t], expected)
        << "wire diverged from the member-codec oracle at access " << t
        << "\n" << context;
  }
  ASSERT_EQ(oracle.decisions_consumed(), enc_log.size())
      << "encoder logged extra decisions\n" << context;

  // Both ends replayed identical decisions.
  ASSERT_EQ(dec->decoder_decisions().size(), enc_log.size()) << context;
  for (std::size_t j = 0; j < enc_log.size(); ++j) {
    ASSERT_TRUE(enc_log[j] == dec->decoder_decisions()[j])
        << "decision " << j << " (boundary access "
        << enc_log[j].access_index << ") diverged between the ends\n"
        << context;
  }

  // Randomly chunked EncodeBatch over BusAccess rows must reproduce the
  // scalar wire bit for bit — window boundaries land at every alignment
  // inside chunks.
  Chain chunk_chain(MixSeed(c.seed ^ 0xB10C));
  const CodecPtr chunked = MakeCodec("adaptive", options);
  std::vector<BusState> block_out(c.stream.size());
  std::size_t pos = 0;
  while (pos < c.stream.size()) {
    const std::size_t remaining = c.stream.size() - pos;
    const std::size_t len =
        1 + chunk_chain.Below(std::min<std::size_t>(37, remaining));
    chunked->EncodeBatch(AccessView::Rows(c.stream.data() + pos), len,
                         std::span<BusState>(block_out.data() + pos, len));
    pos += len;
  }
  for (std::size_t t = 0; t < c.stream.size(); ++t) {
    ASSERT_EQ(block_out[t], wire[t])
        << "chunked EncodeBatch diverged at access " << t << "\n"
        << context;
  }
}

std::uint64_t EnvOr(const char* name, std::uint64_t fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return fallback;
  return std::strtoull(value, nullptr, 10);
}

TEST(AdaptiveFuzzTest, DifferentialSweepStaysClean) {
  const char* pinned = std::getenv("ABENC_FUZZ_SEED");
  if (pinned != nullptr && *pinned != '\0') {
    RunIteration(std::strtoull(pinned, nullptr, 10));
    return;
  }
  const std::uint64_t iterations = EnvOr("ABENC_FUZZ_ITERATIONS", 10000);
  for (std::uint64_t i = 0; i < iterations; ++i) {
    RunIteration(i);
    if (::testing::Test::HasFatalFailure()) {
      FAIL() << "first failing iteration: " << i;
    }
  }
}

}  // namespace
}  // namespace abenc
