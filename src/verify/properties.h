// The universal invariant suite: properties every Codec in the library
// must satisfy on *any* address stream. Each check constructs fresh
// codecs through an injectable factory hook, so the suite can be turned
// against a deliberately broken codec (the test-suite does exactly that
// to prove the harness catches injected bugs).
#pragma once

#include <functional>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/codec_factory.h"
#include "core/stream_evaluator.h"

namespace abenc::verify {

/// How a property failed: the first stream index at which the invariant
/// broke (stream.size() when the failure is not tied to one access) and
/// a human-readable explanation.
struct PropertyFailure {
  std::size_t index = 0;
  std::string message;
};

/// Constructs the codec under test. Defaults to MakeCodec; tests swap in
/// wrappers that sabotage encode/decode to validate the harness itself.
using CodecFactoryFn =
    std::function<CodecPtr(const std::string&, const CodecOptions&)>;

/// The default factory hook (forwards to MakeCodec).
CodecFactoryFn DefaultCodecFactory();

/// decode(encode(b)) == b & mask on every access, driving one codec's
/// encoder and decoder ends in lockstep from reset.
std::optional<PropertyFailure> CheckRoundTrip(
    const std::string& codec_name, const CodecOptions& options,
    std::span<const BusAccess> stream, const CodecFactoryFn& factory);

/// Every encoded BusState stays inside the advertised geometry: data
/// lines within the width mask, redundant bits within redundant_lines()
/// (exactly zero redundant bits for irredundant codes), and the
/// geometry itself stable across the stream.
std::optional<PropertyFailure> CheckLineWidth(
    const std::string& codec_name, const CodecOptions& options,
    std::span<const BusAccess> stream, const CodecFactoryFn& factory);

/// Reset()/instance contract: re-encoding the stream after Reset()
/// reproduces the exact BusState sequence, and a second fresh instance
/// produces the same sequence as the first (no hidden global state).
std::optional<PropertyFailure> CheckResetReplay(
    const std::string& codec_name, const CodecOptions& options,
    std::span<const BusAccess> stream, const CodecFactoryFn& factory);

/// StreamEvaluator consistency: Evaluate()'s transition total, peak and
/// per-line histogram agree with an independent recount of the encoded
/// states via TransitionsBetween, and the per-line histogram sums to the
/// total over exactly total_lines() entries.
std::optional<PropertyFailure> CheckTransitionAccounting(
    const std::string& codec_name, const CodecOptions& options,
    std::span<const BusAccess> stream, const CodecFactoryFn& factory);

/// Split encoder/decoder lockstep: a second instance that is only ever
/// driven through Decode() must reproduce every address the first
/// instance encodes. Round-trip decodes on the *same* object, so a
/// decoder that peeks at encoder-side state (updated by Encode) passes
/// it; here the two ends live in different objects, exactly like the
/// two ends of a real bus, so their codebooks must stay equal using
/// nothing but the wire states. A third instance decodes the same wire
/// through DecodeBatch at chunk sizes 1, 7, 64 and length + 1, every
/// other chunk through per-word Decode, and must recover the same
/// addresses (the DecodeBatch contract, core/codec.h).
std::optional<PropertyFailure> CheckDecoderLockstep(
    const std::string& codec_name, const CodecOptions& options,
    std::span<const BusAccess> stream, const CodecFactoryFn& factory);

/// Batched/per-word lockstep: EvaluateBatched() must reproduce
/// Evaluate()'s EvalResult *exactly* — transitions, peak, per-line
/// histogram, stream length and in-sequence percentage — at every
/// chunk size, including degenerate (1), prime (7), sub-block (64) and
/// overlong (length + 1) chunkings. This is the bit-identity guarantee
/// that lets the experiment engine and the table benches run on the
/// EncodeBatch SIMD kernels while the committed baselines stay
/// byte-identical.
std::optional<PropertyFailure> CheckBatchedIdentity(
    const std::string& codec_name, const CodecOptions& options,
    std::span<const BusAccess> stream, const CodecFactoryFn& factory);

/// Kernel-dispatch identity: for every SIMD backend the host supports
/// (scalar always, AVX2/NEON when compiled in and executable),
/// EvaluateBatched must reproduce the per-word Evaluate() result
/// exactly — over both a BusAccess span and the zero-copy columnar
/// path — at degenerate, sub-block and overlong chunk sizes. This is
/// the guarantee that lets ABENC_KERNEL pick any backend without
/// perturbing a single committed baseline bit.
std::optional<PropertyFailure> CheckKernelDispatchIdentity(
    const std::string& codec_name, const CodecOptions& options,
    std::span<const BusAccess> stream, const CodecFactoryFn& factory);

/// Decision-replay lockstep: the adaptive meta-codec's decoder must
/// replay the encoder's per-window decisions deterministically from the
/// wire alone. Drives two separate instances (one only encoding, one
/// only decoding) and then audits, beyond the decoded addresses: (a)
/// the wire at every logged switch boundary carries the address
/// verbatim with the ESC bit asserted, and (b) the two ends' decision
/// logs — boundary index, per-member window costs, chosen member,
/// switch flag — are identical entry by entry. The reported index is
/// the earliest offending access, so an injected protocol bug (stale
/// window statistics, delayed ESC) is caught at its exact boundary.
/// For codecs without a decision log the property degenerates to the
/// split-decoder lockstep check.
std::optional<PropertyFailure> CheckDecisionReplay(
    const std::string& codec_name, const CodecOptions& options,
    std::span<const BusAccess> stream, const CodecFactoryFn& factory);

/// Names of the universal properties, in a stable order:
/// "round-trip", "line-width", "reset-replay", "transition-accounting",
/// "decoder-lockstep", "batched-identity", "kernel-dispatch-identity",
/// "decision-replay".
std::vector<std::string> UniversalPropertyNames();

/// Dispatch by property name; throws std::invalid_argument for unknown
/// names.
std::optional<PropertyFailure> CheckUniversalProperty(
    const std::string& property, const std::string& codec_name,
    const CodecOptions& options, std::span<const BusAccess> stream,
    const CodecFactoryFn& factory);

}  // namespace abenc::verify
