// Runs a codec over an address stream and reports the paper's metrics.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "core/codec.h"
#include "core/transition_counter.h"

namespace abenc {

class TraceSource;   // core/trace_source.h
struct CodecOptions;  // core/codec_factory.h

// BusAccess (one address plus the SEL signal) lives in core/types.h so
// the Codec block interface can speak it; it is re-exported here for
// the many stream-level includers.

/// Metrics of one codec over one stream — the columns of Tables 2-7.
struct EvalResult {
  std::string codec_name;
  std::size_t stream_length = 0;
  long long transitions = 0;
  int peak_transitions = 0;          // worst single-cycle toggle count
  double in_sequence_percent = 0.0;  // fraction of b(t) = b(t-1) + S, in %
  std::vector<long long> per_line;

  double average_transitions_per_cycle() const {
    return stream_length == 0 ? 0.0
                              : static_cast<double>(transitions) /
                                    static_cast<double>(stream_length);
  }
};

/// Percentage of transitions saved relative to a reference (binary) count,
/// as reported in the paper's "Savings" columns.
///
/// A zero reference with a nonzero codec count has no meaningful
/// percentage — reporting 0.0 there would disguise a strictly *worse*
/// code as parity — so that case returns quiet NaN. Renderers spell it
/// out: FormatPercent (report/table.h) prints "n/a" and the JSON writer
/// emits null (JSON has no NaN). Zero-vs-zero is genuine parity and
/// stays 0.0.
double SavingsPercent(long long transitions, long long binary_transitions);

/// Fraction (in percent) of accesses whose address equals the previous
/// access's address plus `stride` — the paper's "In-Seq Addr." column.
/// For multiplexed streams the paper measures raw adjacency on the bus,
/// which is what this computes.
double InSequencePercent(std::span<const BusAccess> stream, Word stride,
                         unsigned width);

/// Fold one finished segment of a stream into `total`: transitions and
/// stream lengths sum, peaks max, and the per-line histograms add
/// element-wise, zero-extended to the wider line geometry (a codec
/// switch may change it). Codec name and in-sequence percentage are
/// untouched — the latter is a property of the whole stream. This is the
/// one fold behind BlockTransitionAccumulator (core/codec_kernel.h) and
/// EvaluateWithSchedule.
void FoldSegment(EvalResult& total, const EvalResult& segment);

/// Run `codec` over `stream` from reset and collect metrics, one word at
/// a time through Encode() and a TransitionCounter — the independent
/// reference every batched path is checked against.
/// If `verify_decode` is set, every encoded state is also pushed through
/// the codec's decoder and checked against the original address; a
/// mismatch throws std::logic_error (used by the test-suite and as a
/// self-check by the benches).
EvalResult Evaluate(Codec& codec, std::span<const BusAccess> stream,
                    Word stride_for_stats = 4, bool verify_decode = false);

/// The batched hot path: run `codec` over the stream in fixed-size
/// chunks — Codec::EncodeBatch per chunk (one virtual dispatch per
/// chunk; the high-traffic codes install SIMD kernels), then the
/// BlockTransitionAccumulator's word-parallel XOR+popcount sweep over
/// the encoded block (core/codec_kernel.h), then, with `verify_decode`,
/// Codec::DecodeBatch over the chunk and one branch-free column compare
/// (an OR-reduction of decoded ^ expected, searched for the first
/// mismatch only when it reads nonzero). Columnar sources are read in
/// place through TraceSource::ViewColumns and row sources (a
/// materialized stream, which enters through SpanTraceSource) through
/// TraceSource::ViewRows; any other source is copied out chunk by chunk
/// via Read().
///
/// Bit-identity guarantee: for every chunk size the returned EvalResult
/// is *identical* to Evaluate() on the same stream — transitions, peak,
/// per-line histogram, in-sequence percentage and the decode-verify
/// throw behaviour all match. The contract is enforced for all factory
/// codecs by the `batched-identity` universal verify property and
/// tests/stream_evaluator_test, which is what lets the experiment
/// engine and the committed bench baselines run on this path with
/// byte-identical outputs.
///
/// `chunk_size == 0` selects kDefaultChunkSize (core/codec_kernel.h).
/// When a MetricsRegistry is installed, records chunk/word counters and
/// an `evaluator.batched.words_per_second` gauge.
EvalResult EvaluateBatched(Codec& codec, const TraceSource& source,
                           Word stride_for_stats = 4,
                           bool verify_decode = false,
                           std::size_t chunk_size = 0);

namespace detail {

/// EvaluateBatched, with the in-sequence count optional: the entry the
/// experiment engine shares with it. With `count_in_sequence` false the
/// chunks skip the count and `in_sequence_percent` reads 0 — for a
/// caller that already holds the figure of the same stream, stride and
/// width (RunComparison takes it from the binary reference).
EvalResult EvaluateBatched(Codec& codec, const TraceSource& source,
                           Word stride_for_stats, bool verify_decode,
                           std::size_t chunk_size, bool count_in_sequence);

}  // namespace detail

/// One entry of a session's codec-switch schedule: from lifetime access
/// `index` onward the stream is encoded by `codec_name`, built fresh
/// from the factory. This is the wire-replayable record a renegotiated
/// service session reports (RENEGOTIATE_ACK pins `index`, STATS replays
/// the whole schedule — docs/PROTOCOL.md).
struct CodecSwitchPoint {
  std::size_t index = 0;
  std::string codec_name;

  bool operator==(const CodecSwitchPoint&) const = default;
};

/// Serial reference for accounting across codec-state teardowns: the
/// oracle an encoding-service session is checked against.
///
/// The stream is cut at every switch index and every reset point; each
/// piece is an independent per-word Evaluate() of a freshly built codec
/// — `initial_codec` up to the first switch, then switches[i].codec_name
/// from switches[i].index on — and the pieces are combined with
/// FoldSegment(). The in-sequence percentage remains a property of the
/// whole stream, exactly as in Evaluate().
///
/// `reset_points` are the session's eviction/resync teardowns and may
/// fall anywhere; a point at a piece's start (including index 0 and a
/// switch index) or past the end of the stream is a no-op, and so is a
/// repeated point. This is the contract a session honours when it is
/// evicted at index k and later re-admitted (src/service/session.h): by
/// the reset-replay property (src/verify/properties.h) a freshly
/// constructed codec encodes identically to a Reset() one. Every switch
/// piece runs, even an empty one, so a switch with no traffic after it
/// still contributes its codec's line geometry to the histogram.
///
/// Both lists are replayed from a server's STATS reply, so a malformed
/// one is refused rather than mis-folded: `switches` must be ascending
/// by index and `reset_points` ascending (std::invalid_argument
/// otherwise). With both empty the metrics are Evaluate()'s of a fresh
/// `initial_codec`.
EvalResult EvaluateWithSchedule(const std::string& initial_codec,
                                const CodecOptions& options,
                                std::span<const BusAccess> stream,
                                std::span<const CodecSwitchPoint> switches,
                                std::span<const std::size_t> reset_points,
                                Word stride_for_stats = 4,
                                bool verify_decode = false);

/// Convenience: wrap a pure address sequence (dedicated bus) as BusAccesses.
std::vector<BusAccess> ToAccesses(std::span<const Word> addresses,
                                  bool sel = true);

}  // namespace abenc
