#include "core/stream_evaluator.h"

#include <algorithm>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "core/codec_factory.h"
#include "core/codec_kernel.h"
#include "core/trace_source.h"
#include "obs/metrics.h"

namespace abenc {
namespace {

// One message format for both evaluation paths, so switching paths can
// never change what a failing run prints.
[[noreturn]] void ThrowDecodeMismatch(const Codec& codec, Word decoded,
                                      Word expected) {
  std::ostringstream msg;
  msg << codec.name() << ": decode mismatch, got 0x" << std::hex << decoded
      << " expected 0x" << expected;
  throw std::logic_error(msg.str());
}

// OR of decoded[i] ^ (addresses[kStep * i] & mask) over a chunk: zero
// iff every word decoded right. The step is a constant, so each layout's
// loop vectorizes.
template <std::size_t kStep>
Word MismatchBits(const Word* decoded, const Word* addresses, std::size_t n,
                  Word mask) {
  Word bits = 0;
  for (std::size_t i = 0; i < n; ++i) {
    bits |= decoded[i] ^ (addresses[kStep * i] & mask);
  }
  return bits;
}

}  // namespace

double SavingsPercent(long long transitions, long long binary_transitions) {
  if (binary_transitions == 0) {
    // No reference transitions: 0-vs-0 is parity; anything else has no
    // meaningful percentage (the codec is strictly worse than a bus
    // that never switched) and is signalled as NaN, rendered "n/a".
    return transitions == 0 ? 0.0
                            : std::numeric_limits<double>::quiet_NaN();
  }
  return 100.0 *
         (static_cast<double>(binary_transitions - transitions) /
          static_cast<double>(binary_transitions));
}

double InSequencePercent(std::span<const BusAccess> stream, Word stride,
                         unsigned width) {
  if (stream.size() < 2) return 0.0;
  std::size_t in_seq = 0;
  for (std::size_t i = 1; i < stream.size(); ++i) {
    const Word expected = (stream[i - 1].address + stride) & LowMask(width);
    if ((stream[i].address & LowMask(width)) == expected) ++in_seq;
  }
  return 100.0 * static_cast<double>(in_seq) /
         static_cast<double>(stream.size() - 1);
}

void FoldSegment(EvalResult& total, const EvalResult& segment) {
  total.stream_length += segment.stream_length;
  total.transitions += segment.transitions;
  total.peak_transitions =
      std::max(total.peak_transitions, segment.peak_transitions);
  if (segment.per_line.size() > total.per_line.size()) {
    total.per_line.resize(segment.per_line.size(), 0);
  }
  for (std::size_t line = 0; line < segment.per_line.size(); ++line) {
    total.per_line[line] += segment.per_line[line];
  }
}

EvalResult Evaluate(Codec& codec, std::span<const BusAccess> stream,
                    Word stride_for_stats, bool verify_decode) {
  codec.Reset();
  TransitionCounter counter(codec.width(), codec.redundant_lines());
  for (const BusAccess& access : stream) {
    const BusState state = codec.Encode(access.address, access.sel);
    counter.Observe(state);
    if (verify_decode) {
      const Word decoded = codec.Decode(state, access.sel);
      const Word expected = access.address & LowMask(codec.width());
      if (decoded != expected) ThrowDecodeMismatch(codec, decoded, expected);
    }
  }
  EvalResult result;
  result.codec_name = codec.name();
  result.stream_length = stream.size();
  result.transitions = counter.total();
  result.peak_transitions = counter.peak();
  result.in_sequence_percent =
      InSequencePercent(stream, stride_for_stats, codec.width());
  result.per_line = counter.per_line();
  return result;
}

EvalResult EvaluateWithSchedule(const std::string& initial_codec,
                                const CodecOptions& options,
                                std::span<const BusAccess> stream,
                                std::span<const CodecSwitchPoint> switches,
                                std::span<const std::size_t> reset_points,
                                Word stride_for_stats, bool verify_decode) {
  for (std::size_t i = 1; i < switches.size(); ++i) {
    if (switches[i].index < switches[i - 1].index) {
      throw std::invalid_argument(
          "EvaluateWithSchedule: switch schedule not ascending");
    }
  }
  for (std::size_t i = 1; i < reset_points.size(); ++i) {
    if (reset_points[i] < reset_points[i - 1]) {
      throw std::invalid_argument(
          "EvaluateWithSchedule: reset points not ascending");
    }
  }
  EvalResult result;
  std::string active = initial_codec;
  std::size_t start = 0;
  std::size_t next_reset = 0;
  for (std::size_t next_switch = 0;; ++next_switch) {
    const bool last = next_switch == switches.size();
    const std::size_t end =
        last ? stream.size()
             : std::min(switches[next_switch].index, stream.size());
    // Cut the switch segment at its reset points. The first piece runs
    // even when empty, so the segment's codec contributes its line
    // geometry (a switch with no traffic after it, as a session reports).
    std::size_t from = start;
    do {
      while (next_reset < reset_points.size() &&
             reset_points[next_reset] <= from) {
        ++next_reset;
      }
      const std::size_t to = next_reset < reset_points.size()
                                 ? std::min(reset_points[next_reset], end)
                                 : end;
      const CodecPtr codec = MakeCodec(active, options);
      FoldSegment(result, Evaluate(*codec, stream.subspan(from, to - from),
                                   stride_for_stats, verify_decode));
      from = to;
    } while (from < end);
    if (last) break;
    active = switches[next_switch].codec_name;
    start = end;
  }
  result.codec_name = active;
  result.in_sequence_percent =
      InSequencePercent(stream, stride_for_stats, options.width);
  return result;
}

EvalResult EvaluateBatched(Codec& codec, const TraceSource& source,
                           Word stride_for_stats, bool verify_decode,
                           std::size_t chunk_size) {
  return detail::EvaluateBatched(codec, source, stride_for_stats,
                                 verify_decode, chunk_size,
                                 /*count_in_sequence=*/true);
}

EvalResult detail::EvaluateBatched(Codec& codec, const TraceSource& source,
                                   Word stride_for_stats, bool verify_decode,
                                   std::size_t chunk_size,
                                   bool count_in_sequence) {
  if (chunk_size == 0) chunk_size = kDefaultChunkSize;
  codec.Reset();
  const Word mask = LowMask(codec.width());
  const std::size_t length = source.size();

  obs::MetricsRegistry* registry = obs::Installed();
  const double start = registry ? obs::MonotonicSeconds() : 0.0;

  BlockTransitionAccumulator accumulator(codec.width(),
                                         codec.redundant_lines(),
                                         stride_for_stats);
  const std::size_t chunk =
      std::min<std::size_t>(chunk_size, std::max<std::size_t>(length, 1));
  std::vector<BusAccess> rows;  // allocated only if a chunk needs copying
  std::vector<BusState> out(chunk);
  std::vector<Word> decoded(verify_decode ? chunk : 0);
  std::size_t chunks = 0;
  std::size_t columnar_chunks = 0;

  std::size_t offset = 0;
  while (offset < length) {
    // One view over either layout, read in place where the source can
    // share its storage: columns (the mmap trace reader,
    // ColumnarTraceSource) or BusAccess rows (SpanTraceSource). Any
    // other source is copied out via Read() and read as rows.
    TraceColumns columns;
    const BusAccess* in_place = nullptr;
    std::size_t n = source.ViewColumns(offset, chunk, &columns);
    AccessView view;
    if (n != 0) {
      view = AccessView::Columns(columns.addresses, columns.sel);
      ++columnar_chunks;
    } else if ((n = source.ViewRows(offset, chunk, &in_place)) != 0) {
      view = AccessView::Rows(in_place);
    } else {
      if (rows.empty()) rows.resize(chunk);
      n = source.Read(offset, rows);
      if (n == 0) break;  // a short source; size() was an overestimate
      view = AccessView::Rows(rows.data());
    }
    const std::span<BusState> states(out.data(), n);
    codec.EncodeBatch(view, n, states);
    if (count_in_sequence) {
      accumulator.Consume(states, view.addresses);
    } else {
      accumulator.Consume(states);
    }
    if (verify_decode) {
      // Decode the chunk in one call and compare one column without a
      // branch per word; only a chunk that differs is searched, so the
      // first mismatch throws Evaluate()'s message at the same index.
      codec.DecodeBatch(view, states, decoded);
      const Word* addresses = view.addresses.addr;
      ABENC_ASSERT(view.addresses.step == 1 || view.addresses.step == 2);
      const Word bits =
          view.addresses.step == 1
              ? MismatchBits<1>(decoded.data(), addresses, n, mask)
              : MismatchBits<2>(decoded.data(), addresses, n, mask);
      for (std::size_t i = 0; bits != 0 && i < n; ++i) {
        const Word expected = view.address(i) & mask;
        if (decoded[i] != expected) {
          ThrowDecodeMismatch(codec, decoded[i], expected);
        }
      }
    }
    offset += n;
    ++chunks;
  }

  EvalResult result = accumulator.Result();
  result.codec_name = codec.name();
  if (registry) {
    registry->GetCounter("evaluator.batched.chunks").Increment(chunks);
    registry->GetCounter("evaluator.batched.columnar_chunks")
        .Increment(columnar_chunks);
    registry->GetCounter("evaluator.batched.words")
        .Increment(result.stream_length);
    const double elapsed = obs::MonotonicSeconds() - start;
    if (elapsed > 0.0) {
      registry->GetGauge("evaluator.batched.words_per_second")
          .Set(static_cast<double>(result.stream_length) / elapsed);
    }
  }
  return result;
}

std::vector<BusAccess> ToAccesses(std::span<const Word> addresses, bool sel) {
  std::vector<BusAccess> out;
  out.reserve(addresses.size());
  for (Word a : addresses) out.push_back(BusAccess{a, sel});
  return out;
}

}  // namespace abenc
