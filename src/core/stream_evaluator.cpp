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
  std::size_t chunks = 0;
  std::size_t columnar_chunks = 0;

  std::size_t offset = 0;
  while (offset < length) {
    // One view over either layout: columnar sources (the mmap trace
    // reader, ColumnarTraceSource) expose their storage in place; any
    // other source is copied out via Read() and read as BusAccess rows.
    TraceColumns columns;
    std::size_t n = source.ViewColumns(offset, chunk, &columns);
    AccessView view;
    if (n != 0) {
      view = AccessView::Columns(columns.addresses, columns.sel);
      ++columnar_chunks;
    } else {
      if (rows.empty()) rows.resize(chunk);
      n = source.Read(offset, rows);
      if (n == 0) break;  // a short source; size() was an overestimate
      view = AccessView::Rows(rows.data());
    }
    const std::span<BusState> states(out.data(), n);
    codec.EncodeBatch(view, n, states);
    accumulator.Consume(states, view.addresses);
    if (verify_decode) {
      for (std::size_t i = 0; i < n; ++i) {
        const Word decoded = codec.Decode(states[i], view.sel_at(i));
        const Word expected = view.address(i) & mask;
        if (decoded != expected) {
          ThrowDecodeMismatch(codec, decoded, expected);
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
