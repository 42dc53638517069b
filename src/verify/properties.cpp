#include "verify/properties.h"

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "core/adaptive_codec.h"
#include "core/simd/kernel_dispatch.h"
#include "core/trace_source.h"
#include "core/transition_counter.h"

namespace abenc::verify {
namespace {

std::string HexWord(Word value) {
  std::ostringstream out;
  out << "0x" << std::hex << value;
  return out.str();
}

}  // namespace

CodecFactoryFn DefaultCodecFactory() {
  return [](const std::string& name, const CodecOptions& options) {
    return MakeCodec(name, options);
  };
}

std::optional<PropertyFailure> CheckRoundTrip(
    const std::string& codec_name, const CodecOptions& options,
    std::span<const BusAccess> stream, const CodecFactoryFn& factory) {
  const CodecPtr codec = factory(codec_name, options);
  const Word mask = LowMask(codec->width());
  for (std::size_t i = 0; i < stream.size(); ++i) {
    const BusState state = codec->Encode(stream[i].address, stream[i].sel);
    const Word decoded = codec->Decode(state, stream[i].sel);
    const Word expected = stream[i].address & mask;
    if (decoded != expected) {
      return PropertyFailure{
          i, codec_name + ": decode(encode(" + HexWord(expected) +
                 ")) = " + HexWord(decoded) + " at access " +
                 std::to_string(i)};
    }
  }
  return std::nullopt;
}

std::optional<PropertyFailure> CheckLineWidth(
    const std::string& codec_name, const CodecOptions& options,
    std::span<const BusAccess> stream, const CodecFactoryFn& factory) {
  const CodecPtr codec = factory(codec_name, options);
  const unsigned width = codec->width();
  const unsigned redundant = codec->redundant_lines();
  if (codec->total_lines() != width + redundant) {
    return PropertyFailure{stream.size(),
                           codec_name + ": total_lines() != width + R"};
  }
  const Word line_mask = LowMask(width);
  const Word redundant_mask = redundant == 0 ? 0 : LowMask(redundant);
  for (std::size_t i = 0; i < stream.size(); ++i) {
    const BusState state = codec->Encode(stream[i].address, stream[i].sel);
    if ((state.lines & ~line_mask) != 0) {
      return PropertyFailure{
          i, codec_name + ": encoded lines " + HexWord(state.lines) +
                 " exceed the " + std::to_string(width) +
                 "-bit bus at access " + std::to_string(i)};
    }
    if ((state.redundant & ~redundant_mask) != 0) {
      return PropertyFailure{
          i, codec_name + ": redundant bits " + HexWord(state.redundant) +
                 " exceed the advertised " + std::to_string(redundant) +
                 " redundant line(s) at access " + std::to_string(i)};
    }
    if (codec->redundant_lines() != redundant) {
      return PropertyFailure{
          i, codec_name + ": redundant_lines() changed mid-stream at access " +
                 std::to_string(i)};
    }
  }
  return std::nullopt;
}

std::optional<PropertyFailure> CheckResetReplay(
    const std::string& codec_name, const CodecOptions& options,
    std::span<const BusAccess> stream, const CodecFactoryFn& factory) {
  const CodecPtr first = factory(codec_name, options);
  std::vector<BusState> reference;
  reference.reserve(stream.size());
  for (const BusAccess& access : stream) {
    reference.push_back(first->Encode(access.address, access.sel));
  }

  first->Reset();
  for (std::size_t i = 0; i < stream.size(); ++i) {
    const BusState replay = first->Encode(stream[i].address, stream[i].sel);
    if (replay != reference[i]) {
      return PropertyFailure{
          i, codec_name + ": Reset() did not restore the power-on state — "
                 "replayed encoding diverges at access " +
                 std::to_string(i)};
    }
  }

  const CodecPtr second = factory(codec_name, options);
  for (std::size_t i = 0; i < stream.size(); ++i) {
    const BusState other = second->Encode(stream[i].address, stream[i].sel);
    if (other != reference[i]) {
      return PropertyFailure{
          i, codec_name + ": two fresh instances disagree at access " +
                 std::to_string(i) + " (hidden shared state?)"};
    }
  }
  return std::nullopt;
}

std::optional<PropertyFailure> CheckTransitionAccounting(
    const std::string& codec_name, const CodecOptions& options,
    std::span<const BusAccess> stream, const CodecFactoryFn& factory) {
  // Evaluate() with its own fresh codec, decode-verified exactly as the
  // table benches run it.
  const CodecPtr evaluated = factory(codec_name, options);
  EvalResult result;
  try {
    result = Evaluate(*evaluated, stream, options.stride, true);
  } catch (const std::logic_error& error) {
    return PropertyFailure{stream.size(),
                           codec_name +
                               ": Evaluate(verify_decode) threw: " +
                               error.what()};
  }

  // Independent recount from a second instance via TransitionsBetween.
  const CodecPtr recounted = factory(codec_name, options);
  const unsigned width = recounted->width();
  const unsigned redundant = recounted->redundant_lines();
  long long total = 0;
  int peak = 0;
  BusState previous{};  // power-on: all lines low
  for (const BusAccess& access : stream) {
    const BusState state = recounted->Encode(access.address, access.sel);
    const int toggles = TransitionsBetween(previous, state, width, redundant);
    total += toggles;
    if (toggles > peak) peak = toggles;
    previous = state;
  }

  if (result.transitions != total) {
    return PropertyFailure{
        stream.size(),
        codec_name + ": Evaluate() counted " +
            std::to_string(result.transitions) +
            " transitions, TransitionsBetween recount gives " +
            std::to_string(total)};
  }
  if (result.peak_transitions != peak) {
    return PropertyFailure{
        stream.size(), codec_name + ": peak mismatch: Evaluate() " +
                           std::to_string(result.peak_transitions) +
                           " vs recount " + std::to_string(peak)};
  }
  if (result.per_line.size() != width + redundant) {
    return PropertyFailure{
        stream.size(), codec_name + ": per_line has " +
                           std::to_string(result.per_line.size()) +
                           " entries, expected total_lines() = " +
                           std::to_string(width + redundant)};
  }
  long long per_line_sum = 0;
  for (long long line : result.per_line) per_line_sum += line;
  if (per_line_sum != result.transitions) {
    return PropertyFailure{
        stream.size(), codec_name + ": per_line sums to " +
                           std::to_string(per_line_sum) + ", total is " +
                           std::to_string(result.transitions)};
  }
  if (result.stream_length != stream.size()) {
    return PropertyFailure{stream.size(),
                           codec_name + ": stream_length mismatch"};
  }
  return std::nullopt;
}

std::optional<PropertyFailure> CheckDecoderLockstep(
    const std::string& codec_name, const CodecOptions& options,
    std::span<const BusAccess> stream, const CodecFactoryFn& factory) {
  const CodecPtr encoder = factory(codec_name, options);
  const CodecPtr decoder = factory(codec_name, options);
  const Word mask = LowMask(encoder->width());
  std::vector<BusState> wire(stream.size());
  for (std::size_t i = 0; i < stream.size(); ++i) {
    wire[i] = encoder->Encode(stream[i].address, stream[i].sel);
    const Word split = decoder->Decode(wire[i], stream[i].sel);
    const Word expected = stream[i].address & mask;
    if (split != expected) {
      return PropertyFailure{
          i, codec_name + ": split decoder (driven only through Decode) "
                 "recovered " +
                 HexWord(split) + ", expected " + HexWord(expected) +
                 " at access " + std::to_string(i) +
                 " — decoder state no longer mirrors the encoder"};
    }
  }
  // A third end decodes the same wire through DecodeBatch, alternating
  // batched and per-word chunks, so its state must carry across both.
  const std::size_t chunk_sizes[] = {1, 7, 64, stream.size() + 1};
  std::vector<Word> decoded(stream.size());
  for (const std::size_t chunk : chunk_sizes) {
    const CodecPtr batched = factory(codec_name, options);
    for (std::size_t at = 0; at < stream.size(); at += chunk) {
      const std::size_t n = std::min(chunk, stream.size() - at);
      if ((at / chunk) % 2 == 0) {
        batched->DecodeBatch(AccessView::Rows(stream.data() + at),
                             std::span(wire).subspan(at, n),
                             std::span(decoded).subspan(at, n));
      } else {
        for (std::size_t i = at; i < at + n; ++i) {
          decoded[i] = batched->Decode(wire[i], stream[i].sel);
        }
      }
    }
    for (std::size_t i = 0; i < stream.size(); ++i) {
      const Word expected = stream[i].address & mask;
      if (decoded[i] != expected) {
        return PropertyFailure{
            i, codec_name + ": batched decoder (DecodeBatch, chunk size " +
                   std::to_string(chunk) + ") recovered " +
                   HexWord(decoded[i]) + ", expected " + HexWord(expected) +
                   " at access " + std::to_string(i)};
      }
    }
  }
  return std::nullopt;
}

std::optional<PropertyFailure> CheckBatchedIdentity(
    const std::string& codec_name, const CodecOptions& options,
    std::span<const BusAccess> stream, const CodecFactoryFn& factory) {
  // The per-word reference, decode-verified exactly as the benches run.
  const CodecPtr reference_codec = factory(codec_name, options);
  EvalResult reference;
  try {
    reference = Evaluate(*reference_codec, stream, options.stride, true);
  } catch (const std::logic_error& error) {
    return PropertyFailure{stream.size(),
                           codec_name + ": per-word Evaluate threw: " +
                               error.what()};
  }

  const std::size_t chunk_sizes[] = {1, 7, 64, stream.size() + 1};
  for (const std::size_t chunk : chunk_sizes) {
    const CodecPtr batched_codec = factory(codec_name, options);
    EvalResult batched;
    try {
      batched = EvaluateBatched(*batched_codec, SpanTraceSource(stream),
                                options.stride, true, chunk);
    } catch (const std::logic_error& error) {
      return PropertyFailure{
          stream.size(), codec_name + ": EvaluateBatched(chunk=" +
                             std::to_string(chunk) + ") threw where the "
                             "per-word path did not: " + error.what()};
    }
    const auto mismatch = [&](const std::string& what, auto per_word_value,
                              auto batched_value) {
      std::ostringstream out;
      out << codec_name << ": batched path diverges at chunk size " << chunk
          << " — " << what << ": per-word " << per_word_value
          << ", batched " << batched_value;
      return PropertyFailure{stream.size(), out.str()};
    };
    if (batched.transitions != reference.transitions) {
      return mismatch("transitions", reference.transitions,
                      batched.transitions);
    }
    if (batched.peak_transitions != reference.peak_transitions) {
      return mismatch("peak", reference.peak_transitions,
                      batched.peak_transitions);
    }
    if (batched.stream_length != reference.stream_length) {
      return mismatch("stream_length", reference.stream_length,
                      batched.stream_length);
    }
    // Exact double equality on purpose: both paths must execute the
    // same arithmetic, not merely land close.
    if (batched.in_sequence_percent != reference.in_sequence_percent) {
      return mismatch("in_sequence_percent", reference.in_sequence_percent,
                      batched.in_sequence_percent);
    }
    if (batched.per_line != reference.per_line) {
      for (std::size_t line = 0; line < reference.per_line.size(); ++line) {
        if (line < batched.per_line.size() &&
            batched.per_line[line] != reference.per_line[line]) {
          return mismatch("per_line[" + std::to_string(line) + "]",
                          reference.per_line[line], batched.per_line[line]);
        }
      }
      return mismatch("per_line size", reference.per_line.size(),
                      batched.per_line.size());
    }
  }
  return std::nullopt;
}

std::optional<PropertyFailure> CheckKernelDispatchIdentity(
    const std::string& codec_name, const CodecOptions& options,
    std::span<const BusAccess> stream, const CodecFactoryFn& factory) {
  // The per-word reference never touches the kernel tables, so it is
  // the same no matter which backend is active.
  const CodecPtr reference_codec = factory(codec_name, options);
  EvalResult reference;
  try {
    reference = Evaluate(*reference_codec, stream, options.stride, true);
  } catch (const std::logic_error& error) {
    return PropertyFailure{stream.size(),
                           codec_name + ": per-word Evaluate threw: " +
                               error.what()};
  }

  const ColumnarTraceSource columnar =
      ColumnarTraceSource::FromAccesses(stream);
  const std::size_t chunk_sizes[] = {1, 64, stream.size() + 1};
  for (const simd::KernelBackend backend : simd::SupportedBackends()) {
    const simd::ScopedKernelBackend scoped(backend);
    for (const std::size_t chunk : chunk_sizes) {
      const auto mismatch = [&](const char* path, const std::string& what,
                                auto per_word_value, auto batched_value) {
        std::ostringstream out;
        out << codec_name << ": backend " << simd::BackendName(backend)
            << " diverges on the " << path << " path at chunk size " << chunk
            << " — " << what << ": per-word " << per_word_value << ", batched "
            << batched_value;
        return PropertyFailure{stream.size(), out.str()};
      };
      const auto compare =
          [&](const char* path,
              const EvalResult& got) -> std::optional<PropertyFailure> {
        if (got.transitions != reference.transitions) {
          return mismatch(path, "transitions", reference.transitions,
                          got.transitions);
        }
        if (got.peak_transitions != reference.peak_transitions) {
          return mismatch(path, "peak", reference.peak_transitions,
                          got.peak_transitions);
        }
        if (got.stream_length != reference.stream_length) {
          return mismatch(path, "stream_length", reference.stream_length,
                          got.stream_length);
        }
        // Exact double equality on purpose: every backend must run the
        // very same arithmetic (that is the bit-identity contract).
        if (got.in_sequence_percent != reference.in_sequence_percent) {
          return mismatch(path, "in_sequence_percent",
                          reference.in_sequence_percent,
                          got.in_sequence_percent);
        }
        if (got.per_line != reference.per_line) {
          for (std::size_t line = 0; line < reference.per_line.size();
               ++line) {
            if (line < got.per_line.size() &&
                got.per_line[line] != reference.per_line[line]) {
              return mismatch(path, "per_line[" + std::to_string(line) + "]",
                              reference.per_line[line], got.per_line[line]);
            }
          }
          return mismatch(path, "per_line size", reference.per_line.size(),
                          got.per_line.size());
        }
        return std::nullopt;
      };

      const CodecPtr span_codec = factory(codec_name, options);
      EvalResult span_result;
      try {
        span_result = EvaluateBatched(*span_codec, SpanTraceSource(stream),
                                      options.stride, true, chunk);
      } catch (const std::logic_error& error) {
        return PropertyFailure{
            stream.size(),
            codec_name + ": backend " +
                std::string(simd::BackendName(backend)) +
                " EvaluateBatched(chunk=" + std::to_string(chunk) +
                ") threw where the per-word path did not: " + error.what()};
      }
      if (auto failure = compare("span", span_result)) return failure;

      const CodecPtr columnar_codec = factory(codec_name, options);
      EvalResult columnar_result;
      try {
        columnar_result = EvaluateBatched(*columnar_codec, columnar,
                                          options.stride, true, chunk);
      } catch (const std::logic_error& error) {
        return PropertyFailure{
            stream.size(),
            codec_name + ": backend " +
                std::string(simd::BackendName(backend)) +
                " columnar EvaluateBatched(chunk=" + std::to_string(chunk) +
                ") threw where the per-word path did not: " + error.what()};
      }
      if (auto failure = compare("columnar", columnar_result)) return failure;
    }
  }
  return std::nullopt;
}

std::optional<PropertyFailure> CheckDecisionReplay(
    const std::string& codec_name, const CodecOptions& options,
    std::span<const BusAccess> stream, const CodecFactoryFn& factory) {
  const CodecPtr encoder = factory(codec_name, options);
  const CodecPtr decoder = factory(codec_name, options);
  const Word mask = LowMask(encoder->width());

  // Split-end lockstep, recording the wire for the audits below. On a
  // decode mismatch the run stops (the decoder end is desynchronized;
  // everything after it is noise), but decisions taken up to that
  // point are still audited so the earliest offence wins.
  std::vector<BusState> wire;
  wire.reserve(stream.size());
  std::optional<PropertyFailure> worst;
  const auto offer = [&](std::size_t index, const std::string& message) {
    if (!worst.has_value() || index < worst->index) {
      worst = PropertyFailure{index, message};
    }
  };
  for (std::size_t i = 0; i < stream.size(); ++i) {
    wire.push_back(encoder->Encode(stream[i].address, stream[i].sel));
    const Word split = decoder->Decode(wire.back(), stream[i].sel);
    const Word expected = stream[i].address & mask;
    if (split != expected) {
      offer(i, codec_name + ": replay decoder recovered " + HexWord(split) +
                 ", expected " + HexWord(expected) + " at access " +
                 std::to_string(i));
      break;
    }
  }

  // The audits need the decision logs, so they only engage when the
  // factory hands back real AdaptiveCodec instances (a sabotage
  // wrapper hides them — the lockstep half still runs); every other
  // codec degenerates to the lockstep check by construction.
  const auto* enc = dynamic_cast<const AdaptiveCodec*>(encoder.get());
  const auto* dec = dynamic_cast<const AdaptiveCodec*>(decoder.get());
  if (enc == nullptr || dec == nullptr) return worst;

  // (a) Wire audit: every logged switch boundary must carry the
  // address verbatim with the overloaded redundant line reading ESC=1.
  const std::vector<AdaptiveDecision>& enc_log = enc->encoder_decisions();
  for (const AdaptiveDecision& decision : enc_log) {
    if (decision.access_index >= wire.size()) break;
    if (!decision.switched) continue;
    const BusState& state = wire[decision.access_index];
    const std::size_t i = decision.access_index;
    if ((state.redundant & 1) == 0) {
      offer(i, codec_name + ": switch at access " + std::to_string(i) +
                   " went out without the ESC bit — the wire no longer "
                   "witnesses the decision the ends replayed");
    }
    if (state.lines != (stream[i].address & mask)) {
      offer(i, codec_name + ": switch word at access " + std::to_string(i) +
                   " is " + HexWord(state.lines) + ", expected the verbatim "
                   "address " + HexWord(stream[i].address & mask));
    }
  }

  // (b) Log audit: the decoder's replayed decisions — boundary, window
  // costs, chosen member, switch flag — must equal the encoder's.
  const std::vector<AdaptiveDecision>& dec_log = dec->decoder_decisions();
  const std::size_t common = std::min(enc_log.size(), dec_log.size());
  for (std::size_t j = 0; j < common; ++j) {
    if (enc_log[j] == dec_log[j]) continue;
    const std::size_t i =
        std::min(enc_log[j].access_index, dec_log[j].access_index);
    std::ostringstream out;
    out << codec_name << ": decision logs diverge at boundary access " << i
        << " — encoder chose member " << enc_log[j].chosen
        << (enc_log[j].switched ? " (switch)" : " (hold)")
        << ", decoder replayed member " << dec_log[j].chosen
        << (dec_log[j].switched ? " (switch)" : " (hold)");
    if (enc_log[j].costs != dec_log[j].costs) {
      out << "; the two ends measured different window costs";
    }
    offer(i, out.str());
    break;
  }
  if (enc_log.size() != dec_log.size()) {
    const std::vector<AdaptiveDecision>& longer =
        enc_log.size() > dec_log.size() ? enc_log : dec_log;
    offer(longer[common].access_index,
          codec_name + ": one end logged " + std::to_string(enc_log.size()) +
              " decisions, the other " + std::to_string(dec_log.size()));
  }
  return worst;
}

std::vector<std::string> UniversalPropertyNames() {
  return {"round-trip",
          "line-width",
          "reset-replay",
          "transition-accounting",
          "decoder-lockstep",
          "batched-identity",
          "kernel-dispatch-identity",
          "decision-replay"};
}

std::optional<PropertyFailure> CheckUniversalProperty(
    const std::string& property, const std::string& codec_name,
    const CodecOptions& options, std::span<const BusAccess> stream,
    const CodecFactoryFn& factory) {
  if (property == "round-trip") {
    return CheckRoundTrip(codec_name, options, stream, factory);
  }
  if (property == "line-width") {
    return CheckLineWidth(codec_name, options, stream, factory);
  }
  if (property == "reset-replay") {
    return CheckResetReplay(codec_name, options, stream, factory);
  }
  if (property == "transition-accounting") {
    return CheckTransitionAccounting(codec_name, options, stream, factory);
  }
  if (property == "decoder-lockstep") {
    return CheckDecoderLockstep(codec_name, options, stream, factory);
  }
  if (property == "batched-identity") {
    return CheckBatchedIdentity(codec_name, options, stream, factory);
  }
  if (property == "kernel-dispatch-identity") {
    return CheckKernelDispatchIdentity(codec_name, options, stream, factory);
  }
  if (property == "decision-replay") {
    return CheckDecisionReplay(codec_name, options, stream, factory);
  }
  throw std::invalid_argument("unknown universal property: " + property);
}

}  // namespace abenc::verify
