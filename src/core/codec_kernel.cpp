#include "core/codec_kernel.h"

#include "core/simd/kernel_dispatch.h"

namespace abenc {

BlockTransitionAccumulator::BlockTransitionAccumulator(unsigned width,
                                                       unsigned redundant_lines,
                                                       Word stride_for_stats)
    : address_mask_(LowMask(width)), stride_(stride_for_stats) {
  OpenSegment(width, redundant_lines);
}

void BlockTransitionAccumulator::OpenSegment(unsigned width,
                                             unsigned redundant_lines) {
  data_mask_ = LowMask(width);
  redundant_mask_ = redundant_lines == 0 ? 0 : LowMask(redundant_lines);
  width_ = width;
  prev_ = BusState{};
  live_ = EvalResult{};
  live_.per_line.assign(width + redundant_lines, 0);
}

void BlockTransitionAccumulator::Consume(std::span<const BusState> block) {
  if (block.empty()) return;
  // The XOR+popcount sweep runs on the active SIMD backend; every
  // backend is bit-identical to the scalar reference by contract (the
  // `kernel-dispatch-identity` verify property).
  simd::ActiveKernels().sweep(block.data(), block.size(), data_mask_,
                              redundant_mask_, width_, &prev_,
                              &live_.transitions, &live_.peak_transitions,
                              live_.per_line.data());
  live_.stream_length += block.size();
}

void BlockTransitionAccumulator::Consume(std::span<const BusState> block,
                                         simd::AddressView addresses) {
  Consume(block);
  if (block.empty()) return;
  // The exact predicate of InSequencePercent, carried across chunks.
  simd::ActiveKernels().in_seq(addresses, block.size(), address_mask_,
                               stride_, &prev_address_, &has_prev_,
                               &in_seq_);
}

void BlockTransitionAccumulator::StartSegment(unsigned width,
                                              unsigned redundant_lines) {
  FoldSegment(closed_, live_);
  OpenSegment(width, redundant_lines);
}

EvalResult BlockTransitionAccumulator::Result() const {
  EvalResult result = closed_;
  FoldSegment(result, live_);
  result.in_sequence_percent =
      result.stream_length < 2
          ? 0.0
          : 100.0 * static_cast<double>(in_seq_) /
                static_cast<double>(result.stream_length - 1);
  return result;
}

}  // namespace abenc
