// The batched-evaluation kernel layer: chunk geometry and the stream
// accumulator — word-parallel transition accounting over blocks of
// encoded bus states, the in-sequence count and the segment fold.
//
// The per-word path pays one virtual Encode plus one TransitionCounter
// observation per access; the batched path produced here encodes a whole
// chunk through Codec::EncodeBatch (one virtual dispatch per chunk, with
// SIMD kernels for the high-traffic codes) and then counts the chunk's
// transitions in a tight XOR+popcount sweep over contiguous BusStates.
// Both paths are bit-identical by contract — see EvaluateBatched
// (core/stream_evaluator.h), the `batched-identity` universal verify
// property and docs/ARCHITECTURE.md "The batched hot path".
#pragma once

#include <cstddef>
#include <span>

#include "core/simd/kernels.h"
#include "core/stream_evaluator.h"
#include "core/types.h"

namespace abenc {

/// Chunk length EvaluateBatched uses when the caller does not pick one:
/// big enough to amortize the per-chunk virtual dispatch and metrics
/// bookkeeping to noise, small enough that one in-flight chunk (accesses
/// plus encoded states) stays comfortably inside L2 per worker.
inline constexpr std::size_t kDefaultChunkSize = 4096;

/// Stream accounting over blocks of encoded bus states — the arithmetic
/// behind every EvalResult of EvaluateBatched and of the encoding
/// service's sessions, which differ only in how they drive it.
///
/// The transition sweep is bit-identical to feeding the same states one
/// by one through TransitionCounter (total, peak and per-line histogram
/// all match; the lockstep is enforced by tests/stream_evaluator_test and
/// the `batched-identity` verify property). It carries the previous
/// block's last state across Consume() calls, starting from the
/// all-lines-low power-on state, so chunk boundaries never alter the
/// count.
///
/// A stream whose codec is torn down or replaced mid-way (a session's
/// evictions and renegotiated switches) is a sequence of segments, each
/// starting again from power-on; StartSegment() closes one and opens the
/// next, and Result() combines them with FoldSegment(). The in-sequence
/// count is a property of the whole stream and carries across segments.
class BlockTransitionAccumulator {
 public:
  /// `stride_for_stats` is Evaluate()'s in-sequence stride; addresses
  /// compare under LowMask(width).
  BlockTransitionAccumulator(unsigned width, unsigned redundant_lines,
                             Word stride_for_stats = 4);

  /// Account one encoded chunk, in stream order: the transition sweep.
  void Consume(std::span<const BusState> block);

  /// Account one encoded chunk and the addresses it encodes: the sweep
  /// plus the in-sequence count.
  void Consume(std::span<const BusState> block, simd::AddressView addresses);

  /// Close the live segment and open the next at the power-on state,
  /// with the line geometry of the codec that encodes it.
  void StartSegment(unsigned width, unsigned redundant_lines);

  /// Every segment folded, with the in-sequence percentage over every
  /// consumed address; `codec_name` is left to the caller.
  EvalResult Result() const;

 private:
  void OpenSegment(unsigned width, unsigned redundant_lines);

  Word data_mask_ = 0;
  Word redundant_mask_ = 0;
  unsigned width_ = 0;
  BusState prev_;      // power-on state: all lines low
  EvalResult live_;    // the open segment's sweep totals
  EvalResult closed_;  // every closed segment, folded
  Word address_mask_;
  Word stride_;
  Word prev_address_ = 0;  // raw b(t-1), like the stream entries
  bool has_prev_ = false;
  std::size_t in_seq_ = 0;
};

}  // namespace abenc
