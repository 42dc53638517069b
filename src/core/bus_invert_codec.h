// Bus-invert coding (Stan/Burleson, TVLSI 1995), Eq. 1/2 of the paper.
#pragma once

#include <vector>

#include "core/codec.h"
#include "core/simd/kernel_dispatch.h"

namespace abenc {

/// Redundant code with one INV line per partition. With the default single
/// partition this is exactly Eq. 1 of the paper:
///
///   (B(t), INV(t)) = (b(t), 0)   if H(t) <= N/2
///                    (~b(t), 1)  if H(t) >  N/2
///
/// where H(t) is the Hamming distance between the previous *encoded* bus
/// state including the INV line, (B(t-1) | INV(t-1)), and the candidate
/// (b(t) | 0). Decoding (Eq. 2) is stateless: INV selects the polarity.
///
/// The multi-partition variant (also due to Stan/Burleson) splits the bus
/// into equal slices, each with a private INV line and an independent
/// majority decision; it is exercised by the extension benches.
///
/// On the suspected off-by-one in the majority threshold (refuted): with
/// h = H(t) as above, keeping polarity costs h transitions this cycle
/// while inverting costs (N - (h - INV(t-1))) + (1 - INV(t-1)) =
/// N + 1 - h, so inverting is *strictly* cheaper only when 2h > N + 1.
/// The code inverts when 2h > N — Eq. 1 verbatim. For even N (every
/// configuration in the paper, and every power-of-two slice) the two
/// predicates are identical because 2h is even and cannot equal N + 1;
/// an exact h == N/2 tie keeps polarity, matching Eq. 1's "<= N/2"
/// branch. For odd slice widths 2h == N + 1 is an equal-cost tie that
/// Eq. 1 — and therefore this code — resolves toward inverting. Either
/// resolution costs the same; the choice is pinned by regression tests
/// (BusInvertCodecTest.*Tie*) and cross-checked against the gate-level
/// netlist oracle in the verify suite.
class BusInvertCodec final : public Codec {
 public:
  explicit BusInvertCodec(unsigned width, unsigned partitions = 1)
      : Codec(width), partitions_(partitions) {
    if (partitions == 0 || partitions > width || width % partitions != 0) {
      throw CodecConfigError(
          "bus-invert partitions must evenly divide the bus width");
    }
    slice_width_ = width / partitions;
  }

  std::string name() const override {
    return partitions_ == 1 ? "bus-invert"
                            : "bus-invert-p" + std::to_string(partitions_);
  }
  std::string display_name() const override { return "Bus-Invert"; }
  unsigned redundant_lines() const override { return partitions_; }

  BusState Encode(Word address, bool /*sel*/) override {
    const Word b = Mask(address);
    BusState out{0, 0};
    for (unsigned p = 0; p < partitions_; ++p) {
      const Word slice_mask = LowMask(slice_width_) << (p * slice_width_);
      const Word prev_slice = prev_.lines & slice_mask;
      const Word cand_slice = b & slice_mask;
      const int prev_inv = static_cast<int>((prev_.redundant >> p) & 1);
      // Hamming distance over slice lines plus the slice's INV line
      // compared against a candidate INV of 0.
      const int h = PopCount(prev_slice ^ cand_slice) + prev_inv;
      if (2 * h > static_cast<int>(slice_width_)) {
        out.lines |= ~cand_slice & slice_mask;
        out.redundant |= Word{1} << p;
      } else {
        out.lines |= cand_slice;
      }
    }
    prev_ = out;
    return out;
  }

  // Devirtualized block kernel. The common single-partition
  // configuration — every row of the paper's tables — goes through the
  // dispatch table (where every backend keeps the scalar majority
  // recurrence: the decision feeds one cycle's popcount into the next
  // and does not vectorize); multi-partition slices reuse the per-word
  // member logic without the per-word virtual dispatch.
  void EncodeBatch(AccessView in, std::size_t n,
                   std::span<BusState> out) override {
    if (partitions_ != 1) {
      EncodeEach(*this, in, n, out);
      return;
    }
    if (n == 0) return;
    simd::ActiveKernels().bus_invert(in.addresses, n, LowMask(width()),
                                     static_cast<int>(width()), &prev_,
                                     out.data());
  }

  Word Decode(const BusState& bus, bool /*sel*/) override {
    Word b = 0;
    for (unsigned p = 0; p < partitions_; ++p) {
      const Word slice_mask = LowMask(slice_width_) << (p * slice_width_);
      const bool inv = (bus.redundant >> p) & 1;
      b |= (inv ? ~bus.lines : bus.lines) & slice_mask;
    }
    return Mask(b);
  }
  // Single-partition decode goes through the dispatch table's kernel;
  // multi-partition slices reuse the per-word member logic.
  void DecodeBatch(AccessView in, std::span<const BusState> bus,
                   std::span<Word> out) override {
    if (partitions_ != 1) {
      DecodeEach(*this, in, bus, out);
      return;
    }
    simd::ActiveKernels().bus_invert_decode(bus.data(), bus.size(),
                                            LowMask(width()), out.data());
  }

  void Reset() override { prev_ = BusState{}; }

  unsigned partitions() const { return partitions_; }

 private:
  unsigned partitions_;
  unsigned slice_width_ = 0;
  BusState prev_;  // encoder-side B(t-1) | INV(t-1); decode is stateless
};

}  // namespace abenc
