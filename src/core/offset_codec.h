// Offset (difference) code — an irredundant extension exercised by the
// "future work" benches: the bus carries b(t) - b(t-1) (mod 2^N).
#pragma once

#include "core/codec.h"
#include "core/simd/kernel_dispatch.h"

namespace abenc {

/// Transmits the arithmetic difference between successive addresses. For a
/// stream stepping by a constant stride the bus carries the same small
/// constant every cycle, so the lines stop switching after the first
/// difference — like T0 but without a redundant line, at the cost of a
/// full adder on both ends and loss of self-synchronisation (a decoder
/// joining mid-stream must first observe a reset).
class OffsetCodec final : public Codec {
 public:
  explicit OffsetCodec(unsigned width) : Codec(width) {}

  std::string name() const override { return "offset"; }
  std::string display_name() const override { return "Offset"; }
  unsigned redundant_lines() const override { return 0; }

  BusState Encode(Word address, bool /*sel*/) override {
    const Word b = Mask(address);
    const Word delta = Mask(b - enc_prev_);
    enc_prev_ = b;
    return BusState{delta, 0};
  }

  // Devirtualized block kernel, routed through the active SIMD backend:
  // encoder-side b(t-1) is carried in *enc_prev_ across calls, so
  // chunked encoding chains bit-identically with the per-word path.
  void EncodeBatch(AccessView in, std::size_t n,
                   std::span<BusState> out) override {
    if (n == 0) return;
    simd::ActiveKernels().offset(in.addresses, n, LowMask(width()),
                                 &enc_prev_, out.data());
  }

  Word Decode(const BusState& bus, bool /*sel*/) override {
    dec_prev_ = Mask(dec_prev_ + bus.lines);
    return dec_prev_;
  }

  void Reset() override { enc_prev_ = dec_prev_ = 0; }

 private:
  Word enc_prev_ = 0;  // encoder-side b(t-1); power-on value 0 on both ends
  Word dec_prev_ = 0;
};

}  // namespace abenc
