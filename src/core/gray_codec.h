// Gray encoding of the address stream (Su/Tsui/Despain), with the
// byte-addressable stride adaptation of Mehta/Owens/Irwin.
#pragma once

#include "core/codec.h"
#include "core/simd/kernel_dispatch.h"

namespace abenc {

/// Irredundant Gray code. For stride S = 1 this is the classic reflected
/// Gray code: consecutive addresses differ in exactly one bus line, the
/// optimum among irredundant codes.
///
/// For byte-addressable machines whose consecutive references step by a
/// power-of-two stride S (e.g. S = 4 on a 32-bit-word MIPS), the plain Gray
/// code loses the single-transition property. Following Mehta et al., the
/// low log2(S) offset bits are kept binary and only the word part of the
/// address is Gray-coded, restoring one transition per in-sequence access.
class GrayCodec final : public Codec {
 public:
  explicit GrayCodec(unsigned width, Word stride = 1)
      : Codec(width), shift_(ValidatedShift(stride, width)) {}

  std::string name() const override {
    return shift_ == 0 ? "gray" : "gray-s" + std::to_string(Word{1} << shift_);
  }
  std::string display_name() const override { return "Gray"; }
  unsigned redundant_lines() const override { return 0; }

  BusState Encode(Word address, bool /*sel*/) override {
    const Word b = Mask(address);
    const Word low = b & LowMask(shift_ == 0 ? 0 : shift_);
    const Word word_part = shift_ >= 64 ? 0 : (b >> shift_);
    return BusState{Mask((BinaryToGray(word_part) << shift_) | low), 0};
  }

  // Devirtualized block kernel, routed through the active SIMD backend.
  // The shift pair is folded into a mask pair: with b pre-masked,
  //   (BinaryToGray(b >> s) << s) | (b & low)  ==
  //   (BinaryToGray(b) & ~low) | (b & low)
  // because (b >> s) ^ (b >> (s+1)) re-shifted left by s is just
  // b ^ (b >> 1) with the low s bits cleared. Stateless, like Encode.
  void EncodeBatch(AccessView in, std::size_t n,
                   std::span<BusState> out) override {
    if (n == 0) return;
    const Word mask = LowMask(width());
    const Word low_mask = LowMask(shift_);
    simd::ActiveKernels().gray(in.addresses, n, mask, low_mask,
                               mask & ~low_mask, out.data());
  }

  Word Decode(const BusState& bus, bool /*sel*/) override {
    const Word g = Mask(bus.lines);
    const Word low = g & LowMask(shift_ == 0 ? 0 : shift_);
    const Word word_part = shift_ >= 64 ? 0 : (g >> shift_);
    return Mask((GrayToBinary(word_part) << shift_) | low);
  }

  void Reset() override {}

  Word stride() const { return Word{1} << shift_; }

 private:
  static unsigned ValidatedShift(Word stride, unsigned width) {
    if (!IsPowerOfTwo(stride)) {
      throw CodecConfigError("Gray stride must be a power of two");
    }
    const unsigned shift = Log2(stride);
    if (shift >= width) {
      throw CodecConfigError("Gray stride must be smaller than the bus span");
    }
    return shift;
  }

  unsigned shift_;
};

}  // namespace abenc
