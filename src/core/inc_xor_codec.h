// INC-XOR code (Ramprasad/Shanbhag/Hajj style) — irredundant extension.
#pragma once

#include "core/codec.h"
#include "core/simd/kernel_dispatch.h"

namespace abenc {

/// Transition-signalling variant of T0 that needs no redundant line: the
/// encoder toggles exactly the bus lines where the new address differs from
/// the *predicted* address b(t-1) + S,
///
///   B(t) = B(t-1) xor ( b(t) xor (b(t-1) + S) ),
///
/// so a perfectly sequential stream produces zero transitions, and an
/// out-of-sequence address costs only the Hamming distance to the
/// prediction. The decoder mirrors the recurrence:
///
///   b(t) = ( B(t) xor B(t-1) ) xor ( b(t-1) + S ).
class IncXorCodec final : public Codec {
 public:
  explicit IncXorCodec(unsigned width, Word stride = 4)
      : Codec(width), stride_(stride) {
    if (!IsPowerOfTwo(stride)) {
      throw CodecConfigError("INC-XOR stride must be a power of two");
    }
  }

  std::string name() const override { return "inc-xor"; }
  std::string display_name() const override { return "INC-XOR"; }
  unsigned redundant_lines() const override { return 0; }

  BusState Encode(Word address, bool /*sel*/) override {
    const Word b = Mask(address);
    const Word prediction = Mask(enc_prev_addr_ + stride_);
    enc_prev_bus_ = Mask(enc_prev_bus_ ^ (b ^ prediction));
    enc_prev_addr_ = b;
    return BusState{enc_prev_bus_, 0};
  }

  // Devirtualized block kernel, routed through the active SIMD backend
  // (the AVX2 table turns the running XOR into an in-register
  // prefix-XOR); the encoder registers carry across calls.
  void EncodeBatch(AccessView in, std::size_t n,
                   std::span<BusState> out) override {
    if (n == 0) return;
    simd::ActiveKernels().inc_xor(in.addresses, n, LowMask(width()), stride_,
                                  &enc_prev_addr_, &enc_prev_bus_,
                                  out.data());
  }

  Word Decode(const BusState& bus, bool /*sel*/) override {
    const Word prediction = Mask(dec_prev_addr_ + stride_);
    const Word b = Mask((Mask(bus.lines) ^ dec_prev_bus_) ^ prediction);
    dec_prev_bus_ = Mask(bus.lines);
    dec_prev_addr_ = b;
    return b;
  }

  void Reset() override {
    enc_prev_addr_ = dec_prev_addr_ = 0;
    enc_prev_bus_ = dec_prev_bus_ = 0;
  }

  Word stride() const { return stride_; }

 private:
  Word stride_;
  Word enc_prev_addr_ = 0;
  Word enc_prev_bus_ = 0;
  Word dec_prev_addr_ = 0;
  Word dec_prev_bus_ = 0;
};

}  // namespace abenc
