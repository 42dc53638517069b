// T0 asymptotic-zero-transition code (Benini et al., GLSVLSI 1997),
// Eq. 3/4 of the paper.
#pragma once

#include "core/codec.h"
#include "core/simd/kernel_dispatch.h"

namespace abenc {

/// Redundant code with one INC line. When the new address equals the
/// previous address plus the stride S (a constant power of two reflecting
/// the machine's addressability), INC is asserted and all bus lines are
/// frozen at their previous value; the receiver regenerates the address
/// locally. Otherwise the address travels in plain binary with INC low:
///
///   (B(t), INC(t)) = (B(t-1), 1)  if b(t) = b(t-1) + S
///                    (b(t),   0)  otherwise
///
/// On an unlimited in-sequence stream the bus never switches (zero
/// transitions per address, beating the Gray code's one).
class T0Codec final : public Codec {
 public:
  explicit T0Codec(unsigned width, Word stride = 4)
      : Codec(width), stride_(stride) {
    if (!IsPowerOfTwo(stride)) {
      throw CodecConfigError("T0 stride must be a power of two");
    }
  }

  std::string name() const override { return "t0"; }
  std::string display_name() const override { return "T0"; }
  unsigned redundant_lines() const override { return 1; }

  BusState Encode(Word address, bool /*sel*/) override {
    const Word b = Mask(address);
    BusState out;
    if (enc_has_prev_ && b == Mask(enc_prev_addr_ + stride_)) {
      out = BusState{enc_prev_bus_.lines, 1};
    } else {
      out = BusState{b, 0};
    }
    enc_prev_addr_ = b;
    enc_prev_bus_ = out;
    enc_has_prev_ = true;
    return out;
  }

  // Devirtualized block kernel, routed through the active SIMD backend:
  // the encoder registers (previous address, frozen bus value,
  // first-word flag) carry across calls, so any chunking reproduces the
  // per-word trajectory exactly — including the verbatim first word
  // after Reset.
  void EncodeBatch(AccessView in, std::size_t n,
                   std::span<BusState> out) override {
    if (n == 0) return;
    simd::ActiveKernels().t0(in.addresses, n, LowMask(width()), stride_,
                             &enc_has_prev_, &enc_prev_addr_, &enc_prev_bus_,
                             out.data());
  }

  Word Decode(const BusState& bus, bool /*sel*/) override {
    const Word b = (bus.redundant & 1) ? Mask(dec_prev_addr_ + stride_)
                                       : Mask(bus.lines);
    dec_prev_addr_ = b;
    return b;
  }
  void DecodeBatch(AccessView in, std::span<const BusState> bus,
                   std::span<Word> out) override {
    DecodeEach(*this, in, bus, out);
  }

  void Reset() override {
    enc_has_prev_ = false;
    enc_prev_addr_ = 0;
    enc_prev_bus_ = BusState{};
    dec_prev_addr_ = 0;
  }

  Word stride() const { return stride_; }

 private:
  Word stride_;
  // Encoder side: b(t-1) and the frozen bus value B(t-1).
  bool enc_has_prev_ = false;
  Word enc_prev_addr_ = 0;
  BusState enc_prev_bus_;
  // Decoder side: the last decoded address.
  Word dec_prev_addr_ = 0;
};

}  // namespace abenc
