// Dual T0_BI code (Section 3.3 of the paper), Eq. 11/12 — the paper's
// best-performing scheme for multiplexed address buses.
#pragma once

#include "core/codec.h"

namespace abenc {

/// Dual T0 for instruction slots plus bus-invert for data slots, sharing a
/// single overloaded redundant line INCV = INC + INV (SEL disambiguates):
///
///   (B(t), INCV(t)) = (B(t-1), 1)  if SEL = 1 and b(t) = ~b(t) + S
///                     (~b(t),  1)  if SEL = 0 and H(t) > N/2
///                     (b(t),   0)  otherwise
///
/// H(t) = Hamming( B(t-1)|INCV(t-1) , b(t)|0 ); ~b is the instruction
/// shadow register of Eq. 9. Decoding (Eq. 12):
///
///   b(t) = ~b(t) + S  if INCV = 1 and SEL = 1
///          ~B(t)      if INCV = 1 and SEL = 0
///          B(t)       if INCV = 0
class DualT0BICodec final : public Codec {
 public:
  explicit DualT0BICodec(unsigned width, Word stride = 4)
      : Codec(width), stride_(stride) {
    if (!IsPowerOfTwo(stride)) {
      throw CodecConfigError("dual T0_BI stride must be a power of two");
    }
  }

  std::string name() const override { return "dual-t0-bi"; }
  std::string display_name() const override { return "Dual T0_BI"; }
  unsigned redundant_lines() const override { return 1; }

  BusState Encode(Word address, bool sel) override {
    const Word b = Mask(address);
    BusState out;
    if (sel && enc_shadow_valid_ && b == Mask(enc_shadow_ + stride_)) {
      out = BusState{enc_prev_bus_.lines, 1};
    } else if (!sel) {
      const int h = HammingDistance(enc_prev_bus_.lines, b, width()) +
                    static_cast<int>(enc_prev_bus_.redundant & 1);
      out = (2 * h > static_cast<int>(width())) ? BusState{Mask(~b), 1}
                                                : BusState{b, 0};
    } else {
      out = BusState{b, 0};
    }
    if (sel) {
      enc_shadow_ = b;
      enc_shadow_valid_ = true;
    }
    enc_prev_bus_ = out;
    return out;
  }

  // The shadow register and the bus-invert decision are serial
  // recurrences, so the batch paths keep the one-pass loop and drop the
  // per-word virtual call.
  void EncodeBatch(AccessView in, std::size_t n,
                   std::span<BusState> out) override {
    EncodeEach(*this, in, n, out);
  }

  Word Decode(const BusState& bus, bool sel) override {
    Word b;
    if ((bus.redundant & 1) && sel) {
      b = Mask(dec_shadow_ + stride_);
    } else if (bus.redundant & 1) {
      b = Mask(~bus.lines);
    } else {
      b = Mask(bus.lines);
    }
    if (sel) dec_shadow_ = b;
    return b;
  }
  void DecodeBatch(AccessView in, std::span<const BusState> bus,
                   std::span<Word> out) override {
    DecodeEach(*this, in, bus, out);
  }

  void Reset() override {
    enc_shadow_valid_ = false;
    enc_shadow_ = 0;
    enc_prev_bus_ = BusState{};
    dec_shadow_ = 0;
  }

  Word stride() const { return stride_; }

 private:
  Word stride_;
  bool enc_shadow_valid_ = false;
  Word enc_shadow_ = 0;
  BusState enc_prev_bus_;
  Word dec_shadow_ = 0;
};

}  // namespace abenc
