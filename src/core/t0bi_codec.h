// T0_BI mixed code (Section 3.1 of the paper), Eq. 6/7.
#pragma once

#include "core/codec.h"

namespace abenc {

/// Combines T0 and bus-invert with two redundant lines, INC (bit 0) and
/// INV (bit 1). In-sequence addresses freeze the bus exactly as in T0;
/// out-of-sequence addresses fall back to bus-invert with the majority
/// threshold widened to the full N+2 encoded lines:
///
///   (B,INC,INV) = (B(t-1), 1, 0)  if b(t) = b(t-1) + S
///                 (b(t),   0, 0)  if not seq and H(t) <= (N+2)/2
///                 (~b(t),  0, 1)  if not seq and H(t) >  (N+2)/2
///
/// H(t) = Hamming( B(t-1)|INC(t-1)|INV(t-1) , b(t)|0|0 ).
///
/// Intended for unified (single) address buses carrying both instruction
/// and data references, e.g. towards an external unified L2 cache.
class T0BICodec final : public Codec {
 public:
  explicit T0BICodec(unsigned width, Word stride = 4)
      : Codec(width), stride_(stride) {
    if (!IsPowerOfTwo(stride)) {
      throw CodecConfigError("T0_BI stride must be a power of two");
    }
  }

  std::string name() const override { return "t0-bi"; }
  std::string display_name() const override { return "T0_BI"; }
  unsigned redundant_lines() const override { return 2; }

  static constexpr Word kIncBit = 1;  // redundant bit 0
  static constexpr Word kInvBit = 2;  // redundant bit 1

  BusState Encode(Word address, bool /*sel*/) override {
    const Word b = Mask(address);
    BusState out;
    if (enc_has_prev_ && b == Mask(enc_prev_addr_ + stride_)) {
      out = BusState{enc_prev_bus_.lines, kIncBit};
    } else {
      const int h = HammingDistance(enc_prev_bus_.lines, b, width()) +
                    PopCount(enc_prev_bus_.redundant & (kIncBit | kInvBit));
      if (2 * h > static_cast<int>(width()) + 2) {
        out = BusState{Mask(~b), kInvBit};
      } else {
        out = BusState{b, 0};
      }
    }
    enc_prev_addr_ = b;
    enc_prev_bus_ = out;
    enc_has_prev_ = true;
    return out;
  }

  // The bus-invert decision feeds one cycle's popcount into the next, so
  // the one-pass recurrence stays; the batch paths only drop the
  // per-word virtual call.
  void EncodeBatch(AccessView in, std::size_t n,
                   std::span<BusState> out) override {
    EncodeEach(*this, in, n, out);
  }

  Word Decode(const BusState& bus, bool /*sel*/) override {
    Word b;
    if (bus.redundant & kIncBit) {
      b = Mask(dec_prev_addr_ + stride_);
    } else if (bus.redundant & kInvBit) {
      b = Mask(~bus.lines);
    } else {
      b = Mask(bus.lines);
    }
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
  bool enc_has_prev_ = false;
  Word enc_prev_addr_ = 0;
  BusState enc_prev_bus_;
  Word dec_prev_addr_ = 0;
};

}  // namespace abenc
