// Dual T0 code (Section 3.2 of the paper), Eq. 8/9/10.
#pragma once

#include "core/codec.h"

namespace abenc {

/// T0 restricted to the instruction slots of a time-multiplexed address
/// bus. The SEL control signal (already present on the standard bus
/// interface) gates both the sequentiality test and the update of the
/// encoding/decoding shadow registers, so interleaved data accesses do not
/// break the sequentiality of the instruction stream:
///
///   (B(t), INC(t)) = (B(t-1), 1)  if SEL = 1 and b(t) = ~b(t) + S
///                    (b(t),   0)  otherwise
///
/// where the shadow register ~b follows Eq. 9: it holds the most recent
/// *instruction* address (it loads b(t-1) only when SEL(t-1) = 1).
/// Data-slot addresses always travel in plain binary.
class DualT0Codec final : public Codec {
 public:
  explicit DualT0Codec(unsigned width, Word stride = 4)
      : Codec(width), stride_(stride) {
    if (!IsPowerOfTwo(stride)) {
      throw CodecConfigError("dual T0 stride must be a power of two");
    }
  }

  std::string name() const override { return "dual-t0"; }
  std::string display_name() const override { return "Dual T0"; }
  unsigned redundant_lines() const override { return 1; }

  BusState Encode(Word address, bool sel) override {
    const Word b = Mask(address);
    BusState out;
    if (sel && enc_shadow_valid_ && b == Mask(enc_shadow_ + stride_)) {
      out = BusState{enc_prev_bus_.lines, 1};
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

  // The shadow register only loads on instruction slots, so the batch
  // paths keep the one-pass recurrence and drop the per-word virtual
  // call.
  void EncodeBatch(AccessView in, std::size_t n,
                   std::span<BusState> out) override {
    EncodeEach(*this, in, n, out);
  }

  Word Decode(const BusState& bus, bool sel) override {
    const Word b = (bus.redundant & 1) ? Mask(dec_shadow_ + stride_)
                                       : Mask(bus.lines);
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
  // Encoder side: shadow of the last instruction address (Eq. 9) and B(t-1).
  bool enc_shadow_valid_ = false;
  Word enc_shadow_ = 0;
  BusState enc_prev_bus_;
  // Decoder side shadow.
  Word dec_shadow_ = 0;
};

}  // namespace abenc
