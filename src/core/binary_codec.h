// Pure binary (unencoded) transmission: the reference code of every table.
#pragma once

#include "core/codec.h"
#include "core/simd/kernel_dispatch.h"

namespace abenc {

/// B(t) = b(t). Irredundant and stateless; the baseline against which all
/// savings in the paper (and in this repo's benches) are reported.
class BinaryCodec final : public Codec {
 public:
  explicit BinaryCodec(unsigned width) : Codec(width) {}

  std::string name() const override { return "binary"; }
  std::string display_name() const override { return "Binary"; }
  unsigned redundant_lines() const override { return 0; }

  BusState Encode(Word address, bool /*sel*/) override {
    return BusState{Mask(address), 0};
  }

  // Devirtualized block kernel, routed through the active SIMD backend
  // (core/simd/kernel_dispatch.h). Stateless, so chunk boundaries
  // cannot matter.
  void EncodeBatch(AccessView in, std::size_t n,
                   std::span<BusState> out) override {
    if (n == 0) return;
    simd::ActiveKernels().binary(in.addresses, n, LowMask(width()),
                                 out.data());
  }
  Word Decode(const BusState& bus, bool /*sel*/) override {
    return Mask(bus.lines);
  }
  void Reset() override {}
};

}  // namespace abenc
