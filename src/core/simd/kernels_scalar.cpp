// Scalar reference kernels: the codecs' original block-encode loops and the
// XOR+popcount transition sweep, lifted verbatim so every SIMD backend
// has a bit-exact oracle (and a tail/fallback) to defer to.
#include <bit>

#include "core/simd/kernels.h"

namespace abenc::simd {
namespace detail {

void BinaryEncodeScalar(AddressView in, std::size_t n, Word mask,
                        BusState* out) {
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = BusState{in[i] & mask, 0};
  }
}

void GrayEncodeScalar(AddressView in, std::size_t n, Word mask, Word low_mask,
                      Word high_mask, BusState* out) {
  for (std::size_t i = 0; i < n; ++i) {
    const Word b = in[i] & mask;
    out[i] = BusState{(BinaryToGray(b) & high_mask) | (b & low_mask), 0};
  }
}

void OffsetEncodeScalar(AddressView in, std::size_t n, Word mask,
                        Word* prev_addr, BusState* out) {
  Word prev = *prev_addr;
  for (std::size_t i = 0; i < n; ++i) {
    const Word b = in[i] & mask;
    out[i] = BusState{(b - prev) & mask, 0};
    prev = b;
  }
  *prev_addr = prev;
}

void IncXorEncodeScalar(AddressView in, std::size_t n, Word mask, Word stride,
                        Word* prev_addr, Word* prev_bus, BusState* out) {
  Word pa = *prev_addr;
  Word pb = *prev_bus;
  for (std::size_t i = 0; i < n; ++i) {
    const Word b = in[i] & mask;
    const Word prediction = (pa + stride) & mask;
    pb = (pb ^ (b ^ prediction)) & mask;
    pa = b;
    out[i] = BusState{pb, 0};
  }
  *prev_addr = pa;
  *prev_bus = pb;
}

void T0EncodeScalar(AddressView in, std::size_t n, Word mask, Word stride,
                    bool* has_prev, Word* prev_addr, BusState* prev_bus,
                    BusState* out) {
  Word pa = *prev_addr;
  BusState pb = *prev_bus;
  bool has = *has_prev;
  for (std::size_t i = 0; i < n; ++i) {
    const Word b = in[i] & mask;
    if (has && b == ((pa + stride) & mask)) {
      out[i] = BusState{pb.lines, 1};
    } else {
      out[i] = BusState{b, 0};
    }
    pa = b;
    pb = out[i];
    has = true;
  }
  *prev_addr = pa;
  *prev_bus = pb;
  *has_prev = has;
}

void BusInvertEncodeScalar(AddressView in, std::size_t n, Word mask, int width,
                           BusState* prev, BusState* out) {
  BusState p = *prev;
  for (std::size_t i = 0; i < n; ++i) {
    const Word cand = in[i] & mask;
    const int h =
        PopCount(p.lines ^ cand) + static_cast<int>(p.redundant & 1);
    if (2 * h > width) {
      p = BusState{~cand & mask, 1};
    } else {
      p = BusState{cand, 0};
    }
    out[i] = p;
  }
  *prev = p;
}

void TransitionSweepScalar(const BusState* states, std::size_t n,
                           Word data_mask, Word redundant_mask, unsigned width,
                           BusState* prev, long long* total, int* peak,
                           long long* per_line) {
  BusState p = *prev;
  long long t = *total;
  int pk = *peak;
  for (std::size_t i = 0; i < n; ++i) {
    Word diff = (p.lines ^ states[i].lines) & data_mask;
    Word rdiff = (p.redundant ^ states[i].redundant) & redundant_mask;
    const int this_cycle = PopCount(diff) + PopCount(rdiff);
    t += this_cycle;
    if (this_cycle > pk) pk = this_cycle;
    // Per-line histogram: only the toggled lines are visited.
    while (diff != 0) {
      ++per_line[static_cast<unsigned>(std::countr_zero(diff))];
      diff &= diff - 1;
    }
    while (rdiff != 0) {
      ++per_line[width + static_cast<unsigned>(std::countr_zero(rdiff))];
      rdiff &= rdiff - 1;
    }
    p = states[i];
  }
  *prev = p;
  *total = t;
  *peak = pk;
}

void InSeqCountScalar(AddressView in, std::size_t n, Word mask, Word stride,
                      Word* prev_addr, bool* has_prev, std::size_t* count) {
  Word prev = *prev_addr;
  bool has = *has_prev;
  std::size_t c = *count;
  for (std::size_t i = 0; i < n; ++i) {
    const Word a = in[i];
    if (has && (a & mask) == ((prev + stride) & mask)) ++c;
    prev = a;
    has = true;
  }
  *prev_addr = prev;
  *has_prev = has;
  *count = c;
}

}  // namespace detail

const KernelTable& ScalarKernels() {
  static const KernelTable table{
      "scalar",
      detail::BinaryEncodeScalar,
      detail::GrayEncodeScalar,
      detail::OffsetEncodeScalar,
      detail::IncXorEncodeScalar,
      detail::T0EncodeScalar,
      detail::BusInvertEncodeScalar,
      detail::TransitionSweepScalar,
      detail::InSeqCountScalar,
  };
  return table;
}

}  // namespace abenc::simd
