// NEON kernels: two 64-bit lanes per vector, aarch64 baseline (no extra
// compile flags needed, so there is no runtime probe either — compiled
// in implies executable).
//
// The backend is deliberately conservative: binary/Gray/offset/INC-XOR
// and the transition sweep vectorize cleanly with two lanes (vld2q
// deinterleaves BusAccess records for free, vcntq drives the popcount),
// while T0's fill-forward and bus-invert's majority recurrence stay on
// the scalar reference, and so do the Gray and bus-invert decodes (not
// ported yet). Identity against the scalar table is enforced
// by the same property/tests as AVX2, run under qemu in the
// cross-aarch64 CI job.
#include "core/simd/kernels.h"

#if !defined(ABENC_HAVE_NEON)
#error "kernels_neon.cpp requires ABENC_HAVE_NEON (see src/core/CMakeLists)"
#endif

#include <arm_neon.h>

#include <bit>

namespace abenc::simd {
namespace {

constexpr std::size_t kLanes = 2;

// Two consecutive addresses from either stride (see AddressView).
inline uint64x2_t LoadAddresses2(AddressView in, std::size_t i) {
  if (in.step == 1) {
    return vld1q_u64(in.addr + i);
  }
  // step 2: vld2q deinterleaves {address, sel-word} pairs; val[0] is
  // the address column.
  return vld2q_u64(in.addr + 2 * i).val[0];
}

// Interleave two {lines, redundant} pairs back into BusState AoS form.
inline void StoreStates2(BusState* out, std::size_t i, uint64x2_t lines,
                         uint64x2_t redundant) {
  uint64x2x2_t pair;
  pair.val[0] = lines;
  pair.val[1] = redundant;
  vst2q_u64(&out[i].lines, pair);
}

// [prev, x0]: lane shift with scalar carry-in for serial recurrences.
inline uint64x2_t ShiftInPrev(uint64x2_t x, Word prev) {
  return vextq_u64(vdupq_n_u64(prev), x, 1);
}

// Per-lane 64-bit popcount via the byte-count + pairwise-widen chain.
inline uint64x2_t PopCount64x2(uint64x2_t v) {
  return vpaddlq_u32(
      vpaddlq_u16(vpaddlq_u8(vcntq_u8(vreinterpretq_u8_u64(v)))));
}

void BinaryEncodeNeon(AddressView in, std::size_t n, Word mask,
                      BusState* out) {
  const uint64x2_t vmask = vdupq_n_u64(mask);
  const uint64x2_t zero = vdupq_n_u64(0);
  std::size_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    StoreStates2(out, i, vandq_u64(LoadAddresses2(in, i), vmask), zero);
  }
  detail::BinaryEncodeScalar(AddressView{in.addr + in.step * i, in.step},
                             n - i, mask, out + i);
}

void GrayEncodeNeon(AddressView in, std::size_t n, Word mask, Word low_mask,
                    Word high_mask, BusState* out) {
  const uint64x2_t vmask = vdupq_n_u64(mask);
  const uint64x2_t vlow = vdupq_n_u64(low_mask);
  const uint64x2_t vhigh = vdupq_n_u64(high_mask);
  const uint64x2_t zero = vdupq_n_u64(0);
  std::size_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    const uint64x2_t b = vandq_u64(LoadAddresses2(in, i), vmask);
    const uint64x2_t gray = veorq_u64(b, vshrq_n_u64(b, 1));
    const uint64x2_t lines =
        vorrq_u64(vandq_u64(gray, vhigh), vandq_u64(b, vlow));
    StoreStates2(out, i, lines, zero);
  }
  detail::GrayEncodeScalar(AddressView{in.addr + in.step * i, in.step}, n - i,
                           mask, low_mask, high_mask, out + i);
}

void OffsetEncodeNeon(AddressView in, std::size_t n, Word mask,
                      Word* prev_addr, BusState* out) {
  const uint64x2_t vmask = vdupq_n_u64(mask);
  const uint64x2_t zero = vdupq_n_u64(0);
  Word prev = *prev_addr;
  std::size_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    const uint64x2_t b = vandq_u64(LoadAddresses2(in, i), vmask);
    const uint64x2_t delta =
        vandq_u64(vsubq_u64(b, ShiftInPrev(b, prev)), vmask);
    StoreStates2(out, i, delta, zero);
    prev = vgetq_lane_u64(b, 1);
  }
  *prev_addr = prev;
  detail::OffsetEncodeScalar(AddressView{in.addr + in.step * i, in.step},
                             n - i, mask, prev_addr, out + i);
}

void IncXorEncodeNeon(AddressView in, std::size_t n, Word mask, Word stride,
                      Word* prev_addr, Word* prev_bus, BusState* out) {
  const uint64x2_t vmask = vdupq_n_u64(mask);
  const uint64x2_t vstride = vdupq_n_u64(stride);
  const uint64x2_t zero = vdupq_n_u64(0);
  Word pa = *prev_addr;
  Word pb = *prev_bus;
  std::size_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    const uint64x2_t b = vandq_u64(LoadAddresses2(in, i), vmask);
    const uint64x2_t prediction =
        vandq_u64(vaddq_u64(ShiftInPrev(b, pa), vstride), vmask);
    // Two-lane prefix-XOR of d = b ^ prediction, seeded with B(t-1).
    uint64x2_t x = veorq_u64(b, prediction);
    x = veorq_u64(x, vextq_u64(zero, x, 1));
    const uint64x2_t lines = veorq_u64(x, vdupq_n_u64(pb));
    StoreStates2(out, i, lines, zero);
    pa = vgetq_lane_u64(b, 1);
    pb = vgetq_lane_u64(lines, 1);
  }
  *prev_addr = pa;
  *prev_bus = pb;
  detail::IncXorEncodeScalar(AddressView{in.addr + in.step * i, in.step},
                             n - i, mask, stride, prev_addr, prev_bus,
                             out + i);
}

void TransitionSweepNeon(const BusState* states, std::size_t n, Word data_mask,
                         Word redundant_mask, unsigned width, BusState* prev,
                         long long* total, int* peak, long long* per_line) {
  // One BusState is exactly one uint64x2_t {lines, redundant}, so each
  // cycle's masked XOR diff and both popcounts happen in one vector.
  uint64x2_t mask2 = vdupq_n_u64(data_mask);
  mask2 = vsetq_lane_u64(redundant_mask, mask2, 1);
  uint64x2_t p = vdupq_n_u64(prev->lines);
  p = vsetq_lane_u64(prev->redundant, p, 1);
  long long t = *total;
  int pk = *peak;
  for (std::size_t i = 0; i < n; ++i) {
    const uint64x2_t cur = vld1q_u64(&states[i].lines);
    const uint64x2_t diff = vandq_u64(veorq_u64(p, cur), mask2);
    const uint64x2_t counts = PopCount64x2(diff);
    const int this_cycle = static_cast<int>(vgetq_lane_u64(counts, 0) +
                                            vgetq_lane_u64(counts, 1));
    t += this_cycle;
    if (this_cycle > pk) pk = this_cycle;
    Word lane = vgetq_lane_u64(diff, 0);
    while (lane != 0) {
      ++per_line[static_cast<unsigned>(std::countr_zero(lane))];
      lane &= lane - 1;
    }
    lane = vgetq_lane_u64(diff, 1);
    while (lane != 0) {
      ++per_line[width + static_cast<unsigned>(std::countr_zero(lane))];
      lane &= lane - 1;
    }
    p = cur;
  }
  prev->lines = vgetq_lane_u64(p, 0);
  prev->redundant = vgetq_lane_u64(p, 1);
  *total = t;
  *peak = pk;
}

void InSeqCountNeon(AddressView in, std::size_t n, Word mask, Word stride,
                    Word* prev_addr, bool* has_prev, std::size_t* count) {
  std::size_t i = 0;
  if (!*has_prev && n > 0) {
    detail::InSeqCountScalar(in, 1, mask, stride, prev_addr, has_prev, count);
    i = 1;
  }
  const uint64x2_t vmask = vdupq_n_u64(mask);
  const uint64x2_t vstride = vdupq_n_u64(stride);
  Word prev = *prev_addr;
  std::size_t c = *count;
  for (; i + kLanes <= n; i += kLanes) {
    const uint64x2_t a = LoadAddresses2(in, i);
    const uint64x2_t prediction =
        vandq_u64(vaddq_u64(ShiftInPrev(a, prev), vstride), vmask);
    const uint64x2_t matches = vceqq_u64(vandq_u64(a, vmask), prediction);
    c += static_cast<std::size_t>(vgetq_lane_u64(matches, 0) & 1) +
         static_cast<std::size_t>(vgetq_lane_u64(matches, 1) & 1);
    prev = vgetq_lane_u64(a, 1);
  }
  *prev_addr = prev;
  *count = c;
  detail::InSeqCountScalar(AddressView{in.addr + in.step * i, in.step}, n - i,
                           mask, stride, prev_addr, has_prev, count);
}

}  // namespace

const KernelTable& NeonKernels() {
  static const KernelTable table{
      "neon",
      BinaryEncodeNeon,
      GrayEncodeNeon,
      OffsetEncodeNeon,
      IncXorEncodeNeon,
      // T0's frozen-value fill-forward and bus-invert's majority
      // recurrence stay scalar in this table (explicitly, like the
      // AVX2 table's bus-invert entry).
      detail::T0EncodeScalar,
      detail::BusInvertEncodeScalar,
      // The decodes are not ported yet: both entries are the scalar
      // references.
      detail::GrayDecodeScalar,
      detail::BusInvertDecodeScalar,
      TransitionSweepNeon,
      InSeqCountNeon,
  };
  return table;
}

}  // namespace abenc::simd
