// AVX2 kernels: four 64-bit lanes per vector.
//
// This translation unit is the only one compiled with -mavx2 (a
// per-file property in src/core/CMakeLists.txt — a global arch flag
// would let the compiler sprinkle AVX2 into code that runs before the
// dispatcher has probed the CPU; POPCNT, the library's x86-64 floor, is
// the one global flag). kernel_dispatch guarantees these functions are
// reached only on hosts that report the extension.
//
// Layout notes. BusAccess and BusState are both 16 bytes (two Words),
// so a group of four records spans two 256-bit vectors. Addresses are
// gathered with unpack+permute (step 2) or a plain load (step 1, the
// columnar mmap path); encoded {lines, redundant} pairs are scattered
// back with the inverse shuffle. Serial recurrences (offset's b(t-1),
// INC-XOR's running XOR) become a lane shift with a scalar carry-in;
// bus-invert's majority decision feeds back through a popcount and
// stays scalar in this table too — documented, not hidden.
//
// The transition sweep diffs each state against the one before it, read
// by an unaligned load one state back, and packs the data and redundant
// diffs into one word (line j at bit j). Hardware POPCNT of that word
// gives the total and the peak; one byte counter per line gives the
// histogram — each bit expanded to a byte lane (vpshufb, then vpcmpeqb
// against 0x8040...01) and accumulated with vpsubb, widened into the
// per-line totals every 252 cycles. Geometries wider than 64 packed
// lines take the scalar sweep.
#include <immintrin.h>

#include <algorithm>
#include <bit>
#include <cstdint>

#include "core/simd/kernels.h"

#if !defined(ABENC_HAVE_AVX2)
#error "kernels_avx2.cpp requires ABENC_HAVE_AVX2 (see src/core/CMakeLists)"
#endif

namespace abenc::simd {
namespace {

constexpr std::size_t kLanes = 4;

// Four consecutive addresses from either stride (see AddressView).
inline __m256i LoadAddresses4(AddressView in, std::size_t i) {
  if (in.step == 1) {
    return _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(in.addr + i));
  }
  // step 2: addresses occupy 64-bit lanes {0, 2} of two vectors.
  const __m256i a = _mm256_loadu_si256(
      reinterpret_cast<const __m256i*>(in.addr + 2 * i));
  const __m256i b = _mm256_loadu_si256(
      reinterpret_cast<const __m256i*>(in.addr + 2 * i + 4));
  // unpacklo keeps lanes {0, 2} of each source: [a0, a2, a1, a3].
  const __m256i lo = _mm256_unpacklo_epi64(a, b);
  return _mm256_permute4x64_epi64(lo, _MM_SHUFFLE(3, 1, 2, 0));
}

// Interleave four {lines, redundant} pairs back into BusState AoS form.
inline void StoreStates4(BusState* out, std::size_t i, __m256i lines,
                         __m256i redundant) {
  const __m256i lo = _mm256_unpacklo_epi64(lines, redundant);
  const __m256i hi = _mm256_unpackhi_epi64(lines, redundant);
  __m256i* p = reinterpret_cast<__m256i*>(out + i);
  _mm256_storeu_si256(p, _mm256_permute2x128_si256(lo, hi, 0x20));
  _mm256_storeu_si256(p + 1, _mm256_permute2x128_si256(lo, hi, 0x31));
}

// [prev, x0, x1, x2]: the lane-shifted vector serial recurrences need.
inline __m256i ShiftInPrev(__m256i x, __m256i prev_broadcast) {
  const __m256i rot =
      _mm256_permute4x64_epi64(x, _MM_SHUFFLE(2, 1, 0, 3));
  return _mm256_blend_epi32(rot, prev_broadcast, 0x03);
}

inline Word Lane3(__m256i x) {
  return static_cast<Word>(_mm256_extract_epi64(x, 3));
}

// Per-line counters of the transition sweep, one byte lane per packed
// line: byte j of `low` counts the cycles that toggled line j, byte j of
// `high` line 32 + j. A cycle adds at most one to a lane, so a lane holds
// kFlushCycles cycles before Flush widens it into the per-line totals.
struct ByteCounters {
  // Byte k of a 128-bit lane selects byte k / 8 of the broadcast word
  // (low: bytes 0-3, high: bytes 4-7); `bit` then isolates bit k % 8.
  const __m256i low_bytes = _mm256_setr_epi8(
      0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1, 1, 1,
      2, 2, 2, 2, 2, 2, 2, 2, 3, 3, 3, 3, 3, 3, 3, 3);
  const __m256i high_bytes = _mm256_setr_epi8(
      4, 4, 4, 4, 4, 4, 4, 4, 5, 5, 5, 5, 5, 5, 5, 5,
      6, 6, 6, 6, 6, 6, 6, 6, 7, 7, 7, 7, 7, 7, 7, 7);
  const __m256i bit =
      _mm256_set1_epi64x(static_cast<long long>(0x8040201008040201ULL));
  __m256i low = _mm256_setzero_si256();
  __m256i high = _mm256_setzero_si256();

  // Count the set bits of one packed cycle: each expands to an all-ones
  // byte (-1), which the subtraction adds as +1.
  void Add(const Word* packed) {
    const __m256i word = _mm256_broadcastq_epi64(
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(packed)));
    const __m256i lo =
        _mm256_and_si256(_mm256_shuffle_epi8(word, low_bytes), bit);
    const __m256i hi =
        _mm256_and_si256(_mm256_shuffle_epi8(word, high_bytes), bit);
    low = _mm256_sub_epi8(low, _mm256_cmpeq_epi8(lo, bit));
    high = _mm256_sub_epi8(high, _mm256_cmpeq_epi8(hi, bit));
  }

  void Flush(long long* per_line, unsigned lines) {
    alignas(32) std::uint8_t counts[2 * sizeof(__m256i)];
    _mm256_store_si256(reinterpret_cast<__m256i*>(counts), low);
    _mm256_store_si256(reinterpret_cast<__m256i*>(counts) + 1, high);
    for (unsigned line = 0; line < lines; ++line) {
      per_line[line] += counts[line];
    }
    low = _mm256_setzero_si256();
    high = _mm256_setzero_si256();
  }
};

// Cycles between two ByteCounters flushes: a multiple of kLanes that
// stays below a byte lane's 255.
constexpr std::size_t kFlushCycles = 252;

void BinaryEncodeAvx2(AddressView in, std::size_t n, Word mask,
                      BusState* out) {
  const __m256i vmask = _mm256_set1_epi64x(static_cast<long long>(mask));
  const __m256i zero = _mm256_setzero_si256();
  std::size_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    StoreStates4(out, i,
                 _mm256_and_si256(LoadAddresses4(in, i), vmask), zero);
  }
  detail::BinaryEncodeScalar(AddressView{in.addr + in.step * i, in.step},
                             n - i, mask, out + i);
}

void GrayEncodeAvx2(AddressView in, std::size_t n, Word mask, Word low_mask,
                    Word high_mask, BusState* out) {
  const __m256i vmask = _mm256_set1_epi64x(static_cast<long long>(mask));
  const __m256i vlow = _mm256_set1_epi64x(static_cast<long long>(low_mask));
  const __m256i vhigh = _mm256_set1_epi64x(static_cast<long long>(high_mask));
  const __m256i zero = _mm256_setzero_si256();
  std::size_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    const __m256i b = _mm256_and_si256(LoadAddresses4(in, i), vmask);
    const __m256i gray = _mm256_xor_si256(b, _mm256_srli_epi64(b, 1));
    const __m256i lines = _mm256_or_si256(_mm256_and_si256(gray, vhigh),
                                          _mm256_and_si256(b, vlow));
    StoreStates4(out, i, lines, zero);
  }
  detail::GrayEncodeScalar(AddressView{in.addr + in.step * i, in.step}, n - i,
                           mask, low_mask, high_mask, out + i);
}

void OffsetEncodeAvx2(AddressView in, std::size_t n, Word mask,
                      Word* prev_addr, BusState* out) {
  const __m256i vmask = _mm256_set1_epi64x(static_cast<long long>(mask));
  const __m256i zero = _mm256_setzero_si256();
  Word prev = *prev_addr;
  std::size_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    const __m256i b = _mm256_and_si256(LoadAddresses4(in, i), vmask);
    const __m256i shifted =
        ShiftInPrev(b, _mm256_set1_epi64x(static_cast<long long>(prev)));
    const __m256i delta =
        _mm256_and_si256(_mm256_sub_epi64(b, shifted), vmask);
    StoreStates4(out, i, delta, zero);
    prev = Lane3(b);
  }
  *prev_addr = prev;
  detail::OffsetEncodeScalar(AddressView{in.addr + in.step * i, in.step},
                             n - i, mask, prev_addr, out + i);
}

void IncXorEncodeAvx2(AddressView in, std::size_t n, Word mask, Word stride,
                      Word* prev_addr, Word* prev_bus, BusState* out) {
  const __m256i vmask = _mm256_set1_epi64x(static_cast<long long>(mask));
  const __m256i vstride = _mm256_set1_epi64x(static_cast<long long>(stride));
  const __m256i zero = _mm256_setzero_si256();
  Word pa = *prev_addr;
  Word pb = *prev_bus;
  std::size_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    const __m256i b = _mm256_and_si256(LoadAddresses4(in, i), vmask);
    const __m256i b_prev =
        ShiftInPrev(b, _mm256_set1_epi64x(static_cast<long long>(pa)));
    const __m256i prediction =
        _mm256_and_si256(_mm256_add_epi64(b_prev, vstride), vmask);
    // d(t) = b(t) ^ prediction(t); the bus is the prefix-XOR of d
    // seeded with B(t-1). Prefix within the four lanes takes two
    // lane-shift+XOR steps, then the scalar seed is broadcast in.
    __m256i x = _mm256_xor_si256(b, prediction);
    x = _mm256_xor_si256(x, ShiftInPrev(x, zero));
    x = _mm256_xor_si256(x, _mm256_permute2x128_si256(x, x, 0x08));
    const __m256i lines =
        _mm256_xor_si256(x, _mm256_set1_epi64x(static_cast<long long>(pb)));
    StoreStates4(out, i, lines, zero);
    pa = Lane3(b);
    pb = Lane3(lines);
  }
  *prev_addr = pa;
  *prev_bus = pb;
  detail::IncXorEncodeScalar(AddressView{in.addr + in.step * i, in.step},
                             n - i, mask, stride, prev_addr, prev_bus,
                             out + i);
}

void T0EncodeAvx2(AddressView in, std::size_t n, Word mask, Word stride,
                  bool* has_prev, Word* prev_addr, BusState* prev_bus,
                  BusState* out) {
  const __m256i vmask = _mm256_set1_epi64x(static_cast<long long>(mask));
  const __m256i vstride = _mm256_set1_epi64x(static_cast<long long>(stride));
  const __m256i zero = _mm256_setzero_si256();
  Word pa = *prev_addr;
  BusState pbus = *prev_bus;
  bool has = *has_prev;
  std::size_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    const __m256i b = _mm256_and_si256(LoadAddresses4(in, i), vmask);
    const __m256i b_prev =
        ShiftInPrev(b, _mm256_set1_epi64x(static_cast<long long>(pa)));
    const __m256i prediction =
        _mm256_and_si256(_mm256_add_epi64(b_prev, vstride), vmask);
    unsigned inc = static_cast<unsigned>(_mm256_movemask_pd(
        _mm256_castsi256_pd(_mm256_cmpeq_epi64(b, prediction))));
    if (!has) inc &= ~1u;  // the first word after Reset travels verbatim
    if (inc == 0xF) {
      // Whole group in sequence: the bus stays frozen, INC high.
      StoreStates4(
          out, i,
          _mm256_set1_epi64x(static_cast<long long>(pbus.lines)),
          _mm256_set1_epi64x(1));
      pbus = BusState{pbus.lines, 1};
    } else if (inc == 0) {
      // Whole group out of sequence: plain binary, INC low.
      StoreStates4(out, i, b, zero);
      pbus = BusState{Lane3(b), 0};
    } else {
      // Mixed group: the frozen value fills forward serially.
      alignas(32) Word bs[kLanes];
      _mm256_store_si256(reinterpret_cast<__m256i*>(bs), b);
      for (std::size_t j = 0; j < kLanes; ++j) {
        if ((inc >> j) & 1u) {
          out[i + j] = BusState{pbus.lines, 1};
        } else {
          out[i + j] = BusState{bs[j], 0};
        }
        pbus = out[i + j];
      }
    }
    pa = Lane3(b);
    has = true;
  }
  *prev_addr = pa;
  *prev_bus = pbus;
  *has_prev = has;
  detail::T0EncodeScalar(AddressView{in.addr + in.step * i, in.step}, n - i,
                         mask, stride, has_prev, prev_addr, prev_bus, out + i);
}

void TransitionSweepAvx2(const BusState* states, std::size_t n, Word data_mask,
                         Word redundant_mask, unsigned width, BusState* prev,
                         long long* total, int* peak, long long* per_line) {
  // Each cycle's data and redundant diffs pack into one word, line j at
  // bit j — the per-line histogram's own order — so wider geometries
  // (and data masks reaching past `width`) take the scalar sweep.
  const unsigned lines =
      width + static_cast<unsigned>(std::bit_width(redundant_mask));
  if (n < 2 * kLanes || lines > 64 || (data_mask & ~LowMask(width)) != 0) {
    detail::TransitionSweepScalar(states, n, data_mask, redundant_mask, width,
                                  prev, total, peak, per_line);
    return;
  }
  // The first cycle diffs against *prev; every later one against the
  // state before it in the block, read by an unaligned load one state
  // back.
  detail::TransitionSweepScalar(states, 1, data_mask, redundant_mask, width,
                                prev, total, peak, per_line);
  const long long dmask = static_cast<long long>(data_mask);
  const long long rmask = static_cast<long long>(redundant_mask);
  const __m256i masks = _mm256_setr_epi64x(dmask, rmask, dmask, rmask);
  // A shift count of 64 (width 64, no redundant lines) yields zero.
  const __m128i shift = _mm_cvtsi32_si128(static_cast<int>(width));
  long long t = *total;
  int pk = *peak;
  ByteCounters counters;
  alignas(32) Word packed[kFlushCycles];
  std::size_t i = 1;
  while (n - i >= kLanes) {
    // Pack up to kFlushCycles cycles, then count them from memory: the
    // counters broadcast each word with a load, not a shuffle. Cycle
    // order within a group of four does not matter to any count.
    const std::size_t m = std::min(kFlushCycles, (n - i) / kLanes * kLanes);
    for (std::size_t k = 0; k < m; k += kLanes) {
      const BusState* s = states + i + k;
      const __m256i d01 = _mm256_and_si256(
          _mm256_xor_si256(
              _mm256_loadu_si256(reinterpret_cast<const __m256i*>(s)),
              _mm256_loadu_si256(reinterpret_cast<const __m256i*>(s - 1))),
          masks);
      const __m256i d23 = _mm256_and_si256(
          _mm256_xor_si256(
              _mm256_loadu_si256(reinterpret_cast<const __m256i*>(s + 2)),
              _mm256_loadu_si256(reinterpret_cast<const __m256i*>(s + 1))),
          masks);
      const __m256i diff = _mm256_unpacklo_epi64(d01, d23);
      const __m256i rdiff = _mm256_unpackhi_epi64(d01, d23);
      _mm256_store_si256(
          reinterpret_cast<__m256i*>(packed + k),
          _mm256_or_si256(diff, _mm256_sll_epi64(rdiff, shift)));
    }
    for (std::size_t k = 0; k < m; ++k) {
      counters.Add(packed + k);
      const int this_cycle = std::popcount(packed[k]);
      t += this_cycle;
      if (this_cycle > pk) pk = this_cycle;
    }
    counters.Flush(per_line, lines);
    i += m;
  }
  *total = t;
  *peak = pk;
  *prev = states[i - 1];
  detail::TransitionSweepScalar(states + i, n - i, data_mask, redundant_mask,
                                width, prev, total, peak, per_line);
}

void InSeqCountAvx2(AddressView in, std::size_t n, Word mask, Word stride,
                    Word* prev_addr, bool* has_prev, std::size_t* count) {
  std::size_t i = 0;
  if (!*has_prev && n > 0) {
    // Seed the carry scalar so the vector loop has a uniform predicate.
    detail::InSeqCountScalar(in, 1, mask, stride, prev_addr, has_prev, count);
    i = 1;
  }
  const __m256i vmask = _mm256_set1_epi64x(static_cast<long long>(mask));
  const __m256i vstride = _mm256_set1_epi64x(static_cast<long long>(stride));
  Word prev = *prev_addr;
  std::size_t c = *count;
  for (; i + kLanes <= n; i += kLanes) {
    const __m256i a = LoadAddresses4(in, i);
    const __m256i shifted =
        ShiftInPrev(a, _mm256_set1_epi64x(static_cast<long long>(prev)));
    const __m256i prediction =
        _mm256_and_si256(_mm256_add_epi64(shifted, vstride), vmask);
    const __m256i matches =
        _mm256_cmpeq_epi64(_mm256_and_si256(a, vmask), prediction);
    c += static_cast<std::size_t>(std::popcount(static_cast<unsigned>(
        _mm256_movemask_pd(_mm256_castsi256_pd(matches)))));
    prev = Lane3(a);
  }
  *prev_addr = prev;
  *count = c;
  detail::InSeqCountScalar(AddressView{in.addr + in.step * i, in.step}, n - i,
                           mask, stride, prev_addr, has_prev, count);
}

}  // namespace

const KernelTable& Avx2Kernels() {
  static const KernelTable table{
      "avx2",
      BinaryEncodeAvx2,
      GrayEncodeAvx2,
      OffsetEncodeAvx2,
      IncXorEncodeAvx2,
      T0EncodeAvx2,
      // Bus-invert's majority decision feeds the popcount of one cycle
      // into the next; the recurrence does not vectorize, so the scalar
      // kernel serves every table (kept explicit here, not hidden
      // behind a slower vector attempt).
      detail::BusInvertEncodeScalar,
      TransitionSweepAvx2,
      InSeqCountAvx2,
  };
  return table;
}

}  // namespace abenc::simd
