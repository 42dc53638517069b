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
// so a group of four records spans two 256-bit vectors. Addresses (and
// the lines of bus states, for the decodes) are gathered with
// unpack+permute (step 2) or a plain load (step 1, the columnar mmap
// path); encoded {lines, redundant} pairs are scattered back with the
// inverse shuffle. Serial recurrences (offset's b(t-1), INC-XOR's
// running XOR) become a lane shift with a scalar carry-in; bus-invert's
// majority decision feeds back through a popcount and stays scalar in
// this table too — documented, not hidden. The Gray and bus-invert
// decodes keep no state, so each lane decodes on its own.
//
// The transition sweep diffs each state against the one before it, read
// by an unaligned load one state back, and packs the data and redundant
// diffs into one word (line j at bit j), four cycles to a vector. A
// per-lane popcount (nibble table, vpsadbw) gives the total and the
// peak. The per-line histogram is a Harley–Seal carry-save adder tree
// (Klarqvist, Muła and Lemire, arXiv:1911.02696) over 16 vectors at a
// time: bit j of the `ones`, `twos`, `fours` and `eights` planes holds
// line j's count modulo 16 in binary, per lane, carried from one tree to
// the next; only the `sixteens` carry-out reaches a byte counter per
// line (each bit expanded to a byte lane: vpshufb, then vpcmpeqb against
// 0x8040...01), where one count stands for 16 toggles. At the end of the
// block every plane is expanded the same way with its weight, so the
// flush costs a fixed few hundred instructions whatever the block
// length. Geometries wider than 64 packed lines take the scalar sweep.
#include <immintrin.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <initializer_list>

#include "core/simd/kernels.h"

#if !defined(ABENC_HAVE_AVX2)
#error "kernels_avx2.cpp requires ABENC_HAVE_AVX2 (see src/core/CMakeLists)"
#endif

namespace abenc::simd {
namespace {

constexpr std::size_t kLanes = 4;

// Four Words at step 2 — p[0], p[2], p[4], p[6]: the addresses of
// BusAccess rows or the lines of BusState records.
inline __m256i LoadEven4(const Word* p) {
  // The Words occupy 64-bit lanes {0, 2} of two vectors; unpacklo keeps
  // lanes {0, 2} of each source: [a0, a2, a1, a3].
  const __m256i a = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
  const __m256i b =
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p + 4));
  const __m256i lo = _mm256_unpacklo_epi64(a, b);
  return _mm256_permute4x64_epi64(lo, _MM_SHUFFLE(3, 1, 2, 0));
}

// Four consecutive addresses from either stride (see AddressView).
inline __m256i LoadAddresses4(AddressView in, std::size_t i) {
  if (in.step == 1) {
    return _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(in.addr + i));
  }
  return LoadEven4(in.addr + 2 * i);
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

// Per-line byte counters of the transition sweep: byte j of `low` counts
// line j, byte j of `high` line 32 + j.
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

  // Add `weight` (a byte broadcast to every lane) to the counter of
  // every set bit of each lane of `words`: each lane is broadcast by a
  // load, not a shuffle, and each of its bits expands to an all-ones
  // byte lane.
  void AddLanes(__m256i words, __m256i weight) {
    alignas(32) Word lanes[kLanes];
    _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), words);
    for (const Word& lane : lanes) {
      const __m256i w = _mm256_broadcastq_epi64(
          _mm_loadl_epi64(reinterpret_cast<const __m128i*>(&lane)));
      const __m256i lo = _mm256_cmpeq_epi8(
          _mm256_and_si256(_mm256_shuffle_epi8(w, low_bytes), bit), bit);
      const __m256i hi = _mm256_cmpeq_epi8(
          _mm256_and_si256(_mm256_shuffle_epi8(w, high_bytes), bit), bit);
      low = _mm256_add_epi8(low, _mm256_and_si256(lo, weight));
      high = _mm256_add_epi8(high, _mm256_and_si256(hi, weight));
    }
  }

  // Move the 64 counts out, line j at byte j, and restart from zero.
  void Take(std::uint8_t (&counts)[64]) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(counts), low);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(counts + 32), high);
    low = _mm256_setzero_si256();
    high = _mm256_setzero_si256();
  }
};

// Vectors (of four cycles) in one adder tree, and trees between two
// flushes of the sixteens counters. A tree's carry-out adds at most one
// count per lane, four per byte, and so do the carries of the vectors
// left over after the last tree: 62 trees and those carries, or 63
// trees, fill a byte lane to at most 252 of its 255.
constexpr std::size_t kTreeVectors = 16;
constexpr std::size_t kTreesPerFlush = 63;

// Harley–Seal carry-save adder: per bit, high:low = a + b + c.
inline void Csa(__m256i& high, __m256i& low, __m256i a, __m256i b,
                __m256i c) {
  const __m256i u = _mm256_xor_si256(a, b);
  high = _mm256_or_si256(_mm256_and_si256(a, b), _mm256_and_si256(u, c));
  low = _mm256_xor_si256(u, c);
}

// The sweep's per-line counts modulo 16, per lane, as four bit planes:
// bit j of `ones` | `twos` << 1 | `fours` << 2 | `eights` << 3.
struct LinePlanes {
  __m256i ones = _mm256_setzero_si256();
  __m256i twos = _mm256_setzero_si256();
  __m256i fours = _mm256_setzero_si256();
  __m256i eights = _mm256_setzero_si256();

  // Add 16 vectors through the adder tree; returns the sixteens
  // carry-out (at most one per lane and bit: the planes hold at most 15
  // and the tree adds 16).
  __m256i AddTree(const __m256i (&v)[kTreeVectors]) {
    __m256i twos_a, twos_b, fours_a, fours_b, eights_a, eights_b, sixteens;
    Csa(twos_a, ones, ones, v[0], v[1]);
    Csa(twos_b, ones, ones, v[2], v[3]);
    Csa(fours_a, twos, twos, twos_a, twos_b);
    Csa(twos_a, ones, ones, v[4], v[5]);
    Csa(twos_b, ones, ones, v[6], v[7]);
    Csa(fours_b, twos, twos, twos_a, twos_b);
    Csa(eights_a, fours, fours, fours_a, fours_b);
    Csa(twos_a, ones, ones, v[8], v[9]);
    Csa(twos_b, ones, ones, v[10], v[11]);
    Csa(fours_a, twos, twos, twos_a, twos_b);
    Csa(twos_a, ones, ones, v[12], v[13]);
    Csa(twos_b, ones, ones, v[14], v[15]);
    Csa(fours_b, twos, twos, twos_a, twos_b);
    Csa(eights_b, fours, fours, fours_a, fours_b);
    Csa(sixteens, eights, eights, eights_a, eights_b);
    return sixteens;
  }

  // Add one vector by ripple carry; returns the sixteens carry-out.
  __m256i Add(__m256i v) {
    __m256i carry = _mm256_and_si256(ones, v);
    ones = _mm256_xor_si256(ones, v);
    for (__m256i* plane : {&twos, &fours, &eights}) {
      const __m256i next = _mm256_and_si256(*plane, carry);
      *plane = _mm256_xor_si256(*plane, carry);
      carry = next;
    }
    return carry;
  }
};

// Per-lane popcounts of four packed words (nibble table, vpsadbw).
inline __m256i PopCount4(__m256i v) {
  const __m256i table =
      _mm256_setr_epi8(0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,
                       0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4);
  const __m256i nibble = _mm256_set1_epi8(0x0F);
  const __m256i lo =
      _mm256_shuffle_epi8(table, _mm256_and_si256(v, nibble));
  const __m256i hi = _mm256_shuffle_epi8(
      table, _mm256_and_si256(_mm256_srli_epi16(v, 4), nibble));
  return _mm256_sad_epu8(_mm256_add_epi8(lo, hi), _mm256_setzero_si256());
}

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

void GrayDecodeAvx2(const BusState* in, std::size_t n, Word low_mask,
                    Word high_mask, Word* out) {
  const __m256i vlow = _mm256_set1_epi64x(static_cast<long long>(low_mask));
  const __m256i vhigh = _mm256_set1_epi64x(static_cast<long long>(high_mask));
  std::size_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    const __m256i g = LoadEven4(&in[i].lines);
    // GrayToBinary: the prefix XOR from the top bit down.
    __m256i b = _mm256_and_si256(g, vhigh);
    for (const int shift : {1, 2, 4, 8, 16, 32}) {
      b = _mm256_xor_si256(b, _mm256_srli_epi64(b, shift));
    }
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i),
                        _mm256_or_si256(_mm256_and_si256(b, vhigh),
                                        _mm256_and_si256(g, vlow)));
  }
  detail::GrayDecodeScalar(in + i, n - i, low_mask, high_mask, out + i);
}

void BusInvertDecodeAvx2(const BusState* in, std::size_t n, Word mask,
                         Word* out) {
  const __m256i vmask = _mm256_set1_epi64x(static_cast<long long>(mask));
  const __m256i one = _mm256_set1_epi64x(1);
  const __m256i zero = _mm256_setzero_si256();
  std::size_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    const __m256i a =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(in + i));
    const __m256i b =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(in + i + 2));
    // Lanes in [0, 2, 1, 3] order until the final permute.
    const __m256i lines = _mm256_unpacklo_epi64(a, b);
    const __m256i invert = _mm256_sub_epi64(
        zero, _mm256_and_si256(_mm256_unpackhi_epi64(a, b), one));
    const __m256i words =
        _mm256_and_si256(_mm256_xor_si256(lines, invert), vmask);
    _mm256_storeu_si256(
        reinterpret_cast<__m256i*>(out + i),
        _mm256_permute4x64_epi64(words, _MM_SHUFFLE(3, 1, 2, 0)));
  }
  detail::BusInvertDecodeScalar(in + i, n - i, mask, out + i);
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
  __m256i totals = _mm256_setzero_si256();
  __m256i peaks = _mm256_setzero_si256();
  // Packs the four cycles from `s` into one vector (their order within
  // it does not matter to any count) and folds their bit counts into the
  // total and the peak.
  const auto pack = [&](const BusState* s) {
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
    const __m256i packed = _mm256_or_si256(
        _mm256_unpacklo_epi64(d01, d23),
        _mm256_sll_epi64(_mm256_unpackhi_epi64(d01, d23), shift));
    const __m256i counts = PopCount4(packed);
    totals = _mm256_add_epi64(totals, counts);
    peaks = _mm256_max_epi32(peaks, counts);  // counts fit 32 bits
    return packed;
  };

  const __m256i one = _mm256_set1_epi8(1);
  LinePlanes planes;
  ByteCounters sixteens;  // one count = 16 toggles
  std::uint8_t counts[64];
  const BusState* s = states + 1;
  const std::size_t vectors = (n - 1) / kLanes;
  std::size_t v = 0;
  for (std::size_t trees = 0; v + kTreeVectors <= vectors;
       v += kTreeVectors) {
    __m256i group[kTreeVectors];
    for (std::size_t k = 0; k < kTreeVectors; ++k) {
      group[k] = pack(s + kLanes * (v + k));
    }
    sixteens.AddLanes(planes.AddTree(group), one);
    if (++trees == kTreesPerFlush) {
      sixteens.Take(counts);
      for (unsigned line = 0; line < lines; ++line) {
        per_line[line] += 16 * counts[line];
      }
      trees = 0;
    }
  }
  // Fewer than 16 vectors remain, and every plane bit counts fewer than
  // 16, so each lane and bit carries out at most once: OR-ing the
  // carries loses none.
  __m256i carries = _mm256_setzero_si256();
  for (; v < vectors; ++v) {
    carries = _mm256_or_si256(carries, planes.Add(pack(s + kLanes * v)));
  }
  if (!_mm256_testz_si256(carries, carries)) sixteens.AddLanes(carries, one);

  // The flush: the sixteens counters, plus each plane with its weight
  // (at most 4 lanes x 15 = 60 per byte).
  ByteCounters rest;
  rest.AddLanes(planes.ones, one);
  rest.AddLanes(planes.twos, _mm256_set1_epi8(2));
  rest.AddLanes(planes.fours, _mm256_set1_epi8(4));
  rest.AddLanes(planes.eights, _mm256_set1_epi8(8));
  std::uint8_t rest_counts[64];
  sixteens.Take(counts);
  rest.Take(rest_counts);
  for (unsigned line = 0; line < lines; ++line) {
    per_line[line] += 16 * counts[line] + rest_counts[line];
  }
  alignas(32) long long lane_totals[kLanes];
  alignas(32) long long lane_peaks[kLanes];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lane_totals), totals);
  _mm256_store_si256(reinterpret_cast<__m256i*>(lane_peaks), peaks);
  for (std::size_t lane = 0; lane < kLanes; ++lane) {
    *total += lane_totals[lane];
    *peak = std::max(*peak, static_cast<int>(lane_peaks[lane]));
  }
  const std::size_t i = 1 + kLanes * vectors;
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
      GrayDecodeAvx2,
      BusInvertDecodeAvx2,
      TransitionSweepAvx2,
      InSeqCountAvx2,
  };
  return table;
}

}  // namespace abenc::simd
