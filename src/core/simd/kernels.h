// The SIMD kernel layer: one table of block kernels per ISA backend.
//
// Every backend (scalar always; AVX2 on x86-64 hosts that report the
// extension; NEON on aarch64) implements the same table of ten entries:
// the six high-traffic encode sweeps (binary, Gray, offset, T0, INC-XOR,
// single-partition bus-invert), the decodes of the two codes whose
// decoder keeps no state (Gray, single-partition bus-invert), the
// XOR+popcount transition-accounting sweep and the in-sequence counter.
// The scalar table is the reference; every other backend is
// bit-identical to it by contract, enforced by the
// `kernel-dispatch-identity` universal verify property,
// tests/kernel_dispatch_test and the CI ISA-matrix byte-diff. Backend
// selection lives in core/simd/kernel_dispatch.h. Codes without a
// kernel — the paper's mixed codes among them, and every decoder that
// carries a register — batch through EncodeEach/DecodeEach
// (core/codec.h).
//
// Kernels read addresses through a strided AddressView so the same
// function serves both input layouts with zero copies: a raw columnar
// buffer (the mmap-backed packed-trace path, step 1) and the `address`
// member of a contiguous BusAccess array (step 2).
#pragma once

#include <cstddef>

#include "core/types.h"

namespace abenc::simd {

/// Strided view of the address column of a stream chunk:
/// `view[i] == view.addr[view.step * i]`. Step 1 is a plain Word array;
/// step 2 walks the `address` member of a BusAccess array in place.
struct AddressView {
  const Word* addr = nullptr;
  std::size_t step = 1;

  Word operator[](std::size_t i) const { return addr[step * i]; }
};

/// View the addresses of a non-empty BusAccess array without copying.
inline AddressView ViewAddresses(const BusAccess* accesses) {
  static_assert(sizeof(BusAccess) == 2 * sizeof(Word),
                "BusAccess must span exactly two Words for strided reads");
  static_assert(offsetof(BusAccess, address) == 0,
                "BusAccess::address must be the leading member");
  return AddressView{&accesses->address, 2};
}

/// B(t) = b(t) & mask (stateless).
using BinaryEncodeFn = void (*)(AddressView in, std::size_t n, Word mask,
                                BusState* out);

/// Stride-aware Gray: (BinaryToGray(b) & high_mask) | (b & low_mask),
/// with b pre-masked (stateless).
using GrayEncodeFn = void (*)(AddressView in, std::size_t n, Word mask,
                              Word low_mask, Word high_mask, BusState* out);

/// Offset: B(t) = (b(t) - b(t-1)) mod 2^N. *prev_addr carries the
/// masked b(t-1) across calls.
using OffsetEncodeFn = void (*)(AddressView in, std::size_t n, Word mask,
                                Word* prev_addr, BusState* out);

/// INC-XOR: B(t) = (B(t-1) ^ b(t) ^ ((b(t-1) + S) & mask)) & mask.
/// *prev_addr / *prev_bus carry the masked encoder registers.
using IncXorEncodeFn = void (*)(AddressView in, std::size_t n, Word mask,
                                Word stride, Word* prev_addr, Word* prev_bus,
                                BusState* out);

/// T0 with the INC line in redundant bit 0: freeze the bus and assert
/// INC when b(t) = b(t-1) + S, else send b(t) verbatim. The three
/// encoder registers (first-word flag, b(t-1), frozen B(t-1)) carry
/// across calls so any chunking reproduces the per-word trajectory.
using T0EncodeFn = void (*)(AddressView in, std::size_t n, Word mask,
                            Word stride, bool* has_prev, Word* prev_addr,
                            BusState* prev_bus, BusState* out);

/// Single-partition bus-invert: invert and assert INV when the Hamming
/// distance to the previous encoded state (INV line included) exceeds
/// N/2. *prev carries B(t-1) | INV(t-1).
using BusInvertEncodeFn = void (*)(AddressView in, std::size_t n, Word mask,
                                   int width, BusState* prev, BusState* out);

/// Stride-aware Gray decode, stateless: out[i] =
/// (GrayToBinary(B & high_mask) & high_mask) | (B & low_mask) with
/// B = in[i].lines — GrayCodec::Decode with its shift pair folded into
/// the mask pair, as the encode kernel folds it.
using GrayDecodeFn = void (*)(const BusState* in, std::size_t n,
                              Word low_mask, Word high_mask, Word* out);

/// Single-partition bus-invert decode, stateless (Eq. 2): the INV line
/// (redundant bit 0) selects the polarity, out[i] =
/// (INV ? ~B : B) & mask.
using BusInvertDecodeFn = void (*)(const BusState* in, std::size_t n,
                                   Word mask, Word* out);

/// Transition accounting over a block of consecutive bus states:
/// accumulate the total toggle count, the worst single-cycle count and
/// the per-line histogram (data lines at [0, width), redundant lines at
/// [width, ...)), continuing from *prev, which is updated to the last
/// state of the block.
using TransitionSweepFn = void (*)(const BusState* states, std::size_t n,
                                   Word data_mask, Word redundant_mask,
                                   unsigned width, BusState* prev,
                                   long long* total, int* peak,
                                   long long* per_line);

/// In-sequence counter: add to *count every access whose masked address
/// equals (previous raw address + stride) & mask — the exact predicate
/// of InSequencePercent. *prev_addr (raw) and *has_prev carry across
/// chunks.
using InSeqCountFn = void (*)(AddressView in, std::size_t n, Word mask,
                              Word stride, Word* prev_addr, bool* has_prev,
                              std::size_t* count);

/// One backend's complete kernel set.
struct KernelTable {
  const char* name;
  BinaryEncodeFn binary;
  GrayEncodeFn gray;
  OffsetEncodeFn offset;
  IncXorEncodeFn inc_xor;
  T0EncodeFn t0;
  BusInvertEncodeFn bus_invert;
  GrayDecodeFn gray_decode;
  BusInvertDecodeFn bus_invert_decode;
  TransitionSweepFn sweep;
  InSeqCountFn in_seq;
};

/// The always-correct reference implementation (portable C++).
const KernelTable& ScalarKernels();

#if defined(ABENC_HAVE_AVX2)
/// 4-lane AVX2 kernels (compiled per-file with -mavx2; call only when
/// the host reports the extension — kernel_dispatch guarantees this).
const KernelTable& Avx2Kernels();
#endif

#if defined(ABENC_HAVE_NEON)
/// 2-lane NEON kernels (aarch64 baseline, no extra flags needed).
const KernelTable& NeonKernels();
#endif

namespace detail {

// The scalar kernels, exposed so SIMD backends can reuse them for the
// sweeps whose recurrences do not vectorize (bus-invert's majority
// decision), for block tails, and for the entries a backend has not
// ported (NEON's decodes).
void BinaryEncodeScalar(AddressView in, std::size_t n, Word mask,
                        BusState* out);
void GrayEncodeScalar(AddressView in, std::size_t n, Word mask, Word low_mask,
                      Word high_mask, BusState* out);
void OffsetEncodeScalar(AddressView in, std::size_t n, Word mask,
                        Word* prev_addr, BusState* out);
void IncXorEncodeScalar(AddressView in, std::size_t n, Word mask, Word stride,
                        Word* prev_addr, Word* prev_bus, BusState* out);
void T0EncodeScalar(AddressView in, std::size_t n, Word mask, Word stride,
                    bool* has_prev, Word* prev_addr, BusState* prev_bus,
                    BusState* out);
void BusInvertEncodeScalar(AddressView in, std::size_t n, Word mask, int width,
                           BusState* prev, BusState* out);
void GrayDecodeScalar(const BusState* in, std::size_t n, Word low_mask,
                      Word high_mask, Word* out);
void BusInvertDecodeScalar(const BusState* in, std::size_t n, Word mask,
                           Word* out);
void TransitionSweepScalar(const BusState* states, std::size_t n,
                           Word data_mask, Word redundant_mask, unsigned width,
                           BusState* prev, long long* total, int* peak,
                           long long* per_line);
void InSeqCountScalar(AddressView in, std::size_t n, Word mask, Word stride,
                      Word* prev_addr, bool* has_prev, std::size_t* count);

}  // namespace detail

}  // namespace abenc::simd
