// Abstract interface implemented by every address-bus code in the library.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>

#include "core/simd/kernels.h"
#include "core/types.h"

namespace abenc {

/// Strided, read-in-place view of a run of stream accesses: the input of
/// Codec::EncodeBatch. Both stream layouts share it without copies —
/// columnar buffers (the mmap trace path and wire SUBMIT batches: every
/// column step 1) and BusAccess arrays (the `address` member at Word
/// step 2, the `sel` member at byte step sizeof(BusAccess)).
struct AccessView {
  simd::AddressView addresses;
  const std::uint8_t* sel = nullptr;  // SEL of access 0; nonzero = asserted
  std::size_t sel_step = 1;           // bytes between consecutive SELs

  static AccessView Columns(const Word* addresses, const std::uint8_t* sel) {
    return AccessView{simd::AddressView{addresses, 1}, sel, 1};
  }
  static AccessView Rows(const BusAccess* accesses) {
    static_assert(sizeof(bool) == 1, "BusAccess::sel must be one byte");
    return AccessView{simd::ViewAddresses(accesses),
                      reinterpret_cast<const std::uint8_t*>(&accesses->sel),
                      sizeof(BusAccess)};
  }

  Word address(std::size_t i) const { return addresses[i]; }
  bool sel_at(std::size_t i) const { return sel[sel_step * i] != 0; }
  /// The view of accesses [i, ...).
  AccessView From(std::size_t i) const {
    return AccessView{
        simd::AddressView{addresses.addr + addresses.step * i, addresses.step},
        sel + sel_step * i, sel_step};
  }
};

/// A bus code: a stateful mapping from the address stream b(t) to the bus
/// stream B(t) (encode) and back (decode).
///
/// One Codec object holds *independent* encoder-side and decoder-side state,
/// mirroring the two physical circuits at the ends of the bus. Driving
/// encode() and decode() in lockstep therefore models a real transfer;
/// tests exercise decode(encode(b)) == b on every code.
///
/// The `sel` argument models the instruction/data select control signal of a
/// multiplexed bus interface (asserted for instruction slots). Codes that do
/// not look at SEL simply ignore it; for dedicated instruction or data buses
/// callers pass a constant.
class Codec {
 public:
  explicit Codec(unsigned width) : width_(width) {
    if (width == 0 || width > 64) {
      throw CodecConfigError("bus width must be in [1, 64], got " +
                             std::to_string(width));
    }
  }
  virtual ~Codec() = default;

  Codec(const Codec&) = delete;
  Codec& operator=(const Codec&) = delete;

  /// Short machine-friendly identifier, e.g. "t0" or "dual-t0-bi".
  virtual std::string name() const = 0;

  /// Human-readable name as used in the paper's tables, e.g. "Dual T0_BI".
  virtual std::string display_name() const = 0;

  /// Number of address lines N.
  unsigned width() const { return width_; }

  /// Number of redundant control lines (0 for irredundant codes).
  virtual unsigned redundant_lines() const = 0;

  /// Encode the next address of the stream. Addresses are masked to N bits.
  virtual BusState Encode(Word address, bool sel) = 0;

  /// Encode `n` consecutive stream accesses, read through `in`, into
  /// `out` (which must hold at least `n` entries) — the one batched
  /// entry of every codec, behind EvaluateBatched and the service's
  /// session accounting.
  ///
  /// Contract (the "bit-identity guarantee", enforced for every factory
  /// codec by the `batched-identity` verify property and
  /// tests/stream_evaluator_test): EncodeBatch produces exactly the
  /// BusState sequence that `n` successive Encode() calls would, and
  /// leaves the encoder-side state identical, so any chunking of a
  /// stream — in either layout, mixed freely with Encode — yields the
  /// same bus trajectory. The base implementation loops the virtual
  /// Encode; the high-traffic codes (binary, Gray, offset, T0, INC-XOR,
  /// bus-invert) override it with the SIMD dispatch kernels, which pay
  /// one virtual dispatch per block instead of per word.
  virtual void EncodeBatch(AccessView in, std::size_t n,
                           std::span<BusState> out) {
    for (std::size_t i = 0; i < n; ++i) {
      out[i] = Encode(in.address(i), in.sel_at(i));
    }
  }

  /// EncodeBatch over raw columns: `addresses[i]` and `sel[i]` (nonzero
  /// = SEL asserted / instruction slot) describe access i.
  void EncodeColumns(const Word* addresses, const std::uint8_t* sel,
                     std::size_t n, std::span<BusState> out) {
    EncodeBatch(AccessView::Columns(addresses, sel), n, out);
  }

  /// Decode the next bus state of the stream. SEL must match the value the
  /// encoder saw in the same cycle (it travels on the bus, per the paper).
  virtual Word Decode(const BusState& bus, bool sel) = 0;

  /// Return both ends of the bus to the power-on state (all lines low,
  /// no history). The first address after reset is always sent verbatim.
  virtual void Reset() = 0;

  /// Total lines driven on the bus (data + redundant).
  unsigned total_lines() const { return width_ + redundant_lines(); }

 protected:
  Word Mask(Word address) const { return address & LowMask(width_); }

 private:
  unsigned width_;
};

using CodecPtr = std::unique_ptr<Codec>;

}  // namespace abenc
