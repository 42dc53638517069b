// Adaptive meta-codec: switches the active member code per window of the
// address stream, driven by each member's toggle cost measured on both
// ends of the bus, so the decoder replays every decision deterministically
// from the wire alone. Also the windowed stream-shape tracker the
// service's renegotiation policy reads (AdaptiveStatsTracker).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/codec.h"

namespace abenc {

/// One entry of the decision log kept (independently) by each end of the
/// adaptive codec. A decision is taken at every window boundary — access
/// index k * window for k >= 1 — and governs the window starting there.
struct AdaptiveDecision {
  std::size_t access_index = 0;  // the boundary access (k * window)
  std::size_t window = 0;        // index k of the window starting here
  std::vector<long long> costs;  // per-member toggles over the decided window
  int chosen = 0;                // active palette index for the new window
  bool switched = false;         // true => this access is the ESC word

  bool operator==(const AdaptiveDecision&) const = default;
};

/// Windowed stream-shape statistics (the trace-stats quantities, computed
/// online per window) — what the renegotiation policy reads.
struct AdaptiveWindowStats {
  std::size_t accesses = 0;
  std::size_t sel_high = 0;           // instruction-slot accesses
  std::size_t in_sequence = 0;        // steps with b(t) = b(t-1) + stride
  std::size_t unit_stride_steps = 0;  // steps with b(t) = b(t-1) + 1
  long long raw_toggles = 0;          // unencoded (binary) toggle count

  double in_sequence_percent() const {
    return accesses < 2 ? 0.0
                        : 100.0 * static_cast<double>(in_sequence) /
                              static_cast<double>(accesses - 1);
  }
  double toggle_density() const {
    return accesses == 0 ? 0.0
                         : static_cast<double>(raw_toggles) /
                               static_cast<double>(accesses);
  }
};

/// Window-segmented tracker of AdaptiveWindowStats over a stream encoded
/// by *any* codec: the one implementation of those statistics. The
/// service layer keeps one per session and the server's renegotiation
/// policy reads the last completed window to propose a better palette
/// member (src/service/renegotiation.h). Each step compares masked
/// addresses, and a window's first step reaches back into the window
/// before it.
class AdaptiveStatsTracker {
 public:
  /// `window` accesses per segment (>= 1); `stride` feeds the
  /// in-sequence statistic, like stride_for_stats in the evaluators.
  AdaptiveStatsTracker(unsigned width, Word stride, std::size_t window);

  void Observe(Word address, bool sel);
  /// Columnar batch feed: equivalent to Observe per element, folding
  /// each run up to the next window boundary in one loop.
  void ObserveColumns(const Word* addresses, const std::uint8_t* sel,
                      std::size_t n);
  /// Power-on state: empty windows, no previous address.
  void Reset();

  /// Statistics accumulated so far in the open window.
  const AdaptiveWindowStats& current() const { return current_; }
  /// The last completed window (empty before the first roll-over).
  const AdaptiveWindowStats& completed() const { return completed_; }
  std::size_t windows_completed() const { return windows_completed_; }
  std::size_t window() const { return window_; }
  unsigned width() const { return width_; }

 private:
  unsigned width_;
  Word stride_;
  std::size_t window_;
  std::size_t accesses_ = 0;  // lifetime, for the window boundary
  bool has_prev_ = false;
  Word prev_address_ = 0;
  std::size_t windows_completed_ = 0;
  AdaptiveWindowStats current_;
  AdaptiveWindowStats completed_;
};

/// Test-only fault injection, applied to the *encoder end only* (the
/// decoder end of the same object stays clean, like a correct receiver
/// facing a buggy transmitter). Used by the sabotage acceptance tests to
/// prove the decision-replay verify property catches real protocol bugs.
struct AdaptiveSabotage {
  /// Decide each window from the costs of the window *before* the one
  /// that just completed (one window stale) — the classic
  /// forgot-to-snapshot bug. The decoder decides from fresh costs, so
  /// the two decision logs diverge at the first boundary where the two
  /// windows' cost vectors differ.
  bool stale_stats = false;
  /// Delay the wire ESC bit by one access: the switch word goes out
  /// verbatim but with ESC low, and the following access carries ESC
  /// instead. Round-trip alone misses this (the decoder replays the
  /// decision and never reads ESC); the decision-replay property checks
  /// the wire and catches it at the exact switch index.
  bool delayed_esc = false;
};

/// A meta-codec over a palette of member codes. Each end keeps, per
/// member, a *shadow* encoder that sees every access, and a running
/// total of the shadow's toggles; at every window boundary both ends
/// compare the members' toggle costs over the completed window and
/// switch to the cheapest member when it beats the active one by more
/// than the hysteresis margin. The decoder sees the same addresses the
/// encoder saw (they come off the wire), so both ends compute identical
/// costs and replay identical decisions with no side channel.
///
/// Shadows are costed once per window, not per word: each end buffers
/// the open window's masked addresses and SELs (at most kCostBatch of
/// them), and before a boundary decision — or when the buffer fills
/// inside a longer window — every shadow encodes the buffer through its
/// own EncodeBatch (hence the members' SIMD kernels) and a totals-only
/// XOR+popcount sweep adds the buffer's toggles to its running total,
/// carrying its last state, with no per-line histogram and no peak. A
/// cost is a difference of running totals, so where the flushes fall
/// never changes it, and the totals equal a TransitionCounter's fed the
/// same states word by word (the power-on first cycle included).
/// Accesses still buffered when the stream ends or Reset() runs are
/// never costed: no decision reads them. The codec keeps no window
/// statistics of its own: the renegotiation policy's input is the
/// service's AdaptiveStatsTracker.
///
/// Wire protocol: the redundant line 0 is overloaded exactly the way
/// dual-T0BI overloads INCV. Mid-window (and at non-switch boundaries)
/// it carries the active member's own redundant bit; at a switch
/// boundary it carries ESC = 1 while the data lines carry the address
/// verbatim. The replayed decision — not the line itself — disambiguates
/// the two meanings, just as SEL disambiguates INC from INV. At a
/// switch both ends Reset() the incoming member and prime it with one
/// Encode+Decode of the boundary address, so the member's two halves
/// are synchronized without trusting the discarded wire pattern.
///
/// Reset() restores power-on on both ends (active member back to
/// palette[0], zero costs, an empty buffer, cleared decision logs), so
/// the codec survives EvaluateWithSchedule's reset points and the
/// service layer's eviction / resync / degrade ladder.
class AdaptiveCodec final : public Codec {
 public:
  /// Builds a member codec by factory name at the meta-codec's width.
  using MemberBuilder = std::function<CodecPtr(const std::string&)>;

  /// `palette` lists the member codes in priority order (ties in cost
  /// go to the earliest entry; entry 0 is the power-on member).
  /// `window` is the decision period in accesses (>= 1); `hysteresis`
  /// is the minimum toggle advantage (over one window) required to
  /// switch, covering the ESC word's own cost.
  AdaptiveCodec(unsigned width, std::vector<std::string> palette,
                std::size_t window, long long hysteresis,
                const MemberBuilder& builder);

  std::string name() const override { return "adaptive"; }
  std::string display_name() const override { return "Adaptive"; }
  unsigned redundant_lines() const override { return redundant_; }

  BusState Encode(Word address, bool sel) override;
  Word Decode(const BusState& bus, bool sel) override;
  void Reset() override;

  /// Batched path: segments the block at window boundaries and
  /// delegates each in-window run to the active member's own
  /// EncodeBatch (hence the member's SIMD kernels), then buffers the run
  /// for the shadows. Bit-identical to per-word Encode by the members'
  /// own contract.
  void EncodeBatch(AccessView in, std::size_t n,
                   std::span<BusState> out) override;

  /// The default palette: the paper's regime winners plus binary.
  static std::vector<std::string> DefaultPalette();

  /// Parse a comma-separated palette spec ("t0,gray,binary"); an empty
  /// spec yields DefaultPalette(). Throws CodecConfigError on empty
  /// entries ("t0,,gray").
  static std::vector<std::string> ParsePalette(const std::string& spec);

  const std::vector<std::string>& palette() const { return palette_; }
  std::size_t window() const { return window_; }
  long long hysteresis() const { return hysteresis_; }

  /// Decision logs of the two ends. A correct run has the decoder log
  /// equal to (a prefix of) the encoder log; the decision-replay verify
  /// property asserts exactly that across two separate instances.
  const std::vector<AdaptiveDecision>& encoder_decisions() const {
    return enc_.decisions;
  }
  const std::vector<AdaptiveDecision>& decoder_decisions() const {
    return dec_.decisions;
  }

  const std::string& active_encoder_member() const {
    return palette_[static_cast<std::size_t>(enc_.active)];
  }
  const std::string& active_decoder_member() const {
    return palette_[static_cast<std::size_t>(dec_.active)];
  }

  /// Test-only: install encoder-end fault injection (see
  /// AdaptiveSabotage). Never used outside the verify/sabotage tests.
  void SetSabotage(const AdaptiveSabotage& sabotage) { sabotage_ = sabotage; }

 private:
  /// Most accesses an end buffers before costing its shadows: the
  /// default adaptive_window, so a default window is costed in one
  /// batch, and a longer window every kCostBatch accesses.
  static constexpr std::size_t kCostBatch = 64;

  // A member's shadow encoder and its running toggle total, costed from
  // the last state it drove (power-on: every line low).
  struct Shadow {
    CodecPtr codec;
    Word redundant_mask = 0;  // the member's own redundant lines
    BusState last;
    long long total = 0;
  };

  // One physical end of the bus: real members (only the active one has
  // live state), shadows, the accesses not yet costed, window
  // bookkeeping and the decision log.
  struct End {
    std::vector<CodecPtr> members;
    std::vector<Shadow> shadows;
    std::vector<long long> window_base;  // shadow totals at window start
    std::vector<long long> last_costs;   // previous window (sabotage only)
    int active = 0;
    std::size_t accesses = 0;
    bool pending_esc = false;  // delayed-ESC sabotage carry
    std::size_t buffered = 0;  // accesses not yet costed, oldest first
    std::array<Word, kCostBatch> addresses{};  // masked
    std::array<std::uint8_t, kCostBatch> sel{};
    std::vector<AdaptiveDecision> decisions;
  };

  bool AtBoundary(const End& e) const {
    return e.accesses != 0 && e.accesses % window_ == 0;
  }
  // Take the decision for the window starting at e.accesses; activates
  // (Reset, not yet primed) the incoming member and opens the new
  // window. Returns true when the boundary access is an ESC word.
  bool DecideAtBoundary(End& e, bool encoder_end);
  // Feed the incoming member the boundary address once through both of
  // its halves, synchronizing it on the two ends without the wire.
  void Prime(End& e, Word address, bool sel);
  // Append one masked access for the shadows (bumps e.accesses),
  // costing the buffer first when it is full.
  void Buffer(End& e, Word b, bool sel);
  // Drive every shadow over the buffered accesses and add their toggles
  // to its running total; empties the buffer.
  void CostBuffered(End& e);
  void ResetEnd(End& e);

  std::vector<std::string> palette_;
  std::size_t window_;
  long long hysteresis_;
  unsigned redundant_ = 1;
  AdaptiveSabotage sabotage_;
  End enc_;
  End dec_;
  std::array<BusState, kCostBatch> shadow_states_{};  // CostBuffered scratch
};

}  // namespace abenc
