// Server-side renegotiation policy: reads a session's windowed
// stream-shape statistics (the last window its AdaptiveStatsTracker
// completed) and proposes the regime winner the paper's results predict
// for that traffic — always a member of
// AdaptiveCodec::DefaultPalette(). The policy only *recommends* — the
// switch itself is pinned and applied by Session::Renegotiate, and a
// client is free to ignore the hint.
#pragma once

#include <cstddef>
#include <string>

#include "core/adaptive_codec.h"

namespace abenc::service {

// The regime thresholds.
/// A window with fewer accesses carries too little signal to recommend
/// anything (e.g. the tracker has not rolled yet).
inline constexpr std::size_t kMinWindowAccesses = 32;
/// In-sequence percentage from which the stream counts as sequential
/// (T0's regime: the paper's in-order instruction fetch traces).
inline constexpr double kSequentialInSeqPercent = 60.0;
/// A SEL-high fraction in [low, high] marks a genuinely multiplexed
/// stream, where the dual codes' per-source histories win.
inline constexpr double kMixedSelLow = 0.25;
inline constexpr double kMixedSelHigh = 0.75;
/// Raw toggles per access above width * this mark a random-like stream
/// — bus-invert's bounded-peak regime.
inline constexpr double kDenseToggleFraction = 0.25;
/// This fraction of steps on the +1 stride marks unit-stride counting
/// (Gray's regime when the configured stride stays cold).
inline constexpr double kUnitStrideFraction = 0.5;

/// Recommend a codec for the observed window, or "" to keep the active
/// codec (insufficient signal, no regime matched, or the match is
/// already active). `width` is the bus width the density threshold
/// scales with; `active` is the session's current codec.
std::string RecommendCodec(const AdaptiveWindowStats& window, unsigned width,
                           const std::string& active);

}  // namespace abenc::service
