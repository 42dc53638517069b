#include "service/renegotiation.h"

namespace abenc::service {

std::string RecommendCodec(const AdaptiveWindowStats& window, unsigned width,
                           const std::string& active) {
  if (window.accesses < kMinWindowAccesses) return "";

  const double accesses = static_cast<double>(window.accesses);
  const double sel_fraction =
      static_cast<double>(window.sel_high) / accesses;
  const bool mixed_sel =
      sel_fraction >= kMixedSelLow && sel_fraction <= kMixedSelHigh;

  std::string candidate;
  if (window.in_sequence_percent() >= kSequentialInSeqPercent) {
    // Sequential regime: T0 freezes the bus on in-sequence steps; on a
    // multiplexed stream the dual code keeps one history per source.
    candidate = mixed_sel ? "dual-t0-bi" : "t0";
  } else if (window.toggle_density() >
             static_cast<double>(width) * kDenseToggleFraction) {
    // Random-like regime: bus-invert bounds the per-cycle toggle count.
    candidate = "bus-invert";
  } else {
    // Unit-stride counting that the configured stride misses: Gray's
    // single-toggle increments. Steps observed = accesses - 1.
    if (static_cast<double>(window.unit_stride_steps) >=
        kUnitStrideFraction * static_cast<double>(window.accesses - 1)) {
      candidate = "gray";
    }
  }

  if (candidate == active) return "";
  return candidate;
}

}  // namespace abenc::service
