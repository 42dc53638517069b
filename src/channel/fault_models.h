// The concrete fault models: single-event upsets, multi-line bursts,
// stuck-at lines and rate-parameterised random noise. The noise model
// draws one 64-bit engine word per line and compares it with an integer
// bound computed once, the exact image of a uniform real coin.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <random>

#include "channel/fault_model.h"

namespace abenc {

/// Thrown when a channel or fault model is configured with invalid
/// parameters (mirrors CodecConfigError for the codec layer).
class ChannelConfigError : public std::invalid_argument {
 public:
  explicit ChannelConfigError(const std::string& what)
      : std::invalid_argument(what) {}
};

/// A single-event upset: one line flipped in one cycle. This is the
/// injection primitive behind core/resilience's MeasureSingleUpset.
class SingleUpsetFault final : public FaultModel {
 public:
  SingleUpsetFault(std::size_t cycle, unsigned line)
      : cycle_(cycle), line_(line) {}

  std::string describe() const override;
  void Apply(ChannelFrame& frame, std::size_t cycle,
             const ChannelGeometry& geometry) override;

 private:
  std::size_t cycle_;
  unsigned line_;
};

/// A burst: `span` physically adjacent lines starting at `first_line`,
/// all flipped for `duration` consecutive cycles starting at `cycle` —
/// the classic model of a particle strike or crosstalk event straddling
/// neighbouring wires.
class BurstFault final : public FaultModel {
 public:
  BurstFault(std::size_t cycle, unsigned first_line, unsigned span,
             std::size_t duration = 1);

  std::string describe() const override;
  void Apply(ChannelFrame& frame, std::size_t cycle,
             const ChannelGeometry& geometry) override;

 private:
  std::size_t cycle_;
  unsigned first_line_;
  unsigned span_;
  std::size_t duration_;
};

/// A line stuck at a fixed value over a cycle range (default: forever) —
/// an open/shorted driver. Unlike the transient models this overrides the
/// line rather than flipping it.
class StuckAtFault final : public FaultModel {
 public:
  static constexpr std::size_t kForever =
      std::numeric_limits<std::size_t>::max();

  StuckAtFault(unsigned line, bool value, std::size_t from_cycle = 0,
               std::size_t to_cycle = kForever)
      : line_(line), value_(value), from_(from_cycle), to_(to_cycle) {}

  std::string describe() const override;
  void Apply(ChannelFrame& frame, std::size_t cycle,
             const ChannelGeometry& geometry) override;

 private:
  unsigned line_;
  bool value_;
  std::size_t from_;
  std::size_t to_;
};

/// The largest std::mt19937_64 word that flips a line at
/// `flip_probability` p in (0, 1]: a word x flips exactly when
/// std::uniform_real_distribution<double>(0, 1) fed x would draw below p.
/// That coin is double(x) / 2^64, clamped below 1, so the flipping words
/// are those with double(x) < p * 2^64 — a prefix of the words, since the
/// conversion is monotone — and at p = 1 every word.
std::uint64_t NoiseFlipBound(double flip_probability);

/// Rate-parameterised noise: every line of every cycle flips
/// independently with probability `flip_probability`. Deterministic per
/// seed; Reset() replays the same noise realisation. Each line takes one
/// engine word and flips when it is at most NoiseFlipBound(p) — the same
/// flips, from the same engine stream, as one uniform real coin per
/// line; at p = 0 the engine is never drawn.
class RandomNoiseFault final : public FaultModel {
 public:
  RandomNoiseFault(double flip_probability, std::uint64_t seed);

  std::string describe() const override;
  void Apply(ChannelFrame& frame, std::size_t cycle,
             const ChannelGeometry& geometry) override;
  void Reset() override { rng_.seed(seed_); }

 private:
  double flip_probability_;
  std::uint64_t seed_;
  std::uint64_t flip_bound_ = 0;  // NoiseFlipBound(p); unused at p = 0
  std::mt19937_64 rng_;
};

}  // namespace abenc
