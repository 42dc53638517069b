#include "channel/fault_models.h"

#include <cmath>
#include <stdexcept>
#include <string>

namespace abenc {
namespace {

// (word, bit) coordinates of a flat line index; throws past the geometry.
struct LineRef {
  Word* word;
  unsigned bit;
};

LineRef Locate(ChannelFrame& frame, const ChannelGeometry& g, unsigned line) {
  if (line < g.data_lines) return {&frame.coded.lines, line};
  line -= g.data_lines;
  if (line < g.redundant_lines) return {&frame.coded.redundant, line};
  line -= g.redundant_lines;
  if (line < g.check_lines) return {&frame.check, line};
  throw std::out_of_range("line beyond the channel (total " +
                          std::to_string(g.total_lines()) + " lines)");
}

}  // namespace

void FlipLine(ChannelFrame& frame, const ChannelGeometry& geometry,
              unsigned line) {
  const LineRef ref = Locate(frame, geometry, line);
  *ref.word ^= Word{1} << ref.bit;
}

bool ReadLine(const ChannelFrame& frame, const ChannelGeometry& geometry,
              unsigned line) {
  const LineRef ref =
      Locate(const_cast<ChannelFrame&>(frame), geometry, line);
  return (*ref.word >> ref.bit) & 1;
}

void WriteLine(ChannelFrame& frame, const ChannelGeometry& geometry,
               unsigned line, bool value) {
  const LineRef ref = Locate(frame, geometry, line);
  *ref.word = (*ref.word & ~(Word{1} << ref.bit)) |
              (Word{value} << ref.bit);
}

int FrameTransitions(const ChannelFrame& prev, const ChannelFrame& next,
                     const ChannelGeometry& g) {
  int toggles = HammingDistance(prev.coded.lines, next.coded.lines,
                                g.data_lines);
  if (g.redundant_lines != 0) {
    toggles += HammingDistance(prev.coded.redundant, next.coded.redundant,
                               g.redundant_lines);
  }
  if (g.check_lines != 0) {
    toggles += HammingDistance(prev.check, next.check, g.check_lines);
  }
  return toggles;
}

std::string SingleUpsetFault::describe() const {
  return "upset(cycle=" + std::to_string(cycle_) +
         ", line=" + std::to_string(line_) + ")";
}

void SingleUpsetFault::Apply(ChannelFrame& frame, std::size_t cycle,
                             const ChannelGeometry& geometry) {
  if (cycle == cycle_) FlipLine(frame, geometry, line_);
}

BurstFault::BurstFault(std::size_t cycle, unsigned first_line, unsigned span,
                       std::size_t duration)
    : cycle_(cycle), first_line_(first_line), span_(span),
      duration_(duration) {
  if (span == 0 || duration == 0) {
    throw ChannelConfigError("burst span and duration must be nonzero");
  }
}

std::string BurstFault::describe() const {
  return "burst(cycle=" + std::to_string(cycle_) +
         ", lines=[" + std::to_string(first_line_) + "," +
         std::to_string(first_line_ + span_ - 1) + "], duration=" +
         std::to_string(duration_) + ")";
}

void BurstFault::Apply(ChannelFrame& frame, std::size_t cycle,
                       const ChannelGeometry& geometry) {
  if (cycle < cycle_ || cycle - cycle_ >= duration_) return;
  for (unsigned i = 0; i < span_; ++i) {
    FlipLine(frame, geometry, first_line_ + i);
  }
}

std::string StuckAtFault::describe() const {
  return "stuck-at-" + std::to_string(int{value_}) +
         "(line=" + std::to_string(line_) + ")";
}

void StuckAtFault::Apply(ChannelFrame& frame, std::size_t cycle,
                         const ChannelGeometry& geometry) {
  if (cycle < from_ || cycle > to_) return;
  WriteLine(frame, geometry, line_, value_);
}

std::uint64_t NoiseFlipBound(double flip_probability) {
  constexpr std::uint64_t kAll = std::numeric_limits<std::uint64_t>::max();
  if (flip_probability >= 1.0) return kAll;
  // Bisect for the least word whose coin reaches p; p * 2^64 is exact.
  const double scaled = std::ldexp(flip_probability, 64);
  std::uint64_t lo = 0;
  std::uint64_t hi = kAll;  // double(kAll) = 2^64 > scaled
  while (lo < hi) {
    const std::uint64_t mid = lo + (hi - lo) / 2;
    if (static_cast<double>(mid) >= scaled) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  return lo - 1;  // p > 0, so word 0 (coin 0) flips and lo >= 1
}

RandomNoiseFault::RandomNoiseFault(double flip_probability,
                                   std::uint64_t seed)
    : flip_probability_(flip_probability), seed_(seed), rng_(seed) {
  if (!(flip_probability >= 0.0) || !(flip_probability <= 1.0)) {
    throw ChannelConfigError("noise flip probability must be in [0, 1]");
  }
  if (flip_probability > 0.0) flip_bound_ = NoiseFlipBound(flip_probability);
}

std::string RandomNoiseFault::describe() const {
  return "noise(p=" + std::to_string(flip_probability_) + ")";
}

void RandomNoiseFault::Apply(ChannelFrame& frame, std::size_t /*cycle*/,
                             const ChannelGeometry& geometry) {
  if (flip_probability_ == 0.0) return;
  const unsigned total = geometry.total_lines();
  for (unsigned line = 0; line < total; ++line) {
    if (rng_() <= flip_bound_) FlipLine(frame, geometry, line);
  }
}

}  // namespace abenc
