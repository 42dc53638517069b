#include "analysis/markov.h"

#include <cmath>
#include <stdexcept>
#include <string_view>

#include "analysis/analytical.h"

namespace abenc {
namespace {

void CheckArguments(unsigned width, Word stride, double p) {
  if (width == 0 || width > 64) {
    throw std::invalid_argument("width must be in [1, 64]");
  }
  if (!IsPowerOfTwo(stride) || Log2(stride) >= width) {
    throw std::invalid_argument("stride must be a power of two below 2^N");
  }
  if (p < 0.0 || p > 1.0) {
    throw std::invalid_argument("probability must be in [0, 1]");
  }
}

/// One dedicated-bus closed form, in the in-sequence probability p,
/// binary's counting cost C = 2 (1 - 2^-(N-s)), the jump Hamming cost
/// J = (N-s)/2 and the varying line count N-s, where s = log2(stride).
struct MarkovModel {
  std::string_view code;  // factory name
  bool exact;             // false: an approximation, bounded by test
  double (*expected)(double p, double c, double j, unsigned varying);
};

constexpr MarkovModel kModels[] = {
    // Sequential steps count in binary; a uniform jump flips each
    // varying line with probability 1/2.
    {"binary", true,
     [](double p, double c, double j, unsigned) {
       return p * c + (1.0 - p) * j;
     }},
    // One transition per sequential step; a Gray bijection preserves the
    // uniform distribution, so jumps still cost half the varying lines.
    {"gray-word", true,
     [](double p, double, double j, unsigned) {
       return p * 1.0 + (1.0 - p) * j;
     }},
    // Lines are frozen during runs and jump to a uniform value otherwise;
    // the INC flag is a two-state chain with flip rate 2p(1-p).
    {"t0", true,
     [](double p, double, double j, unsigned) {
       return (1.0 - p) * j + 2.0 * p * (1.0 - p);
     }},
    // Sequential steps behave like binary counting (tiny Hamming, never
    // inverted); jumps see the majority decision over the varying lines.
    // Approximate: the real code thresholds over all N+1 lines while only
    // N-s ever vary, and an inverted cycle flips the frozen low lines
    // too, coupling consecutive decisions.
    {"bus-invert", false,
     [](double p, double c, double, unsigned varying) {
       return p * c + (1.0 - p) * BusInvertEta(varying);
     }},
    // Like T0's line cost, with no redundant line at all.
    {"inc-xor", true,
     [](double p, double, double j, unsigned) { return (1.0 - p) * j; }},
};

const MarkovModel& FindModel(const std::string& code) {
  for (const MarkovModel& model : kModels) {
    if (model.code == code) return model;
  }
  throw std::invalid_argument("no Markov model for code '" + code + "'");
}

}  // namespace

std::vector<std::string> MarkovModelCodes() {
  std::vector<std::string> codes;
  for (const MarkovModel& model : kModels) codes.emplace_back(model.code);
  return codes;
}

bool MarkovModelIsExact(const std::string& code) {
  return FindModel(code).exact;
}

double MarkovExpectedTransitions(const std::string& code, unsigned width,
                                 Word stride, double p) {
  CheckArguments(width, stride, p);
  const unsigned varying = width - Log2(stride);  // lines that ever switch
  return FindModel(code).expected(
      p, BinaryCountingTransitions(width, stride),
      static_cast<double>(varying) / 2.0, varying);
}

double MarkovMuxedExpectedTransitions(const std::string& code,
                                      unsigned width, Word stride,
                                      double p, double data_ratio) {
  CheckArguments(width, stride, p);
  if (data_ratio < 0.0 || data_ratio > 1.0) {
    throw std::invalid_argument("data ratio must be in [0, 1]");
  }
  const unsigned s = Log2(stride);
  const unsigned varying = width - s;
  const double jump = static_cast<double>(varying) / 2.0;
  const double counting = BinaryCountingTransitions(width, stride);
  const double r = data_ratio;

  // A bus cycle is a counting step only when two *adjacent* slots are
  // both instruction slots and the chain continued sequentially.
  const double adjacent_seq = (1.0 - r) * (1.0 - r) * p;

  if (code == "binary") {
    return adjacent_seq * counting + (1.0 - adjacent_seq) * jump;
  }
  if (code == "t0") {
    // T0's INC needs bus-adjacent sequentiality: data slots break it.
    const double q = adjacent_seq;
    return (1.0 - q) * jump + 2.0 * q * (1.0 - q);
  }
  if (code == "dual-t0") {
    // The Eq. 9 shadow register survives data slots: any instruction
    // slot whose chain continued freezes the bus.
    const double q = (1.0 - r) * p;
    return (1.0 - q) * jump + 2.0 * q * (1.0 - q);
  }
  if (code == "dual-t0-bi") {
    // Frozen instruction slots as in dual-t0; data slots pay the
    // bus-invert expectation over the varying lines; non-sequential
    // instruction slots travel binary. INCV toggles when the
    // (freeze-or-invert) indicator changes; approximate the invert
    // probability on data slots as the binomial tail the majority voter
    // sees.
    const double q = (1.0 - r) * p;
    double invert_probability = 0.0;
    for (unsigned k = varying / 2 + 1; k <= varying; ++k) {
      invert_probability += Binomial(varying, k);
    }
    invert_probability /= std::exp2(static_cast<double>(varying));
    const double incv_rate = q + r * invert_probability;
    return q * 0.0 + r * BusInvertEta(varying) +
           (1.0 - r) * (1.0 - p) * jump +
           2.0 * incv_rate * (1.0 - incv_rate) -
           // BusInvertEta already charges its own INV line inside eta;
           // avoid double-charging the shared INCV wire for data slots.
           2.0 * (r * invert_probability) *
               (1.0 - r * invert_probability);
  }
  throw std::invalid_argument("no muxed Markov model for code '" + code +
                              "'");
}

double MarkovCrossoverProbability(const std::string& code_a,
                                  const std::string& code_b, unsigned width,
                                  Word stride) {
  const auto diff = [&](double p) {
    return MarkovExpectedTransitions(code_a, width, stride, p) -
           MarkovExpectedTransitions(code_b, width, stride, p);
  };
  // Probe strictly inside the axis: several code pairs tie exactly at
  // the endpoints (e.g. everything is binary-like at p = 0).
  double lo = 1e-6;
  double hi = 1.0 - 1e-6;
  double d_lo = diff(lo);
  const double d_hi = diff(hi);
  if ((d_lo < 0.0) == (d_hi < 0.0)) return -1.0;  // no sign change
  for (int iteration = 0; iteration < 60; ++iteration) {
    const double mid = 0.5 * (lo + hi);
    const double d_mid = diff(mid);
    if ((d_mid < 0.0) == (d_lo < 0.0)) {
      lo = mid;
      d_lo = d_mid;
    } else {
      hi = mid;
    }
  }
  return 0.5 * (lo + hi);
}

}  // namespace abenc
