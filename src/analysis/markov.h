// Closed-form expected switching activity under the first-order Markov
// stream model (with probability p the next address is previous + S,
// otherwise it jumps to a uniform stride-aligned address) — the model the
// synthetic generator implements and the ablation sweeps dial. These
// forms extend Table 1's two extreme rows (p = 0 and p = 1) to the whole
// axis and are validated against Monte-Carlo runs of the real codecs in
// the test-suite.
#pragma once

#include <string>
#include <vector>

#include "core/types.h"

namespace abenc {

/// The factory names of every code with a dedicated-bus closed form, in
/// the order of the table in markov.cpp, which derives each form.
std::vector<std::string> MarkovModelCodes();

/// Whether `code`'s form is exact in the stationary limit; false for an
/// approximation, whose error against Monte-Carlo (≤ ~6 % across the
/// axis at N = 32, S = 4) is bounded by test. Throws
/// std::invalid_argument for a code without a model.
bool MarkovModelIsExact(const std::string& code);

/// Expected bus transitions per cycle (all driven lines, redundant
/// included) in the stationary regime, for a `code` of MarkovModelCodes().
double MarkovExpectedTransitions(const std::string& code, unsigned width,
                                 Word stride, double p_in_sequence);

/// The in-sequence probability at which two codes break even (bisection
/// over MarkovExpectedTransitions); returns a negative value when one
/// code dominates over the whole [0, 1] axis.
double MarkovCrossoverProbability(const std::string& code_a,
                                  const std::string& code_b, unsigned width,
                                  Word stride);

/// Expected transitions per cycle on a *multiplexed* bus: each slot is a
/// data reference (uniform over the stride-aligned space) with
/// probability `data_ratio`, otherwise the next step of an instruction
/// chain that continues sequentially with probability `p_in_sequence`
/// (the Eq. 9 shadow semantics: data slots do not break the chain).
/// Codes: "binary", "t0", "dual-t0", "dual-t0-bi".
///
/// Derivations (J = (N-s)/2, the jump Hamming cost; C = the counting
/// cost; q = P(slot is instruction and sequential) per code's own
/// sequentiality test):
///   binary:     (1-r)^2 p C + (1 - (1-r)^2 p) J
///   t0:         q = (1-r)^2 p (adjacent instr pair needed);
///               (1-q) J + 2q(1-q)
///   dual-t0:    q = (1-r) p   (the shadow survives data slots);
///               (1-q) J + 2q(1-q)
///   dual-t0-bi: dual-t0's frozen slots, eta-priced data slots; the
///               INCV rate folds both triggers. This last form shares
///               the bus-invert approximation of the dedicated-bus model
///               (documented at its row in markov.cpp); the others are
///               exact in the stationary limit. Validated against
///               Monte-Carlo by test.
double MarkovMuxedExpectedTransitions(const std::string& code,
                                      unsigned width, Word stride,
                                      double p_in_sequence,
                                      double data_ratio);

}  // namespace abenc
