// Differential oracles: the behavioural codecs cross-checked against
// independent implementations of the same semantics — the gate-level
// netlists of src/gate, the closed-form Markov models of src/analysis,
// and the parallel experiment engine against its sequential path.
#pragma once

#include <optional>
#include <span>
#include <string>
#include <vector>

#include "verify/properties.h"

namespace abenc::verify {

/// Drive the synthesised encoder and decoder netlists cycle-by-cycle in
/// lockstep with the behavioural codec built by `factory`: the encoder
/// must reproduce every BusState bit-exactly and the decoder must
/// recover the address. Requires a codec named by gate::CircuitCodecNames().
std::optional<PropertyFailure> CheckGateEquivalence(
    const std::string& codec_name, const CodecOptions& options,
    std::span<const BusAccess> stream, const CodecFactoryFn& factory);

/// Monte-Carlo the behavioural codec over a synthetic Markov stream with
/// in-sequence probability `p_in_sequence` and compare the measured
/// average transitions per cycle against MarkovExpectedTransitions.
/// Requires a codec named by MarkovModelCodes(). Tolerances follow
/// MarkovModelIsExact: 2 % Monte-Carlo slack for an exact form, 6 % for
/// an approximate one.
std::optional<PropertyFailure> CheckMarkovOracle(
    const std::string& codec_name, unsigned width, Word stride,
    double p_in_sequence, std::uint64_t seed, std::size_t length,
    const CodecFactoryFn& factory);

/// RunComparison with parallelism must be bit-identical to the
/// sequential path: every EvalResult field of every (stream, codec)
/// cell, plus the aggregates, compared exactly.
std::optional<PropertyFailure> CheckParallelIdentity(
    const std::vector<std::string>& codec_names, std::uint64_t seed,
    std::size_t stream_length, unsigned width, Word stride);

}  // namespace abenc::verify
