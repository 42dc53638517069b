#include "verify/runner.h"

#include <sstream>
#include <string_view>

#include "analysis/markov.h"
#include "gate/circuits.h"
#include "obs/metrics.h"

namespace abenc::verify {
namespace {

/// FNV-1a — a platform-stable name hash for deriving per-instance
/// sub-seeds (std::hash is implementation-defined, which would break
/// cross-machine seed replay).
std::uint64_t Fnv1a(std::string_view text) {
  std::uint64_t hash = 1469598103934665603ull;
  for (const char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ull;
  }
  return hash;
}

/// The stream seed of one (instance, base seed) pair. Depends only on
/// the qualified instance name and the base seed, so replaying with
/// `--seed N --property P` regenerates the identical stream.
std::uint64_t StreamSeed(std::uint64_t base_seed, const std::string& name) {
  return MixSeed(base_seed ^ Fnv1a(name));
}

enum class InstanceKind { kUniversal, kGate, kMarkov, kParallel };

struct Instance {
  InstanceKind kind;
  std::string name;     // qualified: prop:codec:family / gate:... / ...
  std::string property;  // universal property name (kUniversal only)
  std::string codec;     // kUniversal / kGate / kMarkov
  StreamFamily family = StreamFamily::kUniformRandom;
};

/// The in-sequence probabilities the Markov oracle cycles through,
/// picked by seed so every probability is exercised across iterations.
double MarkovProbability(std::uint64_t seed) {
  constexpr double kProbabilities[] = {0.0, 0.3, 0.6, 0.9};
  return kProbabilities[seed % 4];
}

}  // namespace

VerifyRunner::VerifyRunner(VerifyConfig config) : config_(std::move(config)) {
  if (!config_.factory) config_.factory = DefaultCodecFactory();
}

namespace {

std::vector<Instance> EnumerateInstances(const VerifyConfig& config) {
  std::vector<Instance> instances;
  for (const std::string& property : UniversalPropertyNames()) {
    for (const std::string& codec : AllCodecNames()) {
      for (StreamFamily family : AllStreamFamilies()) {
        instances.push_back(Instance{
            InstanceKind::kUniversal,
            property + ":" + codec + ":" + FamilyName(family), property,
            codec, family});
      }
    }
  }
  for (const std::string& codec : gate::CircuitCodecNames()) {
    for (StreamFamily family : AllStreamFamilies()) {
      instances.push_back(Instance{InstanceKind::kGate,
                                   "gate:" + codec + ":" + FamilyName(family),
                                   "", codec, family});
    }
  }
  for (const std::string& codec : MarkovModelCodes()) {
    instances.push_back(
        Instance{InstanceKind::kMarkov, "markov:" + codec, "", codec});
  }
  instances.push_back(
      Instance{InstanceKind::kParallel, "parallel-identity", "", ""});

  if (!config.property_filter.empty()) {
    std::vector<Instance> filtered;
    for (Instance& instance : instances) {
      if (instance.name.find(config.property_filter) != std::string::npos) {
        filtered.push_back(std::move(instance));
      }
    }
    return filtered;
  }
  return instances;
}

}  // namespace

std::vector<std::string> VerifyRunner::PropertyNames() const {
  std::vector<std::string> names;
  for (const Instance& instance : EnumerateInstances(config_)) {
    names.push_back(instance.name);
  }
  return names;
}

std::vector<VerifyFailure> VerifyRunner::Run() const {
  CodecOptions options;
  options.width = config_.width;
  options.stride = config_.stride;

  // Per-instance wall time lands in the installed registry: one gauge
  // per qualified instance name (total across iterations, minimization
  // excluded) plus one overall histogram — what `verify_runner
  // --metrics` exports so slow property families are visible.
  obs::MetricsRegistry* registry = obs::Installed();

  std::vector<VerifyFailure> failures;
  for (const Instance& instance : EnumerateInstances(config_)) {
    double instance_seconds = 0.0;
    for (std::size_t iteration = 0; iteration < config_.iterations;
         ++iteration) {
      const std::uint64_t seed = config_.seed + iteration;
      const std::uint64_t stream_seed = StreamSeed(seed, instance.name);

      // The check as a function of an arbitrary stream, reused verbatim
      // by the minimizer so the minimized dump fails the same property.
      std::function<std::optional<PropertyFailure>(
          std::span<const BusAccess>)>
          check;
      std::vector<BusAccess> stream;
      std::size_t minimize_probes = 2000;
      switch (instance.kind) {
        case InstanceKind::kUniversal:
          stream = GenerateStream(instance.family, stream_seed,
                                  config_.stream_length, config_.width,
                                  config_.stride);
          check = [&](std::span<const BusAccess> candidate) {
            return CheckUniversalProperty(instance.property, instance.codec,
                                          options, candidate,
                                          config_.factory);
          };
          break;
        case InstanceKind::kGate: {
          // Gate simulation is ~1000x slower per cycle than the
          // behavioural codecs; bound the stream and the shrink budget.
          const std::size_t gate_length =
              config_.stream_length < 256 ? config_.stream_length : 256;
          stream = GenerateStream(instance.family, stream_seed, gate_length,
                                  config_.width, config_.stride);
          minimize_probes = 200;
          check = [&](std::span<const BusAccess> candidate) {
            return CheckGateEquivalence(instance.codec, options, candidate,
                                        config_.factory);
          };
          break;
        }
        case InstanceKind::kMarkov:
          check = [&](std::span<const BusAccess>) {
            const std::size_t samples =
                config_.stream_length * 50 < 30000 ? 30000
                                                   : config_.stream_length *
                                                         50;
            return CheckMarkovOracle(instance.codec, config_.width,
                                     config_.stride, MarkovProbability(seed),
                                     stream_seed, samples, config_.factory);
          };
          break;
        case InstanceKind::kParallel:
          check = [&](std::span<const BusAccess>) {
            return CheckParallelIdentity(AllCodecNames(), stream_seed,
                                         config_.stream_length / 4 + 64,
                                         config_.width, config_.stride);
          };
          break;
      }

      const double check_start = registry ? obs::MonotonicSeconds() : 0.0;
      const std::optional<PropertyFailure> failure = check(stream);
      if (registry) {
        instance_seconds += obs::MonotonicSeconds() - check_start;
      }
      if (!failure.has_value()) continue;

      VerifyFailure report;
      report.property = instance.name;
      report.seed = seed;
      report.index = failure->index;
      report.message = failure->message;
      report.minimized = stream;
      if (config_.minimize && !stream.empty()) {
        report.minimized = MinimizeStream(
            std::move(report.minimized),
            [&](std::span<const BusAccess> candidate) {
              return check(candidate).has_value();
            },
            minimize_probes);
      }
      std::ostringstream reproducer;
      reproducer << "verify_runner --seed " << seed << " --iterations 1"
                 << " --length " << config_.stream_length << " --width "
                 << config_.width << " --stride " << config_.stride
                 << " --property " << instance.name;
      report.reproducer = reproducer.str();
      failures.push_back(std::move(report));
      if (registry) registry->GetCounter("verify.failures").Increment();
      break;  // next instance; one failure per instance is enough
    }
    if (registry) {
      registry->GetCounter("verify.instances_checked").Increment();
      registry
          ->GetHistogram("verify.instance_seconds",
                         obs::DefaultLatencyBuckets())
          .Observe(instance_seconds);
      registry->GetGauge("verify.seconds." + instance.name)
          .Set(instance_seconds);
    }
  }
  return failures;
}

std::string VerifyRunner::FormatFailure(const VerifyFailure& failure,
                                        std::size_t max_dump) {
  std::ostringstream out;
  out << "FAIL " << failure.property << ": " << failure.message << "\n";
  out << "  reproduce: " << failure.reproducer << "\n";
  if (!failure.minimized.empty()) {
    out << "  minimized stream (" << failure.minimized.size()
        << " accesses):\n";
    const std::size_t shown = failure.minimized.size() < max_dump
                                  ? failure.minimized.size()
                                  : max_dump;
    for (std::size_t i = 0; i < shown; ++i) {
      out << "    [" << i << "] 0x" << std::hex
          << failure.minimized[i].address << std::dec
          << " sel=" << (failure.minimized[i].sel ? 1 : 0) << "\n";
    }
    if (shown < failure.minimized.size()) {
      out << "    ... " << (failure.minimized.size() - shown) << " more\n";
    }
  }
  return out.str();
}

}  // namespace abenc::verify
