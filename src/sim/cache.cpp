#include "sim/cache.h"

#include <stdexcept>

#include "obs/metrics.h"

namespace abenc::sim {

Cache::Cache(const CacheConfig& config) : config_(config) {
  if (!IsPowerOfTwo(config.line_bytes) || !IsPowerOfTwo(config.sets) ||
      !IsPowerOfTwo(config.ways)) {
    throw std::invalid_argument(
        "cache geometry fields must be powers of two");
  }
  line_shift_ = Log2(config.line_bytes);
  set_mask_ = config.sets - 1;
  ways_.assign(static_cast<std::size_t>(config.sets) * config.ways, Way{});
}

Cache::AccessResult Cache::Access(std::uint32_t address, bool is_store) {
  ++clock_;
  ++stats_.accesses;
  const std::uint32_t line = address >> line_shift_;
  const std::uint32_t set = line & set_mask_;
  const std::uint32_t tag = line >> 0;  // full line number as tag (simple)
  Way* const base = &ways_[static_cast<std::size_t>(set) * config_.ways];

  AccessResult result;
  Way* victim = base;
  for (std::uint32_t w = 0; w < config_.ways; ++w) {
    Way& way = base[w];
    if (way.valid && way.tag == tag) {
      way.last_use = clock_;
      way.dirty = way.dirty || is_store;
      result.hit = true;
      return result;
    }
    if (!way.valid) {
      victim = &way;
    } else if (victim->valid && way.last_use < victim->last_use) {
      victim = &way;
    }
  }

  ++stats_.misses;
  if (victim->valid && victim->dirty) {
    ++stats_.writebacks;
    result.writeback = true;
    result.victim_line = victim->tag << line_shift_;
  }
  victim->valid = true;
  victim->dirty = is_store;
  victim->tag = tag;
  victim->last_use = clock_;
  return result;
}

void Cache::Reset() {
  ways_.assign(ways_.size(), Way{});
  clock_ = 0;
  stats_ = CacheStats{};
}

void Cache::PublishMetrics(const std::string& label) const {
  if (obs::Installed() == nullptr) return;
  const std::string prefix = "sim.cache." + label + ".";
  obs::Count(prefix + "hits", stats_.accesses - stats_.misses);
  obs::Count(prefix + "misses", stats_.misses);
  obs::Count(prefix + "writebacks", stats_.writebacks);
}

CacheFilteredMonitor::CacheFilteredMonitor(const CacheConfig& icache_config,
                                           const CacheConfig& dcache_config,
                                           std::string program_name)
    : icache_(icache_config),
      dcache_(dcache_config),
      multiplexed_(std::move(program_name)) {}

void CacheFilteredMonitor::OnInstructionFetch(std::uint32_t address) {
  const Cache::AccessResult result = icache_.Access(address, false);
  if (!result.hit) {
    multiplexed_.Append(icache_.LineAddress(address), AccessKind::kInstruction);
  }
  // Instruction lines are never dirty (no self-modifying code here).
}

void CacheFilteredMonitor::OnDataAccess(std::uint32_t address,
                                        bool is_store) {
  const Cache::AccessResult result = dcache_.Access(address, is_store);
  if (!result.hit) {
    multiplexed_.Append(dcache_.LineAddress(address), AccessKind::kData);
  }
  if (result.writeback) {
    multiplexed_.Append(result.victim_line, AccessKind::kData);
  }
}

}  // namespace abenc::sim
