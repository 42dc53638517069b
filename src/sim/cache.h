// Parametric set-associative cache models and a cache-filtering bus
// observer.
//
// The paper's closing section singles out "the most appropriate encoding
// schemes for different types of memory hierarchies (e.g., main memory,
// L1 and L2 caches)" as future work. This substrate lets every bench and
// example study exactly that: the CPU's raw reference streams are passed
// through L1 instruction/data caches, and the *miss* streams — what an
// off-chip address bus behind the caches actually carries — are exposed
// as ordinary AddressTraces.
#pragma once

#include <cstdint>
#include <vector>

#include "core/types.h"
#include "sim/cpu.h"
#include "trace/trace.h"

namespace abenc::sim {

/// Geometry of one cache. All fields must be powers of two.
struct CacheConfig {
  std::uint32_t line_bytes = 16;
  std::uint32_t sets = 64;
  std::uint32_t ways = 2;

  std::uint32_t capacity_bytes() const { return line_bytes * sets * ways; }
};

/// Statistics of one cache over a run.
struct CacheStats {
  std::uint64_t accesses = 0;
  std::uint64_t misses = 0;
  std::uint64_t writebacks = 0;

  double miss_rate() const {
    return accesses == 0
               ? 0.0
               : static_cast<double>(misses) / static_cast<double>(accesses);
  }
};

/// Set-associative, true-LRU, write-back / write-allocate cache model.
/// Only the address behaviour is modelled (no data array) — exactly what
/// the bus-encoding study needs.
class Cache {
 public:
  explicit Cache(const CacheConfig& config);

  /// Result of one access.
  struct AccessResult {
    bool hit = false;
    bool writeback = false;          // a dirty line was evicted
    std::uint32_t victim_line = 0;   // line address of the writeback
  };

  /// Look up `address`; on a miss the line is allocated (LRU victim).
  /// `is_store` marks the line dirty (write-allocate).
  AccessResult Access(std::uint32_t address, bool is_store);

  /// Line-aligned address of `address`.
  std::uint32_t LineAddress(std::uint32_t address) const {
    return address & ~(config_.line_bytes - 1);
  }

  const CacheConfig& config() const { return config_; }
  const CacheStats& stats() const { return stats_; }
  void Reset();

  /// Flush this cache's accumulated stats into the installed metrics
  /// registry as `sim.cache.<label>.{hits,misses,writebacks}` counter
  /// increments (no-op without a registry). Call once per run — the
  /// whole CacheStats is added, so repeated calls double-count.
  void PublishMetrics(const std::string& label) const;

 private:
  struct Way {
    bool valid = false;
    bool dirty = false;
    std::uint32_t tag = 0;
    std::uint64_t last_use = 0;
  };

  CacheConfig config_;
  std::uint32_t line_shift_ = 0;
  std::uint32_t set_mask_ = 0;
  std::vector<Way> ways_;  // sets * ways, row-major by set
  std::uint64_t clock_ = 0;
  CacheStats stats_;
};

/// BusObserver that models split L1 caches in front of the external
/// address bus: every CPU reference probes its cache, and only misses
/// (plus dirty writebacks) appear on the recorded external stream, as
/// line addresses, multiplexed in program order like BusMonitor's. The
/// natural stride of the external bus is then the cache line size, not
/// the word size.
class CacheFilteredMonitor final : public BusObserver {
 public:
  CacheFilteredMonitor(const CacheConfig& icache_config,
                       const CacheConfig& dcache_config,
                       std::string program_name = "");

  void OnInstructionFetch(std::uint32_t address) override;
  void OnDataAccess(std::uint32_t address, bool is_store) override;

  const AddressTrace& multiplexed_trace() const { return multiplexed_; }
  /// Move the recorded stream out of the monitor.
  AddressTrace TakeMultiplexedTrace() { return std::move(multiplexed_); }
  const Cache& icache() const { return icache_; }
  const Cache& dcache() const { return dcache_; }

 private:
  Cache icache_;
  Cache dcache_;
  AddressTrace multiplexed_;
};

}  // namespace abenc::sim
