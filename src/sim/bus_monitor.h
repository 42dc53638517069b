// Collects the address stream a program drives on the processor's bus.
#pragma once

#include <cstdint>

#include "sim/cpu.h"
#include "trace/trace.h"

namespace abenc::sim {

/// Records the multiplexed bus: fetch and data addresses in program order,
/// as on the MIPS time-multiplexed address bus, with SEL derived from the
/// access kind. The paper's dedicated instruction and data buses carry
/// exactly this stream filtered by kind (`AddressTrace::Filtered`,
/// `ProgramTraces::instruction()` / `data()`), so each reference is
/// written once.
class BusMonitor final : public BusObserver {
 public:
  explicit BusMonitor(std::string program_name = "")
      : multiplexed_(std::move(program_name)) {}

  void OnInstructionFetch(std::uint32_t address) override {
    multiplexed_.Append(address, AccessKind::kInstruction);
  }

  void OnDataAccess(std::uint32_t address, bool is_store) override {
    (void)is_store;  // reads and writes look identical on the address bus
    multiplexed_.Append(address, AccessKind::kData);
  }

  /// Size the stream for `references` appends, so a run that makes no
  /// more never regrows it.
  void Reserve(std::size_t references) { multiplexed_.Reserve(references); }

  const AddressTrace& multiplexed_trace() const { return multiplexed_; }

  /// Move the recorded stream out of the monitor.
  AddressTrace TakeMultiplexedTrace() { return std::move(multiplexed_); }

 private:
  AddressTrace multiplexed_;
};

}  // namespace abenc::sim
