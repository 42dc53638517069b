// Address-trace container shared by the simulator, the generators and the
// codecs.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "core/stream_evaluator.h"
#include "core/types.h"

namespace abenc {

/// Kind of memory reference carried by a trace entry. On a multiplexed bus
/// this is what the SEL signal advertises.
enum class AccessKind : unsigned char { kInstruction, kData };

/// One reference of an address trace.
struct TraceEntry {
  Word address = 0;
  AccessKind kind = AccessKind::kInstruction;

  friend bool operator==(const TraceEntry&, const TraceEntry&) = default;
};

/// A stream of references as seen by one physical address bus.
class AddressTrace {
 public:
  AddressTrace() = default;
  explicit AddressTrace(std::string name) : name_(std::move(name)) {}

  const std::string& name() const { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }

  void Append(Word address, AccessKind kind) {
    entries_.push_back(TraceEntry{address, kind});
  }
  void Append(const TraceEntry& entry) { entries_.push_back(entry); }

  std::size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }
  const TraceEntry& operator[](std::size_t i) const { return entries_[i]; }
  const std::vector<TraceEntry>& entries() const { return entries_; }

  auto begin() const { return entries_.begin(); }
  auto end() const { return entries_.end(); }

  void Clear() { entries_.clear(); }
  void Reserve(std::size_t n) { entries_.reserve(n); }

  /// Number of references of one kind.
  std::size_t Count(AccessKind kind) const {
    std::size_t n = 0;
    for (const TraceEntry& e : entries_) n += e.kind == kind ? 1 : 0;
    return n;
  }

  /// Keep only references of one kind (e.g. the dedicated instruction bus).
  AddressTrace Filtered(AccessKind kind) const {
    AddressTrace out(name_);
    out.Reserve(Count(kind));
    for (const TraceEntry& e : entries_) {
      if (e.kind == kind) out.Append(e);
    }
    return out;
  }

  /// View as the BusAccess stream consumed by Evaluate(). SEL is asserted
  /// for instruction references, matching the MIPS bus interface.
  std::vector<BusAccess> ToBusAccesses() const {
    std::vector<BusAccess> out;
    out.reserve(entries_.size());
    for (const TraceEntry& e : entries_) {
      out.push_back(BusAccess{e.address, e.kind == AccessKind::kInstruction});
    }
    return out;
  }

  /// Plain address sequence (statistics helpers).
  std::vector<Word> Addresses() const {
    std::vector<Word> out;
    out.reserve(entries_.size());
    for (const TraceEntry& e : entries_) out.push_back(e.address);
    return out;
  }

 private:
  std::string name_;
  std::vector<TraceEntry> entries_;
};

/// Interleave an instruction trace and a data trace into the multiplexed
/// stream a shared address bus would carry. Entries are merged by their
/// position in `schedule`: for each element, true consumes the next
/// instruction reference, false the next data reference; when one side is
/// exhausted the remainder of the other is appended. The common case —
/// produced by the simulator — interleaves in program order instead.
AddressTrace MultiplexTraces(const AddressTrace& instruction,
                             const AddressTrace& data,
                             const std::vector<bool>& schedule);

}  // namespace abenc
