// In-memory span recorder for the traced run. Spans are opened and
// closed by the benchmark's own code around each call into a layer's
// public functions; they nest on one thread, are kept in memory and are
// written out when the benchmark ends. A disabled tracer records
// nothing and reads no clock.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;          // index of the enclosing span, -1 at the root
  std::int64_t job = -1;    // job the span belongs to, -1 outside jobs
  std::uint64_t items = 0;  // accesses (or calls) the span covers
  std::int64_t duration_ns() const { return end_ns - start_ns; }
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }

  /// Opens a span under the innermost open one; returns its index, or
  /// -1 when the tracer is disabled.
  int Begin(const std::string& name, std::int64_t job = -1);
  void End(int id, std::uint64_t items = 0);
  /// Records an already-timed span (for intervals measured elsewhere).
  void Add(const std::string& name, std::int64_t start_ns,
           std::int64_t end_ns, std::uint64_t items = 0,
           std::int64_t job = -1);

  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span; set `items` before it closes.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const std::string& name, std::int64_t job = -1)
      : tracer_(tracer), id_(tracer.Begin(name, job)) {}
  ~ScopedSpan() { tracer_.End(id_, items); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  std::uint64_t items = 0;

 private:
  Tracer& tracer_;
  int id_;
};

/// Self time of every span: its duration minus the part of its interval
/// covered by its direct children (overlapping children count once).
std::vector<std::int64_t> SelfTimes(const std::vector<Span>& spans);

/// Per-name aggregate of a span set.
struct SpanStats {
  std::size_t count = 0;
  double total_ns = 0.0;
  double self_ns = 0.0;
  std::uint64_t items = 0;
  std::vector<double> durations_ns;
  double ns_per_item() const {
    return items == 0 ? 0.0 : total_ns / static_cast<double>(items);
  }
};
std::map<std::string, SpanStats> Summarize(const std::vector<Span>& spans);

/// Writes one JSON object per line: a header carrying `fingerprint`,
/// then every span with its self time.
void WriteSpans(const std::string& path, const std::vector<Span>& spans,
                const std::string& fingerprint);

}  // namespace perfbench
