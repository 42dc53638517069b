#include "spans.h"

#include <algorithm>
#include <fstream>
#include <stdexcept>
#include <utility>

#include "bench.h"

namespace perfbench {

int Tracer::Begin(const std::string& name, std::int64_t job) {
  if (!enabled_) return -1;
  Span span;
  span.name = name;
  span.parent = open_.empty() ? -1 : open_.back();
  span.job = job;
  span.start_ns = NowNs();
  spans_.push_back(std::move(span));
  const int id = static_cast<int>(spans_.size() - 1);
  open_.push_back(id);
  return id;
}

void Tracer::End(int id, std::uint64_t items) {
  if (id < 0) return;
  Span& span = spans_[static_cast<std::size_t>(id)];
  span.end_ns = NowNs();
  span.items = items;
  // Spans close innermost first; tolerate an out-of-order close by
  // dropping everything opened after `id`.
  while (!open_.empty()) {
    const int top = open_.back();
    open_.pop_back();
    if (top == id) break;
  }
}

void Tracer::Add(const std::string& name, std::int64_t start_ns,
                 std::int64_t end_ns, std::uint64_t items,
                 std::int64_t job) {
  if (!enabled_) return;
  Span span;
  span.name = name;
  span.start_ns = start_ns;
  span.end_ns = end_ns;
  span.parent = open_.empty() ? -1 : open_.back();
  span.job = job;
  span.items = items;
  spans_.push_back(std::move(span));
}

std::vector<std::int64_t> SelfTimes(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
      spans.size());
  for (const Span& span : spans) {
    if (span.parent < 0) continue;
    if (static_cast<std::size_t>(span.parent) >= spans.size()) {
      throw std::out_of_range("SelfTimes: parent index out of range");
    }
    children[static_cast<std::size_t>(span.parent)].emplace_back(
        span.start_ns, span.end_ns);
  }
  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& span = spans[i];
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    // Union of the children's intervals, clipped to the parent's.
    std::int64_t covered = 0;
    std::int64_t run_start = 0;
    std::int64_t run_end = 0;
    bool in_run = false;
    for (auto [start, end] : kids) {
      start = std::max(start, span.start_ns);
      end = std::min(end, span.end_ns);
      if (end <= start) continue;
      if (in_run && start <= run_end) {
        run_end = std::max(run_end, end);
        continue;
      }
      if (in_run) covered += run_end - run_start;
      run_start = start;
      run_end = end;
      in_run = true;
    }
    if (in_run) covered += run_end - run_start;
    self[i] = span.duration_ns() - covered;
  }
  return self;
}

std::map<std::string, SpanStats> Summarize(const std::vector<Span>& spans) {
  const std::vector<std::int64_t> self = SelfTimes(spans);
  std::map<std::string, SpanStats> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    SpanStats& stats = out[spans[i].name];
    const double duration = static_cast<double>(spans[i].duration_ns());
    ++stats.count;
    stats.total_ns += duration;
    stats.self_ns += static_cast<double>(self[i]);
    stats.items += spans[i].items;
    stats.durations_ns.push_back(duration);
  }
  return out;
}

void WriteSpans(const std::string& path, const std::vector<Span>& spans,
                const std::string& fingerprint) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) throw std::runtime_error("cannot write span file " + path);
  out << "{\"fingerprint\":" << fingerprint << ",\"spans\":" << spans.size()
      << "}\n";
  const std::vector<std::int64_t> self = SelfTimes(spans);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    out << "{\"id\":" << i << ",\"name\":\"" << s.name
        << "\",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
        << ",\"parent\":" << s.parent << ",\"job\":" << s.job
        << ",\"items\":" << s.items << ",\"self_ns\":" << self[i] << "}\n";
  }
}

}  // namespace perfbench
