#include "core/adaptive_codec.h"

#include <algorithm>
#include <utility>

namespace abenc {

std::vector<std::string> AdaptiveCodec::DefaultPalette() {
  return {"binary", "gray", "t0", "bus-invert", "dual-t0-bi"};
}

std::vector<std::string> AdaptiveCodec::ParsePalette(const std::string& spec) {
  if (spec.empty()) return DefaultPalette();
  std::vector<std::string> names;
  std::size_t start = 0;
  while (start <= spec.size()) {
    const std::size_t comma = spec.find(',', start);
    const std::size_t end = comma == std::string::npos ? spec.size() : comma;
    const std::string name = spec.substr(start, end - start);
    if (name.empty()) {
      throw CodecConfigError("adaptive palette has an empty entry: '" + spec +
                             "'");
    }
    names.push_back(name);
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return names;
}

AdaptiveCodec::AdaptiveCodec(unsigned width, std::vector<std::string> palette,
                             std::size_t window, long long hysteresis,
                             Word stride, const MemberBuilder& builder)
    : Codec(width),
      palette_(std::move(palette)),
      window_(window),
      hysteresis_(hysteresis),
      stride_(stride) {
  if (palette_.empty()) {
    throw CodecConfigError("adaptive palette must name at least one member");
  }
  if (window_ == 0) {
    throw CodecConfigError("adaptive window must be >= 1 access");
  }
  if (hysteresis_ < 0) {
    throw CodecConfigError("adaptive hysteresis must be non-negative");
  }
  for (const std::string& name : palette_) {
    if (name == "adaptive") {
      throw CodecConfigError("adaptive palette cannot contain itself");
    }
  }
  for (End* end : {&enc_, &dec_}) {
    for (const std::string& name : palette_) {
      CodecPtr member = builder(name);
      if (member == nullptr || member->width() != this->width()) {
        throw CodecConfigError("adaptive member '" + name +
                               "' was not built at the meta-codec width");
      }
      redundant_ = std::max(redundant_, member->redundant_lines());
      end->counters.emplace_back(this->width(), member->redundant_lines());
      end->shadows.push_back(builder(name));
      end->members.push_back(std::move(member));
    }
    end->window_base.assign(palette_.size(), 0);
  }
}

bool AdaptiveCodec::DecideAtBoundary(End& e, bool encoder_end) {
  const std::size_t n = palette_.size();
  std::vector<long long> fresh(n);
  for (std::size_t m = 0; m < n; ++m) {
    fresh[m] = e.counters[m].total() - e.window_base[m];
  }
  // The stale-statistics sabotage decides from the window before last;
  // the first boundary has no older window, so both ends still agree
  // there and the logs diverge from boundary two on.
  const bool stale =
      encoder_end && sabotage_.stale_stats && !e.last_costs.empty();
  const std::vector<long long>& used = stale ? e.last_costs : fresh;

  std::size_t best = 0;
  for (std::size_t m = 1; m < n; ++m) {
    if (used[m] < used[best]) best = m;
  }
  const std::size_t active = static_cast<std::size_t>(e.active);
  const bool switched =
      best != active && used[active] - used[best] > hysteresis_;
  if (switched) {
    e.active = static_cast<int>(best);
    e.members[best]->Reset();
  }
  AdaptiveDecision decision;
  decision.access_index = e.accesses;
  decision.window = e.accesses / window_;
  decision.costs = used;
  decision.chosen = e.active;
  decision.switched = switched;
  e.decisions.push_back(std::move(decision));

  for (std::size_t m = 0; m < n; ++m) {
    e.window_base[m] = e.counters[m].total();
  }
  e.completed = std::move(e.current);
  e.current = AdaptiveWindowStats{};
  e.last_costs = std::move(fresh);
  return switched;
}

void AdaptiveCodec::Prime(End& e, Word address, bool sel) {
  Codec& member = *e.members[static_cast<std::size_t>(e.active)];
  const BusState primed = member.Encode(address, sel);
  (void)member.Decode(primed, sel);
}

void AccumulateWindowStats(AdaptiveWindowStats& stats, Word masked_address,
                           bool sel, bool& has_prev, Word& prev_address,
                           unsigned width, Word stride) {
  const Word mask = LowMask(width);
  ++stats.accesses;
  if (sel) ++stats.sel_high;
  if (has_prev) {
    const Word delta = (masked_address - prev_address) & mask;
    ++stats.stride_histogram[delta];
    stats.raw_toggles += HammingDistance(prev_address, masked_address, width);
    if (delta == (stride & mask)) ++stats.in_sequence;
  }
  prev_address = masked_address;
  has_prev = true;
}

AdaptiveStatsTracker::AdaptiveStatsTracker(unsigned width, Word stride,
                                           std::size_t window)
    : width_(width), stride_(stride), window_(window == 0 ? 1 : window) {}

void AdaptiveStatsTracker::Observe(Word address, bool sel) {
  AccumulateWindowStats(current_, address & LowMask(width_), sel, has_prev_,
                        prev_address_, width_, stride_);
  if (++accesses_ % window_ == 0) {
    completed_ = std::move(current_);
    current_ = AdaptiveWindowStats{};
    ++windows_completed_;
  }
}

void AdaptiveStatsTracker::ObserveColumns(const Word* addresses,
                                          const std::uint8_t* sel,
                                          std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) Observe(addresses[i], sel[i] != 0);
}

void AdaptiveStatsTracker::Reset() {
  accesses_ = 0;
  has_prev_ = false;
  prev_address_ = 0;
  windows_completed_ = 0;
  current_ = AdaptiveWindowStats{};
  completed_ = AdaptiveWindowStats{};
}

void AdaptiveCodec::ObserveStats(End& e, Word b, bool sel) {
  AccumulateWindowStats(e.current, b, sel, e.has_prev, e.prev_address, width(),
                        stride_);
}

void AdaptiveCodec::Advance(End& e, Word address, bool sel) {
  const Word b = Mask(address);
  for (std::size_t m = 0; m < palette_.size(); ++m) {
    e.counters[m].Observe(e.shadows[m]->Encode(b, sel));
  }
  ObserveStats(e, b, sel);
  ++e.accesses;
}

BusState AdaptiveCodec::EncodeOne(Word address, bool sel) {
  End& e = enc_;
  bool switched = false;
  if (AtBoundary(e)) switched = DecideAtBoundary(e, true);
  const Word b = Mask(address);
  BusState out;
  if (switched) {
    out = BusState{b, 1};  // verbatim address, ESC asserted
    if (sabotage_.delayed_esc) {
      out.redundant = 0;
      e.pending_esc = true;
    }
    Prime(e, b, sel);
  } else {
    out = e.members[static_cast<std::size_t>(e.active)]->Encode(address, sel);
    if (e.pending_esc) {
      out.redundant |= 1;
      e.pending_esc = false;
    }
  }
  Advance(e, b, sel);
  return out;
}

Word AdaptiveCodec::DecodeOne(const BusState& bus, bool sel) {
  End& d = dec_;
  bool switched = false;
  if (AtBoundary(d)) switched = DecideAtBoundary(d, false);
  Word b;
  if (switched) {
    // The replayed decision — not the ESC line — tells this end the
    // boundary word is verbatim; ESC is the wire-visible witness that
    // the decision-replay property audits.
    b = Mask(bus.lines);
    Prime(d, b, sel);
  } else {
    b = Mask(d.members[static_cast<std::size_t>(d.active)]->Decode(bus, sel));
  }
  Advance(d, b, sel);
  return b;
}

BusState AdaptiveCodec::Encode(Word address, bool sel) {
  return EncodeOne(address, sel);
}

Word AdaptiveCodec::Decode(const BusState& bus, bool sel) {
  return DecodeOne(bus, sel);
}

void AdaptiveCodec::EncodeBatch(AccessView in, std::size_t n,
                                std::span<BusState> out) {
  End& e = enc_;
  std::size_t i = 0;
  while (i < n) {
    if (AtBoundary(e)) {
      out[i] = EncodeOne(in.address(i), in.sel_at(i));
      ++i;
      continue;
    }
    const std::size_t room = window_ - (e.accesses % window_);
    const std::size_t run = std::min(room, n - i);
    const AccessView sub_in = in.From(i);
    const std::span<BusState> sub_out = out.subspan(i, run);
    e.members[static_cast<std::size_t>(e.active)]->EncodeBatch(sub_in, run,
                                                               sub_out);
    if (e.pending_esc) {
      sub_out[0].redundant |= 1;
      e.pending_esc = false;
    }
    e.scratch.resize(run);
    const std::span<BusState> scratch(e.scratch.data(), run);
    for (std::size_t m = 0; m < palette_.size(); ++m) {
      e.shadows[m]->EncodeBatch(sub_in, run, scratch);
      for (const BusState& state : scratch) e.counters[m].Observe(state);
    }
    for (std::size_t k = 0; k < run; ++k) {
      ObserveStats(e, Mask(sub_in.address(k)), sub_in.sel_at(k));
    }
    e.accesses += run;
    i += run;
  }
}

void AdaptiveCodec::ResetEnd(End& e) {
  for (const CodecPtr& member : e.members) member->Reset();
  for (const CodecPtr& shadow : e.shadows) shadow->Reset();
  for (TransitionCounter& counter : e.counters) counter.Reset();
  e.window_base.assign(palette_.size(), 0);
  e.last_costs.clear();
  e.active = 0;
  e.accesses = 0;
  e.pending_esc = false;
  e.has_prev = false;
  e.prev_address = 0;
  e.current = AdaptiveWindowStats{};
  e.completed = AdaptiveWindowStats{};
  e.decisions.clear();
}

void AdaptiveCodec::Reset() {
  ResetEnd(enc_);
  ResetEnd(dec_);
}

}  // namespace abenc
