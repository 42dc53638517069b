#include "core/adaptive_codec.h"

#include <algorithm>
#include <bit>
#include <set>
#include <string_view>
#include <utility>

namespace abenc {
namespace {

// Toggles of `states` following `last`, which becomes the final state:
// the total a TransitionCounter accumulates over the same states, with
// no per-line histogram and no peak.
long long CountToggles(std::span<const BusState> states, Word data_mask,
                       Word redundant_mask, BusState& last) {
  long long total = 0;
  Word lines = last.lines;
  Word redundant = last.redundant;
  for (const BusState& state : states) {
    total += std::popcount((lines ^ state.lines) & data_mask) +
             std::popcount((redundant ^ state.redundant) & redundant_mask);
    lines = state.lines;
    redundant = state.redundant;
  }
  last = BusState{lines, redundant};
  return total;
}

}  // namespace

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
                             const MemberBuilder& builder)
    : Codec(width),
      palette_(std::move(palette)),
      window_(window),
      hysteresis_(hysteresis) {
  if (palette_.empty()) {
    throw CodecConfigError("adaptive palette must name at least one member");
  }
  if (window_ == 0) {
    throw CodecConfigError("adaptive window must be >= 1 access");
  }
  if (hysteresis_ < 0) {
    throw CodecConfigError("adaptive hysteresis must be non-negative");
  }
  std::set<std::string_view> seen;
  for (const std::string& name : palette_) {
    if (name == "adaptive") {
      throw CodecConfigError("adaptive palette cannot contain itself");
    }
    // A repeat costs what its first copy costs in every window, so it is
    // never chosen; refusing it bounds a palette by the factory's codecs.
    if (!seen.insert(name).second) {
      throw CodecConfigError("adaptive palette repeats member '" + name + "'");
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
      Shadow shadow;
      shadow.codec = builder(name);
      shadow.redundant_mask = LowMask(member->redundant_lines());
      end->shadows.push_back(std::move(shadow));
      end->members.push_back(std::move(member));
    }
    end->window_base.assign(palette_.size(), 0);
  }
}

bool AdaptiveCodec::DecideAtBoundary(End& e, bool encoder_end) {
  CostBuffered(e);
  const std::size_t n = palette_.size();
  std::vector<long long> fresh(n);
  for (std::size_t m = 0; m < n; ++m) {
    fresh[m] = e.shadows[m].total - e.window_base[m];
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
    e.window_base[m] = e.shadows[m].total;
  }
  e.last_costs = std::move(fresh);
  return switched;
}

void AdaptiveCodec::Prime(End& e, Word address, bool sel) {
  Codec& member = *e.members[static_cast<std::size_t>(e.active)];
  const BusState primed = member.Encode(address, sel);
  (void)member.Decode(primed, sel);
}

AdaptiveStatsTracker::AdaptiveStatsTracker(unsigned width, Word stride,
                                           std::size_t window)
    : width_(width), stride_(stride), window_(window == 0 ? 1 : window) {}

void AdaptiveStatsTracker::Observe(Word address, bool sel) {
  const std::uint8_t flag = sel ? 1 : 0;
  ObserveColumns(&address, &flag, 1);
}

void AdaptiveStatsTracker::ObserveColumns(const Word* addresses,
                                          const std::uint8_t* sel,
                                          std::size_t n) {
  const Word mask = LowMask(width_);
  const Word stride = stride_ & mask;
  std::size_t i = 0;
  while (i < n) {
    // One loop over the run up to the next window boundary, in locals:
    // the SEL bytes may alias anything, the window's fields included.
    const std::size_t end = i + std::min(window_ - accesses_ % window_, n - i);
    current_.accesses += end - i;
    accesses_ += end - i;
    std::size_t sel_high = 0;
    if (!has_prev_) {  // the stream's first access takes no step
      sel_high += sel[i] != 0;
      prev_address_ = addresses[i] & mask;
      has_prev_ = true;
      ++i;
    }
    Word prev = prev_address_;
    std::size_t in_sequence = 0;
    std::size_t unit_stride_steps = 0;
    long long raw_toggles = 0;
    for (; i < end; ++i) {
      const Word b = addresses[i] & mask;
      const Word delta = (b - prev) & mask;
      sel_high += sel[i] != 0;
      in_sequence += delta == stride;
      unit_stride_steps += delta == 1;
      raw_toggles += std::popcount(b ^ prev);
      prev = b;
    }
    prev_address_ = prev;
    current_.sel_high += sel_high;
    current_.in_sequence += in_sequence;
    current_.unit_stride_steps += unit_stride_steps;
    current_.raw_toggles += raw_toggles;
    if (accesses_ % window_ == 0) {
      completed_ = current_;
      current_ = AdaptiveWindowStats{};
      ++windows_completed_;
    }
  }
}

void AdaptiveStatsTracker::Reset() {
  accesses_ = 0;
  has_prev_ = false;
  prev_address_ = 0;
  windows_completed_ = 0;
  current_ = AdaptiveWindowStats{};
  completed_ = AdaptiveWindowStats{};
}

void AdaptiveCodec::Buffer(End& e, Word b, bool sel) {
  if (e.buffered == kCostBatch) CostBuffered(e);
  e.addresses[e.buffered] = b;
  e.sel[e.buffered] = sel ? 1 : 0;
  ++e.buffered;
  ++e.accesses;
}

void AdaptiveCodec::CostBuffered(End& e) {
  if (e.buffered == 0) return;
  const AccessView in = AccessView::Columns(e.addresses.data(), e.sel.data());
  const std::span<BusState> states(shadow_states_.data(), e.buffered);
  const Word data_mask = LowMask(width());
  for (Shadow& shadow : e.shadows) {
    shadow.codec->EncodeBatch(in, e.buffered, states);
    shadow.total +=
        CountToggles(states, data_mask, shadow.redundant_mask, shadow.last);
  }
  e.buffered = 0;
}

BusState AdaptiveCodec::Encode(Word address, bool sel) {
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
  Buffer(e, b, sel);
  return out;
}

Word AdaptiveCodec::Decode(const BusState& bus, bool sel) {
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
  Buffer(d, b, sel);
  return b;
}

void AdaptiveCodec::EncodeBatch(AccessView in, std::size_t n,
                                std::span<BusState> out) {
  End& e = enc_;
  std::size_t i = 0;
  while (i < n) {
    if (AtBoundary(e)) {
      out[i] = Encode(in.address(i), in.sel_at(i));
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
    for (std::size_t k = 0; k < run; ++k) {
      Buffer(e, Mask(sub_in.address(k)), sub_in.sel_at(k));
    }
    i += run;
  }
}

void AdaptiveCodec::ResetEnd(End& e) {
  for (const CodecPtr& member : e.members) member->Reset();
  for (Shadow& shadow : e.shadows) {
    shadow.codec->Reset();
    shadow.last = BusState{};
    shadow.total = 0;
  }
  e.window_base.assign(palette_.size(), 0);
  e.last_costs.clear();
  e.active = 0;
  e.accesses = 0;
  e.pending_esc = false;
  e.buffered = 0;
  e.decisions.clear();
}

void AdaptiveCodec::Reset() {
  ResetEnd(enc_);
  ResetEnd(dec_);
}

}  // namespace abenc
