// In-memory span recorder for the traced benchmark run. Spans are recorded
// from the benchmark's own files around the public calls into each layer;
// each holds its name, layer, start, end, parent and op id. One Tracer per
// thread; a disabled Tracer records nothing.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <ostream>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

// The repository's modules, as the benchmark names its layers.
enum class Layer : std::uint8_t { kBench, kEngine, kService, kQuery, kDurable };
inline constexpr int kLayerCount = 5;

inline const char* to_string(Layer l) {
  switch (l) {
    case Layer::kBench: return "bench";
    case Layer::kEngine: return "engine";
    case Layer::kService: return "service";
    case Layer::kQuery: return "query";
    case Layer::kDurable: return "durable";
  }
  return "?";
}

struct Span {
  const char* name = "";
  Layer layer = Layer::kBench;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;  // index into the same Tracer, -1 for a root
  std::uint64_t op = 0;

  std::int64_t duration() const { return end_ns - start_ns; }
};

class Tracer {
 public:
  explicit Tracer(bool enabled = false) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  const std::vector<Span>& spans() const { return spans_; }

  // Opens a span under the innermost open one; returns its index (-1 when
  // disabled). Close with end() in LIFO order.
  std::int32_t begin(const char* name, Layer layer, std::uint64_t op) {
    return begin_at(name, layer, op, now_ns());
  }
  std::int32_t begin_at(const char* name, Layer layer, std::uint64_t op,
                        std::int64_t start_ns) {
    if (!enabled_) return -1;
    const std::int32_t parent = open_.empty() ? -1 : open_.back();
    spans_.push_back(Span{name, layer, start_ns, start_ns, parent, op});
    const auto idx = static_cast<std::int32_t>(spans_.size() - 1);
    open_.push_back(idx);
    return idx;
  }
  void end(std::int32_t idx) { end_at(idx, now_ns()); }
  void end_at(std::int32_t idx, std::int64_t end_ns) {
    if (idx < 0) return;
    spans_[static_cast<std::size_t>(idx)].end_ns = end_ns;
    if (!open_.empty() && open_.back() == idx) open_.pop_back();
  }
  // A closed span under the innermost open one, from known endpoints.
  void record(const char* name, Layer layer, std::uint64_t op,
              std::int64_t start_ns, std::int64_t end_ns) {
    end_at(begin_at(name, layer, op, start_ns), end_ns);
  }

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<std::int32_t> open_;
};

// Self time of every span: its duration minus the part of its interval
// that the union of its children covers.
inline std::vector<std::int64_t> self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::int32_t>> children(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent >= 0) {
      children[static_cast<std::size_t>(spans[i].parent)].push_back(
          static_cast<std::int32_t>(i));
    }
  }
  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    std::vector<std::pair<std::int64_t, std::int64_t>> iv;
    for (const std::int32_t c : children[i]) {
      const Span& s = spans[static_cast<std::size_t>(c)];
      iv.emplace_back(std::max(s.start_ns, spans[i].start_ns),
                      std::min(s.end_ns, spans[i].end_ns));
    }
    std::sort(iv.begin(), iv.end());
    std::int64_t covered = 0;
    std::int64_t reach = spans[i].start_ns;
    for (const auto& [a, b] : iv) {
      const std::int64_t lo = std::max(a, reach);
      if (b > lo) {
        covered += b - lo;
        reach = b;
      }
    }
    self[i] = spans[i].duration() - covered;
  }
  return self;
}

// Spans whose children's durations add up to more than their own duration
// (a recording error); the traced run fails when any exist.
inline std::size_t overfull_parents(const std::vector<Span>& spans) {
  std::vector<std::int64_t> child_sum(spans.size(), 0);
  for (const Span& s : spans) {
    if (s.parent >= 0) child_sum[static_cast<std::size_t>(s.parent)] += s.duration();
  }
  std::size_t bad = 0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (child_sum[i] > spans[i].duration()) ++bad;
  }
  return bad;
}

// One JSON object per line: {"thread", "id", "parent", "op", "layer",
// "name", "start_ns", "end_ns"}.
inline void write_jsonl(std::ostream& out, const Tracer& t, int thread) {
  const std::vector<Span>& spans = t.spans();
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    out << "{\"thread\":" << thread << ",\"id\":" << i
        << ",\"parent\":" << s.parent << ",\"op\":" << s.op << ",\"layer\":\""
        << to_string(s.layer) << "\",\"name\":\"" << s.name
        << "\",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
        << "}\n";
  }
}

}  // namespace perfbench
