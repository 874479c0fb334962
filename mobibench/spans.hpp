// In-memory span log for the benchmark's traced runs.
//
// A span is (name, start, end, parent): the benchmark opens one around
// each public call it makes into the library, so a span's self time is
// the call's own cost and its children show where the rest went. Spans
// stay in memory and are written out with the run's record at the end.
// A log constructed disabled never reads the clock, so untraced runs pay
// nothing for the scopes left in the workload code.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace mobibench {

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now().time_since_epoch())
                                        .count());
}

struct Span {
  std::string name;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  int parent = -1;  ///< Index of the enclosing span, -1 at top level.
};

class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}

  /// RAII span: opened on construction under the innermost open span,
  /// closed on destruction.
  class Scope {
   public:
    Scope(SpanLog& log, const char* name) : log_(log) {
      if (!log_.enabled_) return;
      index_ = static_cast<int>(log_.spans_.size());
      log_.spans_.push_back(Span{name, now_ns(), 0, log_.open_});
      log_.open_ = index_;
    }
    ~Scope() {
      if (index_ < 0) return;
      Span& s = log_.spans_[static_cast<std::size_t>(index_)];
      s.end_ns = now_ns();
      log_.open_ = s.parent;
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanLog& log_;
    int index_ = -1;
  };

  const std::vector<Span>& spans() const noexcept { return spans_; }

  /// Summed duration in seconds of every span called `name`.
  double seconds(const std::string& name) const {
    std::uint64_t ns = 0;
    for (const Span& s : spans_) {
      if (s.name == name) ns += s.end_ns - s.start_ns;
    }
    return static_cast<double>(ns) * 1e-9;
  }

 private:
  bool enabled_;
  std::vector<Span> spans_;
  int open_ = -1;
};

}  // namespace mobibench
