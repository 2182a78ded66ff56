// In-memory span recorder for the traced run. Spans are recorded by the
// benchmark around its calls into the program's public functions (nothing
// inside the program is instrumented), kept in memory, and written once as
// a Chrome trace-event file at the end of the run.
#pragma once

#include <chrono>
#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

class SpanRecorder {
 public:
  struct Span {
    const char* name = "";
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    int parent = -1;        // index of the enclosing span, -1 for a root
    std::int64_t job = -1;  // job the span belongs to, -1 for none
  };

  /// Opens a span and returns its index (spans close in LIFO order).
  int begin(const char* name, int parent, std::int64_t job) {
    spans_.push_back({name, now_ns(), 0, parent, job});
    return static_cast<int>(spans_.size()) - 1;
  }
  /// Closes span `index` and returns its duration in nanoseconds.
  std::int64_t end(int index) {
    Span& s = spans_[static_cast<std::size_t>(index)];
    s.end_ns = now_ns();
    return s.end_ns - s.start_ns;
  }
  /// Records a span whose end points were taken elsewhere.
  void add(const char* name, Clock::time_point start, Clock::time_point end, int parent,
           std::int64_t job) {
    spans_.push_back({name, since_epoch(start), since_epoch(end), parent, job});
  }

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Chrome trace-event JSON ("X" complete events, microsecond times).
  bool write_chrome(const std::string& path) const {
    std::ofstream out(path);
    out << "{\"traceEvents\":[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << (i ? ",\n" : "\n") << "{\"name\":\"" << s.name << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1"
          << ",\"ts\":" << static_cast<double>(s.start_ns) / 1000.0
          << ",\"dur\":" << static_cast<double>(s.end_ns - s.start_ns) / 1000.0
          << ",\"args\":{\"span\":" << i << ",\"parent\":" << s.parent << ",\"job\":" << s.job
          << "}}";
    }
    out << "\n]}\n";
    return static_cast<bool>(out);
  }

 private:
  [[nodiscard]] std::int64_t since_epoch(Clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch_).count();
  }
  [[nodiscard]] std::int64_t now_ns() const { return since_epoch(Clock::now()); }

  Clock::time_point epoch_ = Clock::now();
  std::vector<Span> spans_;
};

}  // namespace perfbench
