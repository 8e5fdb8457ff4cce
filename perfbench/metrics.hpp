// Measurement helpers of the request-path benchmark: an honest nearest-rank
// percentile, an in-memory span recorder for the traced run, and the
// process's peak resident set.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

/// 1-based nearest rank of percentile p in (0, 100] among n > 0 samples:
/// ceil(p / 100 * n). p * n is exact for the integral p this benchmark
/// uses, so the ceiling never rounds a whole rank up by floating-point noise.
[[nodiscard]] inline std::size_t nearest_rank(double p, std::size_t n) {
  return std::clamp<std::size_t>(static_cast<std::size_t>(std::ceil(p * static_cast<double>(n) / 100.0)), 1, n);
}

/// Nearest-rank percentile, p in (0, 100]: the value at 1-based rank
/// ceil(p / 100 * N) of the sorted samples. Refuses (nullopt) when fewer
/// than `min_beyond` samples lie beyond that rank, so a reported p90 always
/// has at least ten slower samples behind it and a p99 needs N >= 1000.
[[nodiscard]] inline std::optional<double> percentile(std::vector<double> values, double p,
                                                      std::size_t min_beyond = 10) {
  if (values.empty() || !(p > 0.0) || p > 100.0) return std::nullopt;
  const std::size_t n = values.size();
  const std::size_t rank = nearest_rank(p, n);
  if (n - rank < min_beyond) return std::nullopt;
  std::nth_element(values.begin(), values.begin() + static_cast<std::ptrdiff_t>(rank - 1),
                   values.end());
  return values[rank - 1];
}

/// Known-vector checks of percentile(); prints each failure to stderr and
/// returns whether all passed.
[[nodiscard]] inline bool percentile_self_test() {
  const auto iota = [](std::size_t n) {
    std::vector<double> v(n);
    for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<double>(n - i);  // descending
    return v;
  };
  struct Case {
    std::vector<double> values;
    double p;
    std::optional<double> want;
  };
  const std::vector<Case> cases = {
      {iota(20), 50, 10.0},           // rank 10, ten samples beyond
      {iota(19), 50, std::nullopt},   // rank 10 of 19: only nine beyond
      {iota(21), 50, 11.0},           // rank ceil(10.5) = 11
      {iota(100), 90, 90.0},          // rank 90, ten beyond
      {iota(99), 90, std::nullopt},   // rank 90 of 99: nine beyond
      {iota(200), 90, 180.0},
      {iota(1000), 99, 990.0},        // the smallest sample that supports a p99
      {iota(999), 99, std::nullopt},
      {iota(11), 1, 1.0},             // rank 1, ten beyond
      {iota(10), 100, std::nullopt},  // the maximum never has a tail
      {{}, 50, std::nullopt},
      {{5, 1, 4, 2, 3, 9, 8, 7, 6, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20}, 50, 10.0},
      {{7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7}, 50, 7.0},
  };
  bool ok = true;
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const std::optional<double> got = percentile(cases[i].values, cases[i].p);
    if (got != cases[i].want) {
      std::fprintf(stderr, "percentile case %zu (N=%zu, p%g): got %s, want %s\n", i,
                   cases[i].values.size(), cases[i].p,
                   got ? std::to_string(*got).c_str() : "refused",
                   cases[i].want ? std::to_string(*cases[i].want).c_str() : "refused");
      ok = false;
    }
  }
  return ok;
}

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// One traced interval. `parent` indexes the enclosing span (-1 at a
/// request's root); spans of one request share `request`.
struct Span {
  const char* name = "";  ///< string literal: a layer name such as "core.fif"
  Clock::time_point start;
  Clock::time_point end;
  int parent = -1;
  std::int64_t request = 0;
};

/// Spans held in memory for the whole traced run and written out once at
/// exit, so recording costs two clock reads and a vector append.
class Tracer {
 public:
  [[nodiscard]] int open(const char* name, int parent, std::int64_t request) {
    spans_.push_back(Span{name, Clock::now(), {}, parent, request});
    return static_cast<int>(spans_.size()) - 1;
  }
  /// Ends span `id` and returns its duration in ms.
  double close(int id) {
    Span& s = spans_[static_cast<std::size_t>(id)];
    s.end = Clock::now();
    return ms_between(s.start, s.end);
  }

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Self time per span name, in ms: each span's duration minus the time
  /// its direct children cover.
  [[nodiscard]] std::map<std::string, double> self_ms() const {
    std::vector<double> child(spans_.size(), 0.0);
    for (const Span& s : spans_)
      if (s.parent >= 0) child[static_cast<std::size_t>(s.parent)] += ms_between(s.start, s.end);
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < spans_.size(); ++i)
      out[spans_[i].name] += ms_between(spans_[i].start, spans_[i].end) - child[i];
    return out;
  }

  /// Chrome Trace Event JSON (loads in chrome://tracing and Perfetto).
  void write_chrome_json(const std::string& path) const {
    std::ofstream out(path);
    out << "{\"traceEvents\":[\n";
    const Clock::time_point origin = spans_.empty() ? Clock::now() : spans_.front().start;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      char line[256];
      std::snprintf(line, sizeof line,
                    "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,"
                    "\"args\":{\"request\":%lld,\"parent\":%d}}%s\n",
                    s.name, ms_between(origin, s.start) * 1e3, ms_between(s.start, s.end) * 1e3,
                    static_cast<long long>(s.request), s.parent,
                    i + 1 < spans_.size() ? "," : "");
      out << line;
    }
    out << "]}\n";
  }

 private:
  std::vector<Span> spans_;
};

/// RAII span; a null tracer records nothing (the untraced path).
class Scope {
 public:
  Scope(Tracer* tracer, const char* name, int parent, std::int64_t request)
      : tracer_(tracer), id_(tracer ? tracer->open(name, parent, request) : -1) {}
  ~Scope() {
    if (tracer_) tracer_->close(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* tracer_;
  int id_;
};

/// Peak resident set of this process in MiB (VmHWM), 0 when unreadable.
[[nodiscard]] inline double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  return 0.0;
}

}  // namespace perfbench
