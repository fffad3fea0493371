// Shared pieces of the perfbench binary: clocks, order statistics, the
// benchmark's own span recorder, and the metric sheet it prints.
//
// Spans here are recorded by the benchmark around calls into the library's
// public functions (and around each wire request), never inside src/. They
// are kept in memory and written out once, when the run ends.

#ifndef PERFBENCH_SRC_BENCH_H_
#define PERFBENCH_SRC_BENCH_H_

#include <time.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// Seconds on the monotonic clock since the first call in this process.
inline double Now() {
  static const auto origin = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       origin)
      .count();
}

/// CPU seconds this process has used, all threads summed
/// (CLOCK_PROCESS_CPUTIME_ID). The guest kernel does not charge the time a
/// virtual CPU is stolen by the hypervisor, so on a shared host this clock
/// moves with the work done, not with the neighbours' load.
inline double CpuSeconds(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}
inline double CpuNow() { return CpuSeconds(CLOCK_PROCESS_CPUTIME_ID); }

/// CPU seconds the calling thread has used.
inline double ThreadCpuNow() { return CpuSeconds(CLOCK_THREAD_CPUTIME_ID); }

/// Quantile by linear interpolation between closest ranks (the same rule
/// as numpy's default); 0 for an empty sample.
inline double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

inline double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

inline double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double sum = 0.0;
  for (double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

/// 64-bit FNV-1a, used to prove a seed reproduces its inputs byte for byte.
inline uint64_t Fnv1a(const std::string& bytes, uint64_t h = 1469598103934665603ull) {
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

/// One span: a named interval with its parent (-1 = top level) and the
/// request it belongs to (0 = none).
struct Span {
  std::string name;
  double start = 0.0;
  double end = 0.0;
  int parent = -1;
  uint64_t request = 0;
};

/// Thread-safe in-memory span store. A null SpanLog* disables recording:
/// every ScopedSpan then does nothing, which is how the untraced run stays
/// free of the benchmark's own instrumentation.
class SpanLog {
 public:
  int Open(std::string name, int parent, uint64_t request) {
    const double t = Now();
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back({std::move(name), t, t, parent, request});
    return static_cast<int>(spans_.size()) - 1;
  }
  void Close(int id) {
    const double t = Now();
    std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<size_t>(id)].end = t;
  }
  /// Records an interval measured elsewhere (e.g. a reply's server spans).
  int Add(std::string name, double start, double end, int parent,
          uint64_t request) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back({std::move(name), start, end, parent, request});
    return static_cast<int>(spans_.size()) - 1;
  }

  std::vector<Span> Snapshot() const {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_;
  }

  /// Self time of every span: its duration minus the union of its
  /// children's intervals (clipped to the span).
  std::vector<double> SelfTimes() const;

  /// Mean self time of the spans called `name`, and how many there were.
  double MeanSelf(const std::string& name, size_t* count = nullptr) const;

  /// Writes every span as one JSON array (name, start, end, parent,
  /// request, self) to `path`. Returns false when the file cannot be written.
  bool WriteJson(const std::string& path) const;

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, int parent = -1,
             uint64_t request = 0)
      : log_(log), id_(log != nullptr ? log->Open(name, parent, request) : -1) {}
  ~ScopedSpan() {
    if (log_ != nullptr) log_->Close(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  int id_;
};

/// Fraction of [begin, end] covered by at least one of `intervals`.
double Coverage(std::vector<std::pair<double, double>> intervals, double begin,
                double end);

/// The metric sheet: name -> (value, unit, sample count), printed as a
/// table and then as the final JSON line.
struct Metric {
  double value = 0.0;
  std::string unit;
  size_t samples = 0;
};

class Sheet {
 public:
  void Set(const std::string& name, double value, const std::string& unit,
           size_t samples) {
    metrics_[name] = {value, unit, samples};
  }
  const std::map<std::string, Metric>& metrics() const { return metrics_; }

 private:
  std::map<std::string, Metric> metrics_;
};

/// Peak resident set size of this process (VmHWM) in MiB.
double PeakRssMib();

/// Hands freed heap back to the kernel and restarts the VmHWM peak at the
/// current resident set size. False when the kernel refuses the reset.
bool ResetPeakRss();

}  // namespace perfbench

#endif  // PERFBENCH_SRC_BENCH_H_
