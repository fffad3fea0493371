// Wall-clock timing used by the benchmark harness (Figures 9-13).

#ifndef RETRUST_UTIL_TIMER_H_
#define RETRUST_UTIL_TIMER_H_

#include <chrono>

namespace retrust {

/// Monotonic wall-clock stopwatch.
class Timer {
 public:
  Timer() { Restart(); }

  /// Resets the start point to now.
  void Restart() { start_ = Clock::now(); }

  /// Seconds elapsed since construction / last Restart().
  double ElapsedSeconds() const;

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace retrust

#endif  // RETRUST_UTIL_TIMER_H_
