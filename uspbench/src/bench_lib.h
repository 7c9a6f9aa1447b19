// Measurement primitives of the repo benchmark, kept free of index code so
// the unit tests in uspbench/tests/ can pin them: tail percentiles that refuse
// to report a tail the sample cannot support, in-memory spans with self-time
// arithmetic, the rule that attributes an executor request to the batch it
// ran in, and the open-loop arrival schedule.
#ifndef USPBENCH_BENCH_LIB_H_
#define USPBENCH_BENCH_LIB_H_

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace uspbench {

/// Monotonic nanoseconds (steady_clock); every span and latency uses it.
inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ---------------------------------------------------------------------------
// Percentiles.
// ---------------------------------------------------------------------------

/// Minimum number of samples that must lie beyond a reported percentile.
inline constexpr size_t kMinTailSamples = 10;

/// Samples strictly beyond the nearest-rank p-th percentile of n samples:
/// n - ceil(p / 100 * n).
size_t SamplesBeyond(size_t n, double p);

/// Nearest-rank p-th percentile (p in (0, 100]) of an ascending sample.
/// Requires a non-empty sample.
double NearestRank(const std::vector<double>& sorted, double p);

/// A percentile together with the sample it was taken from.
struct Tail {
  double percentile = 0.0;  ///< 0 when no candidate percentile is supported
  double value = 0.0;
  size_t count = 0;  ///< sample size
};

/// The highest of {99.9, 99, 95, 90, 50} that has at least kMinTailSamples
/// samples beyond it, with its value and the sample size. percentile == 0
/// when the sample is too small for even the median.
Tail HighestSupported(std::vector<double> values);

/// Samples per window of WindowMedian: enough for kMinTailSamples beyond a
/// p99.
inline constexpr size_t kMinWindow = 100 * kMinTailSamples;

/// A percentile that one stall cannot set: splits a sample kept in time
/// order into min(max_windows, n / kMinWindow) consecutive windows, takes
/// the p-th percentile of each, and returns the median of those values.
/// *windows receives the count; 0 (and a return of 0) when n < kMinWindow.
double WindowMedian(const std::vector<double>& in_time_order, double p,
                    size_t max_windows, size_t* windows);

/// Median (nearest rank) of a non-empty sample.
double Median(std::vector<double> values);

// ---------------------------------------------------------------------------
// Spans.
// ---------------------------------------------------------------------------

/// One timed interval around a call into a layer.
struct Span {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint64_t id = 0;
  uint64_t parent = 0;   ///< 0 = root
  uint64_t request = 0;  ///< spans of one request share it; 0 = none
  int64_t Duration() const { return end_ns - start_ns; }
};

/// Span duration minus the part of [start, end) covered by the union of the
/// children's intervals (each clipped to the parent).
int64_t SelfTimeNs(const Span& parent, const std::vector<Span>& children);

/// Collects spans in memory. A disabled tracer records nothing and a
/// ScopedSpan on it costs one branch, so untraced runs carry no
/// instrumentation. Thread-safe.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// A fresh id for a span or a request.
  uint64_t NewId() { return next_id_.fetch_add(1, std::memory_order_relaxed); }

  /// Stores a finished span (no-op when disabled).
  void Record(Span span);

  /// Copy of every span recorded so far.
  std::vector<Span> Spans() const;

  /// Spans with this name, in recording order.
  std::vector<Span> Named(const std::string& name) const;

  /// Sum of durations of spans with this name, in seconds.
  double TotalSeconds(const std::string& name) const;

  /// Writes one JSON object per line: name, start_ns, end_ns, id, parent,
  /// request. Returns false when the file cannot be written.
  bool WriteJsonLines(const std::string& path) const;

 private:
  const bool enabled_;
  std::atomic<uint64_t> next_id_{1};
  mutable std::mutex mutex_;
  std::vector<Span> spans_;  ///< guarded by mutex_
};

/// Records a span from construction to destruction when the tracer is on.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, uint64_t parent = 0,
             uint64_t request = 0);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  uint64_t id() const { return span_.id; }

 private:
  Tracer* tracer_;
  Span span_;
};

// ---------------------------------------------------------------------------
// Executor attribution.
// ---------------------------------------------------------------------------

/// Index of the batch span a request ran in: the last span (ascending by
/// end) that ends at or before the request's future was ready and started at
/// or after the request was submitted. -1 when no span qualifies.
long AttributeToBatch(const std::vector<Span>& batches_by_end,
                      int64_t submit_ns, int64_t ready_ns);

// ---------------------------------------------------------------------------
// Open-loop schedule.
// ---------------------------------------------------------------------------

/// Evenly spaced arrivals at `rate_per_s` from `start_ns`.
class OpenLoopSchedule {
 public:
  OpenLoopSchedule(int64_t start_ns, double rate_per_s);

  /// When arrival i is due.
  int64_t Due(size_t i) const;

  /// How late arrival i was sent at `sent_ns` (0 when early or on time).
  int64_t Lateness(size_t i, int64_t sent_ns) const;

 private:
  int64_t start_ns_;
  double interval_ns_;
};

}  // namespace uspbench

#endif  // USPBENCH_BENCH_LIB_H_
