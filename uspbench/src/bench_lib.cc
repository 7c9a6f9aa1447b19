#include "bench_lib.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace uspbench {

namespace {

// ceil(p / 100 * n), immune to p / 100 not being exact in binary (99.9% of
// 10000 must be rank 9990, not 9991).
size_t Rank(size_t n, double p) {
  return static_cast<size_t>(
      std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9));
}

}  // namespace

size_t SamplesBeyond(size_t n, double p) {
  const size_t rank = Rank(n, p);
  return rank >= n ? 0 : n - rank;
}

double NearestRank(const std::vector<double>& sorted, double p) {
  const size_t rank = std::clamp<size_t>(Rank(sorted.size(), p), 1, sorted.size());
  return sorted[rank - 1];
}

Tail HighestSupported(std::vector<double> values) {
  Tail tail;
  tail.count = values.size();
  std::sort(values.begin(), values.end());
  for (double p : {99.9, 99.0, 95.0, 90.0, 50.0}) {
    if (!values.empty() && SamplesBeyond(values.size(), p) >= kMinTailSamples) {
      tail.percentile = p;
      tail.value = NearestRank(values, p);
      return tail;
    }
  }
  return tail;
}

double WindowMedian(const std::vector<double>& in_time_order, double p,
                    size_t max_windows, size_t* windows) {
  const size_t n = in_time_order.size();
  *windows = std::min(max_windows, n / kMinWindow);
  if (*windows == 0) return 0.0;
  std::vector<double> per_window;
  for (size_t w = 0; w < *windows; ++w) {
    std::vector<double> window(in_time_order.begin() + w * n / *windows,
                               in_time_order.begin() + (w + 1) * n / *windows);
    std::sort(window.begin(), window.end());
    per_window.push_back(NearestRank(window, p));
  }
  return Median(per_window);
}

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return NearestRank(values, 50.0);
}

int64_t SelfTimeNs(const Span& parent, const std::vector<Span>& children) {
  std::vector<std::pair<int64_t, int64_t>> clipped;
  for (const Span& c : children) {
    const int64_t s = std::max(c.start_ns, parent.start_ns);
    const int64_t e = std::min(c.end_ns, parent.end_ns);
    if (e > s) clipped.emplace_back(s, e);
  }
  std::sort(clipped.begin(), clipped.end());
  int64_t covered = 0;
  int64_t run_start = 0;
  int64_t run_end = 0;
  bool open = false;
  for (const auto& [s, e] : clipped) {
    if (open && s <= run_end) {
      run_end = std::max(run_end, e);
      continue;
    }
    if (open) covered += run_end - run_start;
    run_start = s;
    run_end = e;
    open = true;
  }
  if (open) covered += run_end - run_start;
  return parent.Duration() - covered;
}

void Tracer::Record(Span span) {
  if (!enabled_) return;
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(std::move(span));
}

std::vector<Span> Tracer::Spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

std::vector<Span> Tracer::Named(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<Span> out;
  for (const Span& s : spans_) {
    if (s.name == name) out.push_back(s);
  }
  return out;
}

double Tracer::TotalSeconds(const std::string& name) const {
  double total = 0.0;
  for (const Span& s : Named(name)) total += static_cast<double>(s.Duration());
  return total * 1e-9;
}

bool Tracer::WriteJsonLines(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const Span& s : Spans()) {
    std::fprintf(f,
                 "{\"name\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld,"
                 "\"id\":%llu,\"parent\":%llu,\"request\":%llu}\n",
                 s.name.c_str(), static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.request));
  }
  return std::fclose(f) == 0;
}

ScopedSpan::ScopedSpan(Tracer* tracer, const char* name, uint64_t parent,
                       uint64_t request)
    : tracer_(tracer != nullptr && tracer->enabled() ? tracer : nullptr) {
  if (tracer_ == nullptr) return;
  span_.name = name;
  span_.id = tracer_->NewId();
  span_.parent = parent;
  span_.request = request;
  span_.start_ns = NowNs();
}

ScopedSpan::~ScopedSpan() {
  if (tracer_ == nullptr) return;
  span_.end_ns = NowNs();
  tracer_->Record(std::move(span_));
}

long AttributeToBatch(const std::vector<Span>& batches_by_end,
                      int64_t submit_ns, int64_t ready_ns) {
  // First span ending after ready_ns; candidates lie before it.
  auto it = std::upper_bound(
      batches_by_end.begin(), batches_by_end.end(), ready_ns,
      [](int64_t t, const Span& s) { return t < s.end_ns; });
  if (it == batches_by_end.begin()) return -1;
  --it;
  // One batcher thread runs the spans back to back, so an earlier-ending span
  // also started earlier: if the last one began before the request was
  // submitted, none can hold it.
  return it->start_ns >= submit_ns ? it - batches_by_end.begin() : -1;
}

OpenLoopSchedule::OpenLoopSchedule(int64_t start_ns, double rate_per_s)
    : start_ns_(start_ns), interval_ns_(1e9 / rate_per_s) {}

int64_t OpenLoopSchedule::Due(size_t i) const {
  return start_ns_ +
         static_cast<int64_t>(std::llround(interval_ns_ * static_cast<double>(i)));
}

int64_t OpenLoopSchedule::Lateness(size_t i, int64_t sent_ns) const {
  return std::max<int64_t>(0, sent_ns - Due(i));
}

}  // namespace uspbench
