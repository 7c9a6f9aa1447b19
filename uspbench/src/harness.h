// Shared machinery of the three workloads: the metric report, correctness
// checks, input generation, the closed-loop and open-loop load generators,
// and the traced replay of a partition index's query stages.
#ifndef USPBENCH_HARNESS_H_
#define USPBENCH_HARNESS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "bench_lib.h"
#include "usp.h"

namespace uspbench {

inline constexpr size_t kK = 10;   ///< neighbours per query everywhere
inline constexpr size_t kDim = 128;

struct RunArgs {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_dir;  ///< where the traced run writes its spans
};

/// Every metric, count and provenance field one run produces.
class Report {
 public:
  void Metric(const std::string& name, double value, const std::string& unit);
  /// Percentile and sample count printed next to a metric taken from a
  /// sample.
  void Percentile(const std::string& name, double percentile, size_t count);
  void Info(const std::string& key, const std::string& value);
  void Info(const std::string& key, double value);

  bool Has(const std::string& name) const { return metrics_.count(name) > 0; }

  /// One line: provenance and every metric with its unit and sample count.
  std::string SummaryJson() const;
  /// The contract line: correct/attempted/failed and `names` only.
  std::string ResultJson(const std::vector<std::string>& names, bool correct,
                         uint64_t attempted, uint64_t failed) const;

 private:
  struct Entry {
    double value;
    std::string unit;
  };
  struct Stat {
    double percentile;
    size_t count;
  };
  std::map<std::string, Entry> metrics_;
  std::map<std::string, Stat> stats_;
  std::map<std::string, std::string> info_;
};

/// Counts operations and failed correctness checks across threads; the
/// first few failures are described on stderr.
class Checker {
 public:
  void Attempt(uint64_t n = 1) { attempted_.fetch_add(n); }
  void Fail(const std::string& what);
  /// Attempt() plus Fail(what) when !ok.
  void Expect(bool ok, const std::string& what);
  uint64_t attempted() const { return attempted_.load(); }
  uint64_t failed() const { return failed_.load(); }

 private:
  std::atomic<uint64_t> attempted_{0};
  std::atomic<uint64_t> failed_{0};
  std::mutex log_mutex_;
};

/// True when a result row is exactly k real neighbours: unique ids below
/// `id_limit` (never kInvalidId), ascending distances, and every id admitted
/// by `filter` when one is given.
bool RowValid(const uint32_t* ids, const float* distances, size_t k,
              uint32_t id_limit, const usp::IdSelector* filter);

/// |row ∩ truth_row[0..k)| / k.
double RowRecall(const uint32_t* ids, const uint32_t* truth, size_t k);

/// Mean recall of a batch against an exact KnnResult (same query order).
double BatchRecall(const usp::BatchSearchResult& result,
                   const usp::KnnResult& truth);

/// Peak resident set of this process, MiB. MakeInputs keeps the input phase
/// below the program's own peak, so this is the program's data plus the
/// inputs it is handed.
double PeakRssMib();

/// A predicate over ids admitting about one id in ten, by a seeded hash. Its
/// count is unknown to the planner, as for any application predicate.
class HashSelector final : public usp::IdSelector {
 public:
  explicit HashSelector(uint64_t salt) : salt_(salt) {}
  bool is_member(uint32_t id) const override;

 private:
  uint64_t salt_;
};

/// The data every run indexes is fixed, like a benchmark dataset file: the
/// run's seed draws the queries, predicates and deletes, not the base.
inline constexpr uint64_t kDataSeed = 20230328;
/// Held-out rows the queries are drawn from.
inline constexpr size_t kQueryPool = 10000;
/// Most windows a reported latency percentile is split into (WindowMedian).
inline constexpr size_t kLatencyWindows = 8;

/// SIFT-like rows from the fixed generator, split into consecutive blocks of
/// `rows`, followed by `num_queries` queries drawn by `seed` from the
/// held-out pool. Each page of the generated rows is returned to the system
/// once copied into its block, so the generator's output and the blocks are
/// never both resident and the input phase cannot set the peak RSS.
std::vector<usp::Matrix> MakeInputs(const std::vector<size_t>& rows,
                                    size_t num_queries, uint64_t seed);

/// Forwards to an index and records one span named `span_name` per
/// SearchBatch call (e.g. the batches a BatchingExecutor sends).
class SpanIndex final : public usp::Index {
 public:
  SpanIndex(const usp::Index* inner, Tracer* tracer, const char* span_name)
      : inner_(inner), tracer_(tracer), span_name_(span_name) {}
  using usp::Index::SearchBatch;
  usp::BatchSearchResult SearchBatch(
      const usp::SearchRequest& request) const override;
  size_t dim() const override { return inner_->dim(); }
  size_t size() const override { return inner_->size(); }
  usp::Metric metric() const override { return inner_->metric(); }
  usp::IndexType type() const override { return inner_->type(); }
  usp::MatrixView base_view() const override { return inner_->base_view(); }
  size_t EstimateCandidates(size_t budget) const override {
    return inner_->EstimateCandidates(budget);
  }

 private:
  const usp::Index* inner_;
  Tracer* tracer_;
  const char* span_name_;
};

/// Median of `reps` timed runs of `fn`, in seconds; fn(i) builds rep i.
template <typename Fn>
double MedianSeconds(size_t reps, Fn&& fn) {
  std::vector<double> times;
  for (size_t i = 0; i < reps; ++i) {
    const int64_t t0 = NowNs();
    fn(i);
    times.push_back(static_cast<double>(NowNs() - t0) * 1e-9);
  }
  return Median(times);
}

/// Closed-loop batch phase: SearchBatch over all queries, repeated until
/// `seconds` pass (at least three times). Every row is checked; recall is
/// taken on the first repetition. Reports batch_qps (median over
/// repetitions) and recall_at_10.
void BatchPhase(const usp::Index& index, const usp::Matrix& queries,
                const usp::KnnResult& truth, size_t budget, double seconds,
                double recall_floor, Checker* checker, Report* report);

/// Closed loop, one client, through a BatchingExecutor: submit one query,
/// wait for its future, repeat, so every batch is one wide. The executor
/// flushes at once (max_delay_us = 0): with one client no second request can
/// arrive, so a coalescing deadline would only add a fixed sleep to every
/// request. Runs until `seconds` pass and `min_samples` were sent; each row
/// is checked (including options.filter membership). Returns the latencies
/// (us) in time order.
std::vector<double> ClosedLoopViaExecutor(const usp::Index& index,
                                          const usp::Matrix& queries,
                                          const usp::SearchOptions& options,
                                          double seconds, size_t min_samples,
                                          uint32_t id_limit, Checker* checker);

/// One open-loop request as the client saw it.
struct OpenLoopRecord {
  int64_t due_ns = 0;
  int64_t submit_ns = 0;  ///< when Submit was called
  int64_t ready_ns = 0;   ///< when the collector observed the future ready
};

/// Open-loop traffic into a BatchingExecutor: one generator thread sends
/// query i at schedule.Due(i) until `seconds` pass and at least
/// `min_requests` were sent; one collector thread waits on the futures in
/// order and checks each row.
std::vector<OpenLoopRecord> RunOpenLoop(usp::BatchingExecutor* executor,
                                        const usp::Matrix& queries,
                                        double rate_per_s, double seconds,
                                        size_t min_requests, size_t budget,
                                        uint32_t id_limit, Checker* checker);

/// The one rule behind every metric named *_p99_*: the WindowMedian of the
/// 99th percentile of `in_time_order` (us), so each window has at least
/// kMinTailSamples samples beyond its p99. Fewer than kMinWindow samples
/// fail a check and report 0.
void ReportP99(const std::string& name, const std::vector<double>& in_time_order,
               Checker* checker, Report* report);

/// Reports <prefix>_p50_us (WindowMedian) and <prefix>_p99_us (ReportP99)
/// of `latencies_us`, kept in time order, and, in the summary only,
/// <prefix>_tail_us: the highest percentile the whole sample supports
/// (HighestSupported).
void ReportLatency(const std::string& prefix,
                   const std::vector<double>& latencies_us, Checker* checker,
                   Report* report);

/// Open-loop latencies from due time to ready, us.
std::vector<double> LatenciesUs(const std::vector<OpenLoopRecord>& records);

/// serve.* metrics of a traced open-loop phase: attributes each request to
/// its batch span and reports batch width, queue wait, batch execution time
/// and busy share; also client.late_p99_us (submit time minus due time).
void ReportExecutorLayer(const std::vector<OpenLoopRecord>& records,
                         const std::vector<Span>& batch_spans,
                         const usp::BatchingExecutor& executor,
                         Checker* checker, Report* report);

/// trace.overhead_share: `replay(tracer)` timed in `pairs` pairs, once with
/// a recording tracer and once with a disabled one, the order alternating
/// from pair to pair; the median over pairs of the time ratio, minus one.
/// Both runs execute the same instrumented code, so the difference is what
/// recording the spans costs. Pairing cancels the host's slow drift.
template <typename Fn>
void ReportTraceOverhead(size_t pairs, Fn&& replay, Report* report) {
  std::vector<double> ratios;
  for (size_t i = 0; i < pairs; ++i) {
    double seconds[2] = {0.0, 0.0};  // [disabled, recording]
    for (size_t j = 0; j < 2; ++j) {
      const bool record = (i + j) % 2 == 0;
      Tracer tracer(record);
      seconds[record] = MedianSeconds(1, [&](size_t) { replay(&tracer); });
    }
    ratios.push_back(seconds[1] / seconds[0]);
  }
  report->Metric("trace.overhead_share", Median(ratios) - 1.0, "share");
}

/// Traced replay of a PartitionIndex query batch, stage by stage:
/// core.score (ScoreQueries) -> core.gather (CollectCandidates) ->
/// knn.rerank (RerankCandidatesScored), plus dist.score (ScoreIds over each
/// deduplicated candidate list) as a separate call. The replayed ids must
/// equal SearchBatch's. Reports core.*, knn.*, dist.*,
/// trace.stage_sum_share, and trace.overhead_share of the replay itself.
void ReplayPartitionStages(const usp::PartitionIndex& index,
                           const usp::Matrix& queries,
                           const usp::KnnResult& truth, size_t budget,
                           Tracer* tracer, Checker* checker, Report* report);

}  // namespace uspbench

#endif  // USPBENCH_HARNESS_H_
