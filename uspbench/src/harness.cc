#include "harness.h"

#include <sys/mman.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <future>
#include <sstream>
#include <thread>

namespace uspbench {
namespace {

std::string Number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

void SleepUntilNs(int64_t t) {
  const int64_t now = NowNs();
  if (t > now) std::this_thread::sleep_for(std::chrono::nanoseconds(t - now));
}

}  // namespace

// ---------------------------------------------------------------------------
// Report.
// ---------------------------------------------------------------------------

void Report::Metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_[name] = {value, unit};
}

void Report::Percentile(const std::string& name, double percentile,
                        size_t count) {
  stats_[name] = {percentile, count};
}

void Report::Info(const std::string& key, const std::string& value) {
  info_[key] = Quote(value);
}

void Report::Info(const std::string& key, double value) {
  info_[key] = Number(value);
}

std::string Report::SummaryJson() const {
  std::ostringstream out;
  out << "{\"provenance\": {";
  bool first = true;
  for (const auto& [key, value] : info_) {
    out << (first ? "" : ", ") << Quote(key) << ": " << value;
    first = false;
  }
  out << "}, \"metrics\": {";
  first = true;
  for (const auto& [name, e] : metrics_) {
    out << (first ? "" : ", ") << Quote(name) << ": {\"value\": "
        << Number(e.value) << ", \"unit\": " << Quote(e.unit);
    auto it = stats_.find(name);
    if (it != stats_.end()) {
      out << ", \"percentile\": " << Number(it->second.percentile)
          << ", \"samples\": " << it->second.count;
    }
    out << "}";
    first = false;
  }
  out << "}}";
  return out.str();
}

std::string Report::ResultJson(const std::vector<std::string>& names,
                               bool correct, uint64_t attempted,
                               uint64_t failed) const {
  std::ostringstream out;
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  for (size_t i = 0; i < names.size(); ++i) {
    const Entry& e = metrics_.at(names[i]);
    out << (i ? ", " : "") << Quote(names[i]) << ": {\"value\": "
        << Number(e.value) << ", \"unit\": " << Quote(e.unit) << "}";
  }
  out << "}}";
  return out.str();
}

// ---------------------------------------------------------------------------
// Checks.
// ---------------------------------------------------------------------------

void Checker::Fail(const std::string& what) {
  const uint64_t n = failed_.fetch_add(1);
  if (n < 5) {
    std::lock_guard<std::mutex> lock(log_mutex_);
    std::fprintf(stderr, "uspbench: check failed: %s\n", what.c_str());
  }
}

void Checker::Expect(bool ok, const std::string& what) {
  Attempt();
  if (!ok) Fail(what);
}

bool RowValid(const uint32_t* ids, const float* distances, size_t k,
              uint32_t id_limit, const usp::IdSelector* filter) {
  for (size_t j = 0; j < k; ++j) {
    if (ids[j] == usp::kInvalidId || ids[j] >= id_limit) return false;
    if (!std::isfinite(distances[j])) return false;
    if (j > 0 && distances[j] < distances[j - 1]) return false;
    if (filter != nullptr && !filter->is_member(ids[j])) return false;
    for (size_t i = 0; i < j; ++i) {
      if (ids[i] == ids[j]) return false;
    }
  }
  return true;
}

double RowRecall(const uint32_t* ids, const uint32_t* truth, size_t k) {
  size_t hits = 0;
  for (size_t j = 0; j < k; ++j) {
    if (std::find(truth, truth + k, ids[j]) != truth + k) ++hits;
  }
  return static_cast<double>(hits) / static_cast<double>(k);
}

double BatchRecall(const usp::BatchSearchResult& result,
                   const usp::KnnResult& truth) {
  const size_t nq = result.ids.size() / result.k;
  double sum = 0.0;
  for (size_t q = 0; q < nq; ++q) sum += RowRecall(result.Row(q), truth.Row(q), kK);
  return sum / static_cast<double>(nq);
}

double PeakRssMib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

bool HashSelector::is_member(uint32_t id) const {
  uint64_t x = id ^ salt_;
  x = (x ^ (x >> 33)) * 0xff51afd7ed558ccdULL;
  x = (x ^ (x >> 33)) * 0xc4ceb9fe1a85ec53ULL;
  x ^= x >> 33;
  return x % 10 == 0;
}

std::vector<usp::Matrix> MakeInputs(const std::vector<size_t>& rows,
                                    size_t num_queries, uint64_t seed) {
  size_t total = kQueryPool;
  for (size_t r : rows) total += r;
  usp::Matrix all = usp::MakeSiftLike(total, kDataSeed);
  const size_t pool = total - kQueryPool;
  std::vector<uint32_t> pick(kQueryPool);
  for (uint32_t i = 0; i < kQueryPool; ++i) pick[i] = i;
  usp::Rng rng(seed);
  rng.Shuffle(&pick);
  usp::Matrix queries(num_queries, all.cols());
  for (size_t i = 0; i < num_queries; ++i) {
    std::copy(all.Row(pool + pick[i]), all.Row(pool + pick[i]) + all.cols(),
              queries.Row(i));
  }
  // Copy the blocks front to back, a few MiB at a time, dropping each page of
  // `all` that has been copied out (its contents are not read again).
  const uintptr_t page = static_cast<uintptr_t>(sysconf(_SC_PAGESIZE));
  const uintptr_t first_page =
      (reinterpret_cast<uintptr_t>(all.data()) + page - 1) & ~(page - 1);
  constexpr size_t kChunkRows = 4096;
  std::vector<usp::Matrix> blocks;
  size_t offset = 0;
  for (size_t r : rows) {
    usp::Matrix block(r, all.cols());
    for (size_t done = 0; done < r; done += kChunkRows) {
      const size_t n = std::min(kChunkRows, r - done);
      std::copy(all.Row(offset + done), all.Row(offset + done + n),
                block.Row(done));
      const uintptr_t copied =
          reinterpret_cast<uintptr_t>(all.Row(offset + done + n)) & ~(page - 1);
      if (copied > first_page) {
        madvise(reinterpret_cast<void*>(first_page), copied - first_page,
                MADV_DONTNEED);
      }
    }
    blocks.push_back(std::move(block));
    offset += r;
  }
  blocks.push_back(std::move(queries));
  return blocks;
}

usp::BatchSearchResult SpanIndex::SearchBatch(
    const usp::SearchRequest& request) const {
  ScopedSpan span(tracer_, span_name_);
  return inner_->SearchBatch(request);
}

// ---------------------------------------------------------------------------
// Phases.
// ---------------------------------------------------------------------------

void BatchPhase(const usp::Index& index, const usp::Matrix& queries,
                const usp::KnnResult& truth, size_t budget, double seconds,
                double recall_floor, Checker* checker, Report* report) {
  const uint32_t id_limit = static_cast<uint32_t>(
      index.type() == usp::IndexType::kDynamic
          ? static_cast<const usp::DynamicIndex&>(index).next_global_id()
          : index.size());
  std::vector<double> qps;
  const int64_t end = NowNs() + static_cast<int64_t>(seconds * 1e9);
  for (size_t rep = 0; rep < 3 || NowNs() < end; ++rep) {
    const int64_t t0 = NowNs();
    const usp::BatchSearchResult result = index.SearchBatch(queries, kK, budget);
    const double dt = static_cast<double>(NowNs() - t0) * 1e-9;
    qps.push_back(static_cast<double>(queries.rows()) / dt);
    for (size_t q = 0; q < queries.rows(); ++q) {
      checker->Expect(result.k == kK && RowValid(result.Row(q),
                                                 result.DistanceRow(q), kK,
                                                 id_limit, nullptr),
                      "batch row invalid");
    }
    if (rep == 0) {
      const double recall = BatchRecall(result, truth);
      checker->Expect(recall >= recall_floor,
                      "batch recall " + Number(recall) + " below floor " +
                          Number(recall_floor));
      report->Metric("recall_at_10", recall, "ratio");
    }
  }
  report->Metric("batch_qps", Median(qps), "1/s");
  report->Percentile("batch_qps", 50.0, qps.size());
}

std::vector<double> ClosedLoopViaExecutor(const usp::Index& index,
                                          const usp::Matrix& queries,
                                          const usp::SearchOptions& options,
                                          double seconds, size_t min_samples,
                                          uint32_t id_limit, Checker* checker) {
  usp::BatchingExecutorConfig config;
  config.max_delay_us = 0;
  usp::BatchingExecutor executor(&index, config);
  std::vector<double> latencies_us;
  const int64_t end = NowNs() + static_cast<int64_t>(seconds * 1e9);
  for (size_t i = 0; NowNs() < end || latencies_us.size() < min_samples; ++i) {
    const int64_t t0 = NowNs();
    auto submitted = executor.Submit(queries.Row(i % queries.rows()), options);
    if (!submitted.ok()) {
      checker->Expect(false, "executor refused a request");
      continue;
    }
    const usp::SingleSearchResult result = submitted.value().get();
    latencies_us.push_back(static_cast<double>(NowNs() - t0) * 1e-3);
    checker->Expect(result.k == options.k && result.ids.size() == options.k &&
                        RowValid(result.ids.data(), result.distances.data(),
                                 options.k, id_limit, options.filter),
                    "executor row invalid");
  }
  return latencies_us;
}

std::vector<OpenLoopRecord> RunOpenLoop(usp::BatchingExecutor* executor,
                                        const usp::Matrix& queries,
                                        double rate_per_s, double seconds,
                                        size_t min_requests, size_t budget,
                                        uint32_t id_limit, Checker* checker) {
  struct InFlight {
    OpenLoopRecord record;
    std::future<usp::SingleSearchResult> future;
  };
  std::mutex mutex;
  std::condition_variable cv;
  std::deque<InFlight> in_flight;  // guarded by mutex
  bool sent_all = false;           // guarded by mutex
  std::vector<OpenLoopRecord> records;

  std::thread collector([&] {
    for (;;) {
      InFlight item;
      {
        std::unique_lock<std::mutex> lock(mutex);
        cv.wait(lock, [&] { return !in_flight.empty() || sent_all; });
        if (in_flight.empty()) return;
        item = std::move(in_flight.front());
        in_flight.pop_front();
      }
      const usp::SingleSearchResult result = item.future.get();
      item.record.ready_ns = NowNs();
      const bool ok = result.k == kK && result.ids.size() == kK &&
                      RowValid(result.ids.data(), result.distances.data(), kK,
                               id_limit, nullptr);
      checker->Expect(ok, "open-loop row invalid");
      records.push_back(item.record);
    }
  });

  const OpenLoopSchedule schedule(NowNs() + 1000000, rate_per_s);
  const int64_t end = schedule.Due(0) + static_cast<int64_t>(seconds * 1e9);
  for (size_t i = 0;; ++i) {
    const int64_t due = schedule.Due(i);
    if (due >= end && i >= min_requests) break;
    SleepUntilNs(due);
    usp::SearchOptions options;
    options.k = kK;
    options.budget = budget;
    InFlight item;
    item.record.due_ns = due;
    item.record.submit_ns = NowNs();
    auto submitted = executor->Submit(queries.Row(i % queries.rows()), options);
    if (!submitted.ok()) {
      checker->Expect(false, "executor refused a request");
      continue;
    }
    item.future = std::move(submitted).value();
    std::lock_guard<std::mutex> lock(mutex);
    in_flight.push_back(std::move(item));
    cv.notify_one();
  }
  {
    std::lock_guard<std::mutex> lock(mutex);
    sent_all = true;
    cv.notify_one();
  }
  collector.join();
  return records;
}

void ReportP99(const std::string& name, const std::vector<double>& in_time_order,
               Checker* checker, Report* report) {
  size_t windows = 0;
  const double p99 = WindowMedian(in_time_order, 99.0, kLatencyWindows, &windows);
  checker->Expect(windows > 0, name + ": too few samples for a p99 (" +
                                   std::to_string(in_time_order.size()) + ")");
  report->Metric(name, p99, "us");
  report->Percentile(name, 99.0, in_time_order.size());
}

void ReportLatency(const std::string& prefix,
                   const std::vector<double>& latencies_us, Checker* checker,
                   Report* report) {
  size_t windows = 0;
  report->Metric(prefix + "_p50_us",
                 WindowMedian(latencies_us, 50.0, kLatencyWindows, &windows),
                 "us");
  report->Percentile(prefix + "_p50_us", 50.0, latencies_us.size());
  ReportP99(prefix + "_p99_us", latencies_us, checker, report);
  const Tail tail = HighestSupported(latencies_us);
  report->Metric(prefix + "_tail_us", tail.value, "us");
  report->Percentile(prefix + "_tail_us", tail.percentile, tail.count);
}

std::vector<double> LatenciesUs(const std::vector<OpenLoopRecord>& records) {
  std::vector<double> us;
  for (const OpenLoopRecord& r : records) {
    us.push_back(static_cast<double>(r.ready_ns - r.due_ns) * 1e-3);
  }
  return us;
}

void ReportExecutorLayer(const std::vector<OpenLoopRecord>& records,
                         const std::vector<Span>& batch_spans,
                         const usp::BatchingExecutor& executor,
                         Checker* checker, Report* report) {
  std::vector<Span> by_end = batch_spans;
  std::sort(by_end.begin(), by_end.end(),
            [](const Span& a, const Span& b) { return a.end_ns < b.end_ns; });
  std::vector<double> waits_us;
  std::vector<double> late_us;
  for (const OpenLoopRecord& r : records) {
    late_us.push_back(static_cast<double>(r.submit_ns - r.due_ns) * 1e-3);
    const long b = AttributeToBatch(by_end, r.submit_ns, r.ready_ns);
    if (b >= 0) {
      waits_us.push_back(static_cast<double>(by_end[b].start_ns - r.submit_ns) *
                         1e-3);
    }
  }
  std::vector<double> exec_us;
  double busy_ns = 0.0;
  for (const Span& s : by_end) {
    exec_us.push_back(static_cast<double>(s.Duration()) * 1e-3);
    busy_ns += static_cast<double>(s.Duration());
  }
  const double wall_ns =
      records.empty() ? 1.0
                      : static_cast<double>(records.back().ready_ns -
                                            records.front().due_ns);
  const double batches = static_cast<double>(executor.batches_executed());
  report->Metric("serve.batch_width_mean",
                 batches > 0 ? static_cast<double>(executor.requests_executed()) /
                                   batches
                             : 0.0,
                 "count");
  report->Metric("serve.queue_wait_p50_us",
                 waits_us.empty() ? 0.0 : Median(waits_us), "us");
  report->Percentile("serve.queue_wait_p50_us", 50.0, waits_us.size());
  ReportP99("serve.queue_wait_p99_us", waits_us, checker, report);
  report->Metric("serve.batch_exec_us", exec_us.empty() ? 0.0 : Median(exec_us),
                 "us");
  report->Metric("serve.busy_share", busy_ns / wall_ns, "share");
  ReportP99("client.late_p99_us", late_us, checker, report);
}

// ---------------------------------------------------------------------------
// Traced replays.
// ---------------------------------------------------------------------------

namespace {

// What one pass of the stage replay counted.
struct StageCounts {
  size_t gathered = 0;
  size_t unique = 0;
  size_t useful = 0;
  size_t mismatched = 0;
};

// One pass of core.score -> core.gather -> knn.rerank (+ dist.score) over
// every query, spans recorded on `tracer`, ids compared with `reference`.
StageCounts ReplayStagesOnce(const usp::PartitionIndex& index,
                             const usp::Matrix& queries,
                             const usp::KnnResult& truth,
                             const usp::BatchSearchResult& reference,
                             size_t budget, Tracer* tracer) {
  const usp::DistanceComputer dist(index.base(), index.metric());
  usp::Matrix scores;
  {
    ScopedSpan span(tracer, "core.score");
    scores = index.ScoreQueries(queries);
  }
  StageCounts counts;
  std::vector<uint32_t> candidates;
  std::vector<float> out;
  std::vector<float> scratch;
  for (size_t q = 0; q < queries.rows(); ++q) {
    const uint64_t request = tracer->NewId();
    {
      ScopedSpan span(tracer, "core.gather", 0, request);
      index.CollectCandidates(scores.Row(q), budget, &candidates);
    }
    std::vector<usp::Neighbor> top;
    {
      ScopedSpan span(tracer, "knn.rerank", 0, request);
      top = usp::RerankCandidatesScored(dist, queries.Row(q), candidates, kK);
    }
    counts.gathered += candidates.size();
    std::sort(candidates.begin(), candidates.end());
    candidates.erase(std::unique(candidates.begin(), candidates.end()),
                     candidates.end());
    counts.unique += candidates.size();
    out.resize(candidates.size());
    const float* prepared = dist.PrepareQuery(queries.Row(q), &scratch);
    {
      ScopedSpan span(tracer, "dist.score", 0, request);
      dist.ScoreIds(prepared, candidates.data(), candidates.size(), out.data());
    }
    bool same = top.size() == kK;
    for (size_t j = 0; same && j < kK; ++j) {
      same = top[j].id == reference.Row(q)[j];
      if (std::find(truth.Row(q), truth.Row(q) + kK, top[j].id) !=
          truth.Row(q) + kK) {
        ++counts.useful;
      }
    }
    if (!same) ++counts.mismatched;
  }
  return counts;
}

}  // namespace

void ReplayPartitionStages(const usp::PartitionIndex& index,
                           const usp::Matrix& queries,
                           const usp::KnnResult& truth, size_t budget,
                           Tracer* tracer, Checker* checker, Report* report) {
  const size_t nq = queries.rows();
  // End-to-end reference on one thread, like the serial replay below (bin
  // scoring uses the pool's GEMM in both).
  const int64_t t0 = NowNs();
  const usp::BatchSearchResult reference =
      index.SearchBatch(queries, kK, budget, /*num_threads=*/1);
  const double reference_s = static_cast<double>(NowNs() - t0) * 1e-9;

  const StageCounts counts =
      ReplayStagesOnce(index, queries, truth, reference, budget, tracer);
  checker->Expect(counts.mismatched == 0,
                  "replayed stages differ from SearchBatch on " +
                      std::to_string(counts.mismatched) + " queries");

  const double per_q_us = 1e6 / static_cast<double>(nq);
  const double score_s = tracer->TotalSeconds("core.score");
  const double gather_s = tracer->TotalSeconds("core.gather");
  const double rerank_s = tracer->TotalSeconds("knn.rerank");
  report->Metric("core.score_us", score_s * per_q_us, "us");
  report->Metric("core.gather_us", gather_s * per_q_us, "us");
  report->Metric("knn.rerank_us", rerank_s * per_q_us, "us");
  report->Metric("dist.score_us", tracer->TotalSeconds("dist.score") * per_q_us,
                 "us");
  report->Metric("core.candidates_per_q",
                 static_cast<double>(counts.gathered) / static_cast<double>(nq),
                 "count");
  report->Metric("knn.dup_share",
                 counts.gathered ? 1.0 - static_cast<double>(counts.unique) /
                                             static_cast<double>(counts.gathered)
                                 : 0.0,
                 "share");
  report->Metric("knn.useful_share",
                 counts.unique ? static_cast<double>(counts.useful) /
                                     static_cast<double>(counts.unique)
                               : 0.0,
                 "share");
  report->Metric("trace.stage_sum_share",
                 (score_s + gather_s + rerank_s) / reference_s, "share");
  ReportTraceOverhead(
      5,
      [&](Tracer* t) {
        ReplayStagesOnce(index, queries, truth, reference, budget, t);
      },
      report);
}

}  // namespace uspbench
