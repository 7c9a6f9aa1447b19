// mixed-rw: a paced writer beside two closed-loop readers on a DynamicIndex
// whose thresholds force several background seals and compactions per run.
// It exercises what the read-only workloads never touch: the segment lock,
// background maintenance, segment fan-out and merge, tombstones, and the
// filtered-query planner inside each sealed segment.
#include <algorithm>
#include <atomic>
#include <memory>
#include <thread>
#include <unordered_set>

#include "workloads.h"

namespace uspbench {
namespace {

constexpr size_t kPreload = 40000;
constexpr size_t kQueries = 1000;
constexpr size_t kSealThreshold = 4000;
constexpr size_t kMaxSealed = 4;
constexpr size_t kBudget = 8;
constexpr size_t kFullBudget = size_t{1} << 20;  // every list of every segment
constexpr double kRecallFloor = 0.85;
constexpr size_t kSetupReps = 3;
// Writer: one tick = AddBatch of kRowsPerTick rows, then kDeletesPerTick
// deletes of earlier ids (10% of the rows added).
constexpr double kTickRate = 400.0;
constexpr size_t kRowsPerTick = 10;
constexpr size_t kDeletesPerTick = 1;
constexpr size_t kMinTicks = 1000;
constexpr size_t kReaders = 2;
// Each reader waits for its reply and sends at most this many reads per
// second. Unpaced readers keep the segment lock shared almost without a gap,
// which starves the writer and makes every latency swing from run to run.
constexpr double kReadRate = 600.0;
constexpr size_t kMinSamples = 1000;
// Traced runs replay one read in this many under WithFrozenState.
constexpr size_t kReplayEvery = 8;

// A global-id predicate translated to a sealed segment's local rows, with
// tombstones folded in — what DynamicIndex pushes down to each segment.
class LocalSelector final : public usp::IdSelector {
 public:
  LocalSelector(const usp::IdSelector* global,
                const std::vector<uint32_t>& global_ids,
                const std::unordered_set<uint32_t>& tombstones)
      : global_(global), global_ids_(global_ids), tombstones_(tombstones) {}
  bool is_member(uint32_t local) const override {
    const uint32_t gid = global_ids_[local];
    return global_->is_member(gid) && tombstones_.count(gid) == 0;
  }

 private:
  const usp::IdSelector* global_;
  const std::vector<uint32_t>& global_ids_;
  const std::unordered_set<uint32_t>& tombstones_;
};

// Ids never deleted: the live set the exact reference searches.
class LiveSelector final : public usp::IdSelector {
 public:
  explicit LiveSelector(const std::vector<std::atomic<int64_t>>& deleted_at)
      : deleted_at_(deleted_at) {}
  bool is_member(uint32_t id) const override {
    return deleted_at_[id].load() == 0;
  }

 private:
  const std::vector<std::atomic<int64_t>>& deleted_at_;
};

std::unique_ptr<usp::DynamicIndex> SetUp(usp::MatrixView preload) {
  usp::DynamicIndexConfig config;
  config.seal_threshold = kSealThreshold;
  config.max_sealed_segments = kMaxSealed;
  auto index = std::make_unique<usp::DynamicIndex>(kDim, config);
  index->AddBatch(preload);
  index->Seal();
  index->WaitForMaintenance();
  return index;
}

// Everything the traced replay measures, summed over replayed reads.
struct ReplayTotals {
  std::mutex mutex;
  std::vector<double> segments;
  std::vector<double> write_rows;
  std::vector<double> tombstone_share;
  size_t plans[3] = {0, 0, 0};
};

// Re-runs one read stage by stage on a frozen snapshot: each sealed
// segment's search (ivf.segment_search), the write-segment scan
// (knn.write_scan), and the merge as the self time of the enclosing span.
// For a filtered read it also asks the planner what each segment would do.
void ReplayRead(const usp::DynamicIndex& index, const float* query,
                const usp::IdSelector* filter, Tracer* tracer,
                ReplayTotals* totals) {
  const usp::MatrixView q(query, 1, kDim);
  index.WithFrozenState([&](const usp::DynamicIndex::FrozenState& state) {
    size_t rows = state.write_rows;
    size_t plan_counts[3] = {0, 0, 0};
    {
      ScopedSpan replay(tracer, "serve.replay");
      usp::TopK heap(kK);
      for (const auto& seg : state.sealed) {
        rows += seg->index->size();
        usp::BatchSearchResult hits;
        {
          ScopedSpan span(tracer, "ivf.segment_search", replay.id());
          hits = seg->index->SearchBatch(
              q, std::min(seg->index->size(), kK + seg->tombstoned), kBudget);
        }
        for (size_t j = 0; j < hits.k && hits.ids[j] != usp::kInvalidId; ++j) {
          const uint32_t gid = seg->global_ids[hits.ids[j]];
          if (state.tombstones.count(gid) == 0) heap.Push(hits.distances[j], gid);
        }
        if (filter != nullptr) {
          const LocalSelector local(filter, seg->global_ids, state.tombstones);
          usp::SearchOptions options;
          options.k = std::min(seg->index->size(), kK);
          options.budget = kBudget;
          options.filter = &local;
          ++plan_counts[static_cast<size_t>(
              usp::PlanFilteredSearch(*seg->index, options).strategy)];
        }
      }
      if (state.write_rows > 0) {
        size_t tombstoned = 0;
        for (uint32_t gid : state.write_ids) tombstoned += state.tombstones.count(gid);
        usp::KnnResult hits;
        {
          ScopedSpan span(tracer, "knn.write_scan", replay.id());
          hits = usp::BruteForceKnn(
              usp::MatrixView(state.write_data, state.write_rows, kDim), q,
              std::min(state.write_rows, kK + tombstoned));
        }
        for (size_t j = 0; j < hits.k; ++j) {
          const uint32_t gid = state.write_ids[hits.indices[j]];
          if (state.tombstones.count(gid) == 0) heap.Push(hits.distances[j], gid);
        }
      }
      heap.TakeSorted();
    }
    std::lock_guard<std::mutex> lock(totals->mutex);
    totals->segments.push_back(static_cast<double>(state.sealed.size()));
    totals->write_rows.push_back(static_cast<double>(state.write_rows));
    totals->tombstone_share.push_back(
        rows ? static_cast<double>(state.tombstones.size()) /
                   static_cast<double>(rows)
             : 0.0);
    for (size_t i = 0; i < 3; ++i) totals->plans[i] += plan_counts[i];
    return usp::Status::Ok();
  });
}

double Mean(const std::vector<double>& v) {
  double sum = 0.0;
  for (double x : v) sum += x;
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

}  // namespace

void RunMixedRw(const RunArgs& args, Tracer* tracer, Checker* checker, Report* report) {
  const double s = args.seconds;
  const double write_seconds = 0.8 * s;
  const size_t ticks =
      std::max(kMinTicks, static_cast<size_t>(write_seconds * kTickRate) + 1);
  // Every row the run will add, preload first: ids are handed out
  // contiguously, so global id i is row i.
  const std::vector<usp::Matrix> blocks =
      MakeInputs({kPreload + ticks * kRowsPerTick}, kQueries, args.seed);
  const usp::Matrix& rows = blocks[0];
  const usp::Matrix& queries = blocks[1];
  const usp::MatrixView preload(rows.data(), kPreload, kDim);
  const uint32_t id_limit = static_cast<uint32_t>(rows.rows());
  const HashSelector filter(args.seed);
  report->Info("sizes", "preload 40000x128, 1000 queries, seal at 4000 rows, "
                        "compact above 4 sealed segments");
  report->Info("budget", static_cast<double>(kBudget));
  report->Info("write_rows_per_s", kTickRate * kRowsPerTick);
  report->Info("deletes_per_s", kTickRate * kDeletesPerTick);
  report->Info("readers", static_cast<double>(kReaders));

  std::unique_ptr<usp::DynamicIndex> index;
  const double setup_s =
      MedianSeconds(args.trace ? 1 : kSetupReps, [&](size_t) {
        index.reset();
        ScopedSpan span(tracer, "ivf.build");
        index = SetUp(preload);
      });

  // deleted_at[gid]: when Delete(gid) returned (0 = never deleted).
  std::vector<std::atomic<int64_t>> deleted_at(id_limit);
  for (auto& t : deleted_at) t.store(0);
  std::atomic<bool> stop{false};

  // Readers: closed loop with pacing, every fifth read filtered; latency is
  // timed from the send.
  std::vector<std::vector<double>> plain_us(kReaders);
  std::vector<std::vector<double>> filtered_us(kReaders);
  ReplayTotals totals;
  std::vector<std::thread> readers;
  for (size_t r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      const OpenLoopSchedule pace(NowNs(), kReadRate);
      for (size_t n = 0, i = r * 7919;; ++n, ++i) {
        const int64_t due = pace.Due(n);
        const int64_t now = NowNs();
        if (due > now) std::this_thread::sleep_for(std::chrono::nanoseconds(due - now));
        if (stop.load() && plain_us[r].size() >= kMinSamples / kReaders &&
            filtered_us[r].size() >= kMinSamples / kReaders) {
          break;
        }
        const bool filtered = i % 5 == 4;
        const float* query = queries.Row(i % queries.rows());
        usp::SearchRequest request;
        request.queries = usp::MatrixView(query, 1, kDim);
        request.options.k = kK;
        request.options.budget = kBudget;
        request.options.filter = filtered ? &filter : nullptr;
        const int64_t t0 = NowNs();
        const usp::BatchSearchResult result = index->SearchBatch(request);
        (filtered ? filtered_us[r] : plain_us[r])
            .push_back(static_cast<double>(NowNs() - t0) * 1e-3);
        bool ok = result.k == kK && RowValid(result.Row(0), result.DistanceRow(0),
                                             kK, id_limit, request.options.filter);
        for (size_t j = 0; ok && j < kK; ++j) {
          const int64_t deleted = deleted_at[result.Row(0)[j]].load();
          ok = deleted == 0 || deleted > t0;
        }
        checker->Expect(ok, "read row invalid or holds an id deleted before it");
        if (args.trace && i % kReplayEvery == 0) {
          ReplayRead(*index, query, request.options.filter, tracer, &totals);
        }
      }
    });
  }

  // Writer: open loop on its own schedule. write_us times each tick from its
  // due time; tick_us from when it was sent. One compaction install stalls
  // the writer for 0.1-0.6 s and backs up every tick behind it, so the
  // from-due tail measures where that stall fell; the from-send tail is what
  // the end-to-end metric gates.
  std::vector<double> write_us;
  std::vector<double> tick_us;
  std::vector<double> late_us;
  std::vector<double> add_us;
  std::vector<uint32_t> live(kPreload);
  for (uint32_t i = 0; i < kPreload; ++i) live[i] = i;
  usp::Rng rng(args.seed * 7 + 1);
  const OpenLoopSchedule schedule(NowNs() + 1000000, kTickRate);
  int64_t last_write_end = 0;
  for (size_t t = 0; t < ticks; ++t) {
    const int64_t due = schedule.Due(t);
    const int64_t now = NowNs();
    if (due > now) std::this_thread::sleep_for(std::chrono::nanoseconds(due - now));
    const int64_t sent = NowNs();
    late_us.push_back(static_cast<double>(schedule.Lateness(t, sent)) * 1e-3);
    const usp::MatrixView batch(rows.Row(kPreload + t * kRowsPerTick),
                                kRowsPerTick, kDim);
    const int64_t a0 = NowNs();
    const std::vector<uint32_t> ids = index->AddBatch(batch);
    add_us.push_back(static_cast<double>(NowNs() - a0) * 1e-3);
    const uint32_t expected = static_cast<uint32_t>(kPreload + t * kRowsPerTick);
    checker->Expect(ids.size() == kRowsPerTick && ids.front() == expected,
                    "AddBatch returned unexpected ids");
    for (size_t d = 0; d < kDeletesPerTick; ++d) {
      const size_t pick = rng.UniformInt(live.size());
      const uint32_t gid = live[pick];
      live[pick] = live.back();
      live.pop_back();
      checker->Expect(index->Delete(gid), "Delete of a live id failed");
      deleted_at[gid].store(NowNs());
    }
    live.insert(live.end(), ids.begin(), ids.end());
    last_write_end = NowNs();
    write_us.push_back(static_cast<double>(last_write_end - due) * 1e-3);
    tick_us.push_back(static_cast<double>(last_write_end - sent) * 1e-3);
  }
  index->WaitForMaintenance();
  const double catchup_s = static_cast<double>(NowNs() - last_write_end) * 1e-9;
  stop.store(true);
  for (std::thread& t : readers) t.join();

  // Exact reference over the live rows; row index = global id.
  const LiveSelector live_rows(deleted_at);
  const usp::KnnResult truth = usp::BruteForceKnn(
      rows, queries, kK, usp::Metric::kSquaredL2, &live_rows);
  checker->Expect(index->size() == live.size(), "live count differs");

  // After maintenance, a full-budget search is brute force over the live
  // rows (positions compared by distance, so exact ties may swap ids).
  const usp::BatchSearchResult full = index->SearchBatch(queries, kK, kFullBudget);
  for (size_t q = 0; q < queries.rows(); ++q) {
    bool ok = RowValid(full.Row(q), full.DistanceRow(q), kK, id_limit, nullptr);
    for (size_t j = 0; ok && j < kK; ++j) {
      const float want = truth.distances[q * kK + j];
      ok = full.Row(q)[j] == truth.Row(q)[j] ||
           std::abs(full.DistanceRow(q)[j] - want) <=
               1e-4f * std::max(1.0f, std::abs(want));
      ok = ok && deleted_at[full.Row(q)[j]].load() == 0;
    }
    checker->Expect(ok, "full-budget search differs from brute force");
  }

  if (!args.trace) {
    std::vector<double> plain;
    std::vector<double> filtered;
    for (size_t r = 0; r < kReaders; ++r) {
      plain.insert(plain.end(), plain_us[r].begin(), plain_us[r].end());
      filtered.insert(filtered.end(), filtered_us[r].begin(),
                      filtered_us[r].end());
    }
    report->Metric("setup_s", setup_s, "s");
    ReportLatency("lat", plain, checker, report);
    ReportP99("filtered_p99_us", filtered, checker, report);
    ReportLatency("load", tick_us, checker, report);
    ReportP99("write_p99_us", write_us, checker, report);
    report->Metric("read_qps",
                   static_cast<double>(plain.size() + filtered.size()) /
                       write_seconds,
                   "1/s");
    report->Metric("catchup_s", catchup_s, "s");
    // Seal and compact first, so the batch phase sees the same single-segment
    // layout whichever way background maintenance happened to interleave.
    index->Seal();
    index->Compact();
    BatchPhase(*index, queries, truth, kBudget, 0.15 * s, kRecallFloor, checker,
               report);
    return;
  }

  report->Metric("ivf.build_s", tracer->TotalSeconds("ivf.build"), "s");
  report->Metric("serve.catchup_s", catchup_s, "s");
  ReportP99("serve.add_p99_us", add_us, checker, report);
  report->Metric("serve.segments_mean", Mean(totals.segments), "count");
  report->Metric("serve.write_rows_mean", Mean(totals.write_rows), "count");
  report->Metric("serve.tombstone_share", Mean(totals.tombstone_share), "share");
  const std::vector<Span> all = tracer->Spans();
  std::vector<double> merge_us;
  for (const Span& parent : tracer->Named("serve.replay")) {
    std::vector<Span> children;
    for (const Span& c : all) {
      if (c.parent == parent.id) children.push_back(c);
    }
    merge_us.push_back(static_cast<double>(SelfTimeNs(parent, children)) * 1e-3);
  }
  const auto mean_us = [&](const char* name) {
    const auto spans = tracer->Named(name);
    return spans.empty() ? 0.0
                         : tracer->TotalSeconds(name) * 1e6 /
                               static_cast<double>(spans.size());
  };
  report->Metric("ivf.segment_search_us", mean_us("ivf.segment_search"), "us");
  report->Metric("knn.write_scan_us", mean_us("knn.write_scan"), "us");
  report->Metric("serve.merge_us", Mean(merge_us), "us");
  const double plans = static_cast<double>(
      std::max<size_t>(1, totals.plans[0] + totals.plans[1] + totals.plans[2]));
  report->Metric("index.plan_pushdown_share",
                 static_cast<double>(totals.plans[0]) / plans, "share");
  report->Metric("index.plan_allowed_scan_share",
                 static_cast<double>(totals.plans[1]) / plans, "share");
  report->Metric("index.plan_post_filter_share",
                 static_cast<double>(totals.plans[2]) / plans, "share");
  ReportP99("client.late_p99_us", late_us, checker, report);
  // The replay is the traced run's instrumentation: time it over the final
  // index with the tracer recording and with it off.
  ReportTraceOverhead(
      5,
      [&](Tracer* t) {
        ReplayTotals scratch;
        for (size_t q = 0; q < queries.rows(); ++q) {
          ReplayRead(*index, queries.Row(q), q % 5 == 4 ? &filter : nullptr, t,
                     &scratch);
        }
      },
      report);
}

}  // namespace uspbench
