// ivf-serve: single-query traffic through the micro-batching executor into a
// large IVF-Flat index, where gathering, sort/dedupe and exact scoring of a
// few thousand candidates dominate and bin scoring is only 512 centroids.
#include "workloads.h"

namespace uspbench {
namespace {

constexpr size_t kBase = 200000;
constexpr size_t kQueries = 1000;
constexpr size_t kNlist = 512;
constexpr size_t kNprobe = 6;
constexpr double kRecallFloor = 0.85;
// Lloyd iterations of the coarse quantizer, as FAISS trains IVF by default.
// Set-up is then mostly k-means++ seeding, cheap enough for a median of 3.
constexpr size_t kKmeansIterations = 10;
constexpr size_t kSetupReps = 3;
// Single-query latency comes from one closed-loop client through the
// executor, so every batch is one wide. An open loop at a low fixed rate
// does the same only while the host stays fast: on a shared host, service
// time doubles for seconds at a time, requests start to queue, and the p99
// swung 2-5x between runs. High rate: see uspbench/README.md.
constexpr double kHighRate = 3000.0;
// Samples per latency stream: four WindowMedian windows.
constexpr size_t kMinSamples = 4 * kMinWindow;

}  // namespace

void RunIvfServe(const RunArgs& args, Tracer* tracer, Checker* checker, Report* report) {
  const std::vector<usp::Matrix> blocks =
      MakeInputs({kBase}, kQueries, args.seed);
  const usp::Matrix& base = blocks[0];
  const usp::Matrix& queries = blocks[1];
  const usp::KnnResult truth = usp::BruteForceKnn(base, queries, kK);
  const HashSelector filter(args.seed);
  report->Info("sizes", "base 200000x128, 1000 queries, nlist 512, " +
                            std::to_string(kKmeansIterations) +
                            " k-means iterations");
  report->Info("budget", static_cast<double>(kNprobe));
  report->Info("high_rate_per_s", kHighRate);

  std::unique_ptr<usp::IvfFlatIndex> index;
  usp::IvfConfig config;
  config.nlist = kNlist;
  config.kmeans_iterations = kKmeansIterations;
  const double setup_s =
      MedianSeconds(args.trace ? 1 : kSetupReps, [&](size_t) {
        index.reset();
        ScopedSpan span(tracer, "ivf.build");
        index = std::make_unique<usp::IvfFlatIndex>(&base, config);
      });
  const double s = args.seconds;

  if (!args.trace) {
    report->Metric("setup_s", setup_s, "s");
    BatchPhase(*index, queries, truth, kNprobe, 0.1 * s, kRecallFloor,
               checker, report);
    usp::SearchOptions options;
    options.k = kK;
    options.budget = kNprobe;
    ReportLatency("lat",
                  ClosedLoopViaExecutor(*index, queries, options, 0.4 * s,
                                        kMinSamples, kBase, checker),
                  checker, report);
    options.filter = &filter;
    ReportP99("filtered_p99_us",
              ClosedLoopViaExecutor(*index, queries, options, 0.2 * s,
                                    kMinSamples, kBase, checker),
              checker, report);
    usp::BatchingExecutor executor(index.get());
    const auto records = RunOpenLoop(&executor, queries, kHighRate, 0.3 * s,
                                     kMinSamples, kNprobe, kBase, checker);
    ReportLatency("load", LatenciesUs(records), checker, report);
    return;
  }

  report->Metric("ivf.build_s", tracer->TotalSeconds("ivf.build"), "s");
  const usp::PartitionIndex& lists = index->partition();
  report->Metric("core.balance_ratio",
                 usp::BalanceRatio(lists.assignments(), lists.num_bins()),
                 "ratio");
  ReplayPartitionStages(lists, queries, truth, kNprobe, tracer, checker,
                        report);
  const SpanIndex traced(index.get(), tracer, "serve.batch_exec");
  usp::BatchingExecutor executor(&traced);
  const auto records = RunOpenLoop(&executor, queries, kHighRate, 0.3 * s,
                                   kMinSamples, kNprobe, kBase,
                                   checker);
  ReportExecutorLayer(records, tracer->Named("serve.batch_exec"), executor,
                      checker, report);
}

}  // namespace uspbench
