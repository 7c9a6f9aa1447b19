// paper-usp: the paper's offline phase (exact k'-NN graph, hierarchical
// 16x16 USP training, bin assignment) and its online phase (MLP bin scoring
// across 17 models, gather, exact rerank) at one fixed probe budget.
#include <memory>

#include "workloads.h"

namespace uspbench {
namespace {

constexpr size_t kBase = 20000;
// Twice the issue's 1,000: recall over 1,000 seeded queries spread by 0.01
// between seeds, half the recall bound.
constexpr size_t kQueries = 2000;
constexpr size_t kEpochs = 10;
constexpr size_t kBudget = 2;
// A 10% predicate leaves too few allowed points in two of 256 bins, so the
// filtered stream probes wider to keep every row k long.
constexpr size_t kFilteredBudget = 16;
constexpr double kRecallFloor = 0.85;
constexpr size_t kSetupReps = 3;
constexpr double kLoadRate = 3000.0;  // requests/s into the executor
// Samples per latency stream: four WindowMedian windows.
constexpr size_t kMinSamples = 4 * kMinWindow;

struct PaperIndex {
  std::unique_ptr<usp::HierarchicalUspPartitioner> tree;
  std::unique_ptr<usp::PartitionIndex> index;
};

PaperIndex SetUp(const usp::Matrix& base, Tracer* tracer) {
  usp::KnnResult graph;
  {
    ScopedSpan span(tracer, "workload.knn_graph");
    usp::KnnGraphConfig config;
    config.k = 10;
    graph = usp::KnnGraphBuilder(config).BuildExact(base);
  }
  usp::HierarchicalConfig config;
  config.fanouts = {16, 16};
  config.model.num_bins = 16;
  config.model.eta = 10.0f;  // Table 3, SIFT at 256 bins
  config.model.epochs = kEpochs;
  config.model.seed = 11;
  PaperIndex built;
  built.tree = std::make_unique<usp::HierarchicalUspPartitioner>(config);
  {
    ScopedSpan span(tracer, "core.train");
    built.tree->Train(base, graph);
  }
  {
    ScopedSpan span(tracer, "core.assign");
    built.index = std::make_unique<usp::PartitionIndex>(&base, built.tree.get());
  }
  return built;
}

}  // namespace

void RunPaperUsp(const RunArgs& args, Tracer* tracer, Checker* checker, Report* report) {
  const std::vector<usp::Matrix> blocks =
      MakeInputs({kBase}, kQueries, args.seed);
  const usp::Matrix& base = blocks[0];
  const usp::Matrix& queries = blocks[1];
  const usp::KnnResult truth = usp::BruteForceKnn(base, queries, kK);
  const HashSelector filter(args.seed);
  report->Info("sizes", "base 20000x128, 2000 queries, 16x16 bins, " +
                            std::to_string(kEpochs) + " epochs");
  report->Info("budget", static_cast<double>(kBudget));
  report->Info("filtered_budget", static_cast<double>(kFilteredBudget));
  report->Info("load_rate_per_s", kLoadRate);

  PaperIndex built;
  const double setup_s =
      MedianSeconds(args.trace ? 1 : kSetupReps, [&](size_t) {
        built = PaperIndex();  // free the previous rep before building
        built = SetUp(base, tracer);
      });
  const usp::PartitionIndex& index = *built.index;
  const double s = args.seconds;

  if (!args.trace) {
    report->Metric("setup_s", setup_s, "s");
    BatchPhase(index, queries, truth, kBudget, 0.15 * s, kRecallFloor, checker,
               report);
    usp::SearchOptions options;
    options.k = kK;
    options.budget = kBudget;
    ReportLatency("lat",
                  ClosedLoopViaExecutor(index, queries, options, 0.3 * s,
                                        kMinSamples, kBase, checker),
                  checker, report);
    options.budget = kFilteredBudget;
    options.filter = &filter;
    ReportP99("filtered_p99_us",
              ClosedLoopViaExecutor(index, queries, options, 0.2 * s,
                                    kMinSamples, kBase, checker),
              checker, report);
    usp::BatchingExecutor executor(&index);
    const auto records =
        RunOpenLoop(&executor, queries, kLoadRate, 0.3 * s, kMinSamples,
                    kBudget, kBase, checker);
    ReportLatency("load", LatenciesUs(records), checker, report);
    return;
  }

  report->Metric("workload.knn_graph_s",
                 tracer->TotalSeconds("workload.knn_graph"), "s");
  report->Metric("core.train_s", tracer->TotalSeconds("core.train"), "s");
  report->Metric("core.assign_s", tracer->TotalSeconds("core.assign"), "s");
  report->Metric("core.balance_ratio",
                 usp::BalanceRatio(index.assignments(), index.num_bins()),
                 "ratio");
  ReplayPartitionStages(index, queries, truth, kBudget, tracer, checker,
                        report);
  const SpanIndex traced(&index, tracer, "serve.batch_exec");
  usp::BatchingExecutor executor(&traced);
  const auto records = RunOpenLoop(&executor, queries, kLoadRate, 0.3 * s,
                                   kMinSamples, kBudget, kBase,
                                   checker);
  ReportExecutorLayer(records, tracer->Named("serve.batch_exec"), executor,
                      checker, report);
}

}  // namespace uspbench
