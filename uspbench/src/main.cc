// uspbench: the repository's benchmark binary. One run = one workload, one
// seed, one mode. Untraced runs print the end-to-end metrics; traced runs
// record spans around calls into each layer and print the per-layer metrics.
// The last stdout line is the result object; the line before it is a
// summary with provenance and sample counts.
//
//   uspbench --workload paper-usp|ivf-serve|mixed-rw --seed N --seconds S
//            --trace 0|1 [--trace-dir DIR]
#include <malloc.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "workloads.h"

namespace uspbench {
namespace {

// Reported on every untraced run of every workload. The other end-to-end
// figures (batch_qps, the latency percentiles, mixed-rw's write_p99_us,
// read_qps and catchup_s) are printed in the summary line only. Every one of
// them is a wall-clock speed, and across seeds on a shared 4-core host the
// memory-bound ivf-serve moved its single-query p50 by 0.22 to 0.35 of its
// median, more than any bound the benchmark may set (uspbench/README.md).
const std::vector<std::pair<std::string, std::string>> kEndToEnd = {
    {"setup_s", "s"},
    {"recall_at_10", "ratio"},
    {"peak_rss_mib", "MiB"},
};

// Reported on every traced run; a layer a workload does not call reads 0.
const std::vector<std::pair<std::string, std::string>> kPerLayer = {
    {"workload.knn_graph_s", "s"},
    {"core.train_s", "s"},
    {"core.assign_s", "s"},
    {"ivf.build_s", "s"},
    {"core.balance_ratio", "ratio"},
    {"core.candidates_per_q", "count"},
    {"core.score_us", "us"},
    {"core.gather_us", "us"},
    {"knn.rerank_us", "us"},
    {"dist.score_us", "us"},
    {"knn.dup_share", "share"},
    {"knn.useful_share", "share"},
    {"serve.batch_width_mean", "count"},
    {"serve.queue_wait_p50_us", "us"},
    {"serve.queue_wait_p99_us", "us"},
    {"serve.batch_exec_us", "us"},
    {"serve.busy_share", "share"},
    {"serve.add_p99_us", "us"},
    {"serve.catchup_s", "s"},
    {"serve.segments_mean", "count"},
    {"serve.write_rows_mean", "count"},
    {"serve.tombstone_share", "share"},
    {"ivf.segment_search_us", "us"},
    {"knn.write_scan_us", "us"},
    {"serve.merge_us", "us"},
    {"index.plan_pushdown_share", "share"},
    {"index.plan_allowed_scan_share", "share"},
    {"index.plan_post_filter_share", "share"},
    {"client.late_p99_us", "us"},
    {"trace.overhead_share", "share"},
    {"trace.stage_sum_share", "share"},
};

int Usage() {
  std::fprintf(stderr,
               "usage: uspbench --workload paper-usp|ivf-serve|mixed-rw "
               "--seed N --seconds S --trace 0|1 [--trace-dir DIR]\n");
  return 2;
}

bool ParseArgs(int argc, char** argv, RunArgs* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args->seconds > 0.0 && args->seconds <= 120.0)) {
        return false;
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      args->trace = value == "1";
    } else if (flag == "--trace-dir") {
      args->trace_dir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty();
}

int Main(int argc, char** argv) {
  RunArgs args;
  if (!ParseArgs(argc, argv, &args)) return Usage();
#ifndef NDEBUG
  std::fprintf(stderr, "uspbench: refusing to time a build with assertions "
                       "on; configure with -DCMAKE_BUILD_TYPE=Release\n");
  return 2;
#endif

  // Serve every allocation of 4 MiB or more from its own mapping, returned
  // to the system on free. glibc otherwise raises this threshold as large
  // blocks are freed and then keeps later ones in per-thread arenas, so
  // which thread freed what, a matter of timing, moved peak_rss_mib by up to
  // 50 MiB between runs of the same inputs.
  mallopt(M_MMAP_THRESHOLD, 4 << 20);

  Report report;
  const char* commit = std::getenv("USPBENCH_COMMIT");
  report.Info("commit", commit != nullptr ? commit : "unknown");
  report.Info("build_type", USPBENCH_BUILD_TYPE);
  report.Info("nproc", static_cast<double>(std::thread::hardware_concurrency()));
  report.Info("kernels", usp::GetDistanceKernels().name);
  report.Info("workload", args.workload);
  report.Info("seed", static_cast<double>(args.seed));
  report.Info("seconds", args.seconds);
  report.Info("trace", args.trace ? "1" : "0");

  Tracer tracer(args.trace);
  Checker checker;
  if (args.workload == "paper-usp") {
    RunPaperUsp(args, &tracer, &checker, &report);
  } else if (args.workload == "ivf-serve") {
    RunIvfServe(args, &tracer, &checker, &report);
  } else if (args.workload == "mixed-rw") {
    RunMixedRw(args, &tracer, &checker, &report);
  } else {
    return Usage();
  }
  report.Metric("peak_rss_mib", PeakRssMib(), "MiB");
  report.Metric("failed_frac",
                static_cast<double>(checker.failed()) /
                    static_cast<double>(std::max<uint64_t>(1, checker.attempted())),
                "share");

  const auto& expected = args.trace ? kPerLayer : kEndToEnd;
  std::vector<std::string> names;
  for (const auto& [name, unit] : expected) {
    if (!report.Has(name)) {
      if (!args.trace) {
        checker.Expect(false, "workload did not measure " + name);
        continue;
      }
      report.Metric(name, 0.0, unit);
    }
    names.push_back(name);
  }
  if (args.trace && !args.trace_dir.empty()) {
    const std::string path = args.trace_dir + "/spans-" + args.workload + "-" +
                             std::to_string(args.seed) + ".jsonl";
    checker.Expect(tracer.WriteJsonLines(path), "cannot write " + path);
  }

  const bool correct = checker.failed() == 0;
  std::printf("%s\n", report.SummaryJson().c_str());
  if (names.size() == expected.size()) {
    std::printf("%s\n", report.ResultJson(names, correct, checker.attempted(),
                                          checker.failed())
                            .c_str());
  }
  std::fflush(stdout);
  return correct && names.size() == expected.size() ? 0 : 1;
}

}  // namespace
}  // namespace uspbench

int main(int argc, char** argv) { return uspbench::Main(argc, argv); }
