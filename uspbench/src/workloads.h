// The benchmark's three workloads. Each generates its inputs from the seed,
// runs its phases against the public API, checks every result it times, and
// fills the report: end-to-end metrics when untraced, per-layer metrics when
// traced (uspbench/README.md has the map from layers to metrics).
#ifndef USPBENCH_WORKLOADS_H_
#define USPBENCH_WORKLOADS_H_

#include "harness.h"

namespace uspbench {

void RunPaperUsp(const RunArgs& args, Tracer* tracer, Checker* checker, Report* report);
void RunIvfServe(const RunArgs& args, Tracer* tracer, Checker* checker, Report* report);
void RunMixedRw(const RunArgs& args, Tracer* tracer, Checker* checker, Report* report);

}  // namespace uspbench

#endif  // USPBENCH_WORKLOADS_H_
