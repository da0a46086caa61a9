// The four fleet workloads of the report-path benchmark.
#pragma once

#include "harness.hpp"

namespace perfbench {

/// True for steady_serve, feedback_serve, saturate_cluster, churn_serve.
bool known_workload(const std::string& name);

/// Runs one workload end to end: generates the inputs from the seed, sets
/// the program up, drives it for opts.seconds, checks its outputs against
/// the reference and prints the report. The last line of stdout is the
/// result document. Returns the process exit code (non-zero, with no
/// result line, when the output check fails).
int run_workload(const Options& opts);

}  // namespace perfbench
