// perfbench: the report-path benchmark binary. perfbench/run.py builds it
// and is the documented entry point; see perfbench/README.md.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --work-dir DIR [--trace-file PATH] [--tiny]
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <iostream>
#include <string>

#include "workloads.hpp"

namespace {

int usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " --workload steady_serve|feedback_serve|steady_cluster|"
               "churn_serve --seed N --seconds S --trace 0|1 --work-dir DIR"
               " [--trace-file PATH] [--tiny]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opts;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--tiny") {
      opts.tiny = true;
    } else if (!has_value) {
      return usage(argv[0]);
    } else if (arg == "--workload") {
      opts.workload = argv[++i];
    } else if (arg == "--seed") {
      opts.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds") {
      opts.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace") {
      opts.trace = std::string(argv[++i]) == "1";
    } else if (arg == "--work-dir") {
      opts.work_dir = argv[++i];
    } else if (arg == "--trace-file") {
      opts.trace_path = argv[++i];
    } else {
      return usage(argv[0]);
    }
  }
  if (!perfbench::known_workload(opts.workload) || opts.seconds <= 0.0 ||
      opts.work_dir.empty()) {
    return usage(argv[0]);
  }
  try {
    std::filesystem::create_directories(opts.work_dir);
    return perfbench::run_workload(opts);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
