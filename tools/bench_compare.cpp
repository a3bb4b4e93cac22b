// bench_compare: the perf-regression gate CLI.
//
//   bench_compare <baseline.json> <current.json> [--threshold 0.15]
//                 [--warn-only]
//
// Prints the comparison table and exits non-zero when a case regressed past
// its threshold, vanished from the current run, or the baseline was recorded
// on another host — unless --warn-only (the CI smoke mode, where the runner's
// hardware is too noisy or too different to gate on).
#include <cstring>
#include <iostream>
#include <string>

#include "bench_compare_lib.hpp"
#include "util/error.hpp"
#include "util/json.hpp"

namespace {

int usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " <baseline.json> <current.json> [--threshold R] [--warn-only]\n"
               "  --threshold R   default relative threshold for cases without\n"
               "                  a per-case value in the baseline (default 0.15)\n"
               "  --warn-only     print the table but always exit 0\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string baseline_path;
  std::string current_path;
  plf::tools::CompareOptions opts;
  bool warn_only = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--warn-only") {
      warn_only = true;
    } else if (arg == "--threshold") {
      if (i + 1 >= argc) return usage(argv[0]);
      try {
        opts.default_threshold = std::stod(argv[++i]);
      } catch (const std::exception&) {
        return usage(argv[0]);
      }
    } else if (arg == "--help" || arg == "-h") {
      usage(argv[0]);
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      return usage(argv[0]);
    } else if (baseline_path.empty()) {
      baseline_path = arg;
    } else if (current_path.empty()) {
      current_path = arg;
    } else {
      return usage(argv[0]);
    }
  }
  if (baseline_path.empty() || current_path.empty()) return usage(argv[0]);

  try {
    const plf::json::Value baseline = plf::json::parse_file(baseline_path);
    const plf::json::Value current = plf::json::parse_file(current_path);
    const plf::tools::CompareReport report =
        plf::tools::compare_benches(baseline, current, opts);
    std::cout << plf::tools::format_report(report);
    if (report.failed() && !warn_only) return 1;
    if (report.failed()) {
      std::cout << "(--warn-only: not gating this run)\n";
    }
    return 0;
  } catch (const plf::Error& e) {
    std::cerr << "bench_compare: " << e.what() << "\n";
    return 2;
  }
}
