// Noise-aware benchmark regression comparison (library half).
//
// bench_compare diffs a freshly generated BENCH_<date>.json against the
// committed bench/baseline.json. Noise handling is the min-of-N scheme the
// suite runner pairs with: each case value is the *minimum* over reps (the
// least-perturbed observation of the same deterministic work), and a case
// only counts as a regression when current_min exceeds baseline_min by more
// than the case's relative threshold. Thresholds live in the baseline file
// per case (engine/threaded cases are noisier than tight kernel loops), with
// a CLI default for cases that do not carry one.
//
// Timings only compare on the same machine, so the gate also refuses a
// baseline whose "host" block (cpu, hardware_threads, compiler,
// pointer_bits; hostname is ignored) differs from the current run's.
//
// Split from the CLI so tests/bench_compare_test.cpp can drive the logic on
// synthetic documents without spawning processes.
#pragma once

#include <string>
#include <vector>

#include "util/json.hpp"

namespace plf::tools {

enum class CaseStatus : unsigned char {
  kOk,        ///< within threshold either way
  kImproved,  ///< faster than baseline by more than the threshold
  kRegressed, ///< slower than baseline by more than the threshold (failure)
  kNew,       ///< in current only (informational; baseline needs a refresh)
  kMissing,   ///< in baseline only (failure: a case silently disappeared)
};

const char* to_string(CaseStatus s);

struct CaseResult {
  std::string name;
  CaseStatus status = CaseStatus::kOk;
  double baseline_min = 0.0;  ///< seconds (NaN for kNew)
  double current_min = 0.0;   ///< seconds (NaN for kMissing)
  double ratio = 0.0;         ///< current/baseline (NaN when either is absent)
  double threshold = 0.0;     ///< relative threshold applied to this case
};

/// One "host" field that differs between the baseline and the current run.
/// Values are rendered as text; "(absent)" when a document lacks the field.
struct HostMismatch {
  std::string field;
  std::string baseline;
  std::string current;
};

struct CompareOptions {
  /// Relative slowdown tolerated before a case regresses, applied when the
  /// baseline case carries no per-case "threshold" key.
  double default_threshold = 0.15;
};

struct CompareReport {
  std::vector<CaseResult> cases;  ///< baseline order, then new cases
  int ok = 0;
  int improved = 0;
  int regressed = 0;
  int new_cases = 0;
  int missing = 0;
  std::vector<HostMismatch> host_mismatches;

  /// Gate verdict: regressions, vanished cases and a baseline from another
  /// host fail the build.
  bool failed() const {
    return regressed > 0 || missing > 0 || !host_mismatches.empty();
  }
};

/// Compare two parsed bench documents (both must be schema "plf-bench-v1";
/// throws plf::Error otherwise or when "cases" is malformed).
CompareReport compare_benches(const json::Value& baseline,
                              const json::Value& current,
                              const CompareOptions& opts);

/// Human-readable table plus a one-line verdict, ready for stdout.
std::string format_report(const CompareReport& report);

}  // namespace plf::tools
