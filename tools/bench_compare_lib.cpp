#include "bench_compare_lib.hpp"

#include <cmath>
#include <limits>
#include <sstream>

#include "util/error.hpp"
#include "util/table.hpp"

namespace plf::tools {

namespace {

constexpr const char* kSchema = "plf-bench-v1";

const json::Value::Object& cases_of(const json::Value& doc, const char* which) {
  const json::Value* schema = doc.find("schema");
  PLF_CHECK(schema != nullptr && schema->is_string() &&
                schema->as_string() == kSchema,
            std::string("bench_compare: ") + which +
                " document is not schema plf-bench-v1");
  const json::Value* cases = doc.find("cases");
  PLF_CHECK(cases != nullptr && cases->is_object(),
            std::string("bench_compare: ") + which +
                " document has no \"cases\" object");
  return cases->as_object();
}

double case_min(const json::Value& c, const std::string& name,
                const char* which) {
  const json::Value* v = c.find("min");
  PLF_CHECK(v != nullptr && v->is_number(),
            "bench_compare: case '" + name + "' in " + which +
                " document has no numeric \"min\"");
  return v->as_number();
}

/// Text form of doc.host.<field>, or "(absent)".
std::string host_field(const json::Value& doc, const char* field) {
  const json::Value* host = doc.find("host");
  const json::Value* v = host != nullptr ? host->find(field) : nullptr;
  if (v == nullptr) return "(absent)";
  if (v->is_string()) return v->as_string();
  if (v->is_number()) {
    std::ostringstream os;
    os << v->as_number();
    return os.str();
  }
  return "(not a string or number)";
}

}  // namespace

const char* to_string(CaseStatus s) {
  switch (s) {
    case CaseStatus::kOk: return "ok";
    case CaseStatus::kImproved: return "improved";
    case CaseStatus::kRegressed: return "REGRESSED";
    case CaseStatus::kNew: return "new";
    case CaseStatus::kMissing: return "MISSING";
  }
  return "?";
}

CompareReport compare_benches(const json::Value& baseline,
                              const json::Value& current,
                              const CompareOptions& opts) {
  const json::Value::Object& base_cases = cases_of(baseline, "baseline");
  const json::Value::Object& cur_cases = cases_of(current, "current");
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();

  CompareReport report;
  for (const char* field : {"cpu", "hardware_threads", "compiler",
                            "pointer_bits"}) {
    std::string b = host_field(baseline, field);
    std::string c = host_field(current, field);
    if (b != c) {
      report.host_mismatches.push_back({field, std::move(b), std::move(c)});
    }
  }
  for (const auto& [name, base_case] : base_cases) {
    CaseResult r;
    r.name = name;
    r.baseline_min = case_min(base_case, name, "baseline");
    r.threshold = base_case.number_or("threshold", opts.default_threshold);
    const json::Value* cur = current.at("cases").find(name);
    if (cur == nullptr) {
      r.status = CaseStatus::kMissing;
      r.current_min = kNan;
      r.ratio = kNan;
      ++report.missing;
    } else {
      r.current_min = case_min(*cur, name, "current");
      r.ratio = r.baseline_min > 0.0 ? r.current_min / r.baseline_min : kNan;
      if (!std::isfinite(r.ratio)) {
        // A zero/negative baseline cannot be compared relatively; treat as ok
        // rather than inventing a verdict from garbage.
        r.status = CaseStatus::kOk;
        ++report.ok;
      } else if (r.ratio > 1.0 + r.threshold) {
        r.status = CaseStatus::kRegressed;
        ++report.regressed;
      } else if (r.ratio < 1.0 - r.threshold) {
        r.status = CaseStatus::kImproved;
        ++report.improved;
      } else {
        r.status = CaseStatus::kOk;
        ++report.ok;
      }
    }
    report.cases.push_back(std::move(r));
  }

  for (const auto& [name, cur_case] : cur_cases) {
    if (baseline.at("cases").find(name) != nullptr) continue;
    CaseResult r;
    r.name = name;
    r.status = CaseStatus::kNew;
    r.baseline_min = kNan;
    r.current_min = case_min(cur_case, name, "current");
    r.ratio = kNan;
    r.threshold = cur_case.number_or("threshold", opts.default_threshold);
    ++report.new_cases;
    report.cases.push_back(std::move(r));
  }

  return report;
}

std::string format_report(const CompareReport& report) {
  std::ostringstream os;
  Table t("bench comparison (min-of-N seconds, current vs baseline)");
  t.header({"case", "baseline", "current", "ratio", "thresh", "status"});
  auto cell = [](double v, int prec) {
    return std::isfinite(v) ? Table::num(v, prec) : std::string("-");
  };
  for (const CaseResult& r : report.cases) {
    t.row({r.name, cell(r.baseline_min, 6), cell(r.current_min, 6),
           cell(r.ratio, 3), "+" + Table::num(100.0 * r.threshold, 0) + "%",
           to_string(r.status)});
  }
  os << t;
  os << "summary: " << report.ok << " ok, " << report.improved
     << " improved, " << report.regressed << " regressed, "
     << report.new_cases << " new, " << report.missing << " missing\n";
  for (const HostMismatch& h : report.host_mismatches) {
    os << "host mismatch: " << h.field << ": baseline '" << h.baseline
       << "' vs current '" << h.current << "'\n";
  }
  if (report.failed()) {
    os << (report.host_mismatches.empty()
               ? "verdict: FAIL (perf regression gate)\n"
               : "verdict: FAIL (baseline is from another host)\n");
  } else {
    os << "verdict: PASS\n";
  }
  return os.str();
}

}  // namespace plf::tools
