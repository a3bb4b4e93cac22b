#include "obs/exporter.hpp"

#include <cstdio>
#include <fstream>
#include <sstream>

#include "obs/json_util.hpp"
#include "obs/metrics.hpp"
#include "obs/names.hpp"
#include "obs/trace.hpp"
#include "util/clock.hpp"
#include "util/error.hpp"
#include "util/json.hpp"

namespace plf::obs {

namespace {

using detail::json_escape;
using detail::write_json_double;

void write_rate_fields(std::ostream& os, const TelemetryRate& r) {
  os << "\"proposed\":" << r.proposed << ",\"accepted\":" << r.accepted
     << ",\"rate\":";
  write_json_double(os, r.rate());
}

void write_rate_map(std::ostream& os,
                    const std::vector<TelemetryRate>& rates) {
  os << "{";
  bool first = true;
  for (const TelemetryRate& r : rates) {
    if (!first) os << ",";
    first = false;
    os << "\"" << json_escape(r.name) << "\":{";
    write_rate_fields(os, r);
    os << "}";
  }
  os << "}";
}

/// Write `text` to `path` atomically: tmp file in the same directory, then
/// rename over the destination (the same pattern checkpoints use — a reader
/// sees the old complete document or the new one, never a torn mix).
void atomic_write(const std::string& path, const std::string& text) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
    PLF_CHECK(os.good(), "cannot open status file for writing: " + tmp);
    os << text;
    os.flush();
    PLF_CHECK(os.good(), "short write to status file: " + tmp);
  }
  PLF_CHECK(std::rename(tmp.c_str(), path.c_str()) == 0,
            "cannot move status file into place: " + path);
}

}  // namespace

TelemetryExporter::TelemetryExporter(TelemetryOptions options,
                                     MetricsRegistry* registry)
    : options_(std::move(options)), registry_(registry) {
  PLF_CHECK(!options_.include_metrics || registry_ != nullptr ||
                (options_.jsonl_path.empty() && options_.status_path.empty()),
            "telemetry: include_metrics requires a registry");
}

void TelemetryExporter::prepare_resume(std::uint64_t resume_generation) {
  util::MutexLock lock(m_);
  PLF_CHECK(!any_exported_,
            "telemetry: prepare_resume must precede the first export");
  if (options_.jsonl_path.empty()) return;
  std::ifstream in(options_.jsonl_path, std::ios::binary);
  if (!in.good()) return;  // fresh file: nothing to truncate

  // Keep the prefix of records at or before the resume generation. A line
  // that fails to parse is a torn tail write from the crash — drop it and
  // everything after it (later records would break generation monotonicity
  // anyway).
  std::string kept;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    double gen = -1.0;
    try {
      gen = json::parse(line).number_or("generation", -1.0);
    } catch (const Error&) {
      break;
    }
    if (gen < 0.0 ||
        static_cast<std::uint64_t>(gen) > resume_generation) {
      break;
    }
    kept += line;
    kept += '\n';
    last_generation_ = static_cast<std::uint64_t>(gen);
    ++records_;
    any_exported_ = true;
  }
  in.close();
  atomic_write(options_.jsonl_path, kept);
}

bool TelemetryExporter::due(std::uint64_t generation) const {
  util::MutexLock lock(m_);
  if (any_exported_ && generation <= last_generation_) return false;
  return options_.every_generations != 0 &&
         generation % options_.every_generations == 0;
}

void TelemetryExporter::write_record_json(std::ostream& os,
                                          const TelemetryRecord& r) const {
  const auto old_precision = os.precision(17);
  os << "{\"schema\":\"" << kSchema << "\",\"generation\":" << r.generation
     << ",\"wall_s\":";
  write_json_double(os, r.wall_s);
  os << ",\"cold\":{\"n_samples\":" << r.n_samples << ",\"ln_likelihood\":";
  write_json_double(os, r.ln_likelihood);
  os << ",\"mean_ln_likelihood\":";
  write_json_double(os, r.mean_ln_likelihood);
  os << ",\"ess\":";
  write_json_double(os, r.ess);
  os << ",\"ess_per_sec\":";
  write_json_double(os, r.ess_per_sec);
  os << ",\"rhat\":";
  write_json_double(os, r.rhat);
  os << "},\"acceptance\":";
  write_rate_map(os, r.acceptance);
  os << ",\"swaps\":{";
  write_rate_fields(os, r.swaps);
  os << ",\"pairs\":";
  write_rate_map(os, r.swap_pairs);
  os << "},\"extra\":{";
  bool first = true;
  for (const auto& [name, value] : r.extra) {
    if (!first) os << ",";
    first = false;
    os << "\"" << json_escape(name) << "\":";
    write_json_double(os, value);
  }
  os << "}";
  if (options_.include_metrics && registry_ != nullptr) {
    os << ",\"metrics\":";
    write_metrics_json(os, registry_->snapshot());
  }
  os << "}";
  os.precision(old_precision);
}

void TelemetryExporter::export_record(const TelemetryRecord& record) {
  const Stopwatch timer;
  util::MutexLock lock(m_);
  std::ostringstream line;
  write_record_json(line, record);
  if (!options_.jsonl_path.empty()) {
    std::ofstream os(options_.jsonl_path, std::ios::binary | std::ios::app);
    PLF_CHECK(os.good(),
              "cannot open telemetry file for append: " + options_.jsonl_path);
    os << line.str() << '\n';
    os.flush();
    PLF_CHECK(os.good(), "short write to telemetry file: " + options_.jsonl_path);
  }
  if (!options_.status_path.empty()) {
    atomic_write(options_.status_path, line.str() + "\n");
  }
  ++records_;
  last_generation_ = record.generation;
  any_exported_ = true;
  if (registry_ != nullptr) {
    registry_->add(registry_->counter(kCounterTelemetryRecords));
    registry_->record_seconds(registry_->timer(kTimerTelemetryExport),
                              timer.seconds());
  }
}

std::uint64_t TelemetryExporter::records_written() const {
  util::MutexLock lock(m_);
  return records_;
}

std::uint64_t TelemetryExporter::last_generation() const {
  util::MutexLock lock(m_);
  return last_generation_;
}

}  // namespace plf::obs
