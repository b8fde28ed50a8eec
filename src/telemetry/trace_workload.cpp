#include "telemetry/trace_workload.hpp"

#include <cstdlib>

#include "common/error.hpp"
#include "common/parse.hpp"

namespace smartnoc::telemetry {

namespace {
constexpr const char* kPrefix = "trace:";
constexpr std::size_t kPrefixLen = 6;
}  // namespace

bool is_trace_workload_key(const std::string& name) {
  return name.size() >= kPrefixLen && lower_token(name.substr(0, kPrefixLen)) == kPrefix;
}

std::string trace_workload_path(const std::string& name) {
  SMARTNOC_CHECK(is_trace_workload_key(name), "not a trace workload key: " + name);
  std::string path = trim_token(name.substr(kPrefixLen));
  if (path.empty()) {
    throw ConfigError("trace workload needs a file path ('trace:<file>')");
  }
  return path;
}

TraceFileFactory::TraceFileFactory(std::string spec) : path_(std::move(spec)) {
  // Optional era selector: "capture.sntr@1" replays era 1 of a multi-era
  // capture. Only a *trailing all-digits* "@..." is a selector, so paths
  // that merely contain '@' keep resolving as plain paths.
  const auto at = path_.find_last_of('@');
  if (at != std::string::npos && at + 1 < path_.size()) {
    bool digits = true;
    for (std::size_t i = at + 1; i < path_.size(); ++i) {
      digits = digits && path_[i] >= '0' && path_[i] <= '9';
    }
    if (digits) {
      era_ = static_cast<std::size_t>(std::strtoull(path_.c_str() + at + 1, nullptr, 10));
      path_.erase(at);
    }
  }
}

const TraceEra& TraceFileFactory::selected(const TraceFile& t) const {
  if (era_ >= t.eras.size()) {
    throw ConfigError("trace '" + path_ + "' holds " + std::to_string(t.eras.size()) +
                      " era section(s); '@" + std::to_string(era_) + "' is out of range");
  }
  return t.eras[era_];
}

const TraceFile& TraceFileFactory::load() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::error_code ec;
  const auto mtime = std::filesystem::last_write_time(path_, ec);
  // Re-read when the file changed under us (record -> replay -> re-record
  // in one process); an unreadable mtime keeps whatever is cached.
  if (!cached_ || (!ec && mtime != mtime_)) {
    cached_ = std::make_shared<const TraceFile>(read_trace_file(path_));
    mtime_ = ec ? std::filesystem::file_time_type{} : mtime;
  }
  return *cached_;
}

noc::FlowSet TraceFileFactory::flows(NocConfig& cfg, double injection) const {
  (void)injection;
  const TraceEra& era = selected(load());
  if (cfg.dims() != era.config.dims()) {
    throw ConfigError("trace '" + path_ + "' was recorded on a " +
                      std::to_string(era.config.width) + "x" +
                      std::to_string(era.config.height) + " mesh; the scenario declares " +
                      std::to_string(cfg.width) + "x" + std::to_string(cfg.height));
  }
  cfg = era.config;
  noc::FlowSet out;
  for (const noc::Flow& f : era.flows) {
    out.add(f.src, f.dst, f.bandwidth_mbps, f.path);
  }
  return out;
}

std::unique_ptr<sim::Workload> TraceFileFactory::source(const NocConfig& cfg,
                                                        const noc::FlowSet& flows,
                                                        std::uint64_t seed) const {
  (void)cfg;
  (void)seed;
  const TraceEra& era = selected(load());
  if (flows.size() != era.flows.size()) {
    // Fault rerouting dropped flows: the remaining ids no longer line up
    // with the recorded entries, so a replay would inject the wrong flows.
    throw ConfigError("trace replay cannot run on a modified flow set (" +
                      std::to_string(flows.size()) + " flows vs " +
                      std::to_string(era.flows.size()) +
                      " recorded; set fault_rate = 0 for replay scenarios)");
  }
  return std::make_unique<sim::ReplayWorkload>(era.entries);
}

}  // namespace smartnoc::telemetry
