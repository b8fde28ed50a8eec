#include "sim/workload.hpp"

#include <map>
#include <mutex>

#include "common/error.hpp"
#include "common/parse.hpp"
#include "mapping/nmap.hpp"
#include "noc/routing.hpp"
#include "telemetry/trace_workload.hpp"

namespace smartnoc::sim {

std::unique_ptr<Workload> WorkloadFactory::source(const NocConfig& cfg,
                                                  const noc::FlowSet& flows,
                                                  std::uint64_t seed) const {
  return std::make_unique<BernoulliWorkload>(cfg, flows, seed);
}

namespace {

/// Synthetic patterns: flows exactly as explore::run_point built them
/// (XY routes at the given flits/node/cycle injection).
class SyntheticFactory final : public WorkloadFactory {
 public:
  explicit SyntheticFactory(noc::SyntheticPattern p) : pattern_(p) {}
  noc::FlowSet flows(NocConfig& cfg, double injection) const override {
    return noc::make_synthetic_flows(cfg, pattern_, injection, noc::TurnModel::XY);
  }

 private:
  noc::SyntheticPattern pattern_;
};

/// SoC task-graph applications: NMAP placement + routing; cfg picks up the
/// mapped config with the paper's bandwidth scale times the injection
/// multiplier (the same sequence explore::run_point hand-wired).
class AppFactory final : public WorkloadFactory {
 public:
  explicit AppFactory(mapping::SocApp app) : app_(app) {}
  noc::FlowSet flows(NocConfig& cfg, double injection) const override {
    mapping::MappedApp mapped = mapping::map_app(app_, cfg);
    cfg = mapped.cfg;
    cfg.bandwidth_scale *= injection;
    return std::move(mapped.flows);
  }

 private:
  mapping::SocApp app_;
};

}  // namespace

struct WorkloadRegistry::Impl {
  struct Entry {
    std::shared_ptr<const WorkloadFactory> factory;
    std::string spelling;
  };
  mutable std::mutex mu;
  std::map<std::string, Entry> entries;
  /// trace:<path> factories, keyed by path, so every Session replaying the
  /// same capture shares one factory (and its decoded-trace cache) instead
  /// of re-reading the file per lookup.
  std::map<std::string, std::shared_ptr<const WorkloadFactory>> traces;

  const Entry* entry(const std::string& name) const {
    const auto it = entries.find(lower_token(name));
    return it != entries.end() ? &it->second : nullptr;
  }
};

WorkloadRegistry::WorkloadRegistry() : impl_(std::make_shared<Impl>()) {
  using SP = noc::SyntheticPattern;
  for (const SP p : {SP::UniformRandom, SP::Transpose, SP::BitComplement, SP::Neighbor,
                     SP::Hotspot}) {
    add(noc::synthetic_name(p), std::make_shared<SyntheticFactory>(p));
  }
  for (const mapping::SocApp a : mapping::kAllApps) {
    add(mapping::app_name(a), std::make_shared<AppFactory>(a));
  }
  const std::pair<const char*, const char*> aliases[] = {{"uniform", "uniform-random"},
                                                         {"bitcomp", "bit-complement"},
                                                         {"mms-dec", "mms_dec"},
                                                         {"mms-enc", "mms_enc"},
                                                         {"mms-mp3", "mms_mp3"}};
  for (const auto& [alias, name] : aliases) impl_->entries[alias] = *impl_->entry(name);
}

WorkloadRegistry& WorkloadRegistry::instance() {
  static WorkloadRegistry reg;
  return reg;
}

void WorkloadRegistry::add(const std::string& name,
                           std::shared_ptr<const WorkloadFactory> factory) {
  SMARTNOC_CHECK(factory != nullptr, "workload factory must not be null");
  std::lock_guard<std::mutex> lock(impl_->mu);
  impl_->entries[lower_token(name)] = {std::move(factory), name};
}

std::string normalize_workload_key(const std::string& name) {
  if (telemetry::is_trace_workload_key(name)) {
    return "trace:" + name.substr(6);
  }
  return lower_token(name);
}

std::shared_ptr<const WorkloadFactory> WorkloadRegistry::find(const std::string& name) const {
  if (telemetry::is_trace_workload_key(name)) {
    const std::string path = telemetry::trace_workload_path(name);
    std::lock_guard<std::mutex> lock(impl_->mu);
    auto& slot = impl_->traces[path];
    if (slot == nullptr) slot = std::make_shared<telemetry::TraceFileFactory>(path);
    return slot;
  }
  std::lock_guard<std::mutex> lock(impl_->mu);
  const Impl::Entry* e = impl_->entry(name);
  return e != nullptr ? e->factory : nullptr;
}

namespace {

[[noreturn]] void throw_unknown(const WorkloadRegistry& reg, const std::string& name) {
  std::string known;
  for (const std::string& n : reg.names()) {
    if (!known.empty()) known += ", ";
    known += n;
  }
  throw ConfigError("unknown workload '" + name + "' (registered: " + known + ")");
}

}  // namespace

std::shared_ptr<const WorkloadFactory> WorkloadRegistry::at(const std::string& name) const {
  auto f = find(name);
  if (f == nullptr) throw_unknown(*this, name);
  return f;
}

std::string WorkloadRegistry::spelling(const std::string& name) const {
  if (telemetry::is_trace_workload_key(name)) {
    telemetry::trace_workload_path(name);  // throws on an empty path
    return normalize_workload_key(name);
  }
  {
    std::lock_guard<std::mutex> lock(impl_->mu);
    if (const Impl::Entry* e = impl_->entry(name)) return e->spelling;
  }
  throw_unknown(*this, name);
}

std::vector<std::string> WorkloadRegistry::names() const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  std::vector<std::string> out;
  out.reserve(impl_->entries.size());
  for (const auto& [k, v] : impl_->entries) out.push_back(k);
  return out;
}

}  // namespace smartnoc::sim
