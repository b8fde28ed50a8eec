#include "explore/sweep.hpp"

#include <algorithm>
#include <iterator>
#include <string_view>
#include <utility>

#include "common/error.hpp"
#include "common/parse.hpp"
#include "noc/fault_engine.hpp"
#include "sim/workload.hpp"

namespace smartnoc::explore {

namespace {

using smartnoc::lower_token;
using smartnoc::trim_token;

/// The axis keys in nesting order, outermost first. It fixes each point's
/// index, and with it its seed and row.
constexpr std::string_view kAxisKeys[] = {
    "mesh", "flit_bits", "hpc", "injection", "workload", "fault_rate", "fault_schedule", "design"};

/// Sweep spellings of keys: the explorer's flag names and older files.
constexpr std::pair<std::string_view, std::string_view> kAliases[] = {
    {"flits", "flit_bits"},      {"hpc_max", "hpc"},
    {"inj", "injection"},        {"pattern", "workload"},
    {"app", "workload"},         {"faults", "fault_rate"},
    {"fault_events", "fault_schedule"},
    {"drain", "drain_timeout"},  {"scenario", "scenario_files"}};

std::size_t axis_rank(std::string_view key) {
  return static_cast<std::size_t>(std::find(std::begin(kAxisKeys), std::end(kAxisKeys), key) -
                                  std::begin(kAxisKeys));
}

std::vector<std::string> split_list(const std::string& s) {
  std::vector<std::string> out;
  for (const std::string& piece : split_token(s, ',')) {
    std::string item = trim_token(piece);
    if (!item.empty()) out.push_back(std::move(item));
  }
  return out;
}

}  // namespace

sim::ScenarioSpec sweep_base() {
  NocConfig cfg = NocConfig::paper_4x4();
  cfg.warmup_cycles = 2'000;
  cfg.measure_cycles = 20'000;
  cfg.drain_timeout = 50'000;
  return sim::ScenarioSpec::classic(Design::Smart, "uniform-random", 0.05, cfg);
}

std::size_t SweepSpec::size() const {
  std::size_t grid = axes.empty() && !scenario_files.empty() ? 0 : 1;
  for (const SweepAxis& a : axes) grid *= a.values.size();
  return grid + scenario_files.size();
}

void SweepSpec::validate() const {
  for (const SweepAxis& a : axes) {
    if (a.values.empty()) throw ConfigError("sweep axis '" + a.key + "' is empty");
  }
  for (const std::string& f : scenario_files) {
    if (f.empty()) throw ConfigError("scenario_files entry is empty");
  }
  if (base.phases.size() != 3) {
    throw ConfigError("a sweep's base scenario runs the classic warmup/measure/drain phases");
  }
  const bool grid = size() > scenario_files.size();
  if (grid && base.config.measure_cycles == 0) {
    throw ConfigError("measure_cycles must be positive");
  }
  if (base.config.shard_threads < 1 || base.config.shard_threads > 256) {
    throw ConfigError("shard_threads must be in [1,256]");
  }
}

std::vector<RunPoint> SweepSpec::expand() const {
  validate();
  std::vector<RunPoint> out(size());
  for (std::size_t i = 0; i < out.size(); ++i) out[i].index = i;
  // Scenario points ride after the grid.
  const std::size_t grid = out.size() - scenario_files.size();
  for (std::size_t k = 0; k < scenario_files.size(); ++k) {
    out[grid + k].scenario_file = scenario_files[k];
  }
  return out;
}

void apply_point_value(sim::ScenarioSpec& sc, const std::string& key, const std::string& value) {
  if (key == "workload") {
    sc.phases.front().workload = value;
  } else if (key == "injection") {
    // 0 would make the classic first phase inherit 1.0.
    sc.phases.front().injection = parse_double_token(value, key);
    if (sc.phases.front().injection <= 0.0) throw ConfigError("injection must be positive");
  } else if (key == "fault_schedule") {
    sc.fault_events = noc::parse_fault_schedule_token(value);
  } else {
    sim::apply_scalar(sc, key, value);
  }
}

// --- Parsing -----------------------------------------------------------------

void apply_sweep_key(SweepSpec& spec, const std::string& key, const std::string& values,
                     bool& workloads_replaced) {
  std::string k = key;
  for (const auto& [alias, name] : kAliases) {
    if (k == alias) k = name;
  }
  std::vector<std::string> items = split_list(values);
  if (items.empty()) throw ConfigError("no values for '" + key + "'");
  if (k == "scenario_files") {
    spec.scenario_files.insert(spec.scenario_files.end(), items.begin(), items.end());
    return;
  }
  const std::size_t rank = axis_rank(k);
  if (rank == std::size(kAxisKeys)) {
    if (items.size() != 1) throw ConfigError("'" + key + "' takes one value");
    if (k == "seed") {
      spec.base_seed = parse_u64_token(items.front(), "seed");
    } else {
      sim::apply_scalar(spec.base, k, items.front());
    }
    return;
  }
  // Each value is checked once here, so resolving a point cannot fail on
  // a malformed token.
  sim::ScenarioSpec scratch = spec.base;
  for (std::string& v : items) {
    if (k == "workload") {
      v = sim::WorkloadRegistry::instance().spelling(v);
    } else {
      apply_point_value(scratch, k, v);
    }
  }
  auto it = std::find_if(spec.axes.begin(), spec.axes.end(),
                         [&](const SweepAxis& a) { return axis_rank(a.key) >= rank; });
  if (it == spec.axes.end() || it->key != k) it = spec.axes.insert(it, SweepAxis{k, {}});
  // The first workload key replaces the axis; later ones append, so one
  // sweep can mix synthetic patterns and SoC apps.
  if (k != "workload" || !workloads_replaced) it->values.clear();
  if (k == "workload") workloads_replaced = true;
  it->values.insert(it->values.end(), items.begin(), items.end());
}

SweepSpec parse_sweep(const std::string& text) {
  SweepSpec spec;
  bool workloads_replaced = false;
  int lineno = 0;
  for (std::string line : split_token(text, '\n')) {
    ++lineno;
    const auto hash = line.find('#');
    if (hash != std::string::npos) line = line.substr(0, hash);
    line = trim_token(line);
    if (line.empty()) continue;
    const auto eq = line.find('=');
    if (eq == std::string::npos) {
      throw ConfigError("sweep line " + std::to_string(lineno) + ": expected 'key = values'");
    }
    try {
      apply_sweep_key(spec, lower_token(trim_token(line.substr(0, eq))), line.substr(eq + 1),
                      workloads_replaced);
    } catch (const ConfigError& e) {
      throw ConfigError("sweep line " + std::to_string(lineno) + ": " + e.what());
    }
  }
  spec.validate();
  return spec;
}

}  // namespace smartnoc::explore
