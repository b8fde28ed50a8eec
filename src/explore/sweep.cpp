#include "explore/sweep.hpp"

#include <algorithm>
#include <cctype>
#include <sstream>

#include "common/error.hpp"
#include "common/parse.hpp"
#include "common/rng.hpp"
#include "noc/fault_engine.hpp"

namespace smartnoc::explore {

std::string Workload::name() const {
  if (kind == Kind::Synthetic) return noc::synthetic_name(pattern);
  return mapping::app_name(app);
}

std::size_t SweepSpec::size() const {
  const std::size_t grid = meshes.size() * flit_bits.size() * hpc_max.size() *
                           injections.size() * workloads.size() * fault_rates.size() *
                           fault_schedules.size() * designs.size();
  return (config_points ? grid : 0) + scenario_files.size();
}

void SweepSpec::validate() const {
  auto nonempty = [](bool ok, const char* axis) {
    if (!ok) throw ConfigError(std::string("sweep axis '") + axis + "' is empty");
  };
  if (!config_points && scenario_files.empty()) {
    throw ConfigError("sweep declares no points (no config axes, no scenario_files)");
  }
  for (const std::string& f : scenario_files) {
    if (f.empty()) throw ConfigError("scenario_files entry is empty");
  }
  if (config_points) {
    nonempty(!meshes.empty(), "mesh");
    nonempty(!flit_bits.empty(), "flit_bits");
    nonempty(!hpc_max.empty(), "hpc_max");
    nonempty(!injections.empty(), "injection");
    nonempty(!workloads.empty(), "workload");
    nonempty(!fault_rates.empty(), "fault_rate");
    nonempty(!fault_schedules.empty(), "fault_schedule");
    nonempty(!designs.empty(), "design");
    for (int f : flit_bits) {
      if (f <= 0) throw ConfigError("flit_bits axis value must be positive");
    }
    for (int h : hpc_max) {
      if (h < 0) throw ConfigError("hpc_max axis value must be >= 0 (0 = derive)");
    }
    for (double i : injections) {
      if (i <= 0.0) throw ConfigError("injection axis value must be positive");
    }
    for (double r : fault_rates) {
      if (r < 0.0 || r >= 1.0) throw ConfigError("fault_rate axis value must be in [0,1)");
    }
    // Grammar check only: link bounds depend on the mesh axis and are
    // validated per point when the scenario resolves.
    for (const std::string& s : fault_schedules) noc::parse_fault_schedule_token(s);
    if (measure_cycles == 0) throw ConfigError("measure_cycles must be positive");
  }
  if (shard_threads < 1 || shard_threads > 256) {
    throw ConfigError("shard_threads must be in [1,256]");
  }
}

std::vector<RunPoint> SweepSpec::expand() const {
  validate();
  std::vector<RunPoint> out;
  out.reserve(size());
  if (config_points)
  for (const MeshDims& mesh : meshes)
    for (int flits : flit_bits)
      for (int hpc : hpc_max)
        for (double inj : injections)
          for (const Workload& wl : workloads)
            for (double faults : fault_rates)
              for (const std::string& sched : fault_schedules)
                for (Design design : designs) {
                  RunPoint pt;
                  pt.index = out.size();
                  pt.mesh = mesh;
                  pt.flit_bits = flits;
                  pt.hpc_max = hpc;
                  pt.injection = inj;
                  pt.workload = wl;
                  pt.fault_rate = faults;
                  pt.fault_schedule = sched;
                  pt.design = design;
                  // Position-derived seed: identical for point i no matter
                  // what thread runs it or what other axes exist.
                  pt.seed =
                      SplitMix64(base_seed ^ (0x9e3779b97f4a7c15ULL * (pt.index + 1))).next();
                  out.push_back(pt);
                }
  // Scenario points ride after the grid. They deliberately keep the
  // scenario's own seed (pt.seed stays 0 here; the record echoes the
  // file's config.seed): the point's identity is the file's content, which
  // is what makes the same scenario cache-hit across different sweeps.
  for (const std::string& file : scenario_files) {
    RunPoint pt;
    pt.index = out.size();
    pt.scenario_file = file;
    out.push_back(pt);
  }
  return out;
}

NocConfig SweepSpec::config_for(const RunPoint& pt) const {
  NocConfig cfg = NocConfig::paper_4x4();
  cfg.width = pt.mesh.width();
  cfg.height = pt.mesh.height();
  cfg.flit_bits = pt.flit_bits;
  cfg.hpc_max_override = pt.hpc_max;
  cfg.seed = pt.seed;
  cfg.warmup_cycles = warmup_cycles;
  cfg.measure_cycles = measure_cycles;
  cfg.drain_timeout = drain_timeout;
  cfg.shard_threads = shard_threads;
  cfg.fit_derived();
  cfg.validate();
  return cfg;
}

// --- Parsing -----------------------------------------------------------------

namespace {

using smartnoc::lower_token;
using smartnoc::trim_token;

std::vector<std::string> split_list(const std::string& s) {
  std::vector<std::string> out;
  std::stringstream ss(s);
  std::string item;
  while (std::getline(ss, item, ',')) {
    item = trim_token(item);
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

}  // namespace

Workload parse_workload(const std::string& token) {
  const std::string t = lower_token(token);
  using SP = noc::SyntheticPattern;
  if (t == "uniform" || t == "uniform-random") return Workload::synthetic(SP::UniformRandom);
  if (t == "transpose") return Workload::synthetic(SP::Transpose);
  if (t == "bit-complement" || t == "bitcomp") return Workload::synthetic(SP::BitComplement);
  if (t == "neighbor") return Workload::synthetic(SP::Neighbor);
  if (t == "hotspot") return Workload::synthetic(SP::Hotspot);
  using SA = mapping::SocApp;
  if (t == "h264") return Workload::soc_app(SA::H264);
  if (t == "mms_dec" || t == "mms-dec") return Workload::soc_app(SA::MMS_DEC);
  if (t == "mms_enc" || t == "mms-enc") return Workload::soc_app(SA::MMS_ENC);
  if (t == "mms_mp3" || t == "mms-mp3") return Workload::soc_app(SA::MMS_MP3);
  if (t == "mwd") return Workload::soc_app(SA::MWD);
  if (t == "vopd") return Workload::soc_app(SA::VOPD);
  if (t == "wlan") return Workload::soc_app(SA::WLAN);
  if (t == "pip") return Workload::soc_app(SA::PIP);
  throw ConfigError("unknown workload '" + token +
                    "' (patterns: uniform, transpose, bit-complement, neighbor, hotspot; "
                    "apps: h264, mms_dec, mms_enc, mms_mp3, mwd, vopd, wlan, pip)");
}

void apply_sweep_key(SweepSpec& spec, const std::string& key, const std::string& values,
                     bool& workloads_replaced) {
  const std::vector<std::string> items = split_list(values);
  if (items.empty()) throw ConfigError("no values for '" + key + "'");
  auto axis = [&](auto& out, auto parse) {
    out.clear();
    for (const auto& s : items) out.push_back(parse(s));
    spec.config_points = true;
  };
  auto single = [&]() -> const std::string& {
    if (items.size() != 1) throw ConfigError("'" + key + "' takes one value");
    return items.front();
  };
  if (key == "mesh") {
    axis(spec.meshes, [](const std::string& s) { return parse_mesh(s); });
  } else if (key == "flit_bits" || key == "flits") {
    axis(spec.flit_bits, [](const std::string& s) { return parse_int_token(s, "flit_bits"); });
  } else if (key == "hpc_max" || key == "hpc") {
    axis(spec.hpc_max, [](const std::string& s) { return parse_int_token(s, "hpc_max"); });
  } else if (key == "injection" || key == "inj") {
    axis(spec.injections, [](const std::string& s) { return parse_double_token(s, "injection"); });
  } else if (key == "pattern" || key == "app" || key == "workload") {
    // The first workload key replaces the axis; later ones append, so one
    // sweep can mix synthetic patterns and SoC apps.
    if (!workloads_replaced) spec.workloads.clear();
    workloads_replaced = true;
    for (const auto& s : items) spec.workloads.push_back(parse_workload(s));
    spec.config_points = true;
  } else if (key == "fault_rate" || key == "faults") {
    axis(spec.fault_rates, [](const std::string& s) { return parse_double_token(s, "fault_rate"); });
  } else if (key == "fault_schedule" || key == "fault_events") {
    axis(spec.fault_schedules, [](const std::string& s) { return s; });
  } else if (key == "design") {
    axis(spec.designs, [](const std::string& s) { return parse_design(s); });
  } else if (key == "scenario_files" || key == "scenario") {
    spec.scenario_files.insert(spec.scenario_files.end(), items.begin(), items.end());
  } else if (key == "seed") {
    spec.base_seed = parse_u64_token(single(), "seed");
  } else if (key == "warmup") {
    spec.warmup_cycles = parse_u64_token(single(), "warmup");
  } else if (key == "measure") {
    spec.measure_cycles = parse_u64_token(single(), "measure");
  } else if (key == "drain_timeout" || key == "drain") {
    spec.drain_timeout = parse_u64_token(single(), "drain_timeout");
  } else if (key == "shard_threads") {
    spec.shard_threads = parse_int_token(single(), "shard_threads");
  } else {
    throw ConfigError("unknown key '" + key + "'");
  }
}

SweepSpec parse_sweep(const std::string& text) {
  SweepSpec spec;
  // Config-axis keys set config_points back; a file that names only
  // scenario_files sweeps exactly those scenarios, without the default
  // 1-point grid riding along.
  spec.config_points = false;
  bool workloads_replaced = false;
  std::stringstream ss(text);
  std::string line;
  int lineno = 0;
  while (std::getline(ss, line)) {
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
  if (spec.scenario_files.empty()) spec.config_points = true;
  spec.validate();
  return spec;
}

}  // namespace smartnoc::explore
