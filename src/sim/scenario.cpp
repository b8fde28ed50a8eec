#include "sim/scenario.hpp"

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <sstream>

#include "common/error.hpp"
#include "common/parse.hpp"
#include "sim/workload.hpp"
#include "telemetry/trace_workload.hpp"

namespace smartnoc::sim {

// --- Spec construction -------------------------------------------------------

ScenarioSpec ScenarioSpec::classic(Design design, const std::string& workload,
                                   double injection, const NocConfig& cfg) {
  ScenarioSpec spec;
  spec.name = "classic";
  spec.design = design;
  spec.config = cfg;
  spec.phases = classic_phases(cfg);
  spec.phases.front().workload = workload;
  spec.phases.front().injection = injection;
  return spec;
}

std::vector<PhaseSpec> classic_phases(const NocConfig& cfg) {
  PhaseSpec warmup;
  warmup.name = "warmup";
  warmup.cycles = cfg.warmup_cycles;
  PhaseSpec measure;
  measure.name = "measure";
  measure.cycles = cfg.measure_cycles;
  measure.measure = true;
  PhaseSpec drain;
  drain.name = "drain";
  drain.drain = true;
  drain.traffic = false;
  // The caller's timeout rides in the phase itself, so a borrowed Session
  // honors the cfg run_simulation was handed (which may differ from the
  // network's build-time config).
  drain.cycles = cfg.drain_timeout;
  return {warmup, measure, drain};
}

void ScenarioSpec::validate() const {
  config.validate();
  if (phases.empty()) throw ConfigError("scenario '" + name + "' declares no phases");
  if (fault_rate < 0.0 || fault_rate > 1.0) {
    throw ConfigError("fault_rate must be in [0,1]");
  }
  if ((!telemetry.csv.empty() || !telemetry.power_csv.empty() || !telemetry.heatmap.empty() ||
       !telemetry.chrome.empty()) &&
      telemetry.epoch_cycles == 0) {
    throw ConfigError("telemetry exports need a sample window: set telemetry_epoch > 0");
  }
  // The line-oriented text form tokenizes on whitespace and strips '#'
  // comments, so such paths cannot survive a serialize -> parse round
  // trip; reject them rather than silently truncating.
  auto check_path = [](const std::string& path, const char* what) {
    if (path.find_first_of(" \t#") != std::string::npos) {
      throw ConfigError(std::string(what) + " path '" + path +
                        "' contains whitespace or '#', which the scenario text form "
                        "cannot represent");
    }
  };
  check_path(telemetry.record_trace, "record_trace");
  check_path(telemetry.csv, "telemetry_csv");
  check_path(telemetry.power_csv, "telemetry_power_csv");
  check_path(telemetry.heatmap, "telemetry_heatmap");
  check_path(telemetry.chrome, "telemetry_chrome");
  for (const noc::FaultEventSpec& ev : fault_events) ev.validate(config.dims());
  if (!fault_events.empty() && design == Design::Dedicated) {
    throw ConfigError("fault events target mesh links and routers; the dedicated design "
                      "has neither (remove fault_event lines or pick mesh/smart)");
  }
  std::string wl;
  for (std::size_t i = 0; i < phases.size(); ++i) {
    const PhaseSpec& ph = phases[i];
    const std::string ctx = "phase " + std::to_string(i) + " ('" + ph.name + "')";
    if (ph.name.empty()) throw ConfigError("phase " + std::to_string(i) + " has no name");
    if (ph.drain && ph.traffic) {
      throw ConfigError(ctx + ": drain phases run with traffic off (add no-traffic)");
    }
    if (!ph.workload.empty()) {
      if (ph.workload.find_first_of(" \t#") != std::string::npos) {
        throw ConfigError(ctx + ": workload key '" + ph.workload +
                          "' contains whitespace or '#', which the scenario text form "
                          "cannot represent");
      }
      wl = ph.workload;
    }
    if (ph.injection < 0.0) throw ConfigError(ctx + ": injection must be >= 0");
    // Negative = the -1.0 inherit sentinel only (an arbitrary negative is
    // a typo that would silently inherit, and would not survive the
    // serialize round trip).
    if (ph.fault_rate > 1.0 || (ph.fault_rate < 0.0 && ph.fault_rate != -1.0)) {
      throw ConfigError(ctx + ": fault rate must be in [0,1] (or -1 = inherit)");
    }
    if (wl.empty()) {
      throw ConfigError(ctx + ": no workload named yet (the first phase must name one)");
    }
    // Trace replay runs a recorded injection log on the recorded routes and
    // presets; any fault interference voids the bit-identical-replay
    // contract. Reject at declaration time, not mid-run from switch_era.
    if (telemetry::is_trace_workload_key(wl)) {
      const double eff_fault = ph.fault_rate >= 0.0 ? ph.fault_rate : fault_rate;
      if (eff_fault > 0.0) {
        throw ConfigError(ctx + ": trace replay cannot run under link faults (effective "
                          "fault rate " + std::to_string(eff_fault) + "); set fault = 0 for '" +
                          wl + "'");
      }
      if (!fault_events.empty()) {
        throw ConfigError(ctx + ": trace replay cannot run with online fault events ('" +
                          wl + "' replays a capture; remove the fault_event lines)");
      }
    }
  }
}

// --- Shared token parsing ----------------------------------------------------

namespace {

using smartnoc::lower_token;
using smartnoc::trim_token;

Design parse_design_token(const std::string& tok) {
  const std::string t = lower_token(tok);
  if (t == "mesh" || t == "baseline") return Design::Mesh;
  if (t == "smart") return Design::Smart;
  if (t == "dedicated") return Design::Dedicated;
  throw ConfigError("unknown design '" + tok + "' (mesh, smart, dedicated)");
}

RoutingPolicy parse_routing_token(const std::string& tok) {
  const std::string t = lower_token(tok);
  if (t == "xy") return RoutingPolicy::XY;
  if (t == "west-first" || t == "westfirst") return RoutingPolicy::WestFirst;
  throw ConfigError("unknown routing policy '" + tok + "' (xy, west-first)");
}

void parse_mesh_token(const std::string& tok, NocConfig& cfg) {
  const auto x = tok.find('x');
  if (x == std::string::npos) throw ConfigError("mesh: expected WxH, got '" + tok + "'");
  cfg.width = parse_int_token(tok.substr(0, x), "mesh width");
  cfg.height = parse_int_token(tok.substr(x + 1), "mesh height");
}

std::string fmt_double(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

const char* routing_name(RoutingPolicy p) {
  return p == RoutingPolicy::XY ? "xy" : "west-first";
}

/// Applies one scenario-level `key = value` assignment (shared by the text
/// and JSON front-ends so both dialects accept exactly the same keys).
void apply_scalar(ScenarioSpec& spec, const std::string& key, const std::string& value) {
  NocConfig& cfg = spec.config;
  if (key == "name") spec.name = value;
  else if (key == "design") spec.design = parse_design_token(value);
  else if (key == "mesh") parse_mesh_token(value, cfg);
  else if (key == "flit_bits") cfg.flit_bits = parse_int_token(value, "flit_bits");
  else if (key == "packet_bits") cfg.packet_bits = parse_int_token(value, "packet_bits");
  else if (key == "vcs") cfg.vcs_per_port = parse_int_token(value, "vcs");
  else if (key == "vc_depth") cfg.vc_depth_flits = parse_int_token(value, "vc_depth");
  else if (key == "freq_ghz") cfg.freq_ghz = parse_double_token(value, "freq_ghz");
  else if (key == "hop_mm") cfg.hop_mm = parse_double_token(value, "hop_mm");
  else if (key == "hpc") cfg.hpc_max_override = parse_int_token(value, "hpc");
  else if (key == "routing") cfg.routing = parse_routing_token(value);
  else if (key == "seed") cfg.seed = parse_u64_token(value, "seed");
  else if (key == "warmup") cfg.warmup_cycles = parse_u64_token(value, "warmup");
  else if (key == "measure") cfg.measure_cycles = parse_u64_token(value, "measure");
  else if (key == "drain_timeout") cfg.drain_timeout = parse_u64_token(value, "drain_timeout");
  else if (key == "bandwidth_scale") cfg.bandwidth_scale = parse_double_token(value, "bandwidth_scale");
  else if (key == "fault_rate") spec.fault_rate = parse_double_token(value, "fault_rate");
  else if (key == "watchdog") cfg.watchdog_window = parse_u64_token(value, "watchdog");
  else if (key == "retry_limit") cfg.retry_limit = parse_int_token(value, "retry_limit");
  else if (key == "retry_backoff")
    cfg.retry_backoff_cycles = parse_u64_token(value, "retry_backoff");
  else if (key == "shard_threads") cfg.shard_threads = parse_int_token(value, "shard_threads");
  else if (key == "single_config_core")
    spec.single_config_core = parse_bool_token(value, "single_config_core");
  else if (key == "store_issue") spec.store_issue_cycles = parse_u64_token(value, "store_issue");
  // Retired test-only switches: the reference kernel and the per-cycle
  // Bernoulli stream are oracles reached through MeshNetwork and
  // TrafficEngine. Scenarios saved before the retirement carry both keys at
  // their defaults, which still parse; any other value is refused.
  else if (key == "reference_kernel") {
    if (parse_bool_token(value, "reference_kernel")) {
      throw ConfigError("scenario key 'reference_kernel' is retired; only 'false' is accepted");
    }
  } else if (key == "traffic_mode") {
    if (lower_token(value) != "gap-skip") {
      throw ConfigError("scenario key 'traffic_mode' is retired; only 'gap-skip' is accepted");
    }
  }
  else if (key == "telemetry_epoch")
    spec.telemetry.epoch_cycles = parse_u64_token(value, "telemetry_epoch");
  else if (key == "record_trace") spec.telemetry.record_trace = value;
  else if (key == "telemetry_csv") spec.telemetry.csv = value;
  else if (key == "telemetry_power_csv") spec.telemetry.power_csv = value;
  else if (key == "telemetry_heatmap") spec.telemetry.heatmap = value;
  else if (key == "telemetry_chrome") spec.telemetry.chrome = value;
  else if (key == "telemetry_chrome_events")
    spec.telemetry.chrome_events = parse_u64_token(value, "telemetry_chrome_events");
  else throw ConfigError("unknown scenario key '" + key + "'");
}

}  // namespace

// --- Text form ---------------------------------------------------------------

std::string serialize_scenario_text(const ScenarioSpec& spec) {
  const NocConfig& cfg = spec.config;
  std::ostringstream out;
  out << "# smartnoc scenario\n";
  out << "name = " << spec.name << "\n";
  out << "design = " << lower_token(design_name(spec.design)) << "\n";
  out << "mesh = " << cfg.width << "x" << cfg.height << "\n";
  out << "flit_bits = " << cfg.flit_bits << "\n";
  out << "packet_bits = " << cfg.packet_bits << "\n";
  out << "vcs = " << cfg.vcs_per_port << "\n";
  out << "vc_depth = " << cfg.vc_depth_flits << "\n";
  out << "freq_ghz = " << fmt_double(cfg.freq_ghz) << "\n";
  out << "hop_mm = " << fmt_double(cfg.hop_mm) << "\n";
  out << "hpc = " << cfg.hpc_max_override << "\n";
  out << "routing = " << routing_name(cfg.routing) << "\n";
  out << "seed = " << cfg.seed << "\n";
  out << "warmup = " << cfg.warmup_cycles << "\n";
  out << "measure = " << cfg.measure_cycles << "\n";
  out << "drain_timeout = " << cfg.drain_timeout << "\n";
  out << "bandwidth_scale = " << fmt_double(cfg.bandwidth_scale) << "\n";
  out << "fault_rate = " << fmt_double(spec.fault_rate) << "\n";
  out << "single_config_core = " << (spec.single_config_core ? "true" : "false") << "\n";
  out << "store_issue = " << spec.store_issue_cycles << "\n";
  // Fault-robustness knobs serialize only when set, so pre-fault scenario
  // files round-trip byte-for-byte.
  if (cfg.watchdog_window != NocConfig{}.watchdog_window) {
    out << "watchdog = " << cfg.watchdog_window << "\n";
  }
  if (cfg.retry_limit != NocConfig{}.retry_limit) {
    out << "retry_limit = " << cfg.retry_limit << "\n";
  }
  if (cfg.retry_backoff_cycles != NocConfig{}.retry_backoff_cycles) {
    out << "retry_backoff = " << cfg.retry_backoff_cycles << "\n";
  }
  // Like the fault knobs: only when set, so pre-sharding files round-trip.
  if (cfg.shard_threads != NocConfig{}.shard_threads) {
    out << "shard_threads = " << cfg.shard_threads << "\n";
  }
  // The telemetry block serializes only when configured, so pre-telemetry
  // scenario files round-trip byte-for-byte.
  const TelemetrySpec& tel = spec.telemetry;
  if (tel.epoch_cycles > 0) out << "telemetry_epoch = " << tel.epoch_cycles << "\n";
  if (!tel.record_trace.empty()) out << "record_trace = " << tel.record_trace << "\n";
  if (!tel.csv.empty()) out << "telemetry_csv = " << tel.csv << "\n";
  if (!tel.power_csv.empty()) out << "telemetry_power_csv = " << tel.power_csv << "\n";
  if (!tel.heatmap.empty()) out << "telemetry_heatmap = " << tel.heatmap << "\n";
  if (!tel.chrome.empty()) out << "telemetry_chrome = " << tel.chrome << "\n";
  if (tel.chrome_events != TelemetrySpec{}.chrome_events) {
    out << "telemetry_chrome_events = " << tel.chrome_events << "\n";
  }
  for (const noc::FaultEventSpec& ev : spec.fault_events) {
    out << "fault_event " << noc::format_fault_schedule_token({ev}) << "\n";
  }
  for (const PhaseSpec& ph : spec.phases) {
    out << "phase " << ph.name;
    if (!ph.workload.empty()) out << " workload=" << ph.workload;
    if (ph.injection > 0.0) out << " injection=" << fmt_double(ph.injection);
    if (ph.cycles > 0) out << " cycles=" << ph.cycles;
    if (ph.fault_rate >= 0.0) out << " fault=" << fmt_double(ph.fault_rate);
    if (ph.measure) out << " measure";
    if (!ph.traffic) out << " no-traffic";
    if (ph.drain) out << " drain";
    if (ph.reconfigure) out << " reconfigure";
    out << "\n";
  }
  return out.str();
}

namespace {

PhaseSpec parse_phase_line(const std::string& rest, int line_no) {
  std::istringstream ss(rest);
  std::string tok;
  PhaseSpec ph;
  if (!(ss >> tok)) {
    throw ConfigError("line " + std::to_string(line_no) + ": phase needs a name");
  }
  ph.name = tok;
  const std::string ctx = "line " + std::to_string(line_no) + " (phase '" + ph.name + "')";
  while (ss >> tok) {
    const auto eq = tok.find('=');
    if (eq != std::string::npos) {
      const std::string key = lower_token(tok.substr(0, eq));
      const std::string value = tok.substr(eq + 1);
      if (key == "workload") ph.workload = normalize_workload_key(value);
      else if (key == "injection") ph.injection = parse_double_token(value, ctx + " injection");
      else if (key == "cycles") ph.cycles = parse_u64_token(value, ctx + " cycles");
      else if (key == "fault") {
        ph.fault_rate = parse_double_token(value, ctx + " fault");
        if (ph.fault_rate < 0.0) {
          throw ConfigError(ctx + ": fault rate must be in [0,1] (omit the key to inherit)");
        }
      }
      else throw ConfigError(ctx + ": unknown phase key '" + key + "'");
    } else {
      const std::string flag = lower_token(tok);
      if (flag == "measure") ph.measure = true;
      else if (flag == "drain") { ph.drain = true; ph.traffic = false; }
      else if (flag == "no-traffic") ph.traffic = false;
      else if (flag == "reconfigure") ph.reconfigure = true;
      else throw ConfigError(ctx + ": unknown phase flag '" + flag + "'");
    }
  }
  return ph;
}

ScenarioSpec parse_scenario_text(const std::string& text) {
  ScenarioSpec spec;
  spec.config = NocConfig::paper_4x4();
  std::istringstream ss(text);
  std::string raw;
  int line_no = 0;
  while (std::getline(ss, raw)) {
    ++line_no;
    const auto hash = raw.find('#');
    if (hash != std::string::npos) raw = raw.substr(0, hash);
    const std::string line = trim_token(raw);
    if (line.empty()) continue;
    if (line.rfind("phase", 0) == 0 &&
        (line.size() == 5 || std::isspace(static_cast<unsigned char>(line[5])))) {
      spec.phases.push_back(parse_phase_line(line.substr(5), line_no));
      continue;
    }
    if (line.rfind("fault_event", 0) == 0 &&
        (line.size() == 11 || std::isspace(static_cast<unsigned char>(line[11])))) {
      try {
        const auto evs = noc::parse_fault_schedule_token(trim_token(line.substr(11)));
        spec.fault_events.insert(spec.fault_events.end(), evs.begin(), evs.end());
      } catch (const ConfigError& e) {
        throw ConfigError("line " + std::to_string(line_no) + ": " + e.what());
      }
      continue;
    }
    const auto eq = line.find('=');
    if (eq == std::string::npos) {
      throw ConfigError("line " + std::to_string(line_no) +
                        ": expected 'key = value' or 'phase ...', got '" + line + "'");
    }
    try {
      apply_scalar(spec, lower_token(trim_token(line.substr(0, eq))), trim_token(line.substr(eq + 1)));
    } catch (const ConfigError& e) {
      throw ConfigError("line " + std::to_string(line_no) + ": " + e.what());
    }
  }
  spec.config.fit_derived();
  spec.validate();
  return spec;
}

}  // namespace

// --- JSON form ---------------------------------------------------------------

namespace {

/// A minimal JSON reader covering the scenario grammar: objects, arrays,
/// strings (with \" \\ \/ \b \f \n \r \t escapes), numbers, booleans and
/// null. Numbers keep their raw spelling so 64-bit seeds survive.
struct JsonValue {
  enum class Kind { Null, Bool, Number, String, Array, Object } kind = Kind::Null;
  bool b = false;
  std::string text;  ///< string value, or the raw spelling of a number
  std::vector<JsonValue> arr;
  std::vector<std::pair<std::string, JsonValue>> obj;

  const JsonValue* get(const std::string& key) const {
    for (const auto& [k, v] : obj) {
      if (k == key) return &v;
    }
    return nullptr;
  }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& s) : s_(s) {}

  JsonValue parse() {
    JsonValue v = value();
    skip_ws();
    if (pos_ != s_.size()) fail("trailing garbage after JSON document");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& msg) const {
    throw ConfigError("scenario JSON, offset " + std::to_string(pos_) + ": " + msg);
  }
  void skip_ws() {
    while (pos_ < s_.size() && std::isspace(static_cast<unsigned char>(s_[pos_]))) ++pos_;
  }
  char peek() {
    if (pos_ >= s_.size()) fail("unexpected end of input");
    return s_[pos_];
  }
  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "', got '" + peek() + "'");
    ++pos_;
  }

  JsonValue value() {
    skip_ws();
    const char c = peek();
    if (c == '{') return object();
    if (c == '[') return array();
    if (c == '"') {
      JsonValue v;
      v.kind = JsonValue::Kind::String;
      v.text = string();
      return v;
    }
    if (s_.compare(pos_, 4, "true") == 0) {
      pos_ += 4;
      JsonValue v;
      v.kind = JsonValue::Kind::Bool;
      v.b = true;
      return v;
    }
    if (s_.compare(pos_, 5, "false") == 0) {
      pos_ += 5;
      JsonValue v;
      v.kind = JsonValue::Kind::Bool;
      return v;
    }
    if (s_.compare(pos_, 4, "null") == 0) {
      pos_ += 4;
      return JsonValue{};
    }
    return number();
  }

  JsonValue object() {
    expect('{');
    JsonValue v;
    v.kind = JsonValue::Kind::Object;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    while (true) {
      skip_ws();
      std::string key = string();
      skip_ws();
      expect(':');
      v.obj.emplace_back(std::move(key), value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return v;
    }
  }

  JsonValue array() {
    expect('[');
    JsonValue v;
    v.kind = JsonValue::Kind::Array;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    while (true) {
      v.arr.push_back(value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return v;
    }
  }

  std::string string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= s_.size()) fail("unterminated string");
      const char c = s_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= s_.size()) fail("unterminated escape");
      const char e = s_[pos_++];
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (pos_ + 4 > s_.size()) fail("truncated \\u escape");
          int code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = s_[pos_++];
            if (!std::isxdigit(static_cast<unsigned char>(h))) fail("malformed \\u escape");
            code = code * 16 + (std::isdigit(static_cast<unsigned char>(h))
                                    ? h - '0'
                                    : std::tolower(static_cast<unsigned char>(h)) - 'a' + 10);
          }
          // Only the Latin-1 range survives as a single byte (our emitter
          // writes \u only for control characters, all below 0x20).
          if (code > 0xFF) fail("\\u escape beyond \\u00ff is not supported");
          out += static_cast<char>(code);
          break;
        }
        default: fail(std::string("unsupported escape '\\") + e + "'");
      }
    }
  }

  JsonValue number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) || s_[pos_] == '.' ||
            s_[pos_] == 'e' || s_[pos_] == 'E' || s_[pos_] == '+' || s_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) fail("expected a value");
    JsonValue v;
    v.kind = JsonValue::Kind::Number;
    v.text = s_.substr(start, pos_ - start);
    return v;
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

/// Scalar JSON fields are routed through the same apply_scalar as the text
/// form: numbers/bools re-use their raw spelling as the token.
std::string scalar_token(const JsonValue& v, const std::string& key) {
  switch (v.kind) {
    case JsonValue::Kind::String: return v.text;
    case JsonValue::Kind::Number: return v.text;
    case JsonValue::Kind::Bool: return v.b ? "true" : "false";
    default: throw ConfigError("scenario JSON: key '" + key + "' must be a scalar");
  }
}

ScenarioSpec parse_scenario_json(const std::string& text) {
  const JsonValue root = JsonParser(text).parse();
  if (root.kind != JsonValue::Kind::Object) {
    throw ConfigError("scenario JSON: top level must be an object");
  }
  ScenarioSpec spec;
  spec.config = NocConfig::paper_4x4();
  for (const auto& [key, v] : root.obj) {
    if (key == "phases") {
      if (v.kind != JsonValue::Kind::Array) {
        throw ConfigError("scenario JSON: 'phases' must be an array");
      }
      for (const JsonValue& p : v.arr) {
        if (p.kind != JsonValue::Kind::Object) {
          throw ConfigError("scenario JSON: each phase must be an object");
        }
        PhaseSpec ph;
        for (const auto& [pk, pv] : p.obj) {
          if (pk == "name") ph.name = scalar_token(pv, pk);
          else if (pk == "workload") ph.workload = normalize_workload_key(scalar_token(pv, pk));
          else if (pk == "injection") ph.injection = parse_double_token(scalar_token(pv, pk), pk);
          else if (pk == "cycles") ph.cycles = parse_u64_token(scalar_token(pv, pk), pk);
          else if (pk == "fault_rate") {
            ph.fault_rate = parse_double_token(scalar_token(pv, pk), pk);
            if (ph.fault_rate < 0.0) {
              throw ConfigError(
                  "scenario JSON: phase fault_rate must be in [0,1] (omit to inherit)");
            }
          }
          else if (pk == "measure") ph.measure = parse_bool_token(scalar_token(pv, pk), pk);
          else if (pk == "traffic") ph.traffic = parse_bool_token(scalar_token(pv, pk), pk);
          else if (pk == "drain") ph.drain = parse_bool_token(scalar_token(pv, pk), pk);
          else if (pk == "reconfigure")
            ph.reconfigure = parse_bool_token(scalar_token(pv, pk), pk);
          else throw ConfigError("scenario JSON: unknown phase key '" + pk + "'");
        }
        if (ph.drain) ph.traffic = false;
        spec.phases.push_back(std::move(ph));
      }
      continue;
    }
    if (key == "fault_events") {
      if (v.kind != JsonValue::Kind::Array) {
        throw ConfigError("scenario JSON: 'fault_events' must be an array of schedule tokens");
      }
      for (const JsonValue& t : v.arr) {
        if (t.kind != JsonValue::Kind::String) {
          throw ConfigError("scenario JSON: each fault event must be a token string");
        }
        const auto evs = noc::parse_fault_schedule_token(t.text);
        spec.fault_events.insert(spec.fault_events.end(), evs.begin(), evs.end());
      }
      continue;
    }
    apply_scalar(spec, key, scalar_token(v, key));
  }
  spec.config.fit_derived();
  spec.validate();
  return spec;
}

}  // namespace

std::string serialize_scenario_json(const ScenarioSpec& spec) {
  const NocConfig& cfg = spec.config;
  std::ostringstream out;
  out << "{\n";
  out << "  \"name\": \"" << json_escape(spec.name) << "\",\n";
  out << "  \"design\": \"" << lower_token(design_name(spec.design)) << "\",\n";
  out << "  \"mesh\": \"" << cfg.width << "x" << cfg.height << "\",\n";
  out << "  \"flit_bits\": " << cfg.flit_bits << ",\n";
  out << "  \"packet_bits\": " << cfg.packet_bits << ",\n";
  out << "  \"vcs\": " << cfg.vcs_per_port << ",\n";
  out << "  \"vc_depth\": " << cfg.vc_depth_flits << ",\n";
  out << "  \"freq_ghz\": " << fmt_double(cfg.freq_ghz) << ",\n";
  out << "  \"hop_mm\": " << fmt_double(cfg.hop_mm) << ",\n";
  out << "  \"hpc\": " << cfg.hpc_max_override << ",\n";
  out << "  \"routing\": \"" << routing_name(cfg.routing) << "\",\n";
  out << "  \"seed\": " << cfg.seed << ",\n";
  out << "  \"warmup\": " << cfg.warmup_cycles << ",\n";
  out << "  \"measure\": " << cfg.measure_cycles << ",\n";
  out << "  \"drain_timeout\": " << cfg.drain_timeout << ",\n";
  out << "  \"bandwidth_scale\": " << fmt_double(cfg.bandwidth_scale) << ",\n";
  out << "  \"fault_rate\": " << fmt_double(spec.fault_rate) << ",\n";
  out << "  \"single_config_core\": " << (spec.single_config_core ? "true" : "false") << ",\n";
  out << "  \"store_issue\": " << spec.store_issue_cycles << ",\n";
  if (cfg.watchdog_window != NocConfig{}.watchdog_window) {
    out << "  \"watchdog\": " << cfg.watchdog_window << ",\n";
  }
  if (cfg.retry_limit != NocConfig{}.retry_limit) {
    out << "  \"retry_limit\": " << cfg.retry_limit << ",\n";
  }
  if (cfg.retry_backoff_cycles != NocConfig{}.retry_backoff_cycles) {
    out << "  \"retry_backoff\": " << cfg.retry_backoff_cycles << ",\n";
  }
  if (cfg.shard_threads != NocConfig{}.shard_threads) {
    out << "  \"shard_threads\": " << cfg.shard_threads << ",\n";
  }
  const TelemetrySpec& tel = spec.telemetry;
  if (tel.epoch_cycles > 0) out << "  \"telemetry_epoch\": " << tel.epoch_cycles << ",\n";
  if (!tel.record_trace.empty()) {
    out << "  \"record_trace\": \"" << json_escape(tel.record_trace) << "\",\n";
  }
  if (!tel.csv.empty()) out << "  \"telemetry_csv\": \"" << json_escape(tel.csv) << "\",\n";
  if (!tel.power_csv.empty()) {
    out << "  \"telemetry_power_csv\": \"" << json_escape(tel.power_csv) << "\",\n";
  }
  if (!tel.heatmap.empty()) {
    out << "  \"telemetry_heatmap\": \"" << json_escape(tel.heatmap) << "\",\n";
  }
  if (!tel.chrome.empty()) {
    out << "  \"telemetry_chrome\": \"" << json_escape(tel.chrome) << "\",\n";
  }
  if (tel.chrome_events != TelemetrySpec{}.chrome_events) {
    out << "  \"telemetry_chrome_events\": " << tel.chrome_events << ",\n";
  }
  if (!spec.fault_events.empty()) {
    out << "  \"fault_events\": [";
    for (std::size_t i = 0; i < spec.fault_events.size(); ++i) {
      out << (i > 0 ? ", " : "") << "\""
          << noc::format_fault_schedule_token({spec.fault_events[i]}) << "\"";
    }
    out << "],\n";
  }
  out << "  \"phases\": [\n";
  for (std::size_t i = 0; i < spec.phases.size(); ++i) {
    const PhaseSpec& ph = spec.phases[i];
    out << "    {\"name\": \"" << json_escape(ph.name) << "\"";
    if (!ph.workload.empty()) out << ", \"workload\": \"" << json_escape(ph.workload) << "\"";
    if (ph.injection > 0.0) out << ", \"injection\": " << fmt_double(ph.injection);
    if (ph.cycles > 0) out << ", \"cycles\": " << ph.cycles;
    if (ph.fault_rate >= 0.0) out << ", \"fault_rate\": " << fmt_double(ph.fault_rate);
    if (ph.measure) out << ", \"measure\": true";
    if (!ph.traffic && !ph.drain) out << ", \"traffic\": false";
    if (ph.drain) out << ", \"drain\": true";
    if (ph.reconfigure) out << ", \"reconfigure\": true";
    out << "}" << (i + 1 < spec.phases.size() ? "," : "") << "\n";
  }
  out << "  ]\n";
  out << "}\n";
  return out.str();
}

ScenarioSpec parse_scenario(const std::string& text) {
  for (char c : text) {
    if (std::isspace(static_cast<unsigned char>(c))) continue;
    if (c == '{') return parse_scenario_json(text);
    break;
  }
  return parse_scenario_text(text);
}

}  // namespace smartnoc::sim
