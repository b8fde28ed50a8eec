#include "sim/scenario.hpp"

#include <cctype>
#include <optional>
#include <sstream>
#include <type_traits>

#include "common/error.hpp"
#include "common/json.hpp"
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
  // The line-oriented text form strips '#' comments, reads one line per key,
  // trims values and splits phase lines on whitespace, so such strings
  // cannot survive a serialize -> parse round trip; reject them rather than
  // silently truncating.
  auto representable = [](const std::string& s, const char* banned, const std::string& what) {
    if (s.find_first_of(banned) != std::string::npos) {
      throw ConfigError(what + " '" + s + "' contains whitespace or '#', which the scenario "
                        "text form cannot represent");
    }
  };
  const char* kAnySpace = " \t\n\r\f\v#";
  representable(name, "#\n\r", "scenario name");
  if (name != trim_token(name)) {
    throw ConfigError("scenario name '" + name + "' has leading or trailing whitespace, which "
                      "the scenario text form cannot represent");
  }
  representable(telemetry.record_trace, kAnySpace, "record_trace path");
  representable(telemetry.csv, kAnySpace, "telemetry_csv path");
  representable(telemetry.power_csv, kAnySpace, "telemetry_power_csv path");
  representable(telemetry.heatmap, kAnySpace, "telemetry_heatmap path");
  representable(telemetry.chrome, kAnySpace, "telemetry_chrome path");
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
    representable(ph.name, kAnySpace, ctx + ": phase name");
    if (ph.drain && ph.traffic) {
      throw ConfigError(ctx + ": drain phases run with traffic off (add no-traffic)");
    }
    if (!ph.workload.empty()) {
      representable(ph.workload, kAnySpace, ctx + ": workload key");
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

// --- Shared field codecs -----------------------------------------------------

namespace {

using smartnoc::lower_token;
using smartnoc::trim_token;

const ScenarioSpec kDefaultSpec;
const PhaseSpec kDefaultPhase;

template <class T>
constexpr bool is_bool_v = std::is_same_v<std::decay_t<T>, bool>;

}  // namespace

// Shared by the text and JSON front-ends and by sweeps, so all of them
// accept exactly the same keys.
void apply_scalar(ScenarioSpec& spec, const std::string& key, const std::string& value) {
  // Retired test-only switches: the full-scan kernel and the per-cycle
  // Bernoulli stream are test oracles now (tests/full_scan_kernel.hpp,
  // test_traffic_gap). Scenarios saved before the retirement carry both
  // keys at their defaults, which still parse; any other value is refused.
  if (key == "reference_kernel") {
    if (parse_bool_token(value, "reference_kernel")) {
      throw ConfigError("scenario key 'reference_kernel' is retired; only 'false' is accepted");
    }
    return;
  }
  if (key == "traffic_mode") {
    if (lower_token(value) != "gap-skip") {
      throw ConfigError("scenario key 'traffic_mode' is retired; only 'gap-skip' is accepted");
    }
    return;
  }
  bool found = false;
  for_each_field(
      [&](const FieldMeta& m, auto&& v) {
        if (found || m.key.empty() || m.key != key) return;
        parse_token(value, v, key);
        found = true;
      },
      spec);
  if (!found) throw ConfigError("unknown scenario key '" + key + "'");
}

void set_telemetry_outputs(TelemetrySpec& t, const std::string& prefix,
                           const std::string& trace_prefix, Cycle epoch) {
  if (epoch != 0) t.epoch_cycles = epoch;
  if (!prefix.empty()) {
    if (t.epoch_cycles == 0) t.epoch_cycles = 1'024;
    t.csv = prefix + ".csv";
    t.power_csv = prefix + "_power.csv";
    t.heatmap = prefix + "_heatmap.csv";
  }
  if (!trace_prefix.empty()) t.record_trace = trace_prefix + ".sntr";
}

namespace {

/// Sets the phase row a text token (`json` false: by key) or a JSON member
/// (by member name) names. Returns false when no row matches.
bool apply_phase_value(PhaseSpec& ph, std::string_view name, const std::string& value, bool json,
                       const std::string& ctx) {
  bool found = false;
  for_each_phase_field(
      [&](const FieldMeta& m, auto&& v) {
        if (found || (json ? m.member : m.key) != name || (!json && is_bool_v<decltype(v)>)) {
          return;
        }
        parse_token(value, v, ctx + std::string(name));
        found = true;
      },
      ph);
  return found;
}

/// What both phase front-ends finish with: workload keys in canonical
/// spelling, and no traffic during a drain.
void finish_phase(PhaseSpec& ph) {
  ph.workload = normalize_workload_key(ph.workload);
  if (ph.drain) ph.traffic = false;
}

}  // namespace

// --- Text form ---------------------------------------------------------------

std::string serialize_scenario_text(const ScenarioSpec& spec) {
  std::ostringstream out;
  out << "# smartnoc scenario\n";
  // Rows written only when set keep files saved before their knob existed
  // round-tripping byte for byte.
  for_each_field(
      [&](const FieldMeta& m, const auto& v, const auto& d) {
        if (m.key.empty() || (m.omit_default && v == d)) return;
        out << m.key << " = " << format_token(v) << "\n";
      },
      spec, kDefaultSpec);
  for (const noc::FaultEventSpec& ev : spec.fault_events) {
    out << "fault_event " << noc::format_fault_schedule_token({ev}) << "\n";
  }
  for (const PhaseSpec& ph : spec.phases) {
    out << "phase " << ph.name;
    for_each_phase_field(
        [&](const FieldMeta& m, const auto& v, const auto& d) {
          if (!m.omit_default || v == d) return;
          if constexpr (is_bool_v<decltype(v)>) {
            out << ' ' << (d ? "no-" : "") << m.key;
          } else {
            out << ' ' << m.key << '=' << format_token(v);
          }
        },
        ph, kDefaultPhase);
    out << "\n";
  }
  return out.str();
}

namespace {

PhaseSpec parse_phase_line(const std::string& rest) {
  std::istringstream ss(rest);
  std::string tok;
  PhaseSpec ph;
  if (!(ss >> tok)) throw ConfigError("phase needs a name");
  ph.name = tok;
  const std::string ctx = "phase '" + ph.name + "'";
  while (ss >> tok) {
    const auto eq = tok.find('=');
    if (eq != std::string::npos) {
      const std::string key = lower_token(tok.substr(0, eq));
      if (!apply_phase_value(ph, key, tok.substr(eq + 1), false, ctx + " ")) {
        throw ConfigError(ctx + ": unknown phase key '" + key + "'");
      }
      continue;
    }
    // A bare flag sets a bool row to the value its default is not.
    const std::string flag = lower_token(tok);
    bool found = false;
    for_each_phase_field(
        [&](const FieldMeta& m, auto& v, const auto& d) {
          if constexpr (is_bool_v<decltype(v)>) {
            if (!found && flag == (d ? "no-" : "") + std::string(m.key)) {
              v = !d;
              found = true;
            }
          }
        },
        ph, kDefaultPhase);
    if (!found) throw ConfigError(ctx + ": unknown phase flag '" + flag + "'");
  }
  finish_phase(ph);
  return ph;
}

/// The text after `word` when `line` starts with it as a whole word.
std::optional<std::string> after_word(const std::string& line, std::string_view word) {
  if (line.rfind(word, 0) != 0) return std::nullopt;
  if (line.size() > word.size() && !std::isspace(static_cast<unsigned char>(line[word.size()]))) {
    return std::nullopt;
  }
  return line.substr(word.size());
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
    try {
      if (const auto rest = after_word(line, "phase")) {
        spec.phases.push_back(parse_phase_line(*rest));
      } else if (const auto token = after_word(line, "fault_event")) {
        const auto evs = noc::parse_fault_schedule_token(trim_token(*token));
        spec.fault_events.insert(spec.fault_events.end(), evs.begin(), evs.end());
      } else if (const auto eq = line.find('='); eq != std::string::npos) {
        apply_scalar(spec, lower_token(trim_token(line.substr(0, eq))),
                     trim_token(line.substr(eq + 1)));
      } else {
        throw ConfigError("expected 'key = value' or 'phase ...', got '" + line + "'");
      }
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

ScenarioSpec parse_scenario_json(const std::string& text) {
  JsonReader rd(text, "scenario");
  // Scalars reach apply_scalar / apply_phase_value as the text form's
  // tokens: a string's decoded text, a number's or boolean's raw spelling.
  std::string token;
  const auto scalar = [&](std::string_view key) -> const std::string& {
    const char c = rd.peek();
    if (c == '"') {
      rd.read_string(token);
      return token;
    }
    if (c != '{' && c != '[') {
      token = rd.read_scalar();
      if (token != "null") return token;
    }
    rd.fail("key '" + std::string(key) + "' must be a scalar");
  };
  if (rd.peek() != '{') rd.fail("top level must be an object");
  ScenarioSpec spec;
  spec.config = NocConfig::paper_4x4();
  rd.read_object([&](std::string_view key) {
    if (key == "phases") {
      if (rd.peek() != '[') rd.fail("'phases' must be an array");
      rd.read_array([&] {
        if (rd.peek() != '{') rd.fail("each phase must be an object");
        PhaseSpec ph;
        rd.read_object([&](std::string_view pk) {
          if (!apply_phase_value(ph, pk, scalar(pk), true, "")) {
            rd.fail("unknown phase key '" + std::string(pk) + "'");
          }
        });
        finish_phase(ph);
        spec.phases.push_back(std::move(ph));
      });
    } else if (key == "fault_events") {
      if (rd.peek() != '[') rd.fail("'fault_events' must be an array of schedule tokens");
      rd.read_array([&] {
        if (rd.peek() != '"') rd.fail("each fault event must be a token string");
        rd.read_string(token);
        const auto evs = noc::parse_fault_schedule_token(token);
        spec.fault_events.insert(spec.fault_events.end(), evs.begin(), evs.end());
      });
    } else {
      apply_scalar(spec, std::string(key), scalar(key));
    }
  });
  rd.finish();
  spec.config.fit_derived();
  spec.validate();
  return spec;
}

}  // namespace

std::string serialize_scenario_json(const ScenarioSpec& spec) {
  // Strings and tokens are quoted; numbers and booleans are bare.
  auto value = [](const auto& v) {
    if constexpr (std::is_arithmetic_v<std::decay_t<decltype(v)>>) return format_token(v);
    else return "\"" + json_escape(format_token(v)) + "\"";
  };
  std::ostringstream out;
  out << "{\n";
  for_each_field(
      [&](const FieldMeta& m, const auto& v, const auto& d) {
        if (m.key.empty() || (m.omit_default && v == d)) return;
        out << "  \"" << m.key << "\": " << value(v) << ",\n";
      },
      spec, kDefaultSpec);
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
    out << "    {\"name\": " << value(ph.name);
    for_each_phase_field(
        [&](const FieldMeta& m, const auto& v, const auto& d) {
          // A drain phase's traffic = false is implied by "drain": true.
          if (!m.omit_default || v == d || (m.member == "traffic" && ph.drain)) return;
          out << ", \"" << m.member << "\": " << value(v);
        },
        ph, kDefaultPhase);
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
