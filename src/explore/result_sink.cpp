#include "explore/result_sink.hpp"

#include <charconv>
#include <iterator>
#include <string_view>
#include <type_traits>
#include <variant>

#include "common/error.hpp"
#include "common/json.hpp"
#include "common/table.hpp"

namespace smartnoc::explore {

namespace {

// --- The column table --------------------------------------------------------
// One row per RunRecord member, in struct order (= CSV and JSON column
// order). Every reader and writer below walks it.

using Member = std::variant<std::uint64_t RunRecord::*, int RunRecord::*, double RunRecord::*,
                            bool RunRecord::*, std::string RunRecord::*>;

struct Column {
  std::string_view name;
  Member member;
};

constexpr Column kColumns[] = {
    {"index", &RunRecord::index},
    {"width", &RunRecord::width},
    {"height", &RunRecord::height},
    {"flit_bits", &RunRecord::flit_bits},
    {"hpc_max", &RunRecord::hpc_max},
    {"injection", &RunRecord::injection},
    {"workload", &RunRecord::workload},
    {"fault_rate", &RunRecord::fault_rate},
    {"fault_schedule", &RunRecord::fault_schedule},
    {"design", &RunRecord::design},
    {"seed", &RunRecord::seed},
    {"ok", &RunRecord::ok},
    {"error", &RunRecord::error},
    {"flows", &RunRecord::flows},
    {"dropped_flows", &RunRecord::dropped_flows},
    {"packets", &RunRecord::packets},
    {"avg_net_latency", &RunRecord::avg_net_latency},
    {"avg_total_latency", &RunRecord::avg_total_latency},
    {"p50_latency", &RunRecord::p50_latency},
    {"p99_latency", &RunRecord::p99_latency},
    {"max_latency", &RunRecord::max_latency},
    {"throughput_ppc", &RunRecord::throughput_ppc},
    {"power_mw", &RunRecord::power_mw},
    {"area_mm2", &RunRecord::area_mm2},
    {"packets_offered", &RunRecord::packets_offered},
    {"packets_dropped", &RunRecord::packets_dropped},
    {"packets_retransmitted", &RunRecord::packets_retransmitted},
    {"flows_rerouted", &RunRecord::flows_rerouted},
    {"flows_failed", &RunRecord::flows_failed},
};
constexpr std::size_t kNumColumns = std::size(kColumns);
// Tripwire (LP64): a new RunRecord member needs its column above.
static_assert(sizeof(RunRecord) == 304, "RunRecord changed: add a row to kColumns");

const std::string& csv_header() {
  static const std::string header = [] {
    std::string h;
    for (const Column& c : kColumns) {
      if (!h.empty()) h += ',';
      h += c.name;
    }
    return h;
  }();
  return header;
}

/// The column called `name`; `hint` is tried first (readers pass the column
/// after the previous one, so a record in table order costs one compare per
/// key). Throws on an unknown name.
std::size_t find_column(std::string_view name, std::size_t hint) {
  if (hint < kNumColumns && kColumns[hint].name == name) return hint;
  for (std::size_t i = 0; i < kNumColumns; ++i) {
    if (kColumns[i].name == name) return i;
  }
  throw ConfigError("unknown ResultTable column '" + std::string(name) + "'");
}

// --- Value codecs ------------------------------------------------------------
// Doubles use the shortest decimal that recovers the exact bit pattern: the
// serving cache and job checkpoints store these strings and must hand back
// records bit-identical to freshly computed ones. Booleans are 1/0 in CSV
// and true/false in JSON; strings are quoted in both.

void append_value(std::string& out, const RunRecord& r, const Column& col, bool json) {
  std::visit(
      [&](auto pm) {
        const auto& v = r.*pm;
        using T = std::decay_t<decltype(v)>;
        if constexpr (std::is_same_v<T, bool>) {
          out += json ? (v ? "true" : "false") : (v ? "1" : "0");
        } else if constexpr (std::is_same_v<T, std::string>) {
          out += '"';
          if (json) {
            out += json_escape(v);
          } else {
            for (const char c : v) {
              if (c == '"') out += '"';  // CSV escapes a quote by doubling it
              out += c;
            }
          }
          out += '"';
        } else {
          char buf[32];
          out.append(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
        }
      },
      col.member);
}

/// Sets one column from its unquoted text (a CSV field or a JSON scalar).
template <class T>
void parse_field(std::string_view s, T& v, std::string_view column) {
  if constexpr (std::is_same_v<T, bool>) {
    if (s == "1" || s == "true") v = true;
    else if (s == "0" || s == "false") v = false;
    else throw ConfigError("malformed ResultTable column '" + std::string(column) + "': '" +
                           std::string(s) + "' (expected a boolean)");
  } else if constexpr (std::is_same_v<T, std::string>) {
    v = s;
  } else {
    parse_number(s, v, "ResultTable number");
  }
}

/// Splits one CSV line honoring double-quoted fields with "" escapes.
std::vector<std::string> csv_split(const std::string& line) {
  std::vector<std::string> out;
  std::string cur;
  bool quoted = false;
  for (std::size_t i = 0; i < line.size(); ++i) {
    const char c = line[i];
    if (quoted) {
      if (c == '"') {
        if (i + 1 < line.size() && line[i + 1] == '"') {
          cur += '"';
          ++i;
        } else {
          quoted = false;
        }
      } else {
        cur += c;
      }
    } else if (c == '"') {
      quoted = true;
    } else if (c == ',') {
      out.push_back(std::move(cur));
      cur.clear();
    } else {
      cur += c;
    }
  }
  out.push_back(std::move(cur));
  return out;
}

RunRecord read_record_object(JsonReader& rd) {
  RunRecord r;
  std::size_t next = 0;
  rd.read_object([&](std::string_view key) {
    const std::size_t i = find_column(key, next);
    std::visit(
        [&](auto pm) {
          auto& v = r.*pm;
          if constexpr (std::is_same_v<std::decay_t<decltype(v)>, std::string>) {
            rd.read_string(v);
          } else {
            parse_field(rd.read_scalar(), v, kColumns[i].name);
          }
        },
        kColumns[i].member);
    next = i + 1;
  });
  return r;
}

}  // namespace

std::size_t ResultTable::ok_count() const {
  std::size_t n = 0;
  for (const auto& r : rows_) n += r.ok ? 1 : 0;
  return n;
}

std::string ResultTable::to_csv() const {
  std::string out = csv_header();
  out += '\n';
  for (const auto& r : rows_) {
    for (const Column& col : kColumns) {
      if (&col != kColumns) out += ',';
      append_value(out, r, col, false);
    }
    out += '\n';
  }
  return out;
}

ResultTable ResultTable::from_csv(const std::string& text) {
  ResultTable out;
  std::size_t pos = 0;
  bool header = true;
  while (pos < text.size()) {
    // Find the end of the logical row: newlines inside quoted fields (e.g.
    // a multi-line error message) do not terminate it.
    std::size_t nl = pos;
    bool quoted = false;
    while (nl < text.size() && (quoted || text[nl] != '\n')) {
      if (text[nl] == '"') quoted = !quoted;
      ++nl;
    }
    const std::string line = text.substr(pos, nl - pos);
    pos = nl + 1;
    if (line.empty()) continue;
    if (header) {
      if (line != csv_header()) throw ConfigError("CSV header does not match ResultTable format");
      header = false;
      continue;
    }
    const auto f = csv_split(line);
    if (f.size() != kNumColumns) {
      throw ConfigError(strf("CSV row has %zu columns, expected %zu", f.size(), kNumColumns));
    }
    RunRecord r;
    for (std::size_t i = 0; i < kNumColumns; ++i) {
      std::visit([&](auto pm) { parse_field(f[i], r.*pm, kColumns[i].name); }, kColumns[i].member);
    }
    out.add(std::move(r));
  }
  return out;
}

std::string record_to_json(const RunRecord& r) {
  std::string out = "{";
  for (const Column& col : kColumns) {
    if (&col != kColumns) out += ", ";
    out += '"';
    out += col.name;
    out += "\": ";
    append_value(out, r, col, true);
  }
  out += '}';
  return out;
}

std::string ResultTable::to_json() const {
  std::string out = "[\n";
  for (std::size_t i = 0; i < rows_.size(); ++i) {
    out += "  " + record_to_json(rows_[i]);
    if (i + 1 < rows_.size()) out += ',';
    out += '\n';
  }
  out += "]\n";
  return out;
}

RunRecord record_from_json(std::string_view json) {
  JsonReader rd(json, "ResultTable");
  RunRecord r = read_record_object(rd);
  rd.finish();
  return r;
}

ResultTable ResultTable::from_json(const std::string& text) {
  ResultTable out;
  JsonReader rd(text, "ResultTable");
  rd.read_array([&] { out.add(read_record_object(rd)); });
  rd.finish();
  return out;
}

std::vector<std::size_t> ResultTable::pareto_frontier() const {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < rows_.size(); ++i) {
    const RunRecord& a = rows_[i];
    if (!a.ok) continue;
    bool dominated = false;
    for (std::size_t j = 0; j < rows_.size() && !dominated; ++j) {
      if (j == i) continue;
      const RunRecord& b = rows_[j];
      if (!b.ok) continue;
      const bool no_worse = b.avg_net_latency <= a.avg_net_latency &&
                            b.power_mw <= a.power_mw && b.area_mm2 <= a.area_mm2;
      const bool better = b.avg_net_latency < a.avg_net_latency || b.power_mw < a.power_mw ||
                          b.area_mm2 < a.area_mm2;
      dominated = no_worse && better;
    }
    if (!dominated) out.push_back(i);
  }
  return out;
}

std::string ResultTable::summary() const {
  const std::vector<std::size_t> frontier = pareto_frontier();
  auto on_frontier = [&](std::size_t i) {
    for (std::size_t f : frontier) {
      if (f == i) return true;
    }
    return false;
  };
  TextTable t({"#", "mesh", "flits", "hpc", "inj", "workload", "faults", "design", "flows",
               "packets", "avg lat", "p99", "power mW", "area mm2", ""});
  for (std::size_t i = 0; i < rows_.size(); ++i) {
    const RunRecord& r = rows_[i];
    std::vector<std::string> row = {
        std::to_string(r.index),
        strf("%dx%d", r.width, r.height),
        strf("%d", r.flit_bits),
        strf("%d", r.hpc_max),
        strf("%.3g", r.injection),
        r.workload,
        strf("%.3g", r.fault_rate),
        r.design,
    };
    if (r.ok) {
      row.push_back(strf("%d", r.flows));
      row.push_back(std::to_string(r.packets));
      row.push_back(strf("%.2f", r.avg_net_latency));
      row.push_back(strf("%.0f", r.p99_latency));
      row.push_back(strf("%.2f", r.power_mw));
      row.push_back(strf("%.3f", r.area_mm2));
      row.push_back(on_frontier(i) ? "*" : "");
    } else {
      row.push_back("-");
      row.push_back("-");
      row.push_back("-");
      row.push_back("-");
      row.push_back("-");
      row.push_back("-");
      row.push_back("FAILED: " + r.error);
    }
    t.add_row(std::move(row));
  }
  std::string out = t.str();
  out += strf("\n%zu/%zu runs ok, %zu failed, %zu on the latency/power/area Pareto frontier "
              "(*)\n",
              ok_count(), size(), failed_count(), frontier.size());
  return out;
}

}  // namespace smartnoc::explore
