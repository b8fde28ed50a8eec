// bench_report: the repository's benchmark.
//
//   bench_report --workload NAME --seed N --seconds S --trace 0|1
//       one run of one workload; prints `<workload> <metric> <value> <unit>
//       n=<samples>` lines, then one JSON line with the metrics that
//       BENCHMARK.json lists (end_to_end untraced, per_layer traced)
//   bench_report [--seed N] [--seconds S] [--out FILE]
//       every workload, each in its own child process, untraced then traced;
//       prints every line and writes them all to one JSON file
//   bench_report compare A/*.json B/*.json
//       per workload x metric: medians, quartiles, win fraction, verdict
//
// Exit codes: 0 ok, 1 a correctness check failed (or compare found a
// regression), 2 bad usage or input.
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "report.hpp"

namespace {

using namespace bench_report;
namespace fs = std::filesystem;

struct Args {
  RunOptions run;
  bool have_workload = false;
  std::string out;
  std::string benchmark_json;
  bool seconds_given = false;
};

std::string default_benchmark_json() {
  return (fs::path(BENCH_REPORT_SOURCE_DIR) / ".." / ".." / "BENCHMARK.json")
      .lexically_normal()
      .string();
}

std::string self_path() {
  std::error_code ec;
  const fs::path p = fs::read_symlink("/proc/self/exe", ec);
  if (ec) throw std::runtime_error("cannot locate the bench_report binary");
  return p.string();
}

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "bench_report: %s\n"
               "usage: bench_report --workload NAME --seed N --seconds S --trace 0|1\n"
               "       bench_report [--seed N] [--seconds S] [--out FILE]\n"
               "       bench_report compare A/*.json B/*.json\n"
               "options: --expected FILE  --benchmark FILE  --work DIR\n",
               why.c_str());
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  a.run.expected_file = (fs::path(BENCH_REPORT_SOURCE_DIR) / "expected_seed1.txt").string();
  a.benchmark_json = default_benchmark_json();
  a.run.work_dir = (fs::path(self_path()).parent_path() / "work").string();
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string val = argv[++i];
    try {
      if (flag == "--workload") {
        a.run.workload = val;
        a.have_workload = true;
      } else if (flag == "--seed") {
        a.run.seed = std::stoull(val);
      } else if (flag == "--seconds") {
        a.run.seconds = std::stod(val);
        a.seconds_given = true;
      } else if (flag == "--trace") {
        if (val != "0" && val != "1") usage("--trace takes 0 or 1");
        a.run.trace = val == "1";
      } else if (flag == "--out") {
        a.out = val;
      } else if (flag == "--expected") {
        a.run.expected_file = val;
      } else if (flag == "--benchmark") {
        a.benchmark_json = val;
      } else if (flag == "--work") {
        a.run.work_dir = val;
      } else {
        usage("unknown option " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value '" + val + "' for " + flag);
    }
  }
  if (!(a.run.seconds > 0.0 && a.run.seconds <= 600.0)) usage("--seconds must be in (0, 600]");
  return a;
}

/// The metric names and units BENCHMARK.json lists for one trace mode.
std::vector<std::pair<std::string, std::string>> listed_metrics(const std::string& benchmark_json,
                                                                bool trace) {
  const Json doc = parse_json(read_file(benchmark_json));
  std::vector<std::pair<std::string, std::string>> out;
  for (const Json& m : doc.at(trace ? "per_layer" : "end_to_end").array) {
    out.emplace_back(m.at("name").string, m.at("unit").string);
  }
  return out;
}

int run_one(const Args& a) {
  const RunOptions& opt = a.run;
  if (!is_kernel_workload(opt.workload) && !is_sweep_workload(opt.workload)) {
    usage("unknown workload '" + opt.workload + "'");
  }
  const auto listed = listed_metrics(a.benchmark_json, opt.trace);
  fs::create_directories(opt.work_dir);
  const RunReport rep =
      is_kernel_workload(opt.workload) ? run_kernel_workload(opt) : run_sweep_workload(opt);

  std::string json = "{\"correct\": " + std::string(rep.correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(rep.attempted) +
                     ", \"failed\": " + std::to_string(rep.failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < listed.size(); ++i) {
    const auto& [name, unit] = listed[i];
    const Metric* m = rep.find(name);
    // A layer this workload does not exercise reads 0 with no samples; an
    // end-to-end metric must always be measured.
    if (!m && !opt.trace) throw std::runtime_error("end-to-end metric '" + name + "' not measured");
    if (m && m->unit != unit) {
      throw std::runtime_error("metric '" + name + "' is in " + m->unit +
                               ", BENCHMARK.json says " + unit);
    }
    const double value = m ? m->value : 0.0;
    std::printf("%s %s %s %s n=%llu\n", opt.workload.c_str(), name.c_str(),
                json_number(value).c_str(), unit.c_str(),
                static_cast<unsigned long long>(m ? m->n : 0));
    json += (i ? ", " : "") + json_quote(name) + ": {\"value\": " + json_number(value) +
            ", \"unit\": " + json_quote(unit) + "}";
  }
  json += "}}";
  std::printf("%s failed_frac %s 1 n=%llu\n", opt.workload.c_str(),
              json_number(static_cast<double>(rep.failed) / static_cast<double>(rep.attempted)).c_str(),
              static_cast<unsigned long long>(rep.attempted));
  for (const std::string& p : rep.problems) {
    std::fprintf(stderr, "%s: check failed: %s\n", opt.workload.c_str(), p.c_str());
  }
  std::printf("%s\n", json.c_str());
  return rep.correct ? 0 : 1;
}

std::string shell_quote(const std::string& s) {
  std::string out = "'";
  for (const char c : s) {
    if (c == '\'') out += "'\\''";
    else out += c;
  }
  return out + "'";
}

/// Runs one workload in a child process, echoing its lines. Returns the
/// run's entry for the --out file (empty when the child printed no result);
/// `ok` is false when the child failed.
std::string run_child(const Args& a, const std::string& workload, bool trace, bool& ok) {
  std::string cmd = shell_quote(self_path());
  for (const auto& [flag, val] :
       std::vector<std::pair<std::string, std::string>>{
           {"--workload", workload},
           {"--seed", std::to_string(a.run.seed)},
           {"--seconds", json_number(a.run.seconds)},
           {"--trace", trace ? "1" : "0"},
           {"--expected", a.run.expected_file},
           {"--benchmark", a.benchmark_json},
           {"--work", a.run.work_dir}}) {
    cmd += " " + flag + " " + shell_quote(val);
  }
  std::fflush(stdout);
  FILE* child = popen(cmd.c_str(), "r");
  if (!child) throw std::runtime_error("cannot start " + cmd);
  std::vector<std::string> lines;
  std::string line;
  char buf[4096];
  while (std::fgets(buf, sizeof buf, child)) {
    line += buf;
    if (!line.empty() && line.back() == '\n') {
      line.pop_back();
      lines.push_back(line);
      line.clear();
    }
  }
  if (!line.empty()) lines.push_back(line);
  const int status = pclose(child);
  ok = false;
  if (lines.empty() || lines.back().rfind("{", 0) != 0) {  // crashed before its result
    for (const std::string& l : lines) std::printf("%s\n", l.c_str());
    return "";
  }

  // Sample counts come from the text lines; values keep the JSON's digits.
  std::map<std::string, std::string> samples;
  for (std::size_t i = 0; i + 1 < lines.size(); ++i) {
    std::printf("%s\n", lines[i].c_str());
    const auto n_at = lines[i].rfind(" n=");
    const auto first = lines[i].find(' ');
    const auto second = lines[i].find(' ', first + 1);
    if (n_at != std::string::npos && second != std::string::npos) {
      samples[lines[i].substr(first + 1, second - first - 1)] = lines[i].substr(n_at + 3);
    }
  }
  const Json res = parse_json(lines.back());
  ok = status == 0 && res.at("correct").boolean;
  std::string entry = "{\"workload\": " + json_quote(workload) +
                      ", \"trace\": " + (trace ? "1" : "0") +
                      ", \"correct\": " + (res.at("correct").boolean ? "true" : "false") +
                      ", \"attempted\": " + json_number(res.at("attempted").number) +
                      ", \"failed\": " + json_number(res.at("failed").number) + ", \"metrics\": {";
  bool first_metric = true;
  for (const auto& [name, m] : res.at("metrics").object) {
    entry += std::string(first_metric ? "" : ", ") + "\n    " + json_quote(name) +
             ": {\"value\": " + json_number(m.at("value").number) +
             ", \"unit\": " + json_quote(m.at("unit").string) + ", \"n\": " +
             (samples.count(name) ? samples[name] : "0") + "}";
    first_metric = false;
  }
  return entry + "}}";
}

int run_all(const Args& a) {
  std::vector<std::string> entries;
  bool all_ok = true;
  const Json bench = parse_json(read_file(a.benchmark_json));
  for (const Json& wl : bench.at("workloads").array) {
    const std::string& w = wl.at("name").string;
    for (const bool trace : {false, true}) {
      bool ok = false;
      const std::string entry = run_child(a, w, trace, ok);
      if (entry.empty()) std::printf("%s failed_frac 1 1 n=0\n", w.c_str());
      else entries.push_back(entry);
      if (!ok) {
        std::fprintf(stderr, "bench_report: workload %s (trace %d) failed\n", w.c_str(),
                     trace ? 1 : 0);
        all_ok = false;
      }
    }
  }
  if (!a.out.empty()) {
    std::string doc = "{\"seed\": " + std::to_string(a.run.seed) +
                      ", \"seconds\": " + json_number(a.run.seconds) + ", \"runs\": [\n";
    for (std::size_t i = 0; i < entries.size(); ++i) {
      doc += "  " + entries[i] + (i + 1 < entries.size() ? ",\n" : "\n");
    }
    doc += "]}\n";
    FILE* f = std::fopen(a.out.c_str(), "wb");
    if (!f || std::fputs(doc.c_str(), f) < 0 || std::fclose(f) != 0) {
      throw std::runtime_error("cannot write '" + a.out + "'");
    }
  }
  return all_ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    if (argc >= 2 && std::string(argv[1]) == "compare") {
      std::string benchmark_json = default_benchmark_json();
      std::vector<std::string> files;
      for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--benchmark" && i + 1 < argc) benchmark_json = argv[++i];
        else files.push_back(arg);
      }
      return compare_main(files, benchmark_json);
    }
    Args a = parse_args(argc, argv);
    if (a.have_workload) return run_one(a);
    // The all-workload mode runs ten children; keep it near a minute and a half.
    if (!a.seconds_given) a.run.seconds = 3.0;
    return run_all(a);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_report: %s\n", e.what());
    return 2;
  }
}
