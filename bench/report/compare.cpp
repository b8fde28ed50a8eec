// `bench_report compare A/*.json B/*.json`: A is the baseline (parent) set,
// B the candidate; files are grouped by directory and paired in the order
// given. For each workload x metric it prints both medians and quartiles,
// the fraction of pairs B wins, and a verdict:
//
//   unresolved  A's quartile spread exceeds the bound, and not every B run
//               beats every A run
//   worse       B's median is worse than A's by more than the bound
//   improved    B wins >= 9/10 pairs and the median gap exceeds A's spread
//   unchanged   otherwise
//
// Bounds and directions come from BENCHMARK.json. Per-layer metrics have no
// bound, so they get no verdict. Exits 1 when any metric is worse or any B
// run failed its correctness checks.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "report.hpp"

namespace bench_report {

namespace {

struct MetricSpec {
  std::string name, unit;
  bool higher_better = false;
  double bound = -1.0;  ///< < 0: per-layer, no bound
};

struct Side {
  std::map<std::pair<std::string, std::string>, std::vector<double>> values;  ///< (workload, metric)
  std::vector<std::string> workloads;  ///< first-seen order
  int incorrect = 0;
};

void load_side(const std::vector<std::string>& files, Side& side) {
  for (const std::string& f : files) {
    const Json doc = parse_json(read_file(f));
    for (const Json& run : doc.at("runs").array) {
      const std::string& w = run.at("workload").string;
      if (std::find(side.workloads.begin(), side.workloads.end(), w) == side.workloads.end()) {
        side.workloads.push_back(w);
      }
      if (!run.at("correct").boolean) ++side.incorrect;
      for (const auto& [name, m] : run.at("metrics").object) {
        side.values[{w, name}].push_back(m.at("value").number);
      }
    }
  }
}

}  // namespace

int compare_main(const std::vector<std::string>& files, const std::string& benchmark_json) {
  std::vector<std::string> dirs;
  std::map<std::string, std::vector<std::string>> by_dir;
  for (const std::string& f : files) {
    const std::string d = std::filesystem::path(f).parent_path().string();
    if (!by_dir.count(d)) dirs.push_back(d);
    by_dir[d].push_back(f);
  }
  if (dirs.size() != 2) {
    std::fprintf(stderr, "compare: give result files from exactly two directories (A then B)\n");
    return 2;
  }

  std::vector<MetricSpec> specs;
  const Json bench = parse_json(read_file(benchmark_json));
  for (const char* section : {"end_to_end", "per_layer"}) {
    for (const Json& m : bench.at(section).array) {
      MetricSpec s;
      s.name = m.at("name").string;
      s.unit = m.at("unit").string;
      s.higher_better = m.at("better").string == "higher";
      if (const Json* b = m.get("bound")) s.bound = b->number;
      specs.push_back(s);
    }
  }

  Side a, b;
  load_side(by_dir[dirs[0]], a);
  load_side(by_dir[dirs[1]], b);
  std::printf("A = %s (%zu files), B = %s (%zu files)\n", dirs[0].c_str(), by_dir[dirs[0]].size(),
              dirs[1].c_str(), by_dir[dirs[1]].size());
  std::printf("%-18s %-30s %-6s %12s %25s %12s %25s %8s %5s  %s\n", "workload", "metric", "unit",
              "A median", "A [q1, q3]", "B median", "B [q1, q3]", "B better", "wins", "verdict");

  int worse = 0;
  std::vector<std::string> unresolved;
  for (const std::string& w : a.workloads) {
    for (const MetricSpec& s : specs) {
      const auto ia = a.values.find({w, s.name});
      const auto ib = b.values.find({w, s.name});
      if (ia == a.values.end() || ib == b.values.end()) continue;
      const std::vector<double>& va = ia->second;
      const std::vector<double>& vb = ib->second;
      const double ma = median(va), mb = median(vb);
      const double q1a = quantile(va, 0.25), q3a = quantile(va, 0.75);
      const double q1b = quantile(vb, 0.25), q3b = quantile(vb, 0.75);
      const double scale = std::fabs(ma) > 0.0 ? std::fabs(ma) : 1.0;
      // Positive gap = B is worse.
      const double gap = (s.higher_better ? ma - mb : mb - ma) / scale;
      const double spread = (q3a - q1a) / scale;
      const std::size_t pairs = std::min(va.size(), vb.size());
      std::size_t wins = 0;
      for (std::size_t i = 0; i < pairs; ++i) {
        if (s.higher_better ? vb[i] > va[i] : vb[i] < va[i]) ++wins;
      }
      const double win_frac = pairs ? static_cast<double>(wins) / static_cast<double>(pairs) : 0.0;
      const auto [amin, amax] = std::minmax_element(va.begin(), va.end());
      const auto [bmin, bmax] = std::minmax_element(vb.begin(), vb.end());
      const bool all_better = s.higher_better ? *bmin > *amax : *bmax < *amin;

      std::string verdict = "-";
      if (s.bound >= 0.0) {
        if (spread > s.bound && !all_better) {
          verdict = "unresolved";
          unresolved.push_back(w + " " + s.name);
        } else if (gap > s.bound) {
          verdict = "worse";
          ++worse;
        } else if (win_frac >= 0.9 && -gap > spread) {
          verdict = "improved";
        } else {
          verdict = "unchanged";
        }
      }
      std::printf("%-18s %-30s %-6s %12.6g [%11.6g, %11.6g] %12.6g [%11.6g, %11.6g] %+7.2f%% %5.2f  %s\n",
                  w.c_str(), s.name.c_str(), s.unit.c_str(), ma, q1a, q3a, mb, q1b, q3b,
                  -100.0 * gap, win_frac, verdict.c_str());
    }
  }
  std::printf("\n%d worse, %zu unresolved", worse, unresolved.size());
  for (const std::string& u : unresolved) std::printf("\n  unresolved: %s", u.c_str());
  std::printf("\n");
  if (b.incorrect) std::printf("%d B runs failed their correctness checks\n", b.incorrect);
  return worse || b.incorrect ? 1 : 0;
}

}  // namespace bench_report
