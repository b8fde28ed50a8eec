#include "mapping/graph_io.hpp"

#include <map>
#include <sstream>

#include "common/error.hpp"
#include "common/file_io.hpp"

namespace smartnoc::mapping {

TaskGraph parse_task_graph(const std::string& text) {
  std::istringstream in(text);
  std::string line;
  int line_no = 0;
  std::string app_name_str;
  std::map<std::string, int> task_ids;
  // Two passes in one: collect into a staging structure, then build.
  struct Edge {
    std::string src, dst;
    double mbps;
    int line;
  };
  std::vector<std::string> tasks;
  std::vector<Edge> edges;

  auto fail = [&](const std::string& msg) -> void {
    throw ConfigError("task graph line " + std::to_string(line_no) + ": " + msg);
  };

  while (std::getline(in, line)) {
    ++line_no;
    const auto hash = line.find('#');
    if (hash != std::string::npos) line = line.substr(0, hash);
    std::istringstream ls(line);
    std::string kw;
    if (!(ls >> kw)) continue;  // blank
    if (kw == "app") {
      if (!app_name_str.empty()) fail("duplicate 'app' declaration");
      if (!(ls >> app_name_str)) fail("'app' needs a name");
    } else if (kw == "task") {
      std::string name;
      if (!(ls >> name)) fail("'task' needs a name");
      if (task_ids.count(name)) fail("duplicate task '" + name + "'");
      task_ids[name] = static_cast<int>(tasks.size());
      tasks.push_back(name);
    } else if (kw == "comm") {
      Edge e;
      e.line = line_no;
      if (!(ls >> e.src >> e.dst >> e.mbps)) fail("'comm' needs <src> <dst> <MB/s>");
      edges.push_back(e);
    } else {
      fail("unknown keyword '" + kw + "'");
    }
  }
  if (app_name_str.empty()) throw ConfigError("task graph: missing 'app' declaration");

  TaskGraph g(app_name_str);
  for (const auto& t : tasks) g.add_task(t);
  for (const auto& e : edges) {
    line_no = e.line;
    if (!task_ids.count(e.src)) fail("unknown task '" + e.src + "'");
    if (!task_ids.count(e.dst)) fail("unknown task '" + e.dst + "'");
    g.add_comm(task_ids[e.src], task_ids[e.dst], e.mbps);
  }
  return g;
}

std::string serialize_task_graph(const TaskGraph& graph) {
  std::string out = "app " + graph.name() + "\n";
  for (int t = 0; t < graph.num_tasks(); ++t) {
    out += "task " + graph.task_name(t) + "\n";
  }
  char buf[160];
  for (const auto& e : graph.edges()) {
    std::snprintf(buf, sizeof buf, "comm %s %s %.6g\n", graph.task_name(e.src).c_str(),
                  graph.task_name(e.dst).c_str(), e.mbps);
    out += buf;
  }
  return out;
}

std::string to_dot(const TaskGraph& graph) {
  std::string out = "digraph \"" + graph.name() + "\" {\n  rankdir=LR;\n";
  for (int t = 0; t < graph.num_tasks(); ++t) {
    out += "  \"" + graph.task_name(t) + "\" [shape=box];\n";
  }
  char buf[200];
  for (const auto& e : graph.edges()) {
    std::snprintf(buf, sizeof buf, "  \"%s\" -> \"%s\" [label=\"%.6g MB/s\"];\n",
                  graph.task_name(e.src).c_str(), graph.task_name(e.dst).c_str(), e.mbps);
    out += buf;
  }
  out += "}\n";
  return out;
}

TaskGraph load_task_graph(const std::string& path) {
  return parse_task_graph(read_file(path, "task graph file"));
}

void save_task_graph(const TaskGraph& graph, const std::string& path) {
  write_file_atomic(path, serialize_task_graph(graph));
}

}  // namespace smartnoc::mapping
