// Task-graph serialization: a line-oriented text format for user-supplied
// applications plus Graphviz DOT export for documentation/visualization.
//
// Text format (one declaration per line, '#' comments):
//
//   app  <name>
//   task <task-name>
//   comm <src-task> <dst-task> <MB/s>
//
// Tasks must be declared before edges reference them; names are unique.
#pragma once

#include <string>

#include "mapping/task_graph.hpp"

namespace smartnoc::mapping {

/// Parses the text format. Throws ConfigError with a line-numbered message
/// on any malformed input.
TaskGraph parse_task_graph(const std::string& text);

/// Inverse of parse_task_graph (round-trips bit-exact modulo comments).
std::string serialize_task_graph(const TaskGraph& graph);

/// Graphviz DOT with bandwidth-labelled edges.
std::string to_dot(const TaskGraph& graph);

/// File helpers (throw ConfigError on I/O problems). A save is atomic: the
/// file is written beside the target and renamed over it.
TaskGraph load_task_graph(const std::string& path);
void save_task_graph(const TaskGraph& graph, const std::string& path);

}  // namespace smartnoc::mapping
