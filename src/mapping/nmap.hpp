// Modified NMAP (paper Sec. VI, after Murali & De Micheli [24]):
//
//   "We first map the task with highest communication demand to the core
//    with the most number of neighbors (i.e. middle of the mesh). Then, we
//    pick a task that communicates the most with the mapped tasks and find
//    an unmapped core that minimizes the chance of getting buffered at
//    intermediate cores. This process is iterated to map all tasks. As the
//    tasks are mapped to the physical cores, the flows between tasks are
//    also mapped to routes with minimum number of hops between cores."
//
// Implementation: greedy placement with a lexicographic cost
//   (1) sum of bandwidth x hop-distance to already-placed communication
//       partners (classic NMAP), then
//   (2) the buffering-chance term: how many links of the new flows' routes
//       are already used by placed flows (link sharing forces SMART stops),
// followed by a route-selection pass that picks, per flow in decreasing
// bandwidth order, the minimal turn-model-legal path with the least link
// sharing. Everything is deterministic (stable tie-breaks by index).
#pragma once

#include <vector>

#include "common/config.hpp"
#include "mapping/apps.hpp"
#include "mapping/task_graph.hpp"
#include "noc/flow.hpp"
#include "noc/routing.hpp"

namespace smartnoc::mapping {

struct Mapping {
  std::vector<NodeId> task_to_core;

  NodeId core_of(int task) const { return task_to_core.at(static_cast<std::size_t>(task)); }
  int num_tasks() const { return static_cast<int>(task_to_core.size()); }
};

/// Places every task on a distinct core. Throws if tasks > cores.
Mapping nmap_map(const TaskGraph& graph, const MeshDims& dims);

/// Routes every edge of the mapped graph: minimal paths under the model,
/// least link sharing first for high-bandwidth flows.
noc::FlowSet route_flows(const TaskGraph& graph, const Mapping& mapping, const MeshDims& dims,
                         noc::TurnModel model);

/// A fully-prepared application: graph -> placement -> routed flows, with
/// the bandwidth scale the paper uses for that app already applied to cfg.
struct MappedApp {
  SocApp app;
  TaskGraph graph;
  Mapping mapping;
  noc::FlowSet flows;
  NocConfig cfg;  ///< the input cfg with bandwidth_scale set for this app

  /// Flow-count-weighted mean hop distance (the hops/flow column of
  /// paper_report's fig10a and heterogeneous CSVs).
  double mean_hops() const {
    if (flows.empty()) return 0.0;
    double h = 0.0;
    for (const auto& f : flows) h += f.path.hops();
    return h / flows.size();
  }
};

MappedApp map_app(SocApp app, const NocConfig& base_cfg);

}  // namespace smartnoc::mapping
