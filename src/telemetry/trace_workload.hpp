// `trace:<file>` workloads: replaying a captured binary trace through the
// Scenario/Session stack (and the explorer) as a first-class workload.
//
// The WorkloadRegistry resolves any key of the form `trace:<path>[@<era>]`
// (case-insensitive prefix; the path keeps its case) to a TraceFileFactory
// on the fly, so scenario files can declare
//
//   phase replay workload=trace:capture.sntr cycles=20000 measure
//
// and re-execute a recorded run. A multi-era v2 capture (a recording that
// spanned reconfigurations) selects the era to replay with a trailing
// `@<index>` - `trace:capture.sntr@1` replays the section after the first
// reconfiguration - so a scenario with one phase per era re-executes the
// whole recorded session. No selector means era 0 (every v1 capture).
//
// The factory rebuilds the *recorded* configuration and flow set - not the
// scenario's - because bit-identical replay requires the identical network
// (presets, routes, register program); the scenario must declare the same
// mesh (Session validates the node count) and should leave fault_rate at 0
// (the recorded flows already reflect any fault rerouting of the capture
// run).
#pragma once

#include <filesystem>
#include <memory>
#include <mutex>
#include <string>

#include "sim/workload.hpp"
#include "telemetry/trace_file.hpp"

namespace smartnoc::telemetry {

/// True when `name` is a trace-replay workload key ("trace:<path>[@era]").
bool is_trace_workload_key(const std::string& name);

/// The spec of a trace workload key: the path plus any `@<era>` selector.
/// Throws ConfigError when empty.
std::string trace_workload_path(const std::string& name);

class TraceFileFactory final : public sim::WorkloadFactory {
 public:
  /// `spec` is the path with an optional trailing `@<era>` selector (split
  /// only on a final all-digits suffix, so paths containing '@' still
  /// resolve).
  explicit TraceFileFactory(std::string spec);

  /// Replaces `cfg` with the recorded configuration (injection is ignored:
  /// a capture replays as recorded) and returns the recorded flow set.
  noc::FlowSet flows(NocConfig& cfg, double injection) const override;

  /// A ReplayWorkload over the recorded injection events (the seed is
  /// ignored: replay consumes no randomness).
  std::unique_ptr<sim::Workload> source(const NocConfig& cfg, const noc::FlowSet& flows,
                                        std::uint64_t seed) const override;

  const TraceFile& trace() const { return load(); }
  /// The era index this factory replays (0 unless the key selected one).
  std::size_t era() const { return era_; }

 private:
  /// The selected era of the decoded capture. Throws ConfigError when the
  /// file holds fewer era sections than the `@<era>` selector asks for.
  const TraceEra& selected(const TraceFile& t) const;
  /// Lazy, thread-safe (explorer workers). The decode is cached per path
  /// (the registry hands out one factory per path), with a file-mtime
  /// check so a re-recorded capture is picked up instead of replaying
  /// stale data.
  const TraceFile& load() const;

  std::string path_;
  std::size_t era_ = 0;
  mutable std::mutex mu_;
  mutable std::shared_ptr<const TraceFile> cached_;
  mutable std::filesystem::file_time_type mtime_{};
};

}  // namespace smartnoc::telemetry
