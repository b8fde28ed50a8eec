// The traffic-source abstraction of the Scenario/Session API.
//
// A Workload is anything that can offer packets to a network once per
// cycle - the Bernoulli engine, a trace replayer, a custom callback. It
// replaces the old `TrafficEngine` duck type that every driver template
// re-implemented around run_simulation.
//
// A WorkloadFactory builds the *flows* of a named workload (synthetic
// pattern, mapped SoC application, ...) and the source that drives them;
// the string-keyed WorkloadRegistry lets scenario files, the explorer CLI
// and user code name workloads declaratively ("vopd", "transpose", or any
// custom key registered at startup).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "noc/flow.hpp"
#include "noc/network_iface.hpp"
#include "noc/traffic.hpp"

namespace smartnoc::sim {

/// A per-cycle packet source. Session calls generate() once per tick
/// (after it); set_enabled(false) silences it for drain phases.
class Workload {
 public:
  virtual ~Workload() = default;

  virtual void generate(noc::Network& net) = 0;
  virtual void set_enabled(bool e) = 0;
  virtual std::uint64_t generated() const = 0;
};

/// Owns a Bernoulli traffic engine (the default source for every built-in
/// workload).
class BernoulliWorkload final : public Workload {
 public:
  BernoulliWorkload(const NocConfig& cfg, const noc::FlowSet& flows, std::uint64_t seed)
      : engine_(cfg, flows, seed) {}
  void generate(noc::Network& net) override { engine_.generate(net); }
  void set_enabled(bool e) override { engine_.set_enabled(e); }
  std::uint64_t generated() const override { return engine_.generated(); }
  const noc::TrafficEngine& engine() const { return engine_; }

 private:
  noc::TrafficEngine engine_;
};

/// Owns a trace replayer (Fig. 10 methodology: identical packets against
/// every design).
class ReplayWorkload final : public Workload {
 public:
  explicit ReplayWorkload(std::vector<noc::TraceEntry> trace) : replayer_(std::move(trace)) {}
  void generate(noc::Network& net) override { replayer_.generate(net); }
  void set_enabled(bool e) override { replayer_.set_enabled(e); }
  std::uint64_t generated() const override { return replayer_.generated(); }
  bool exhausted() const { return replayer_.exhausted(); }

 private:
  noc::TraceReplayer replayer_;
};

/// Custom generation from a lambda: fn(net) is called once per enabled
/// cycle and returns how many packets it offered.
class LambdaWorkload final : public Workload {
 public:
  using Fn = std::function<std::uint64_t(noc::Network&)>;
  explicit LambdaWorkload(Fn fn) : fn_(std::move(fn)) {}
  void generate(noc::Network& net) override {
    if (enabled_) generated_ += fn_(net);
  }
  void set_enabled(bool e) override { enabled_ = e; }
  std::uint64_t generated() const override { return generated_; }

 private:
  Fn fn_;
  bool enabled_ = true;
  std::uint64_t generated_ = 0;
};

/// Builds the two halves of a named workload. `flows` may adjust cfg the
/// way the legacy drivers did (SoC apps install the paper's bandwidth
/// scale times the injection multiplier); `source` builds the per-cycle
/// generator for the final (possibly fault-rerouted) flow set.
class WorkloadFactory {
 public:
  virtual ~WorkloadFactory() = default;

  virtual noc::FlowSet flows(NocConfig& cfg, double injection) const = 0;
  virtual std::unique_ptr<Workload> source(const NocConfig& cfg, const noc::FlowSet& flows,
                                           std::uint64_t seed) const;
};

/// Canonical registry key: lowercased, except `trace:<path>` keys, whose
/// path keeps its case (file systems are case-sensitive). The scenario
/// parser routes workload names through this.
std::string normalize_workload_key(const std::string& name);

/// String-keyed factory registry. Pre-populated with the five synthetic
/// patterns (uniform-random, transpose, bit-complement, neighbor, hotspot)
/// and the paper's eight SoC applications (h264, mms_dec, mms_enc,
/// mms_mp3, mwd, vopd, wlan, pip), plus the aliases uniform, bitcomp,
/// mms-dec, mms-enc and mms-mp3; user code may add or replace entries.
/// Keys of the form `trace:<file>` resolve dynamically to a
/// telemetry::TraceFileFactory replaying that binary capture. Lookup is
/// case-insensitive (trace paths excepted); add/find are thread-safe (the
/// explorer resolves workloads from worker threads).
class WorkloadRegistry {
 public:
  static WorkloadRegistry& instance();

  /// Registers (or replaces) a factory under `name`, which is also its
  /// spelling().
  void add(const std::string& name, std::shared_ptr<const WorkloadFactory> factory);

  /// The name a sweep writes into its point keys and result rows: the
  /// spelling the entry was registered under, shared by its aliases
  /// (uniform -> uniform-random, vopd -> VOPD), or the canonical trace key.
  /// Never opens a trace file. Throws ConfigError when unknown.
  std::string spelling(const std::string& name) const;

  /// nullptr when unknown.
  std::shared_ptr<const WorkloadFactory> find(const std::string& name) const;

  /// Throws ConfigError listing the known names when unknown.
  std::shared_ptr<const WorkloadFactory> at(const std::string& name) const;

  /// Registered keys, sorted.
  std::vector<std::string> names() const;

 private:
  WorkloadRegistry();
  struct Impl;
  std::shared_ptr<Impl> impl_;
};

}  // namespace smartnoc::sim
