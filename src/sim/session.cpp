#include "sim/session.hpp"

#include <chrono>
#include <utility>

#include "common/error.hpp"
#include "common/file_io.hpp"
#include "common/json.hpp"
#include "common/log.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "dedicated/dedicated_network.hpp"
#include "obs/metrics.hpp"
#include "smart/preset_computer.hpp"
#include "telemetry/export.hpp"
#include "telemetry/trace_file.hpp"
#include "telemetry/trace_workload.hpp"

namespace smartnoc::sim {

namespace {

/// The stream key lives above the 32-bit FlowId range so it can never
/// collide with a flow's traffic stream (TrafficEngine keys by flow id).
constexpr std::uint64_t kFaultStreamKey = (1ULL << 32) + 0xFA;

// Self-profiler clock (wall time, monotonic).
using ProfClock = std::chrono::steady_clock;

double seconds_since(ProfClock::time_point t0) {
  return std::chrono::duration<double>(ProfClock::now() - t0).count();
}

/// The cycles a phase may run: its duration, or for an unbounded drain
/// phase the configured drain timeout.
Cycle phase_bound(const PhaseSpec& ph, Cycle drain_timeout) {
  return ph.drain && ph.cycles == 0 ? drain_timeout : ph.cycles;
}

}  // namespace

noc::FaultSet draw_link_faults(const MeshDims& dims, double rate, std::uint64_t seed) {
  noc::FaultSet faults;
  if (rate <= 0.0) return faults;
  Xoshiro256 rng = make_stream(seed, kFaultStreamKey);
  for (NodeId n = 0; n < dims.nodes(); ++n) {
    for (Dir d : {Dir::East, Dir::North}) {
      if (!dims.has_neighbor(n, d)) continue;
      if (rng.bernoulli(rate)) faults.fail_link(dims, n, d);
    }
  }
  return faults;
}

noc::FlowSet reroute_around_faults(const MeshDims& dims, const noc::FlowSet& flows,
                                   const noc::FaultSet& faults, int& dropped) {
  noc::FlowSet out;
  dropped = 0;
  for (const auto& f : flows) {
    const auto path = noc::route_around_faults(dims, f.src, f.dst, noc::TurnModel::XY, faults);
    if (!path.has_value()) {
      ++dropped;
      continue;
    }
    out.add(f.src, f.dst, f.bandwidth_mbps, *path);
  }
  return out;
}

// --- Construction ------------------------------------------------------------

Session::Session(ScenarioSpec spec) : spec_(std::move(spec)), owning_(true) {
  spec_.validate();
  resolve_phases();
  // Each phase appends exactly one record: references handed out by
  // run_phase() and completed() stay valid for the session's lifetime.
  results_.reserve(phases().size());
  fault_schedule_ = noc::FaultSchedule(spec_.fault_events);
  fault_next_ = fault_schedule_.next_cycle();
  if (spec_.telemetry.enabled()) {
    telemetry::Probe::Config pc;
    pc.epoch_cycles = spec_.telemetry.epoch_cycles;
    pc.chrome_event_capacity =
        spec_.telemetry.chrome.empty() ? 0 : spec_.telemetry.chrome_events;
    pc.power_series = spec_.telemetry.power_series();
    probe_ = std::make_unique<telemetry::Probe>(spec_.config.dims(),
                                               spec_.config.flits_per_packet(), pc);
    if (!spec_.telemetry.record_trace.empty()) {
      // Capture streams to disk as the run produces it (format v2, one era
      // section per reconfiguration) instead of buffering an injection log
      // in memory: recording cost no longer grows with run length, and a
      // multi-era scenario records through its reconfigurations.
      trace_writer_ =
          std::make_unique<telemetry::StreamingTraceWriter>(spec_.telemetry.record_trace);
      probe_->set_injection_sink(
          [w = trace_writer_.get()](Cycle cycle, FlowId flow) { w->add(cycle, flow); });
    }
  }
}

Session::Session(noc::Network& net, Workload& source, std::vector<PhaseSpec> phases)
    : owning_(false), net_(&net), source_(&source) {
  SMARTNOC_CHECK(!phases.empty(), "a session needs at least one phase");
  spec_.name = "borrowed";
  spec_.config = net.config();
  spec_.phases = std::move(phases);
  era_cfg_ = net.config();
  // One era for the whole session: workload names are informational only
  // and reconfiguration is unavailable (the caller owns the network).
  resolved_.resize(spec_.phases.size());
  for (std::size_t i = 0; i < spec_.phases.size(); ++i) {
    resolved_[i].workload = spec_.phases[i].workload;
    resolved_[i].injection = spec_.phases[i].injection;
    resolved_[i].new_era = false;
  }
  results_.reserve(spec_.phases.size());
}

void Session::resolve_phases() {
  resolved_.clear();
  resolved_.reserve(phases().size());
  std::string wl;
  double inj = 0.0;
  double fault = spec_.fault_rate;
  for (std::size_t i = 0; i < phases().size(); ++i) {
    const PhaseSpec& ph = phases()[i];
    const std::string new_wl = ph.workload.empty() ? wl : ph.workload;
    const double new_inj = ph.injection > 0.0 ? ph.injection : (inj > 0.0 ? inj : 1.0);
    // A phase-level fault rate is an *event*: it overrides the scenario
    // rate for this phase and reverts when the next phase stops naming one.
    const double new_fault = ph.fault_rate >= 0.0 ? ph.fault_rate : spec_.fault_rate;
    Resolved rv;
    rv.workload = new_wl;
    rv.injection = new_inj;
    rv.fault_rate = new_fault;
    rv.new_era =
        i == 0 || ph.reconfigure || new_wl != wl || new_inj != inj || new_fault != fault;
    resolved_.push_back(rv);
    wl = new_wl;
    inj = new_inj;
    fault = new_fault;
  }
}

// --- Era management ----------------------------------------------------------

void Session::switch_era(const Resolved& rv) {
  ReconfigEvent ev;
  ev.performed = era_count_ > 0;

  // 1. Empty the running network ("the network needs to be emptied while
  //    setting the registers").
  if (net_ != nullptr) {
    const auto t_drain = ProfClock::now();
    Cycle drained_after = 0;
    while (!net_->drained()) {
      if (drained_after >= era_cfg_.drain_timeout) {
        throw SimError(
            drain_timeout_error(era_cfg_.drain_timeout, net_->stall_report().summary()) +
            " - cannot reconfigure a busy network");
      }
      net_->tick();
      drained_after += 1;
    }
    const double dt = seconds_since(t_drain);
    profile_.drain_seconds += dt;
    profile_.drain_cycles += drained_after;
    phase_wall_seconds_ += dt;
    ev.drain_cycles = drained_after;
    // Later events are timestamped by the next era's clock, which restarts
    // at 0: fold the finished era into the probe's global-time offset.
    if (probe_ != nullptr) probe_->end_era(net_->now());
  }
  const auto t_build = ProfClock::now();

  // 2. The next application's flows (the factory may adjust cfg: apps
  //    install the paper's bandwidth scale times the injection multiplier).
  NocConfig cfg = spec_.config;
  auto factory = WorkloadRegistry::instance().at(rv.workload);
  noc::FlowSet flows = factory->flows(cfg, rv.injection);
  if (cfg.dims().nodes() != spec_.config.dims().nodes()) {
    throw ConfigError("workload '" + rv.workload + "' changed the mesh dimensions");
  }

  pending_dropped_ = 0;
  if (rv.fault_rate > 0.0) {
    if (telemetry::is_trace_workload_key(rv.workload)) {
      // Rerouting would replay the capture on different routes/presets
      // than the recording even when no flow is dropped, silently voiding
      // the bit-identical-replay contract (the recorded flows already
      // reflect any faults of the capture run).
      throw ConfigError("trace replay cannot run under link faults (effective fault rate " +
                        std::to_string(rv.fault_rate) + "); set fault_rate = 0 for '" +
                        rv.workload + "'");
    }
    const noc::FaultSet faults = draw_link_faults(cfg.dims(), rv.fault_rate, cfg.seed);
    flows = reroute_around_faults(cfg.dims(), flows, faults, pending_dropped_);
  }
  if (flows.empty()) throw ConfigError("no routable flows (all dropped by faults)");

  // 3. Build the network. SMART eras run from the *decoded registers*: the
  //    store program is diffed against the bank left by the previous era,
  //    which is what makes mid-scenario reconfiguration cost the paper's
  //    "just the amount of time to execute these instructions".
  fold_shard_metrics();  // the outgoing network's counters die with it
  owned_source_.reset();
  owned_net_.reset();
  net_ = nullptr;
  source_ = nullptr;
  switch (spec_.design) {
    case Design::Mesh:
      hpc_max_ = 0;
      owned_net_ = noc::make_baseline_mesh(cfg, std::move(flows));
      break;
    case Design::Dedicated:
      hpc_max_ = 0;
      owned_net_ = std::make_unique<dedicated::DedicatedNetwork>(cfg, std::move(flows));
      break;
    case Design::Smart: {
      hpc_max_ = smart::effective_hpc_max(cfg);
      const smart::PresetBuild presets =
          smart::compute_presets(cfg, flows, hpc_max_, /*enable_bypass=*/true);
      if (!regs_) regs_ = std::make_unique<smart::RegisterFile>(cfg.dims().nodes());
      const auto program = smart::compile_program_diff(presets.table, *regs_);
      ev.stores = static_cast<int>(program.size());
      for (const smart::Store& st : program) {
        regs_->store(st.addr, st.value);
        ev.store_cycles += spec_.store_issue_cycles;
        if (spec_.single_config_core) {
          // One core performs all stores over a side ring: one hop per
          // ring position to reach router i.
          ev.store_cycles += static_cast<Cycle>((st.addr - smart::RegisterFile::kBase) /
                                                smart::RegisterFile::kStride);
        }
      }
      noc::PresetTable decoded = regs_->decode_all(cfg.dims());
      SMARTNOC_CHECK(decoded == presets.table, "register round-trip altered the presets");
      noc::MeshNetwork::Options opt;
      opt.extra_link_cycle = false;  // crossbar + link share the ST cycle
      opt.hpc_max = hpc_max_;
      owned_net_ =
          std::make_unique<noc::MeshNetwork>(cfg, std::move(flows), std::move(decoded), opt);
      break;
    }
  }
  net_ = owned_net_.get();
  if (probe_ != nullptr) {
    if (cfg.flits_per_packet() != probe_->flits_per_packet()) {
      // A trace:<file> workload swaps in the recorded configuration; the
      // probe's occupancy accounting is in flits, so a silent packet-size
      // change would skew it. Surface the mismatch instead.
      throw ConfigError("workload '" + rv.workload + "' changed the packet size (" +
                        std::to_string(cfg.flits_per_packet()) + " flits/packet vs " +
                        std::to_string(probe_->flits_per_packet()) +
                        " declared); telemetry needs a constant packet size");
    }
    net_->set_observer(probe_.get());
  }
  era_cfg_ = cfg;
  // Permanent kills and unexpired stalls from the fault schedule outlive a
  // reconfiguration: the fresh network is built fault-free, then each
  // surviving fault is re-applied through the same online-surgery path
  // (idempotent, so both directed halves of a cut link are harmless).
  if (!session_dead_links_.links().empty() || !session_stalls_.empty()) {
    auto* mesh = dynamic_cast<noc::MeshNetwork*>(net_);
    SMARTNOC_CHECK(mesh != nullptr, "fault events require a mesh-based network");
    for (const auto& [node, diridx] : session_dead_links_.links()) {
      noc::FaultAction a;
      a.kind = noc::FaultAction::Kind::Kill;
      a.node = node;
      a.dir = dir_from_index(diridx);
      mesh->apply_fault_action(a);
    }
    std::vector<std::pair<NodeId, Cycle>> still;
    for (const auto& [node, until] : session_stalls_) {
      if (until <= session_cycles_) continue;  // released before the switch
      noc::FaultAction a;
      a.kind = noc::FaultAction::Kind::Stall;
      a.node = node;
      a.until = net_->now() + (until - session_cycles_);
      mesh->apply_fault_action(a);
      still.emplace_back(node, until);
    }
    session_stalls_ = std::move(still);
  }
  // A new era opens a new capture section: its own config + (possibly
  // rerouted) flow table, records timestamped by the new era-local clock.
  if (trace_writer_ != nullptr) trace_writer_->begin_era(era_cfg_, net_->flows());

  // 4. The per-cycle source for the final (possibly rerouted) flow set.
  owned_source_ = factory->source(cfg, net_->flows(), cfg.seed);
  source_ = owned_source_.get();

  pending_reconfig_ = ev;
  era_count_ += 1;
  // The new network starts with fresh statistics: the measurement window
  // restarts with it (otherwise a post-switch phase would divide the new
  // era's deliveries by the previous era's window length). The probe's
  // activity window snapshots in lockstep so it keeps matching the stats
  // window bit-for-bit.
  window_measured_ = 0;
  if (probe_ != nullptr) probe_->window_reset();
  const double dt = seconds_since(t_build);
  profile_.reconfig_seconds += dt;
  phase_wall_seconds_ += dt;
}

// --- Phase execution ---------------------------------------------------------

void Session::begin_phase() {
  if (phase_started_) return;
  const PhaseSpec& ph = phases()[phase_index_];
  const Resolved& rv = resolved_[phase_index_];
  phase_cycles_ = 0;  // a phase that fails to start ran no cycles
  if (owning_ && rv.new_era) {
    switch_era(rv);  // throws on failure; step() converts to a failed phase
  }
  SMARTNOC_CHECK(net_ != nullptr && source_ != nullptr, "session has no network");
  if (probe_ != nullptr) probe_->mark(ph.name, net_->now(), rv.new_era);
  source_->set_enabled(ph.traffic);
  if (ph.measure) {
    net_->stats().reset();
    window_measured_ = 0;
    // Snapshot the probe's cumulative activity exactly when the stats
    // window resets: Probe::window_activity() then reproduces the window's
    // ActivityCounters bit-for-bit (same integer deltas, same boundaries),
    // which is what pins the power series against the Fig. 10b breakdown.
    if (probe_ != nullptr) probe_->window_reset();
  }
  phase_gen_before_ = source_->generated();
  phase_started_ = true;
}

void Session::end_phase(const PhaseSpec& ph, const Resolved& rv, const std::string* failure) {
  PhaseResult r;
  r.name = ph.name;
  r.workload = rv.workload;
  r.injection = rv.injection;
  r.cycles_run = phase_cycles_;
  r.drain = ph.drain;
  r.reconfig = std::exchange(pending_reconfig_, {});
  r.dropped_flows = std::exchange(pending_dropped_, 0);
  r.wall_seconds = std::exchange(phase_wall_seconds_, 0.0);
  if (failure != nullptr) {
    r.ok = false;
    r.error = *failure;
    r.drained = false;
  } else {
    r.measured = ph.measure;
    if (ph.measure) {
      window_measured_ += phase_cycles_;
      net_->stats().measured_cycles = window_measured_;
    }
    r.packets_generated = source_->generated() - phase_gen_before_;
    r.activity = net_->stats().activity();

    const noc::NetworkStats& stats = net_->stats();
    r.packets_delivered = stats.total_packets();
    r.avg_network_latency = stats.avg_network_latency();
    r.avg_total_latency = stats.avg_total_latency();
    r.p50_network_latency = stats.latency_percentile(50.0);
    r.p99_network_latency = stats.latency_percentile(99.0);
    for (const noc::FlowStats& fs : stats.per_flow()) {
      if (fs.max_network_latency > r.max_network_latency) {
        r.max_network_latency = fs.max_network_latency;
      }
    }
    r.delivered_packets_per_cycle =
        window_measured_
            ? static_cast<double>(r.packets_delivered) / static_cast<double>(window_measured_)
            : 0.0;

    if (ph.drain) {
      r.drained = net_->drained();
      if (!r.drained) {
        // A non-drained network means packets from the measurement window
        // never arrived; the statistics above are censored. Surface the
        // timeout as a failure uniformly (Session, run_simulation and the
        // explorer all report this same way).
        r.ok = false;
        r.error = drain_timeout_error(phase_bound(ph, spec_.config.drain_timeout),
                                      net_->stall_report().summary());
      }
    }
    report_progress(ph);
  }
  if (!r.ok) {
    failed_ = true;
    if (error_.empty()) error_ = r.error;
  }
  results_.push_back(std::move(r));
  phase_index_ += 1;
  phase_started_ = false;
}

void Session::fire_due_faults() {
  if (fault_next_ == noc::FaultSchedule::kNever || session_cycles_ < fault_next_) return;
  auto* mesh = dynamic_cast<noc::MeshNetwork*>(net_);
  SMARTNOC_CHECK(mesh != nullptr, "fault events require a mesh-based network");
  while (const noc::FaultAction* act = fault_schedule_.pop_due(session_cycles_)) {
    noc::FaultAction local = *act;
    if (local.kind == noc::FaultAction::Kind::Stall) {
      // Event cycles count whole-session time; the router compares against
      // the era-local clock. Translate the release cycle at fire time.
      local.until = local.until > session_cycles_
                        ? net_->now() + (local.until - session_cycles_)
                        : net_->now();
      session_stalls_.emplace_back(local.node, act->until);
    } else if (local.kind == noc::FaultAction::Kind::Kill) {
      session_dead_links_.fail_link(era_cfg_.dims(), local.node, local.dir);
    } else {
      session_dead_links_.repair_link(era_cfg_.dims(), local.node, local.dir);
    }
    mesh->apply_fault_action(local);
  }
  fault_next_ = fault_schedule_.next_cycle();
}

bool Session::watchdog_tripped(std::string& why) {
  const Cycle window = era_cfg_.watchdog_window;
  if (window == 0) return false;
  // Forward progress = any flit movement, delivery, drop or retransmission.
  // Stats resets (measure phases) perturb the fingerprint, which harmlessly
  // counts as progress and restarts the window.
  const noc::NetworkStats& st = net_->stats();
  const noc::ActivityCounters& act = st.activity();
  const std::uint64_t fp = act.buffer_writes + act.buffer_reads + act.alloc_grants +
                           act.pipeline_latches + st.total_packets() +
                           st.faults().packets_dropped + st.faults().packets_retransmitted;
  if (fp != wd_progress_ || net_->drained()) {
    // A drained network is idle, not stuck: quiet traffic phases (very low
    // injection, or every flow degraded) must not trip the watchdog.
    wd_progress_ = fp;
    wd_last_progress_ = session_cycles_;
    return false;
  }
  if (session_cycles_ - wd_last_progress_ < window) return false;
  const noc::StallReport report = net_->stall_report();
  if (report.retry_waiting > 0) {
    // Retry backoff is latency, not deadlock: sources are deliberately
    // holding packets back. Restart the window instead of tripping.
    wd_last_progress_ = session_cycles_;
    return false;
  }
  why = "liveness watchdog: no forward progress for " + std::to_string(window) + " cycles [" +
        report.summary() + "]";
  return true;
}

void Session::report_progress(const PhaseSpec& ph) {
  if (!progress_) return;
  Progress p;
  p.phase_index = phase_index_;
  p.phase_name = &ph.name;
  p.phase_cycles_run = phase_cycles_;
  p.phase_cycles_total = ph.drain ? 0 : ph.cycles;
  p.session_cycles = session_cycles_;
  progress_(p);
}

Cycle Session::step(Cycle n) {
  if (done()) return 0;
  const PhaseSpec& ph = phases()[phase_index_];
  const Resolved& rv = resolved_[phase_index_];
  if (!phase_started_) {
    try {
      begin_phase();
    } catch (const std::exception& e) {
      const std::string why = e.what();
      end_phase(ph, rv, &why);
      return 0;
    }
  }

  // One loop for every phase kind: a drain phase also stops once the
  // network empties, and only a traffic phase generates.
  const bool drain = ph.drain;
  const bool generate = !drain && ph.traffic;
  const Cycle bound = phase_bound(ph, spec_.config.drain_timeout);
  double& profile_seconds = drain ? profile_.drain_seconds : profile_.traffic_seconds;
  std::uint64_t& profile_cycles = drain ? profile_.drain_cycles : profile_.traffic_cycles;
  Cycle advanced = 0;
  std::string stalled;  // the watchdog's diagnosis, once it trips
  const auto t0 = ProfClock::now();
  while (advanced < n && phase_cycles_ < bound && !(drain && net_->drained())) {
    net_->tick();
    if (generate) source_->generate(*net_);
    phase_cycles_ += 1;
    session_cycles_ += 1;
    advanced += 1;
    fire_due_faults();
    if (watchdog_tripped(stalled)) break;
    if (progress_every_ && phase_cycles_ % progress_every_ == 0) report_progress(ph);
  }
  const double dt = seconds_since(t0);
  profile_seconds += dt;
  profile_cycles += advanced;
  phase_wall_seconds_ += dt;
  if (!stalled.empty()) {
    end_phase(ph, rv, &stalled);
  } else if (phase_cycles_ >= bound || (drain && net_->drained())) {
    end_phase(ph, rv, nullptr);
  }
  // Publish simulated time so log lines carry "cycle N" context.
  Log::sim_cycle() = static_cast<long long>(session_cycles_);
  return advanced;
}

const PhaseResult& Session::run_phase() {
  SMARTNOC_CHECK(!done(), "scenario already complete");
  const std::size_t idx = phase_index_;
  while (!done() && phase_index_ == idx) {
    step(1 << 20);
  }
  return results_.back();
}

SessionResult Session::run() {
  while (!done()) {
    run_phase();
  }
  flush_telemetry();
  SessionResult out;
  out.ok = !failed_;
  out.error = error_;
  out.phases = results_;
  out.profile = profile_;
  if (net_ != nullptr) out.faults = net_->stats().faults();

  // Process-level aggregates over every session this process ran. The
  // ns/cycle gauge is the most recent session's rate (a scrape-time health
  // signal, not an average). Instruments resolve once; updates are relaxed
  // atomics and never reach SessionResult.
  {
    auto& reg = obs::MetricsRegistry::global();
    static obs::Counter& runs =
        reg.counter("smartnoc_session_runs_total", "Sessions completed by this process");
    static obs::Counter& cycles =
        reg.counter("smartnoc_session_cycles_total", "Simulated cycles across all sessions");
    static obs::Gauge& ns_per_cycle =
        reg.gauge("smartnoc_session_ns_per_cycle", "Wall ns per simulated cycle, last session");
    runs.inc();
    cycles.inc(static_cast<double>(profile_.cycles()));
    if (profile_.cycles() != 0) ns_per_cycle.set(profile_.ns_per_cycle());
  }
  fold_shard_metrics();  // final era (earlier eras folded at each switch)
  return out;
}

void Session::fold_shard_metrics() {
  auto* mesh = dynamic_cast<noc::MeshNetwork*>(net_);
  if (mesh == nullptr || mesh->shard_count() <= 1) return;
  auto& reg = obs::MetricsRegistry::global();
  const std::vector<noc::MeshNetwork::ShardTelemetry> tel = mesh->shard_telemetry();
  // Labeled per shard index, so registration is per (name, label) rather
  // than the static-reference pattern the unlabeled session counters use.
  for (std::size_t k = 0; k < tel.size(); ++k) {
    const std::string label = "shard=\"" + std::to_string(k) + "\"";
    reg.counter("smartnoc_shard_ticks_total",
                "Tick passes executed by each shard of the parallel cycle kernel", label)
        .inc(static_cast<double>(tel[k].ticks));
    reg.counter("smartnoc_shard_boundary_flits_total",
                "Flits shipped across shard boundaries through the mailboxes", label)
        .inc(static_cast<double>(tel[k].boundary_flits));
    reg.counter("smartnoc_shard_barrier_wait_seconds_total",
                "Wall-clock barrier residency accumulated by each shard thread", label)
        .inc(tel[k].barrier_wait_seconds);
  }
}

void Session::flush_telemetry() {
  if (probe_ == nullptr || telemetry_flushed_) return;
  telemetry_flushed_ = true;
  const TelemetrySpec& tel = spec_.telemetry;
  // Close the streaming capture (chunk flush + end marker). A session that
  // failed before its first era has nothing to finish: leave the header-only
  // file as is rather than fabricate an empty era section.
  if (trace_writer_ != nullptr && trace_writer_->eras() > 0) trace_writer_->finish();
  if (probe_->events_truncated()) {
    SMARTNOC_LOG_WARN(
        "telemetry: chrome link-event capture truncated at %llu events "
        "(raise telemetry.chrome_events to keep more)",
        static_cast<unsigned long long>(probe_->events().size()));
  }
  if (!tel.csv.empty()) {
    write_file_atomic(tel.csv, telemetry::export_time_series_csv(*probe_));
  }
  // Power folding uses the live era's configuration (frequency and link
  // swing never change across eras - workload factories only adjust the
  // bandwidth scale - so one EnergyParams covers the whole timeline).
  const NocConfig& pcfg = era_count_ > 0 ? era_cfg_ : spec_.config;
  if (!tel.power_csv.empty()) {
    write_file_atomic(tel.power_csv,
                      telemetry::export_power_series_csv(*probe_, pcfg,
                                                         power::EnergyParams::for_config(pcfg)));
  }
  if (!tel.heatmap.empty()) {
    const Cycle span = net_ != nullptr ? probe_->global_cycle(net_->now()) : 0;
    write_file_atomic(tel.heatmap, telemetry::export_link_heatmap_csv(*probe_, span));
    write_file_atomic(tel.heatmap + ".txt", telemetry::export_link_heatmap_ascii(*probe_));
  }
  if (!tel.chrome.empty()) {
    if (probe_->power_series_enabled()) {
      const power::EnergyParams ep = power::EnergyParams::for_config(pcfg);
      write_file_atomic(tel.chrome, telemetry::export_chrome_trace_json(*probe_, &pcfg, &ep));
    } else {
      write_file_atomic(tel.chrome, telemetry::export_chrome_trace_json(*probe_));
    }
  }
}

// --- Accessors ---------------------------------------------------------------

noc::Network& Session::network() {
  if (net_ == nullptr) {
    throw SimError("no network yet: call step()/run_phase() to enter the first phase");
  }
  return *net_;
}

noc::MeshNetwork* Session::mesh_network() { return dynamic_cast<noc::MeshNetwork*>(net_); }

const NocConfig& Session::era_config() const { return era_cfg_; }

void Session::set_progress(ProgressFn fn, Cycle every) {
  progress_ = std::move(fn);
  progress_every_ = every;
}

// --- Reporting ---------------------------------------------------------------

std::string summarize(const SessionResult& result) {
  TextTable table({"phase", "workload", "cycles", "reconfig", "packets", "avg lat", "p99 lat",
                   "thru pkt/cyc", "status"});
  for (const PhaseResult& p : result.phases) {
    std::string reconfig = "-";
    if (p.reconfig.performed) {
      reconfig = strf("%llu (%d st)", static_cast<unsigned long long>(p.reconfig.total()),
                      p.reconfig.stores);
    }
    table.add_row({p.name, p.workload.empty() ? "-" : p.workload,
                   strf("%llu", static_cast<unsigned long long>(p.cycles_run)), reconfig,
                   strf("%llu", static_cast<unsigned long long>(p.packets_delivered)),
                   strf("%.2f", p.avg_network_latency),
                   strf("%llu", static_cast<unsigned long long>(p.p99_network_latency)),
                   strf("%.4f", p.delivered_packets_per_cycle),
                   p.ok ? (p.drain ? (p.drained ? "drained" : "TIMEOUT") : "ok")
                        : "FAILED: " + p.error});
  }
  std::string out = table.str();
  out += strf("total reconfiguration latency: %llu cycles\n",
              static_cast<unsigned long long>(result.total_reconfig_cycles()));
  const noc::FaultCounters& fc = result.faults;
  if (fc.link_kills + fc.link_repairs + fc.router_stalls + fc.packets_dropped +
          fc.packets_retransmitted !=
      0) {
    out += strf(
        "fault recovery: %llu kills / %llu repairs / %llu stalls; %llu flits purged, "
        "%llu retransmits, %llu drops; %llu flows rerouted, %llu failed, %llu revived, "
        "%llu chains truncated\n",
        static_cast<unsigned long long>(fc.link_kills),
        static_cast<unsigned long long>(fc.link_repairs),
        static_cast<unsigned long long>(fc.router_stalls),
        static_cast<unsigned long long>(fc.flits_purged),
        static_cast<unsigned long long>(fc.packets_retransmitted),
        static_cast<unsigned long long>(fc.packets_dropped),
        static_cast<unsigned long long>(fc.flows_rerouted),
        static_cast<unsigned long long>(fc.flows_failed),
        static_cast<unsigned long long>(fc.flows_revived),
        static_cast<unsigned long long>(fc.chains_truncated));
  }
  const RunProfile& prof = result.profile;
  if (prof.cycles() != 0 || prof.reconfig_seconds > 0.0) {
    out += strf(
        "self-profile: %.3f s wall (%.1f ns/cycle; traffic %.3f s / %llu cyc, "
        "drain %.3f s / %llu cyc, reconfig %.3f s)\n",
        prof.total_seconds(), prof.ns_per_cycle(), prof.traffic_seconds,
        static_cast<unsigned long long>(prof.traffic_cycles), prof.drain_seconds,
        static_cast<unsigned long long>(prof.drain_cycles), prof.reconfig_seconds);
  }
  return out;
}

std::string to_json(const SessionResult& result) {
  const auto& esc = json_escape;
  std::string out = "{\n  \"ok\": ";
  out += result.ok ? "true" : "false";
  out += ",\n  \"error\": \"" + esc(result.error) + "\",\n";
  out += strf("  \"total_reconfig_cycles\": %llu,\n",
              static_cast<unsigned long long>(result.total_reconfig_cycles()));
  const RunProfile& prof = result.profile;
  out += strf(
      "  \"profile\": {\"traffic_seconds\": %.6g, \"traffic_cycles\": %llu, "
      "\"drain_seconds\": %.6g, \"drain_cycles\": %llu, \"reconfig_seconds\": %.6g, "
      "\"ns_per_cycle\": %.6g},\n",
      prof.traffic_seconds, static_cast<unsigned long long>(prof.traffic_cycles),
      prof.drain_seconds, static_cast<unsigned long long>(prof.drain_cycles),
      prof.reconfig_seconds, prof.ns_per_cycle());
  const noc::FaultCounters& fc = result.faults;
  out += strf(
      "  \"faults\": {\"packets_offered\": %llu, \"packets_dropped\": %llu, "
      "\"packets_retransmitted\": %llu, \"flits_purged\": %llu, \"flows_rerouted\": %llu, "
      "\"flows_failed\": %llu, \"flows_revived\": %llu, \"chains_truncated\": %llu, "
      "\"link_kills\": %llu, \"link_repairs\": %llu, \"router_stalls\": %llu},\n",
      static_cast<unsigned long long>(fc.packets_offered),
      static_cast<unsigned long long>(fc.packets_dropped),
      static_cast<unsigned long long>(fc.packets_retransmitted),
      static_cast<unsigned long long>(fc.flits_purged),
      static_cast<unsigned long long>(fc.flows_rerouted),
      static_cast<unsigned long long>(fc.flows_failed),
      static_cast<unsigned long long>(fc.flows_revived),
      static_cast<unsigned long long>(fc.chains_truncated),
      static_cast<unsigned long long>(fc.link_kills),
      static_cast<unsigned long long>(fc.link_repairs),
      static_cast<unsigned long long>(fc.router_stalls));
  out += "  \"phases\": [\n";
  for (std::size_t i = 0; i < result.phases.size(); ++i) {
    const PhaseResult& p = result.phases[i];
    out += "    {";
    out += "\"name\": \"" + esc(p.name) + "\", ";
    out += "\"workload\": \"" + esc(p.workload) + "\", ";
    out += strf("\"injection\": %.17g, ", p.injection);
    out += std::string("\"ok\": ") + (p.ok ? "true" : "false") + ", ";
    out += "\"error\": \"" + esc(p.error) + "\", ";
    out += strf("\"cycles_run\": %llu, ", static_cast<unsigned long long>(p.cycles_run));
    out += std::string("\"measured\": ") + (p.measured ? "true" : "false") + ", ";
    out += std::string("\"drain\": ") + (p.drain ? "true" : "false") + ", ";
    out += std::string("\"drained\": ") + (p.drained ? "true" : "false") + ", ";
    out += strf("\"dropped_flows\": %d, ", p.dropped_flows);
    out += strf("\"reconfigured\": %s, ", p.reconfig.performed ? "true" : "false");
    out += strf("\"reconfig_drain_cycles\": %llu, ",
                static_cast<unsigned long long>(p.reconfig.drain_cycles));
    out += strf("\"reconfig_stores\": %d, ", p.reconfig.stores);
    out += strf("\"reconfig_store_cycles\": %llu, ",
                static_cast<unsigned long long>(p.reconfig.store_cycles));
    out += strf("\"packets_generated\": %llu, ",
                static_cast<unsigned long long>(p.packets_generated));
    out += strf("\"packets_delivered\": %llu, ",
                static_cast<unsigned long long>(p.packets_delivered));
    out += strf("\"avg_network_latency\": %.17g, ", p.avg_network_latency);
    out += strf("\"avg_total_latency\": %.17g, ", p.avg_total_latency);
    out += strf("\"p50_network_latency\": %llu, ",
                static_cast<unsigned long long>(p.p50_network_latency));
    out += strf("\"p99_network_latency\": %llu, ",
                static_cast<unsigned long long>(p.p99_network_latency));
    out += strf("\"max_network_latency\": %llu, ",
                static_cast<unsigned long long>(p.max_network_latency));
    out += strf("\"delivered_packets_per_cycle\": %.17g, ", p.delivered_packets_per_cycle);
    out += strf("\"wall_seconds\": %.6g", p.wall_seconds);
    out += "}";
    out += i + 1 < result.phases.size() ? ",\n" : "\n";
  }
  out += "  ]\n}\n";
  return out;
}

}  // namespace smartnoc::sim
