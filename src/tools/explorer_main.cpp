// explorer - batch design-space exploration over the SMART NoC simulator.
//
// Runs the cross product of the declared axes concurrently (one
// independent network per run, work-stealing across threads) and prints a
// summary table with the latency/power/area Pareto frontier starred.
// Results are bit-identical for any --threads value.
//
// Usage:
//   explorer sweep.txt                      # axes from a sweep file
//   explorer --mesh 4x4,8x8 --inj 0.02,0.05 --design mesh,smart
//   explorer sweep.txt --threads 8 --csv out.csv --json out.json
//   explorer --scenario phases.scn          # one multi-phase Session run
//
// Sweep file format: `key = v1, v2, ...` lines over a base scenario: the
// axes mesh, flit_bits, hpc, injection, workload (pattern, app),
// fault_rate, fault_schedule and design, plus seed, scenario_files and any
// scenario-file key with one value (warmup, measure, drain_timeout, ...).
// `#` starts a comment.
//
// Scenario files (--scenario) use the sim::parse_scenario text or JSON
// form: scenario-level `key = value` lines plus one `phase ...` line per
// phase; see examples/appswitch.scn. The per-phase table (including the
// reconfiguration latency of every workload switch) prints to stdout;
// --json captures it as JSON.
//
// Serving mode (subcommands): `explorer submit QUEUE sweep.txt` enqueues a
// sweep into a filesystem job queue, `explorer serve QUEUE` executes it
// with per-point checkpointing (kill/restart resumes; only missing points
// rerun) through the shared content-addressed result cache, and
// status/results/pareto answer queries about any job - running or done.
// `--cache DIR` gives a plain sweep the same cache without the queue.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/file_io.hpp"
#include "common/parse.hpp"
#include "common/table.hpp"
#include "explore/explore.hpp"
#include "obs/export.hpp"
#include "obs/spans.hpp"
#include "serve/serve.hpp"
#include "sim/runner.hpp"

namespace {

using namespace smartnoc;

int usage(const char* argv0, int code) {
  std::fprintf(code ? stderr : stdout,
               "usage: %s [sweep-file] [options]\n"
               "\n"
               "axes (comma-separated lists; override the sweep file):\n"
               "  --mesh WxH,...        mesh sizes            (default 4x4)\n"
               "  --flits N,...         channel width in bits  (default 32)\n"
               "  --hpc N,...           HPC_max override, 0 = circuit model\n"
               "  --inj X,...           injection: flits/node/cycle (synthetic)\n"
               "                        or bandwidth multiplier (apps)\n"
               "  --pattern P,...       uniform transpose bit-complement neighbor hotspot\n"
               "  --app A,...           h264 mms_dec mms_enc mms_mp3 mwd vopd wlan pip\n"
               "                        (either flag takes any registered workload,\n"
               "                        trace:<file> included)\n"
               "  --faults X,...        link fault probability (default 0)\n"
               "  --design D,...        mesh smart dedicated   (default smart)\n"
               "\n"
               "simulation window:\n"
               "  --seed N --warmup N --measure N --drain N\n"
               "\n"
               "execution and output:\n"
               "  --threads N           worker threads (default: all cores)\n"
               "  --csv FILE            write the result table as CSV\n"
               "  --json FILE           write the result table as JSON\n"
               "  --quiet               suppress the summary table\n"
               "  --help\n"
               "\n"
               "telemetry (per-point in sweep mode, per-run in scenario mode):\n"
               "  --telemetry PREFIX    write epoch time series, per-epoch power\n"
               "                        breakdown, and link heatmap (<PREFIX>_p<i>.csv /\n"
               "                        _power.csv / _heatmap.csv per point)\n"
               "  --telemetry-epoch N   sample window in cycles (default 1024)\n"
               "  --record-trace PREFIX capture a binary packet trace per point\n"
               "                        (<PREFIX>_p<i>.sntr; replay with the\n"
               "                        trace:<file>[@era] workload or trace_tool)\n"
               "\n"
               "scenario mode (multi-phase Session run instead of a sweep):\n"
               "  --scenario FILE       run a scenario file (text or JSON); prints\n"
               "                        per-phase stats + reconfiguration latency;\n"
               "                        --json/--quiet/--telemetry/--record-trace apply\n"
               "\n"
               "observability (process metrics and timelines; see README):\n"
               "  --metrics-out FILE    after the sweep, write the metrics registry\n"
               "                        in Prometheus text format (executor, cache,\n"
               "                        session families)\n"
               "  --trace-spans FILE    chrome://tracing timeline of the executor\n"
               "                        (one lane per worker, point spans, steals)\n"
               "\n"
               "serving (content-addressed result cache + resumable job queue):\n"
               "  %s sweep.txt --cache DIR      reuse cached point results\n"
               "  %s submit QUEUE sweep.txt...  enqueue sweeps (prints job ids)\n"
               "  %s serve QUEUE [--once] [--threads N] [--poll SEC] [--quiet]\n"
               "            [--heartbeat SEC] [--trace-spans]\n"
               "                        run queued sweeps; checkpointed per point, a\n"
               "                        killed server resumes where it stopped; writes\n"
               "                        metrics.prom + heartbeat.json into QUEUE\n"
               "  %s status QUEUE [JOB] [--watch]  queue / per-job progress\n"
               "  %s metrics QUEUE [--json]     last scraped metrics snapshot\n"
               "  %s results QUEUE JOB [--json] completed rows (CSV by default)\n"
               "  %s pareto QUEUE JOB           the job's Pareto frontier\n",
               argv0, argv0, argv0, argv0, argv0, argv0, argv0, argv0);
  return code;
}

/// Writes an output file; false, with the message printed, when it cannot.
bool write_file(const std::string& path, const std::string& content) {
  try {
    write_file_atomic(path, content);
    return true;
  } catch (const ConfigError&) {
    std::fprintf(stderr, "error: cannot write '%s'\n", path.c_str());
    return false;
  }
}

struct TelemetryArgs {
  std::string prefix;       ///< --telemetry
  std::string trace_prefix; ///< --record-trace
  Cycle epoch = 0;          ///< --telemetry-epoch; 0 = not given (scenario
                            ///< files keep their declared epoch, else 1024)
};

int run_scenario_file(const std::string& path, const std::string& json_path, bool quiet,
                      const TelemetryArgs& tel) {
  std::string text;
  try {
    text = read_file(path, "scenario file");
  } catch (const ConfigError& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }
  sim::ScenarioSpec spec = sim::parse_scenario(text);
  // CLI telemetry flags layer over the scenario's block.
  sim::set_telemetry_outputs(spec.telemetry, tel.prefix, tel.trace_prefix, tel.epoch);
  spec.validate();
  sim::Session session(spec);
  if (!quiet) {
    std::fprintf(stderr, "scenario '%s': %zu phases on a %dx%d %s fabric...\n",
                 spec.name.c_str(), spec.phases.size(), spec.config.width, spec.config.height,
                 design_name(spec.design));
    session.set_progress(
        [](const sim::Session::Progress& p) {
          std::fprintf(stderr, "  phase %zu (%s): %llu cycles\n", p.phase_index,
                       p.phase_name->c_str(),
                       static_cast<unsigned long long>(p.phase_cycles_run));
        },
        50'000);
  }
  const sim::SessionResult result = session.run();
  if (!quiet) std::fputs(sim::summarize(result).c_str(), stdout);
  if (session.probe() != nullptr && session.probe()->events_truncated()) {
    std::fprintf(stderr,
                 "warning: chrome link-event capture truncated at %zu events; raise "
                 "telemetry_chrome_events in the scenario to keep more\n",
                 session.probe()->events().size());
  }
  if (!json_path.empty() && !write_file(json_path, sim::to_json(result))) return 1;
  if (!result.ok) {
    std::fprintf(stderr, "scenario failed: %s\n", result.error.c_str());
    return 1;
  }
  return 0;
}

/// A job's result rows: the final table when Done, otherwise whatever the
/// checkpoint holds so far (in matrix order).
explore::ResultTable load_job_table(const serve::JobStore& store, const std::string& id) {
  if (store.info(id).state == serve::JobInfo::State::Done) {
    return explore::ResultTable::from_csv(
        read_file(store.job_dir(id) + "/results.csv"));
  }
  explore::ResultTable table;
  for (const auto& [index, rec] : store.load_checkpoint(id)) table.add(rec);
  return table;
}

void print_cache_report(const serve::ResultCache& cache) {
  const serve::ResultCache::Counters c = cache.counters();
  std::fprintf(stderr, "cache: %llu hits, %llu misses, %llu inserts (%zu entries in %s)\n",
               static_cast<unsigned long long>(c.hits), static_cast<unsigned long long>(c.misses),
               static_cast<unsigned long long>(c.inserts), cache.size(), cache.file().c_str());
  if (c.corrupt_dropped > 0) {
    std::fprintf(stderr, "cache: dropped %llu corrupt entries (recomputed)\n",
                 static_cast<unsigned long long>(c.corrupt_dropped));
  }
}

/// The serve/submit/status/results/pareto subcommands. `cmd` is argv[1];
/// positional args after it are the queue directory and (where needed) a
/// job id or sweep files.
int serve_cli(const std::string& cmd, int argc, char** argv) {
  std::vector<std::string> pos;
  serve::ServeOptions opt;
  bool json_out = false;
  bool watch = false;
  for (int i = 2; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) throw ConfigError(a + " needs a value");
      return argv[++i];
    };
    if (a == "--threads") opt.threads = parse_int_token(next(), "threads");
    else if (a == "--once") opt.once = true;
    else if (a == "--poll") opt.poll_seconds = parse_double_token(next(), "poll");
    else if (a == "--quiet") opt.quiet = true;
    else if (a == "--json") json_out = true;
    else if (a == "--watch") watch = true;
    else if (a == "--heartbeat") {
      opt.heartbeat_seconds = parse_double_token(next(), "heartbeat");
    } else if (a == "--trace-spans") opt.trace_spans = true;
    else if (!a.empty() && a[0] == '-') {
      std::fprintf(stderr, "unknown option '%s' for '%s'\n", a.c_str(), cmd.c_str());
      return 2;
    } else {
      pos.push_back(a);
    }
  }
  if (pos.empty()) {
    std::fprintf(stderr, "%s needs a queue directory (see --help)\n", cmd.c_str());
    return 2;
  }

  if (cmd == "metrics") {
    // Reads the snapshot the server last dropped into the queue dir; no
    // server process needs to be up (the point of the textfile pattern).
    const std::string path =
        (std::filesystem::path(pos[0]) / (json_out ? "metrics.json" : "metrics.prom")).string();
    try {
      std::fputs(read_file(path).c_str(), stdout);
    } catch (const std::exception&) {
      std::fprintf(stderr, "no metrics snapshot at '%s' (has a server run here?)\n",
                   path.c_str());
      return 1;
    }
    return 0;
  }

  serve::JobStore store(pos[0]);

  if (cmd == "submit") {
    if (pos.size() < 2) {
      std::fprintf(stderr, "submit needs at least one sweep file\n");
      return 2;
    }
    for (std::size_t k = 1; k < pos.size(); ++k) {
      const std::string text = read_file(pos[k]);
      // Reject malformed sweeps at the door, with line numbers, instead of
      // letting the server mark the job FAILED later.
      const explore::SweepSpec spec = explore::parse_sweep(text);
      const std::string id =
          store.submit(text, std::filesystem::path(pos[k]).stem().string());
      std::printf("%s\n", id.c_str());  // ids on stdout, one per line, for scripting
      if (!opt.quiet) {
        std::fprintf(stderr, "submitted '%s' as %s (%zu points)\n", pos[k].c_str(), id.c_str(),
                     spec.size());
      }
    }
    return 0;
  }

  if (cmd == "serve") {
    serve::ResultCache cache(store.cache_dir());
    const int failed = serve::serve_loop(store, cache, opt);
    if (!opt.quiet) print_cache_report(cache);
    return failed > 0 ? 1 : 0;
  }

  if (cmd == "status") {
    if (watch) {
      // Live view off heartbeat.json: poll until no job is left runnable.
      // Reading files (not talking to the server) means this works even if
      // the watcher outlives the server or starts before it.
      for (;;) {
        bool active = false;
        std::size_t jobs = 0, done_jobs = 0;
        for (const std::string& id : store.job_ids()) {
          const serve::JobInfo info = store.info(id);
          ++jobs;
          if (info.state == serve::JobInfo::State::Done ||
              info.state == serve::JobInfo::State::Failed) {
            ++done_jobs;
          } else {
            active = true;
          }
        }
        std::string line = strf("[watch] %zu/%zu jobs finished", done_jobs, jobs);
        try {
          const obs::Heartbeat hb = obs::heartbeat_from_json(
              read_file(store.root() + "/heartbeat.json"));
          if (!hb.job.empty() && hb.points_total > 0) {
            line += strf(" | %s: %llu/%llu (%d%%) %.1f points/s eta %.0fs", hb.job.c_str(),
                         static_cast<unsigned long long>(hb.points_done),
                         static_cast<unsigned long long>(hb.points_total),
                         static_cast<int>(100.0 * static_cast<double>(hb.points_done) /
                                          static_cast<double>(hb.points_total)),
                         hb.points_per_sec, hb.eta_seconds);
          } else {
            line += strf(" | server pid %lld idle (up %.0fs)", hb.pid, hb.uptime_seconds);
          }
        } catch (const std::exception&) {
          line += " | no heartbeat yet";
        }
        std::fprintf(stderr, "\r%-78.78s", line.c_str());
        std::fflush(stderr);
        if (!active) break;
        std::this_thread::sleep_for(
            std::chrono::milliseconds(static_cast<long>(opt.poll_seconds * 1000)));
      }
      std::fputc('\n', stderr);
      // Fall through to the final table below.
    }
    auto percent = [](const serve::JobInfo& info) {
      return info.total > 0 ? static_cast<int>(100.0 * static_cast<double>(info.done) /
                                               static_cast<double>(info.total))
                            : 0;
    };
    if (pos.size() >= 2) {
      if (!store.has_job(pos[1])) {
        std::fprintf(stderr, "unknown job '%s'\n", pos[1].c_str());
        return 2;
      }
      const serve::JobInfo info = store.info(pos[1]);
      std::printf("job:    %s\ndir:    %s\nstate:  %s\npoints: %zu/%zu (%d%%)\n", info.id.c_str(),
                  info.dir.c_str(), serve::job_state_name(info.state), info.done, info.total,
                  percent(info));
      if (!info.error.empty()) std::printf("error:  %s\n", info.error.c_str());
      return 0;
    }
    std::printf("%-28s %-8s %s\n", "JOB", "STATE", "POINTS");
    for (const std::string& id : store.job_ids()) {
      const serve::JobInfo info = store.info(id);
      std::printf("%-28s %-8s %zu/%zu (%d%%)\n", id.c_str(), serve::job_state_name(info.state),
                  info.done, info.total, percent(info));
    }
    return 0;
  }

  // results / pareto
  if (pos.size() < 2) {
    std::fprintf(stderr, "%s needs a job id\n", cmd.c_str());
    return 2;
  }
  const std::string& id = pos[1];
  if (!store.has_job(id)) {
    std::fprintf(stderr, "unknown job '%s'\n", id.c_str());
    return 2;
  }
  const explore::ResultTable table = load_job_table(store, id);
  if (cmd == "results") {
    std::fputs((json_out ? table.to_json() : table.to_csv()).c_str(), stdout);
    return 0;
  }
  explore::ResultTable frontier;
  for (const std::size_t i : table.pareto_frontier()) frontier.add(table.at(i));
  std::fputs(frontier.summary().c_str(), stdout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 2) {
    const std::string cmd = argv[1];
    if (cmd == "serve" || cmd == "submit" || cmd == "status" || cmd == "results" ||
        cmd == "pareto" || cmd == "metrics") {
      try {
        return serve_cli(cmd, argc, argv);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 2;
      }
    }
  }

  explore::SweepSpec spec;
  int threads = 0;
  std::string csv_path, json_path, scenario_path, cache_dir;
  std::string metrics_out, spans_out;
  TelemetryArgs telemetry;
  bool quiet = false;
  // The first --pattern/--app replaces the file's workload axis.
  bool workloads_replaced = false;

  try {
    // Axis flags are sweep-file keys: `--mesh 4x4,8x8` is `mesh = 4x4, 8x8`.
    auto is_axis_flag = [](const std::string& a) {
      static const char* const kAxisFlags[] = {"--mesh",   "--flits",  "--hpc",    "--inj",
                                               "--pattern", "--app",   "--faults", "--design",
                                               "--seed",   "--warmup", "--measure", "--drain"};
      return std::find(std::begin(kAxisFlags), std::end(kAxisFlags), a) != std::end(kAxisFlags);
    };
    auto takes_value = [&](const std::string& a) {
      return is_axis_flag(a) || a == "--threads" || a == "--csv" || a == "--json" ||
             a == "--scenario" || a == "--telemetry" || a == "--telemetry-epoch" ||
             a == "--record-trace" || a == "--cache" || a == "--metrics-out" ||
             a == "--trace-spans";
    };

    // Pass 1: load the sweep file (the positional argument) first, so axis
    // flags override it no matter where they appear on the command line.
    std::string sweep_file;
    for (int i = 1; i < argc; ++i) {
      const std::string a = argv[i];
      if (takes_value(a)) {
        ++i;
        continue;
      }
      if (!a.empty() && a[0] == '-') continue;
      if (!sweep_file.empty()) {
        std::fprintf(stderr, "more than one sweep file ('%s' and '%s')\n", sweep_file.c_str(),
                     a.c_str());
        return 2;
      }
      sweep_file = a;
    }
    if (!sweep_file.empty()) {
      std::string text;
      try {
        text = read_file(sweep_file, "sweep file");
      } catch (const ConfigError& e) {
        std::fprintf(stderr, "%s\n", e.what());
        return 2;
      }
      spec = explore::parse_sweep(text);
    }

    // Pass 2: flags. Values go through the same strict parsers as the
    // sweep file, so trailing garbage ("--flits 32x64") errors out instead
    // of silently truncating the axis.
    int i = 1;
    auto next_arg = [&](const char* flag) -> std::string {
      if (i + 1 >= argc) throw ConfigError(std::string(flag) + " needs a value");
      return argv[++i];
    };
    for (; i < argc; ++i) {
      const std::string a = argv[i];
      if (a == "--help" || a == "-h") return usage(argv[0], 0);
      if (a == "--threads") threads = parse_int_token(next_arg("--threads"), "threads");
      else if (a == "--csv") csv_path = next_arg("--csv");
      else if (a == "--json") json_path = next_arg("--json");
      else if (a == "--cache") cache_dir = next_arg("--cache");
      else if (a == "--metrics-out") metrics_out = next_arg("--metrics-out");
      else if (a == "--trace-spans") spans_out = next_arg("--trace-spans");
      else if (a == "--scenario") scenario_path = next_arg("--scenario");
      else if (a == "--telemetry") telemetry.prefix = next_arg("--telemetry");
      else if (a == "--telemetry-epoch") {
        telemetry.epoch = parse_u64_token(next_arg("--telemetry-epoch"),
                                                  "telemetry-epoch");
      } else if (a == "--record-trace") telemetry.trace_prefix = next_arg("--record-trace");
      else if (a == "--quiet") quiet = true;
      else if (is_axis_flag(a)) {
        explore::apply_sweep_key(spec, a.substr(2), next_arg(a.c_str()), workloads_replaced);
      } else if (!a.empty() && a[0] == '-') {
        std::fprintf(stderr, "unknown option '%s'\n", a.c_str());
        return usage(argv[0], 2);
      }
      // Bare arguments are the sweep file, consumed in pass 1.
    }
    if (!scenario_path.empty()) {
      return run_scenario_file(scenario_path, json_path, quiet, telemetry);
    }
    spec.telemetry_prefix = telemetry.prefix;
    spec.trace_prefix = telemetry.trace_prefix;
    spec.telemetry_epoch = telemetry.epoch;
    spec.validate();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }

  const std::size_t total = spec.size();
  explore::Executor exec(threads);
  if (!quiet) {
    std::fprintf(stderr, "exploring %zu configurations on %d threads...\n", total,
                 exec.threads());
  }

  std::optional<serve::ResultCache> cache;
  explore::SweepHooks hooks;
  if (!cache_dir.empty()) {
    try {
      cache.emplace(cache_dir);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return 2;
    }
    hooks = serve::cache_hooks(*cache);
  }
  std::optional<obs::SpanTracer> tracer;
  if (!spans_out.empty()) {
    tracer.emplace();
    hooks.tracer = &*tracer;
  }

  const auto t0 = std::chrono::steady_clock::now();
  const explore::ResultTable table = explore::run_sweep(spec, threads, {}, hooks);
  const double sweep_s = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();

  if (!quiet) std::fputs(table.summary().c_str(), stdout);
  if (!quiet) {
    // Wall-clock stays on stderr: the result table is a pure function of the
    // sweep spec (bit-identical across thread counts) and must remain so.
    std::fprintf(stderr, "swept %zu configurations in %.2f s (%.1f points/s)\n", total, sweep_s,
                 sweep_s > 0.0 ? static_cast<double>(total) / sweep_s : 0.0);
  }
  if (cache) print_cache_report(*cache);

  // Observability artifacts land after the table is complete; both are
  // wall-clock side channels and never feed the result files above.
  try {
    if (tracer) {
      if (tracer->truncated()) {
        std::fprintf(stderr, "warning: span capture truncated at %zu events\n",
                     tracer->events().size());
      }
      write_file_atomic(spans_out, tracer->to_chrome_json("explorer sweep"));
    }
    if (!metrics_out.empty()) {
      write_file_atomic(metrics_out, obs::to_prometheus(obs::MetricsRegistry::global()));
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }

  if (!csv_path.empty() && !write_file(csv_path, table.to_csv())) return 1;
  if (!json_path.empty() && !write_file(json_path, table.to_json())) return 1;
  return 0;
}
