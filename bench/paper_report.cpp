// paper_report: every paper table, figure and ablation this repository
// reproduces, driven by the artifact table at the bottom of this file.
//
//   paper_report [out_dir]        (default results/paper)
//
// Each artifact prints its tables and writes one <out_dir>/<artifact>[_<part>].csv
// per table, with the paper's value in a column beside ours. The committed
// results/paper/ CSVs are pinned by the `paper_artifacts` ctest, so a model
// change that moves a figure shows up as a CSV diff in review. Wall-clock
// output (Fig. 10a's self-profile) goes to stderr only, so two runs are
// byte-identical.
//
// A design run that does not drain would tabulate a censored latency, so
// it stops the report with exit status 1, naming the artifact, the app and
// the design. The synthetic sweep is the one exception: past saturation a
// "saturated" cell is the result.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "circuit/link_model.hpp"
#include "circuit/noise.hpp"
#include "circuit/waveform.hpp"
#include "common/file_io.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "dedicated/dedicated_network.hpp"
#include "mapping/nmap.hpp"
#include "noc/fault_engine.hpp"
#include "noc/faults.hpp"
#include "noc/routing.hpp"
#include "noc/traffic.hpp"
#include "power/energy_model.hpp"
#include "sim/runner.hpp"
#include "smart/smart_network.hpp"
#include "tools/noc_generator.hpp"

namespace {

using namespace smartnoc;

/// The paper's stated values for one artifact, keyed by the quantity, row
/// or app they sit beside.
using Paper = std::map<std::string, std::string>;

/// The paper's value for `key`, or "" where the paper states none.
std::string paper_value(const Paper& paper, const std::string& key) {
  const auto it = paper.find(key);
  return it == paper.end() ? "" : it->second;
}

/// One printed table, written to <artifact>[_<part>].csv.
struct Table {
  std::string part;  ///< "" for the artifact's main table
  std::string title;
  TextTable rows;
  std::string note = {};  ///< printed below the table, not written
};

struct Output {
  std::vector<Table> tables;
  /// CSVs written verbatim and not printed (Fig. 3's waveforms), by part.
  std::vector<std::pair<std::string, std::string>> files = {};
};

std::string fixed(double v, int digits = 2) { return strf("%.*f", digits, v); }
std::string count(std::uint64_t v) { return strf("%llu", static_cast<unsigned long long>(v)); }

struct DesignResult {
  double latency = 0.0;  ///< average network latency (cycles)
  std::uint64_t packets = 0;
  power::PowerBreakdown power;
  /// Simulator self-profile: wall-clock per simulated cycle (host speed,
  /// not a paper metric - never feed it into figure data).
  double ns_per_cycle = 0.0;
};

/// The classic warmup/measure/drain protocol over a caller-built network
/// (callers keep ownership to probe its presets).
DesignResult run_design(noc::Network& net, const NocConfig& cfg, const std::string& app,
                        const std::string& design) {
  sim::BernoulliWorkload source(cfg, net.flows(), cfg.seed);
  sim::Session session(net, source, sim::classic_phases(cfg));
  const sim::RunResult run = sim::session_to_run_result(session.run());
  if (!run.drained) throw std::runtime_error(app + " on " + design + " did not drain");
  return {net.stats().avg_network_latency(), net.stats().total_packets(),
          power::compute_power(cfg, run.activity, run.measure_cycles,
                               power::EnergyParams::for_config(cfg)),
          run.profile.ns_per_cycle()};
}

DesignResult run_mesh(const NocConfig& cfg, const noc::FlowSet& flows, const std::string& app) {
  auto mesh = noc::make_baseline_mesh(cfg, flows);
  return run_design(*mesh, cfg, app, "Mesh");
}

DesignResult run_smart(const NocConfig& cfg, const noc::FlowSet& flows, const std::string& app) {
  auto smart = smart::make_smart_network(cfg, flows);
  return run_design(*smart.net, cfg, app, "SMART");
}

// --- Table I: the circuit result the architecture stands on -----------------

Output table1(const Paper& paper) {
  using namespace circuit;
  TextTable hops({"Sizing", "Swing", "Rate (Gb/s)", "hops (model)", "hops (paper)",
                  "fJ/b/mm (model)", "fJ/b/mm (paper)"});
  for (const auto& c : make_table1()) {
    hops.add_row({c.sizing == SizingPreset::Relaxed2GHz ? "relaxed-2GHz (*)" : "fabricated (**)",
                  swing_name(c.swing), fixed(c.rate_gbps, 1), strf("%d", c.model_hops),
                  strf("%d", c.paper_hops), fixed(c.model_energy_fj, 1),
                  fixed(c.paper_energy_fj, 1)});
  }

  RepeatedLink link(Swing::Low, SizingPreset::Relaxed2GHz);
  TextTable headline({"Quantity", "model", "paper"});
  headline.add_row({"low-swing hops per cycle at 2 GHz", strf("%d", link.max_hops_per_cycle(2.0)),
                    paper_value(paper, "hops at 2 GHz")});
  headline.add_row({"low-swing fJ/b/mm at 2 GHz", fixed(link.energy_fj_per_bit_mm(2.0), 0),
                    paper_value(paper, "fJ/b/mm at 2 GHz")});

  const auto m = model_chip_correlation();
  const auto p = paper_chip_correlation();
  TextTable chip({"Quantity", "model", "measured (paper)"});
  const auto row = [&](const char* name, double model, double measured, int digits,
                       int measured_digits) {
    chip.add_row({name, fixed(model, digits), fixed(measured, measured_digits)});
  };
  row("VLR max data rate (Gb/s)", m.vlr_max_rate_gbps, p.vlr_max_rate_gbps, 1, 1);
  row("full-swing max data rate (Gb/s)", m.full_max_rate_gbps, p.full_max_rate_gbps, 1, 1);
  row("VLR power @ max rate (mW)", m.vlr_power_mw_at_max, p.vlr_power_mw_at_max, 2, 2);
  row("VLR energy @ max rate (fJ/b)", m.vlr_energy_fj_b_at_max, p.vlr_energy_fj_b_at_max, 0, 0);
  row("full-swing power @ 5.5 Gb/s (mW)", m.full_power_mw_at_55, p.full_power_mw_at_55, 2, 2);
  row("VLR power @ 5.5 Gb/s (mW)", m.vlr_power_mw_at_55, p.vlr_power_mw_at_55, 2, 2);
  row("VLR delay (ps/mm)", m.vlr_delay_ps_per_mm, p.vlr_delay_ps_per_mm, 1, 0);
  row("full-swing delay (ps/mm)", m.full_delay_ps_per_mm, p.full_delay_ps_per_mm, 1, 0);

  TextTable noise({"Circuit", "noise margin (mV)", "estimated BER", "meets 1e-9", "paper bar"});
  for (Swing sw : {Swing::Full, Swing::Low}) {
    const auto a = analyze_noise(RepeaterModel::make(sw, SizingPreset::FabricatedChip));
    noise.add_row({swing_name(sw), fixed(a.noise_margin_v * 1e3, 0), strf("%.1e", a.ber),
                   a.meets_1e9 ? "yes" : "NO", paper_value(paper, "BER")});
  }

  return {{{"hops", "Table I: max hops per cycle (and fJ/b/mm)", std::move(hops),
            "(*) resized and optimized for 2 GHz with wider wire spacing;\n"
            "(**) fabricated transistor sizes with wider wire spacing.\n"},
           {"headline", "Table I headline: the low-swing link at 2 GHz", std::move(headline)},
           {"chip", "Section III chip correlation (45nm SOI, 10 mm link)", std::move(chip)},
           {"noise", "Noise / BER sanity", std::move(noise)}}};
}

// --- Table II + Figs. 8/9: the Section V tool flow on the 4x4 design --------

Output table2(const Paper& paper) {
  const NocConfig cfg = NocConfig::paper_4x4();
  TextTable config({"Parameter", "Value", "paper (Table II)"});
  const auto row = [&](const char* name, std::string value) {
    config.add_row({name, std::move(value), paper_value(paper, name)});
  };
  row("Technology", "45nm (modelled)");
  row("Vdd, Freq", strf("0.9 V, %.0f GHz", cfg.freq_ghz));
  row("Topology", strf("%dx%d mesh", cfg.width, cfg.height));
  row("Channel width", strf("%d bits", cfg.flit_bits));
  row("Credit width", strf("%d bits", cfg.credit_bits));
  row("Router ports", strf("%d", kNumDirs));
  row("VCs per port", strf("%d, %d-flit deep", cfg.vcs_per_port, cfg.vc_depth_flits));
  row("Packet size", strf("%d bits", cfg.packet_bits));
  row("Flit size", strf("%d bits", cfg.flit_bits));
  row("Header width", strf("%d bits (Head)", cfg.header_bits));

  const auto design = tools::generate_noc(cfg);
  TextTable rtl({"Verilog file", "lines"});
  for (const auto& f : design.rtl.files) {
    rtl.add_row({f.name, strf("%td", std::count(f.content.begin(), f.content.end(), '\n'))});
  }
  rtl.add_row({"total (self-checked)", strf("%d", design.rtl.total_lines)});

  TextTable blocks({"VLR block", "bits", "rows", "cols", "width (um)", "height (um)",
                    "area (um^2)"});
  for (const auto& [name, b] : {std::pair{"Tx", &design.tx_block}, {"Rx", &design.rx_block}}) {
    blocks.add_row({name, strf("%d", b->bits), strf("%d", b->rows), strf("%d", b->cols),
                    fixed(b->width_um, 1), fixed(b->height_um, 1), fixed(b->area_um2, 0)});
  }

  TextTable registers({"address", "router"});
  for (const auto& [addr, router] : design.register_map) {
    registers.add_row({strf("0x%llx", static_cast<unsigned long long>(addr)),
                       strf("%d", router)});
  }

  // The Fig. 9 report is text from the floorplanner; pinning it line by
  // line pins its area accounting too.
  TextTable floorplan({"report line"});
  std::size_t at = 0;
  for (std::size_t nl; (nl = design.floorplan.find('\n', at)) != std::string::npos; at = nl + 1) {
    if (nl > at) floorplan.add_row({design.floorplan.substr(at, nl - at)});
  }

  return {{{"", "Table II: 4x4 NoC configuration", std::move(config)},
           {"rtl", "Section V tool flow: generated RTL", std::move(rtl)},
           {"vlr_blocks", "VLR Tx/Rx block placement (Fig. 8 analog)", std::move(blocks)},
           {"registers", "Reconfiguration register map", std::move(registers)},
           {"floorplan", "Section V floorplanner report", std::move(floorplan)}}};
}

// --- Figure 1: runtime reconfiguration across three applications ------------

/// Draws the 4x4 mesh; '=' / '"' mark links covered by preset bypass
/// segments (the figure's bold one-cycle links), '-' / '\'' ordinary links.
std::vector<std::string> draw_mesh(const noc::MeshNetwork& net) {
  const MeshDims dims = net.config().dims();
  // A mesh link is bold iff a preset bypass crosses one of its endpoints,
  // i.e. the receiving router's input mux (in either direction) is Bypass.
  const auto bypass = [&](NodeId n, Dir in) {
    return net.presets().at(n).input_mux[static_cast<std::size_t>(dir_index(in))] ==
           noc::InputMux::Bypass;
  };
  const auto bold = [&](NodeId n, Dir d) {
    return bypass(dims.neighbor(n, d), opposite(d)) || bypass(n, d);
  };
  std::vector<std::string> lines;
  for (int y = dims.height() - 1; y >= 0; --y) {
    std::string row, below;
    for (int x = 0; x < dims.width(); ++x) {
      const NodeId n = dims.id({x, y});
      row += strf("%2d", n);
      if (x + 1 < dims.width()) {
        row += bold(n, Dir::East) ? " == " : " -- ";
      }
      if (y > 0) {
        below += bold(dims.neighbor(n, Dir::South), Dir::North) ? " \"    " : " '    ";
      }
    }
    lines.push_back(row);
    if (y > 0) lines.push_back(below.substr(0, below.find_last_not_of(' ') + 1));
  }
  return lines;
}

Output fig1(const Paper& paper) {
  NocConfig cfg = NocConfig::paper_4x4();
  cfg.warmup_cycles = 5'000;
  cfg.measure_cycles = 100'000;
  const mapping::SocApp apps[] = {mapping::SocApp::WLAN, mapping::SocApp::H264,
                                  mapping::SocApp::VOPD};
  // One session runs the apps back to back, each with the classic
  // warmup/measure/drain phases. Entering an app's first phase is the Fig. 1
  // switch: drain, the store program diffed against the live register bank,
  // and a network built from the decoded registers.
  sim::ScenarioSpec spec;
  spec.name = "fig1";
  spec.design = Design::Smart;
  spec.config = cfg;
  spec.single_config_core = true;
  for (mapping::SocApp app : apps) {
    std::vector<sim::PhaseSpec> phases = sim::classic_phases(cfg);
    phases.front().workload = mapping::app_name(app);
    phases.front().injection = 1.0;
    spec.phases.insert(spec.phases.end(), phases.begin(), phases.end());
  }
  sim::Session session(std::move(spec));

  TextTable mesh({"App", "mesh (== / \" : links reachable in a single cycle via preset bypass)"});
  TextTable t({"App", "drain (cyc)", "stores", "stores (paper)", "store cyc",
               "total reconfig (cyc)", "total reconfig (paper)", "stop-free flows",
               "avg latency (cyc)"});
  for (mapping::SocApp app : apps) {
    const char* name = mapping::app_name(app);
    const auto run_phase = [&]() -> const sim::PhaseResult& {
      const sim::PhaseResult& r = session.run_phase();
      if (!r.ok) throw std::runtime_error(std::string(name) + " on SMART: " + r.error);
      return r;
    };
    const sim::PhaseResult& warmup = run_phase();
    run_phase();
    const sim::PhaseResult& drain = run_phase();
    const sim::ReconfigEvent& cost = warmup.reconfig;
    const noc::MeshNetwork& net = *session.mesh_network();
    for (std::string& line : draw_mesh(net)) mesh.add_row({name, std::move(line)});

    int stop_free = 0;
    for (FlowId f = 0; f < net.flows().size(); ++f) {
      stop_free += net.flow_info(f).stops.empty() ? 1 : 0;
    }
    t.add_row({name, count(cost.drain_cycles), strf("%d", cost.stores),
               paper_value(paper, "stores"), count(cost.store_cycles), count(cost.total()),
               paper_value(paper, "total reconfig"),
               strf("%d/%d", stop_free, net.flows().size()), fixed(drain.avg_network_latency)});
  }
  return {{{"mesh", "Figure 1: single-cycle links after each reconfiguration", std::move(mesh)},
           {"", "Figure 1: runtime reconfiguration across three applications", std::move(t)}}};
}

// --- Figure 3: simulated link waveforms at 6.8 Gb/s -------------------------

std::string ascii_plot(const std::vector<circuit::WaveSample>& wave, double v_min, double v_max,
                       int rows = 12, int cols = 96) {
  std::vector<std::string> grid(static_cast<std::size_t>(rows),
                                std::string(static_cast<std::size_t>(cols), ' '));
  for (int c = 0; c < cols; ++c) {
    const std::size_t k = static_cast<std::size_t>(c) * (wave.size() - 1) /
                          static_cast<std::size_t>(cols - 1);
    int r = static_cast<int>((v_max - wave[k].v) / (v_max - v_min) * (rows - 1) + 0.5);
    r = std::min(std::max(r, 0), rows - 1);
    grid[static_cast<std::size_t>(r)][static_cast<std::size_t>(c)] = '*';
  }
  std::string out;
  for (int r = 0; r < rows; ++r) {
    const double level = v_max - (v_max - v_min) * r / (rows - 1);
    out += strf("%6.2fV |%s\n", level, grid[static_cast<std::size_t>(r)].c_str());
  }
  return out;
}

Output fig3(const Paper&) {
  using namespace circuit;
  const double rate = 6.8;  // Gb/s, as in the paper's figure
  const auto bits = WaveformSynth::default_pattern();
  std::string pattern;
  for (int b : bits) pattern += static_cast<char>('0' + b);

  TextTable t({"Circuit", "rate (Gb/s)", "pattern", "bit period (ps)", "samples", "V_high",
               "V_low", "swing (mV)", "overshoot (mV)", "10-90% edge (ps)", "eye height (mV)"});
  Output out;
  std::string plots;
  for (Swing sw : {Swing::Full, Swing::Low}) {
    WaveformSynth synth(sw, SizingPreset::FabricatedChip, rate);
    const auto m = synth.measure(bits);
    const auto wave = synth.synthesize(bits);
    t.add_row({swing_name(sw), fixed(rate, 1), pattern, fixed(1000.0 / rate, 1),
               strf("%zu", wave.size()), fixed(m.v_high, 3), fixed(m.v_low, 3),
               fixed(m.swing * 1e3, 0), fixed(m.overshoot_v * 1e3, 0), fixed(m.edge_10_90_ps, 0),
               fixed(m.eye_height_v * 1e3, 0)});
    plots += strf("(%s) node voltage:\n", swing_name(sw)) + ascii_plot(wave, -0.05, 0.95);
    out.files.emplace_back(sw == Swing::Full ? "full_swing" : "low_swing",
                           WaveformSynth::to_csv(wave));
  }
  out.tables.push_back({"", "Figure 3: simulated waveforms at 6.8 Gb/s", std::move(t), plots});
  return out;
}

// --- Figure 7: SMART NoC in action with four flows --------------------------

Output fig7(const Paper& paper) {
  // The four flows. Green and purple are contention-free end-to-end; red
  // (13 -> 10) and blue (8 -> 3) share the link between routers 9 and 10,
  // so both stop at 9 (shared East output) and 10 (divergent outputs).
  const std::pair<const char*, noc::RoutePath> flows[] = {
      {"green 12->15", {12, 15, {Dir::East, Dir::East, Dir::East}}},
      {"purple 0->4", {0, 4, {Dir::North}}},
      {"red 13->10", {13, 10, {Dir::South, Dir::East}}},
      {"blue 8->3", {8, 3, {Dir::East, Dir::East, Dir::East, Dir::South, Dir::South}}}};
  noc::FlowSet fs;
  for (const auto& [name, path] : flows) fs.add(path.src, path.dst, 100.0, path);
  auto smart = smart::make_smart_network(NocConfig::paper_4x4(), std::move(fs));
  auto& net = *smart.net;

  TextTable t({"Flow", "route", "stops (preset)", "measured latency", "paper annotation"});
  for (FlowId f = 0; f < 4; ++f) {
    net.offer_packet(f, net.now());
    const auto before = net.stats().total_packets();
    while (net.stats().total_packets() == before) net.tick();
    std::string stops;
    for (NodeId s : smart.presets.stops_per_flow.at(static_cast<std::size_t>(f))) {
      if (!stops.empty()) stops += ",";
      stops += std::to_string(s);
    }
    t.add_row({flows[f].first, net.flows().at(f).path.str(), stops.empty() ? "(none)" : stops,
               strf("%.0f cycles", net.stats().per_flow().at(f).avg_network_latency()),
               paper_value(paper, flows[f].first)});
  }

  // Credit mesh (Sec. IV): each input buffer's credits ride preset credit
  // crossbars back to the feeder whose free-VC queue they refill.
  const auto& segs = net.segments();
  TextTable credits({"credits for", "hops", "forwarded to", "paper"});
  const auto add = [&](const char* what, const noc::CreditPath& p) {
    credits.add_row({what, strf("%d", p.mm),
                     p.origin.is_nic ? strf("NIC%d", p.origin.node)
                                     : strf("router %d %s-out", p.origin.node,
                                            dir_name(p.origin.out)),
                     paper_value(paper, what)});
  };
  add("NIC3", segs.credit_nic(3));
  add("router 10 W-in", segs.credit_router_input(10, Dir::West));
  add("router 9 W-in", segs.credit_router_input(9, Dir::West));

  return {{{"", "Figure 7: SMART NoC in action with four flows", std::move(t)},
           {"credits", "Figure 7 credit mesh (Sec. IV example)", std::move(credits)}}};
}

// --- Figures 10a/10b: the 8 SoC applications on all three designs -----------

struct AppResult {
  mapping::SocApp app;
  mapping::MappedApp mapped;
  DesignResult mesh, smart, dedicated;
  double mean_stops_per_flow = 0.0;  ///< structural stops per flow on SMART
};

/// Both figures read one run of 8 apps x 3 designs (Table II configuration).
const std::vector<AppResult>& soc_apps() {
  static const std::vector<AppResult> results = [] {
    std::vector<AppResult> out;
    for (mapping::SocApp app : mapping::kAllApps) {
      AppResult r{app, mapping::map_app(app, NocConfig::paper_4x4()), {}, {}, {}};
      const NocConfig& cfg = r.mapped.cfg;
      const std::string name = mapping::app_name(app);
      r.mesh = run_mesh(cfg, r.mapped.flows, name);
      auto smart = smart::make_smart_network(cfg, r.mapped.flows);
      r.smart = run_design(*smart.net, cfg, name, "SMART");
      r.mean_stops_per_flow = static_cast<double>(smart.presets.total_stops) /
                              std::max(r.mapped.flows.size(), 1);
      dedicated::DedicatedNetwork ded(cfg, r.mapped.flows);
      r.dedicated = run_design(ded, cfg, name, "Dedicated");
      out.push_back(std::move(r));
    }
    return out;
  }();
  return results;
}

Output fig10a(const Paper& paper) {
  const NocConfig cfg = NocConfig::paper_4x4();
  const auto& results = soc_apps();
  TextTable t({"App", "Mesh", "SMART", "SMART (paper)", "Dedicated", "SMART-vs-Mesh",
               "SMART-vs-Mesh (paper)", "SMART-Dedicated", "SMART-Dedicated (paper)",
               "stops/flow", "hops/flow"});
  double mesh_sum = 0, smart_sum = 0, ded_sum = 0;
  double mesh_ns = 0, smart_ns = 0, ded_ns = 0;
  for (const auto& r : results) {
    mesh_sum += r.mesh.latency;
    smart_sum += r.smart.latency;
    ded_sum += r.dedicated.latency;
    mesh_ns += r.mesh.ns_per_cycle;
    smart_ns += r.smart.ns_per_cycle;
    ded_ns += r.dedicated.ns_per_cycle;
    t.add_row({mapping::app_name(r.app), fixed(r.mesh.latency), fixed(r.smart.latency), "",
               fixed(r.dedicated.latency),
               strf("-%.1f%%", 100.0 * (1.0 - r.smart.latency / r.mesh.latency)), "",
               strf("%+.2f", r.smart.latency - r.dedicated.latency),
               paper_value(paper, mapping::app_name(r.app)), fixed(r.mean_stops_per_flow),
               fixed(r.mapped.mean_hops())});
  }
  const double n = static_cast<double>(results.size());
  t.add_row({"average", fixed(mesh_sum / n), fixed(smart_sum / n),
             paper_value(paper, "average SMART"), fixed(ded_sum / n),
             strf("-%.1f%%", 100.0 * (1.0 - smart_sum / mesh_sum)),
             paper_value(paper, "average SMART-vs-Mesh"), strf("%+.2f", (smart_sum - ded_sum) / n),
             paper_value(paper, "average SMART-Dedicated"), "", ""});

  // Run self-profile (host speed, not a paper metric): mean simulator
  // throughput per design across the 8 apps.
  std::fprintf(stderr, "self-profile: %.0f ns/cycle mesh, %.0f smart, %.0f dedicated\n",
               mesh_ns / n, smart_ns / n, ded_ns / n);
  return {{{"",
            strf("Figure 10a: average network latency (cycles); %dx%d mesh, %d-bit flits, "
                 "%d-flit packets, %d VCs, %.1f GHz, HPC_max=%d",
                 cfg.width, cfg.height, cfg.flit_bits, cfg.flits_per_packet(),
                 cfg.vcs_per_port, cfg.freq_ghz, smart::effective_hpc_max(cfg)),
            std::move(t)}}};
}

// Legend categories follow the paper exactly: Buffer | Allocator | Xbar
// (flit + credit) + Pipeline register | Link. For Dedicated the paper plots
// only link power ("The total power for Dedicated is much lower than SMART
// because only link power is plotted"); so does this table, with the
// omitted router-side power in the "(ignored)" column.
Output fig10b(const Paper& paper) {
  TextTable t({"App", "Design", "Buffer", "Alloc", "Xbar+Pipe", "Link", "Total", "(ignored)"});
  double mesh_total = 0, smart_total = 0;
  const auto mw = [](double w) { return fixed(w * 1e3, 3); };
  for (const auto& r : soc_apps()) {
    const auto add = [&](const char* design, const power::PowerBreakdown& p, bool link_only) {
      t.add_row({mapping::app_name(r.app), design, link_only ? "-" : mw(p.buffer_w),
                 link_only ? "-" : mw(p.allocator_w), link_only ? "-" : mw(p.xbar_pipe_w),
                 mw(p.link_w), mw(link_only ? p.link_w : p.total()),
                 link_only ? mw(p.total() - p.link_w) : ""});
    };
    add("Mesh", r.mesh.power, false);
    add("SMART", r.smart.power, false);
    add("Dedicated", r.dedicated.power, true);
    mesh_total += r.mesh.power.total();
    smart_total += r.smart.power.total();
  }
  TextTable ratio({"Quantity", "ours", "paper"});
  ratio.add_row({"Mesh/SMART power ratio (8-app average)", strf("%.2fx", mesh_total / smart_total),
                 paper_value(paper, "Mesh/SMART power")});
  return {{{"", "Figure 10b: dynamic power breakdown (mW)", std::move(t),
            "Dedicated plots link power only, as in the paper; '(ignored)' is the\n"
            "sink-router power the paper acknowledges omitting.\n"},
           {"ratio", "Figure 10b: Mesh/SMART power", std::move(ratio)}}};
}

// --- Ablation: sensitivity to HPC_max ----------------------------------------
//
// HPC_max is where the circuit (Table I) meets the architecture: at 2 GHz
// the low-swing VLR reaches 8 hops, full-swing 6; a conventional clocked
// repeater reaches 1 (per-hop bypass, VIP/skip-link style). Sweeping
// HPC_max quantifies how much of SMART's win comes from *multi-hop* reach
// versus plain per-hop bypassing - the paper's core argument against the
// prior single-cycle-per-hop schemes of Sec. II.

Output ablation_hpc(const Paper&) {
  NocConfig base = NocConfig::paper_4x4();
  base.measure_cycles = 100'000;
  TextTable t({"App", "HPC=1", "HPC=2", "HPC=4", "HPC=6", "HPC=8", "Mesh"});
  for (mapping::SocApp app : mapping::kAllApps) {
    const char* name = mapping::app_name(app);
    std::vector<std::string> row = {name};
    std::string mesh_lat;
    for (int hpc : {1, 2, 4, 6, 8}) {
      NocConfig cfg = base;
      cfg.hpc_max_override = hpc;
      const auto mapped = mapping::map_app(app, cfg);
      const std::string what = strf("%s (HPC=%d)", name, hpc);
      row.push_back(fixed(run_smart(mapped.cfg, mapped.flows, what).latency));
      if (hpc == 8) mesh_lat = fixed(run_mesh(mapped.cfg, mapped.flows, name).latency);
    }
    row.push_back(mesh_lat);
    t.add_row(row);
  }
  return {{{"", "Ablation: SMART average network latency vs HPC_max", std::move(t)}}};
}

// --- Ablation of the paper's proposed future work (Sec. VI) -----------------
//
//   "This can be ameliorated by splitting the 32-bit wide SMART channels
//    into two 16-bit narrower channels (or more), then clocking them at
//    twice or thrice the rate, leveraging the high frequency of SMART
//    links to mitigate conflicts."
//
// Model: k parallel SMART networks, each with 32/k-bit flits clocked at
// k x 2 GHz; flows are assigned to channels by balanced greedy bandwidth
// split. Two effects compete: packets serialize over more, shorter cycles
// (16-flit packets at 4 GHz), while per-channel flow subsets share fewer
// links (fewer structural stops) and HPC_max shrinks with frequency
// (Table I: 8 hops at 2 GHz, fewer at 4+ GHz). Latency is reported in
// nanoseconds so different clocks compare fairly.

struct ChannelRun {
  double avg_latency_ns = 0.0;           ///< whole network at k x 2 GHz (optimistic)
  double avg_latency_router2g_ns = 0.0;  ///< stops re-priced at 2 GHz router clock
  int hpc = 0;
};

ChannelRun run_split(const mapping::MappedApp& mapped, int k, const std::string& app) {
  NocConfig cfg = mapped.cfg;
  cfg.flit_bits = cfg.flit_bits / k;
  cfg.freq_ghz = cfg.freq_ghz * k;
  // 256-bit packets become 16 flits on a 16-bit channel; deepen the VCs to
  // keep virtual cut-through legal (the paper's proposal implies this).
  cfg.vc_depth_flits = std::max(cfg.vc_depth_flits, cfg.packet_bits / cfg.flit_bits);
  cfg.validate();

  // Balanced greedy split of flows (by bandwidth) across the k channels.
  std::vector<const noc::Flow*> sorted;
  for (const auto& f : mapped.flows) sorted.push_back(&f);
  std::stable_sort(sorted.begin(), sorted.end(), [](const noc::Flow* a, const noc::Flow* b) {
    return a->bandwidth_mbps > b->bandwidth_mbps;
  });
  std::vector<noc::FlowSet> per_channel(static_cast<std::size_t>(k));
  std::vector<double> load(static_cast<std::size_t>(k), 0.0);
  for (const noc::Flow* f : sorted) {
    // Each channel carries 1/k of every flow's bytes (bit-sliced packets
    // would be the hardware analog; flow-level split is the conservative
    // software model): route the flow on the least-loaded channel.
    const auto c = static_cast<std::size_t>(
        std::min_element(load.begin(), load.end()) - load.begin());
    per_channel[c].add(f->src, f->dst, f->bandwidth_mbps, f->path);
    load[c] += f->bandwidth_mbps;
  }

  double lat_ns_weighted = 0.0, lat2g_ns_weighted = 0.0;
  std::uint64_t packets = 0;
  for (int c = 0; c < k; ++c) {
    if (per_channel[static_cast<std::size_t>(c)].empty()) continue;
    auto smart = smart::make_smart_network(cfg, per_channel[static_cast<std::size_t>(c)]);
    const auto r = run_design(*smart.net, cfg, app,
                              strf("SMART channel %d of %dx%db", c, k, cfg.flit_bits));
    const double ns_per_cycle = 1.0 / cfg.freq_ghz;
    // Router-pinned estimate: the paper over-clocks only the *links*; the
    // 3-stage stop pipeline still runs at the 2 GHz core clock, so each
    // structural stop costs 3 router cycles regardless of channel rate.
    const double mean_stops = static_cast<double>(smart.presets.total_stops) /
                              std::max(smart.net->flows().size(), 1);
    const double stop_correction_ns = 3.0 * mean_stops * (0.5 - ns_per_cycle);
    lat_ns_weighted += r.latency * ns_per_cycle * static_cast<double>(r.packets);
    lat2g_ns_weighted += (r.latency * ns_per_cycle + std::max(0.0, stop_correction_ns)) *
                         static_cast<double>(r.packets);
    packets += r.packets;
  }
  const double n = std::max<double>(static_cast<double>(packets), 1.0);
  return {lat_ns_weighted / n, lat2g_ns_weighted / n, smart::effective_hpc_max(cfg)};
}

Output ablation_channels(const Paper&) {
  NocConfig base = NocConfig::paper_4x4();
  base.measure_cycles = 150'000;
  TextTable t({"App", "1x32b (ns)", "2x16b all@4GHz (ns)", "2x16b router@2GHz (ns)",
               "HPC@4GHz", "change (router-pinned)"});
  for (mapping::SocApp app : {mapping::SocApp::H264, mapping::SocApp::MMS_MP3,
                              mapping::SocApp::VOPD, mapping::SocApp::PIP}) {
    const char* name = mapping::app_name(app);
    const auto mapped = mapping::map_app(app, base);
    const auto one = run_split(mapped, 1, name);
    const auto two = run_split(mapped, 2, name);
    t.add_row({name, fixed(one.avg_latency_ns), fixed(two.avg_latency_ns),
               fixed(two.avg_latency_router2g_ns), strf("%d", two.hpc),
               strf("%+.0f%%", 100.0 * (two.avg_latency_router2g_ns / one.avg_latency_ns - 1.0))});
  }
  return {{{"",
            "Ablation (paper future work): channel splitting, 1x32b @ 2 GHz vs 2x16b @ 4 GHz",
            std::move(t)}}};
}

// --- Heterogeneous SoCs (Sec. VI's closing observation) ---------------------
//
//   "In an actual SoC, the task to core mapping may not be able to change
//    drastically across applications as cores are often heterogenous, and
//    certain tasks are tied to specific cores. This will result in longer
//    paths, magnifying the benefits of SMART."
//
// Each application runs (a) NMAP-placed - the homogeneous best case - and
// (b) pinned to a fixed, seeded placement that stands in for a
// heterogeneous SoC whose cores cannot move.

/// A deterministic "heterogeneous" placement: tasks pinned to shuffled
/// cores (the same shuffle for every app, as a fixed SoC floorplan is).
mapping::Mapping pinned_mapping(const mapping::TaskGraph& g, const MeshDims& dims,
                                std::uint64_t seed) {
  std::vector<NodeId> cores(static_cast<std::size_t>(dims.nodes()));
  for (NodeId n = 0; n < dims.nodes(); ++n) cores[static_cast<std::size_t>(n)] = n;
  Xoshiro256 rng(seed);
  for (std::size_t i = cores.size(); i > 1; --i) std::swap(cores[i - 1], cores[rng.below(i)]);
  mapping::Mapping m;
  m.task_to_core.assign(cores.begin(), cores.begin() + g.num_tasks());
  return m;
}

Output heterogeneous(const Paper&) {
  NocConfig cfg = NocConfig::paper_4x4();
  cfg.measure_cycles = 100'000;
  TextTable t({"App", "placement", "hops/flow", "Mesh", "SMART", "saving (cycles)",
               "saving (%)"});
  for (mapping::SocApp app : {mapping::SocApp::VOPD, mapping::SocApp::WLAN,
                              mapping::SocApp::H264, mapping::SocApp::MMS_MP3}) {
    for (const bool pinned : {false, true}) {
      auto mapped = mapping::map_app(app, cfg);
      if (pinned) {
        mapped.mapping = pinned_mapping(mapped.graph, cfg.dims(), 2026);
        mapped.flows = mapping::route_flows(mapped.graph, mapped.mapping, cfg.dims(),
                                            noc::TurnModel::WestFirst);
      }
      const std::string name = strf("%s (%s)", mapping::app_name(app), pinned ? "pinned" : "NMAP");
      const double mesh_lat = run_mesh(mapped.cfg, mapped.flows, name).latency;
      const double smart_lat = run_smart(mapped.cfg, mapped.flows, name).latency;
      t.add_row({mapping::app_name(app), pinned ? "pinned (hetero)" : "NMAP",
                 fixed(mapped.mean_hops()), fixed(mesh_lat), fixed(smart_lat),
                 fixed(mesh_lat - smart_lat),
                 strf("%.0f%%", 100.0 * (1.0 - smart_lat / mesh_lat))});
    }
  }
  return {{{"", "Heterogeneous-SoC pinning: longer paths magnify SMART's win", std::move(t)}}};
}

// --- Scaling: SMART's value as the mesh grows (4x4 -> 8x8) ------------------
//
// "As technology scales, SoCs are increasing in core counts" - longer
// routes cost the baseline 4 cycles per hop but cost SMART only millimetres.

NocConfig square_mesh(int side) {
  NocConfig cfg = NocConfig::paper_4x4();
  cfg.width = side;
  cfg.height = side;
  cfg.header_bits = 2 * cfg.max_route_entries() + 8;
  return cfg;
}

Output scaling(const Paper&) {
  TextTable t({"mesh", "pattern", "avg hops", "Mesh (cyc)", "SMART (cyc)", "saving",
               "HPC segments/route"});
  TextTable z({"mesh", "hops", "Mesh (cyc)", "SMART (cyc)", "speedup"});
  for (int side : {4, 6, 8}) {
    NocConfig cfg = square_mesh(side);
    cfg.warmup_cycles = 3'000;
    cfg.measure_cycles = 30'000;
    cfg.validate();
    const int hpc = smart::effective_hpc_max(cfg);
    for (noc::SyntheticPattern pat :
         {noc::SyntheticPattern::BitComplement, noc::SyntheticPattern::Transpose}) {
      const auto flows = noc::make_synthetic_flows(cfg, pat, 0.03, noc::TurnModel::XY);
      double hops = 0.0, segments = 0.0;
      for (const auto& f : flows) {
        hops += f.path.hops();
        segments += (f.path.hops() + hpc - 1) / hpc;
      }
      const std::string name = strf("%s on %dx%d", noc::synthetic_name(pat), side, side);
      const double mesh_lat = run_mesh(cfg, flows, name).latency;
      const double smart_lat = run_smart(cfg, flows, name).latency;
      t.add_row({strf("%dx%d", side, side), noc::synthetic_name(pat),
                 fixed(hops / flows.size()), fixed(mesh_lat), fixed(smart_lat),
                 strf("-%.0f%%", 100.0 * (1.0 - smart_lat / mesh_lat)),
                 fixed(segments / flows.size())});
    }

    // Zero-load distance scaling: one lone corner-to-corner flow.
    noc::FlowSet fs;
    const NodeId dst = cfg.dims().nodes() - 1;
    fs.add(0, dst, 100.0, noc::xy_path(cfg.dims(), 0, dst));
    const auto run_one = [](noc::Network& net) {
      net.offer_packet(0, net.now());
      while (net.stats().total_packets() == 0) net.tick();
      return net.stats().avg_network_latency();
    };
    auto mesh = noc::make_baseline_mesh(cfg, fs);
    auto smart = smart::make_smart_network(cfg, fs);
    const double m = run_one(*mesh), s = run_one(*smart.net);
    z.add_row({strf("%dx%d", side, side), strf("%d", cfg.dims().hop_distance(0, dst)),
               fixed(m, 0), fixed(s, 0), strf("%.1fx", m / s)});
  }
  return {{{"synthetic", "Scaling: Mesh vs SMART latency as the chip grows", std::move(t)},
           {"zero_load", "Scaling: zero-load corner-to-corner (lone flow)", std::move(z)}}};
}

// --- Extension: SMART under faults ------------------------------------------
//
// Exercises the paper's non-minimal-routing future work as a resilience
// mechanism: flows whose minimal routes die are detoured over surviving
// links; because detours ride preset bypass chains, the latency cost is
// millimetres (and the occasional extra stop when a segment outgrows
// HPC_max), not router pipelines.

/// Online-fault degradation curve: the same SMART fabric under seeded MTBF
/// glitch campaigns applied to the *live* network mid-run (no rebuild).
/// Latency and throughput vs mean time between failures, with the recovery
/// counters (retransmits, reroutes, drops) that explain the shape.
TextTable mtbf_campaign() {
  NocConfig cfg = NocConfig::paper_4x4();
  cfg.warmup_cycles = 2'000;
  cfg.measure_cycles = 20'000;
  cfg.drain_timeout = 50'000;
  cfg.watchdog_window = 20'000;  // a wedged campaign fails structured, not silent

  TextTable t({"MTBF", "events", "delivered", "dropped", "retrans", "rerouted", "avg latency",
               "throughput", "vs fault-free"});
  const Cycle horizon = cfg.warmup_cycles + cfg.measure_cycles;
  double base_latency = 0.0, base_throughput = 0.0;
  for (const Cycle mtbf : {Cycle(0), Cycle(8'000), Cycle(4'000), Cycle(2'000), Cycle(1'000)}) {
    const std::string label = mtbf == 0 ? "inf" : count(mtbf);
    sim::ScenarioSpec spec = sim::ScenarioSpec::classic(Design::Smart, "uniform", 0.05, cfg);
    if (mtbf != 0) {
      spec.fault_events =
          noc::FaultSchedule::random_events(cfg.dims(), mtbf, horizon, 42, /*repair_after=*/500);
    }
    const std::size_t events = spec.fault_events.size();
    sim::Session session(std::move(spec));
    const sim::SessionResult sr = session.run();
    // A run that does not drain fails the session (sr.ok) with its reason.
    if (!sr.ok) throw std::runtime_error("uniform at MTBF " + label + " on SMART: " + sr.error);
    const sim::RunResult run = sim::session_to_run_result(sr);
    const noc::FaultCounters& fc = session.network().stats().faults();
    if (mtbf == 0) {
      base_latency = run.avg_network_latency;
      base_throughput = run.delivered_packets_per_cycle;
    }
    t.add_row({label, strf("%zu", events), count(run.packets_delivered),
               count(fc.packets_dropped), count(fc.packets_retransmitted),
               count(fc.flows_rerouted), fixed(run.avg_network_latency),
               fixed(run.delivered_packets_per_cycle, 4),
               strf("%+.1f%% lat, %+.1f%% thr",
                    100.0 * (run.avg_network_latency / base_latency - 1.0),
                    100.0 * (run.delivered_packets_per_cycle / base_throughput - 1.0))});
  }
  return t;
}

/// Kills 0..6 links of the 4x4 mesh (deterministic order) and re-maps VOPD
/// and H264 around them.
TextTable link_failures() {
  NocConfig cfg = NocConfig::paper_4x4();
  cfg.measure_cycles = 100'000;
  TextTable t({"App", "failed links", "routed", "detoured", "mean hops", "stops/flow",
               "avg latency", "vs fault-free"});
  for (mapping::SocApp app : {mapping::SocApp::VOPD, mapping::SocApp::H264}) {
    double base_latency = 0.0;
    for (int kills = 0; kills <= 6; kills += 2) {
      const auto mapped = mapping::map_app(app, cfg);
      const MeshDims dims = cfg.dims();
      // Deterministic failure pattern: hash-picked East/North links.
      noc::FaultSet faults;
      Xoshiro256 rng(42);
      for (int done = 0; done < kills;) {
        const NodeId n = static_cast<NodeId>(rng.below(static_cast<std::uint64_t>(dims.nodes())));
        const Dir d = rng.below(2) ? Dir::East : Dir::North;
        if (!dims.has_neighbor(n, d) || faults.is_failed(n, d)) continue;
        faults.fail_link(dims, n, d);
        ++done;
      }
      // Re-route every flow around the failures; unroutable flows drop out.
      noc::FlowSet flows;
      int detoured = 0, hops = 0;
      for (const auto& f : mapped.flows) {
        const auto p = noc::route_around_faults(dims, f.src, f.dst, noc::TurnModel::XY, faults);
        if (!p.has_value()) continue;
        detoured += p->hops() > dims.hop_distance(f.src, f.dst) ? 1 : 0;
        hops += p->hops();
        flows.add(f.src, f.dst, f.bandwidth_mbps, *p);
      }
      const double per_flow = std::max(flows.size(), 1);

      auto smart = smart::make_smart_network(mapped.cfg, flows);
      const auto r = run_design(*smart.net, mapped.cfg,
                                strf("%s (%d failed links)", mapping::app_name(app), kills),
                                "SMART");
      if (kills == 0) base_latency = r.latency;
      t.add_row({mapping::app_name(app), strf("%d", kills),
                 strf("%d/%d", flows.size(), mapped.flows.size()), strf("%d", detoured),
                 fixed(hops / per_flow), fixed(smart.presets.total_stops / per_flow),
                 fixed(r.latency),
                 strf("%+.1f%%", 100.0 * (r.latency / base_latency - 1.0))});
    }
  }
  return t;
}

Output faults(const Paper&) {
  return {{{"mtbf", "Extension: online glitch campaigns (latency/throughput vs MTBF)",
            mtbf_campaign()},
           {"links", "Extension: SMART latency under link failures", link_failures()}}};
}

// --- Supporting sweep: load-latency curves under synthetic traffic ----------
//
// Two regimes bracket SMART's behaviour:
//   * transpose (one destination per source): presets bypass nearly every
//     router, SMART holds near-single-cycle latency until saturation;
//   * uniform-random (all-pairs flows): every port is shared, every input
//     is buffered - the paper's "in the worst case, if all flows contend,
//     SMART and Mesh will have the same network latency" made measurable
//     (SMART still saves the explicit link cycles).

Output sweep_synthetic(const Paper&) {
  NocConfig cfg = NocConfig::paper_4x4();
  cfg.warmup_cycles = 5'000;
  cfg.measure_cycles = 40'000;
  cfg.drain_timeout = 200'000;
  // A run that does not drain is past saturation: its cell says so.
  const auto latency = [&](noc::Network& net) -> std::optional<double> {
    sim::BernoulliWorkload tr(cfg, net.flows(), cfg.seed);
    if (!sim::run_simulation(net, tr, cfg).drained) return std::nullopt;
    return net.stats().avg_network_latency();
  };
  TextTable t({"pattern", "rate", "Mesh", "SMART", "SMART saving"});
  for (noc::SyntheticPattern pat :
       {noc::SyntheticPattern::Transpose, noc::SyntheticPattern::UniformRandom,
        noc::SyntheticPattern::BitComplement, noc::SyntheticPattern::Hotspot}) {
    for (double rate : {0.01, 0.05, 0.10, 0.20, 0.30}) {
      const auto flows = noc::make_synthetic_flows(cfg, pat, rate, noc::TurnModel::XY);
      auto mesh = noc::make_baseline_mesh(cfg, flows);
      auto smart = smart::make_smart_network(cfg, flows);
      const auto m = latency(*mesh), s = latency(*smart.net);
      t.add_row({noc::synthetic_name(pat), fixed(rate), m ? fixed(*m) : "saturated",
                 s ? fixed(*s) : "saturated",
                 m && s ? strf("-%.0f%%", 100.0 * (1.0 - *s / *m)) : "-"});
    }
  }
  return {{{"", "Synthetic traffic: avg network latency vs injected flits/node/cycle",
            std::move(t)}}};
}

// --- The artifact table -----------------------------------------------------

struct Artifact {
  const char* name;  ///< CSV file stem
  Output (*generate)(const Paper&);
  Paper paper;
};

const Artifact kArtifacts[] = {
    {"table1", table1, {{"hops at 2 GHz", "8"}, {"fJ/b/mm at 2 GHz", "104"}, {"BER", "< 1e-9"}}},
    {"table2", table2,
     {{"Technology", "45nm"}, {"Vdd, Freq", "0.9 V, 2 GHz"}, {"Topology", "4x4 mesh"},
      {"Channel width", "32 bits"}, {"Credit width", "2 bits"}, {"Router ports", "5"},
      {"VCs per port", "2, 10-flit deep"}, {"Packet size", "256 bits"},
      {"Flit size", "32 bits"}, {"Header width", "20 bits (Head)"}}},
    {"fig1", fig1, {{"stores", "16"}, {"total reconfig", "tens of cycles"}}},
    {"fig3", fig3, {}},
    {"fig7", fig7,
     {{"green 12->15", "1 (single cycle)"}, {"purple 0->4", "1 (single cycle)"},
      {"red 13->10", "1 -> 4 -> 7"}, {"blue 8->3", "1 -> 4 -> 7"},
      {"NIC3",
       "credits from NIC3 are forwarded by preset credit crossbars at routers 3, 7 and 11 "
       "to router 10's East output port"}}},
    {"fig10a", fig10a,
     {{"average SMART", "3.8"}, {"average SMART-vs-Mesh", "-60.1%"},
      {"average SMART-Dedicated", "+1.5"}, {"PIP", "~0"}, {"VOPD", "~0"}, {"WLAN", "~0"},
      {"H264", "+2 to +4"}, {"MMS_MP3", "+2 to +4"}}},
    {"fig10b", fig10b, {{"Mesh/SMART power", "2.2x"}}},
    {"ablation_hpc", ablation_hpc, {}},
    {"ablation_channels", ablation_channels, {}},
    {"heterogeneous", heterogeneous, {}},
    {"scaling", scaling, {}},
    {"faults", faults, {}},
    {"sweep_synthetic", sweep_synthetic, {}},
};

}  // namespace

int main(int argc, char** argv) {
  if (argc > 2 || (argc == 2 && argv[1][0] == '-')) {
    std::fprintf(stderr, "usage: paper_report [out_dir]   (default results/paper)\n");
    return 2;
  }
  const std::string dir = argc == 2 ? argv[1] : "results/paper";
  int written = 0;
  for (const Artifact& a : kArtifacts) {
    try {
      std::filesystem::create_directories(dir);
      const auto write = [&](const std::string& part, const std::string& csv) {
        write_file_atomic(dir + "/" + a.name + (part.empty() ? "" : "_" + part) + ".csv", csv);
        ++written;
      };
      const Output out = a.generate(a.paper);
      for (const Table& t : out.tables) {
        std::printf("=== %s ===\n\n%s", t.title.c_str(), t.rows.str().c_str());
        if (!t.note.empty()) std::printf("\n%s", t.note.c_str());
        std::puts("");
        write(t.part, t.rows.csv());
      }
      for (const auto& [part, csv] : out.files) write(part, csv);
    } catch (const std::exception& e) {
      std::fflush(stdout);
      std::fprintf(stderr, "paper_report: %s: %s\n", a.name, e.what());
      return 1;
    }
  }
  std::printf("%d CSV files written under %s/\n", written, dir.c_str());
  return 0;
}
