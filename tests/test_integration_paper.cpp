// Paper-level integration: the Fig. 10a / 10b shape claims, checked on the
// full pipeline (task graph -> NMAP -> presets -> registers -> simulation
// -> power) with the default seed. Bounds are deliberately generous - they
// pin the *shape* (who wins, by roughly what factor, where the crossovers
// are), not this implementation's exact numbers.
#include <gtest/gtest.h>

#include <map>

#include "dedicated/dedicated_network.hpp"
#include "mapping/nmap.hpp"
#include "noc/traffic.hpp"
#include "power/energy_model.hpp"
#include "sim/runner.hpp"
#include "smart/smart_network.hpp"

namespace smartnoc {
namespace {

struct AppNumbers {
  double mesh_lat, smart_lat, ded_lat;
  power::PowerBreakdown mesh_p, smart_p, ded_p;
};

const std::map<mapping::SocApp, AppNumbers>& numbers() {
  static const auto* cached = [] {
    auto* out = new std::map<mapping::SocApp, AppNumbers>;
    NocConfig cfg = NocConfig::paper_4x4();
    cfg.warmup_cycles = 5'000;
    cfg.measure_cycles = 60'000;
    for (mapping::SocApp app : mapping::kAllApps) {
      const auto mapped = mapping::map_app(app, cfg);
      const auto params = power::EnergyParams::for_config(mapped.cfg);
      AppNumbers n{};
      {
        auto net = noc::make_baseline_mesh(mapped.cfg, mapped.flows);
        sim::BernoulliWorkload t(mapped.cfg, net->flows(), cfg.seed);
        const auto r = sim::run_simulation(*net, t, mapped.cfg);
        EXPECT_TRUE(r.drained) << mapping::app_name(app);
        n.mesh_lat = net->stats().avg_network_latency();
        n.mesh_p = power::compute_power(mapped.cfg, r.activity, r.measure_cycles, params);
      }
      {
        auto smart = smart::make_smart_network(mapped.cfg, mapped.flows);
        sim::BernoulliWorkload t(mapped.cfg, smart.net->flows(), cfg.seed);
        const auto r = sim::run_simulation(*smart.net, t, mapped.cfg);
        EXPECT_TRUE(r.drained) << mapping::app_name(app);
        n.smart_lat = smart.net->stats().avg_network_latency();
        n.smart_p = power::compute_power(mapped.cfg, r.activity, r.measure_cycles, params);
      }
      {
        dedicated::DedicatedNetwork ded(mapped.cfg, mapped.flows);
        sim::BernoulliWorkload t(mapped.cfg, ded.flows(), cfg.seed);
        const auto r = sim::run_simulation(ded, t, mapped.cfg);
        EXPECT_TRUE(r.drained) << mapping::app_name(app);
        n.ded_lat = ded.stats().avg_network_latency();
        n.ded_p = power::compute_power(mapped.cfg, r.activity, r.measure_cycles, params);
      }
      out->emplace(app, n);
    }
    return out;
  }();
  return *cached;
}

class PaperShape : public ::testing::TestWithParam<mapping::SocApp> {};

TEST_P(PaperShape, OrderingHolds) {
  const auto& n = numbers().at(GetParam());
  EXPECT_LT(n.smart_lat, n.mesh_lat);
  EXPECT_LE(n.ded_lat, n.smart_lat + 1e-9);
}

TEST_P(PaperShape, MeshIsAroundTenCycles) {
  // NMAP keeps routes short: 4 cycles/hop + 5 puts the mesh near 9-11.
  const auto& n = numbers().at(GetParam());
  EXPECT_GT(n.mesh_lat, 8.0);
  EXPECT_LT(n.mesh_lat, 13.0);
}

TEST_P(PaperShape, SmartSavesAtLeastFortyPercent) {
  // Paper: 60.1% average; per-app minimum is H264's ~50%.
  const auto& n = numbers().at(GetParam());
  EXPECT_LT(n.smart_lat, 0.6 * n.mesh_lat) << "saving below 40%";
}

TEST_P(PaperShape, LinkPowerSimilarAcrossDesigns) {
  const auto& n = numbers().at(GetParam());
  EXPECT_NEAR(n.smart_p.link_w, n.mesh_p.link_w, 0.2 * n.mesh_p.link_w);
  EXPECT_NEAR(n.ded_p.link_w, n.mesh_p.link_w, 0.2 * n.mesh_p.link_w);
}

TEST_P(PaperShape, SmartPowerWellBelowMesh) {
  const auto& n = numbers().at(GetParam());
  EXPECT_GT(n.mesh_p.total(), 1.4 * n.smart_p.total());
}

INSTANTIATE_TEST_SUITE_P(Apps, PaperShape, ::testing::ValuesIn(mapping::kAllApps),
                         [](const ::testing::TestParamInfo<mapping::SocApp>& pinfo) {
                           return mapping::app_name(pinfo.param);
                         });

TEST(PaperAverages, SixtyPercentSavingBand) {
  double mesh = 0, smart = 0, ded = 0;
  for (const auto& [app, n] : numbers()) {
    mesh += n.mesh_lat;
    smart += n.smart_lat;
    ded += n.ded_lat;
  }
  const double saving = 1.0 - smart / mesh;
  EXPECT_GT(saving, 0.50) << "paper: 60.1%";
  EXPECT_LT(saving, 0.80);
  // SMART within ~2.5 cycles of the Dedicated ideal (paper: 1.5).
  EXPECT_LT((smart - ded) / 8.0, 2.5);
  EXPECT_GT((smart - ded) / 8.0, 0.3);
}

TEST(PaperAverages, PowerRatioNearPaper) {
  double mesh = 0, smart = 0;
  for (const auto& [app, n] : numbers()) {
    mesh += n.mesh_p.total();
    smart += n.smart_p.total();
  }
  const double ratio = mesh / smart;
  EXPECT_GT(ratio, 1.8) << "paper: 2.2x";
  EXPECT_LT(ratio, 3.2);
}

TEST(PaperSpecifics, PipSmartEqualsDedicated) {
  // "For PIP, VOPD and WLAN, the latencies achieved by SMART and Dedicated
  // are almost identical."
  const auto& n = numbers().at(mapping::SocApp::PIP);
  EXPECT_NEAR(n.smart_lat, n.ded_lat, 0.35);
}

TEST(PaperSpecifics, WlanVopdCloseToDedicated) {
  for (mapping::SocApp app : {mapping::SocApp::WLAN, mapping::SocApp::VOPD}) {
    const auto& n = numbers().at(app);
    EXPECT_LT(n.smart_lat - n.ded_lat, 1.5) << mapping::app_name(app);
  }
}

TEST(PaperSpecifics, HubAppsFavourDedicated) {
  // "This allows Dedicated to have 2-4 cycles lower latency than SMART in
  // H264 and MMS_MP3."
  for (mapping::SocApp app : {mapping::SocApp::H264, mapping::SocApp::MMS_MP3}) {
    const auto& n = numbers().at(app);
    const double gap = n.smart_lat - n.ded_lat;
    EXPECT_GT(gap, 1.5) << mapping::app_name(app);
    EXPECT_LT(gap, 5.0) << mapping::app_name(app);
  }
}

TEST(PaperSpecifics, HubGapExceedsPipelineGap) {
  const auto& h264 = numbers().at(mapping::SocApp::H264);
  const auto& pip = numbers().at(mapping::SocApp::PIP);
  EXPECT_GT(h264.smart_lat - h264.ded_lat, pip.smart_lat - pip.ded_lat);
}

}  // namespace
}  // namespace smartnoc
