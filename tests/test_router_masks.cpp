// Router occupancy masks: the staged / hold / locked / pending masks that
// drive BW, ST and SA are derived state, so after every tick - and after
// every fault action, whose surgery edits router ports directly - each
// router's masks must equal what Router::masks_consistent() recomputes
// from its ports. Seeded kill, glitch and stall storms on 6x6 SMART and
// mesh networks, under the active-set kernel, the full-scan oracle
// (full_scan_kernel.hpp) and two shards.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "full_scan_kernel.hpp"
#include "noc/fault_engine.hpp"
#include "noc/network.hpp"
#include "noc/traffic.hpp"
#include "smart/smart_network.hpp"

namespace smartnoc {
namespace {

enum class Kernel { ActiveSet, FullScan, TwoShards };

const char* kernel_name(Kernel k) {
  switch (k) {
    case Kernel::ActiveSet: return "active-set";
    case Kernel::FullScan: return "full-scan oracle";
    case Kernel::TwoShards: return "2 shards";
  }
  return "?";
}

/// Glitches, permanent kills and router stalls, drawn from `seed`.
noc::FaultSchedule storm(const MeshDims& dims, std::uint64_t seed, Cycle horizon) {
  std::vector<noc::FaultEventSpec> events =
      noc::FaultSchedule::random_events(dims, 120, horizon, seed, 150);
  const std::vector<noc::FaultEventSpec> kills =
      noc::FaultSchedule::random_events(dims, 900, horizon, seed + 1, 0);
  events.insert(events.end(), kills.begin(), kills.end());
  Xoshiro256 rng = make_stream(seed, 0x57A11);
  for (Cycle t = 50; t < horizon; t += 1 + rng.below(200)) {
    noc::FaultEventSpec e;
    e.cycle = t;
    e.kind = noc::FaultKind::RouterStall;
    e.node = static_cast<NodeId>(rng.below(static_cast<std::uint64_t>(dims.nodes())));
    e.until = t + 1 + rng.below(60);
    events.push_back(e);
  }
  return noc::FaultSchedule(events);
}

/// Every router's masks match its ports; names the first that does not.
::testing::AssertionResult masks_hold(noc::MeshNetwork& net, const std::string& when) {
  for (NodeId n = 0; n < net.config().dims().nodes(); ++n) {
    if (!net.router(n).masks_consistent()) {
      return ::testing::AssertionFailure()
             << "router " << n << " masks disagree with its ports " << when;
    }
  }
  return ::testing::AssertionSuccess();
}

void run_storm(Design design, Kernel kernel, std::uint64_t seed) {
  NocConfig cfg;
  cfg.width = 6;
  cfg.height = 6;
  cfg.fit_derived();
  cfg.seed = seed;
  cfg.shard_threads = kernel == Kernel::TwoShards ? 2 : 1;
  auto flows = noc::make_synthetic_flows(cfg, noc::SyntheticPattern::UniformRandom, 0.12,
                                         noc::TurnModel::XY);
  std::unique_ptr<noc::MeshNetwork> net =
      design == Design::Smart ? std::move(smart::make_smart_network(cfg, std::move(flows)).net)
                              : noc::make_baseline_mesh(cfg, std::move(flows));
  noc::TrafficEngine traffic(cfg, net->flows(), seed);
  // Ticks and drain checks go through `driver`; faults and masks through
  // the network itself.
  std::unique_ptr<testing::FullScanKernel> oracle;
  if (kernel == Kernel::FullScan) oracle = std::make_unique<testing::FullScanKernel>(*net);
  noc::Network& driver = oracle != nullptr ? static_cast<noc::Network&>(*oracle) : *net;
  const Cycle horizon = 3000;
  noc::FaultSchedule faults = storm(cfg.dims(), seed, horizon);
  const std::string what = std::string(design_name(design)) + "/" + kernel_name(kernel) +
                           "/seed " + std::to_string(seed);

  std::uint64_t grants_before_faults = 0;
  for (Cycle c = 0; c < horizon; ++c) {
    while (const noc::FaultAction* a = faults.pop_due(net->now())) {
      net->apply_fault_action(*a);
      ASSERT_TRUE(masks_hold(*net, "after a fault action at cycle " +
                                       std::to_string(net->now()) + " (" + what + ")"));
    }
    driver.tick();
    traffic.generate(driver);
    ASSERT_TRUE(masks_hold(*net, "after tick " + std::to_string(net->now()) + " (" + what + ")"));
    if (c == 100) grants_before_faults = net->stats().activity().alloc_grants;
  }
  traffic.set_enabled(false);
  for (Cycle c = 0; c < 30'000 && !driver.drained(); ++c) {
    driver.tick();
    ASSERT_TRUE(masks_hold(*net, "while draining (" + what + ")"));
  }
  EXPECT_TRUE(driver.drained()) << what;
  EXPECT_GT(grants_before_faults, 0u) << what << ": the storm must hit a loaded network";
  const noc::FaultCounters& fc = net->stats().faults();
  EXPECT_GT(fc.link_kills, 0u) << what;
  EXPECT_GT(fc.link_repairs, 0u) << what;
  EXPECT_GT(fc.router_stalls, 0u) << what;
  EXPECT_GT(fc.flits_purged, 0u) << what << ": surgery must have purged live traffic";
}

TEST(RouterMasks, MatchPortStateThroughFaultStorms) {
  for (Design design : {Design::Smart, Design::Mesh}) {
    for (Kernel kernel : {Kernel::ActiveSet, Kernel::FullScan, Kernel::TwoShards}) {
      for (std::uint64_t seed : {3u, 11u}) run_storm(design, kernel, seed);
    }
  }
}

}  // namespace
}  // namespace smartnoc
