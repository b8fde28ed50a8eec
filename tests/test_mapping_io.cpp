// Task-graph text format and DOT export.
#include <gtest/gtest.h>

#include <algorithm>

#include "mapping/apps.hpp"
#include "mapping/graph_io.hpp"

namespace smartnoc::mapping {
namespace {

constexpr const char* kSample = R"(# a comment
app demo
task src
task filter
task sink
comm src filter 120.5   # inline comment
comm filter sink 60
)";

TEST(GraphIo, ParsesSample) {
  const TaskGraph g = parse_task_graph(kSample);
  EXPECT_EQ(g.name(), "demo");
  EXPECT_EQ(g.num_tasks(), 3);
  ASSERT_EQ(g.edges().size(), 2u);
  EXPECT_EQ(g.task_name(g.edges()[0].src), "src");
  EXPECT_EQ(g.task_name(g.edges()[0].dst), "filter");
  EXPECT_DOUBLE_EQ(g.edges()[0].mbps, 120.5);
}

TEST(GraphIo, RoundTrips) {
  const TaskGraph g = parse_task_graph(kSample);
  const TaskGraph g2 = parse_task_graph(serialize_task_graph(g));
  EXPECT_EQ(g2.name(), g.name());
  EXPECT_EQ(g2.num_tasks(), g.num_tasks());
  ASSERT_EQ(g2.edges().size(), g.edges().size());
  for (std::size_t i = 0; i < g.edges().size(); ++i) {
    EXPECT_EQ(g2.edges()[i].src, g.edges()[i].src);
    EXPECT_EQ(g2.edges()[i].dst, g.edges()[i].dst);
    EXPECT_DOUBLE_EQ(g2.edges()[i].mbps, g.edges()[i].mbps);
  }
}

TEST(GraphIo, BuiltinAppsRoundTrip) {
  for (SocApp app : kAllApps) {
    const TaskGraph g = make_app(app);
    const TaskGraph g2 = parse_task_graph(serialize_task_graph(g));
    EXPECT_EQ(g2.num_tasks(), g.num_tasks()) << app_name(app);
    EXPECT_EQ(g2.edges().size(), g.edges().size()) << app_name(app);
    EXPECT_NEAR(g2.total_bandwidth(), g.total_bandwidth(), 1e-9) << app_name(app);
  }
}

TEST(GraphIo, ErrorsCarryLineNumbers) {
  try {
    parse_task_graph("app x\ntask a\ntask b\ncomm a nosuch 5\n");
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("line 4"), std::string::npos) << e.what();
  }
}

TEST(GraphIo, RejectsMalformedInput) {
  EXPECT_THROW(parse_task_graph("task a\n"), ConfigError);              // no app
  EXPECT_THROW(parse_task_graph("app x\napp y\n"), ConfigError);        // dup app
  EXPECT_THROW(parse_task_graph("app x\ntask a\ntask a\n"), ConfigError);  // dup task
  EXPECT_THROW(parse_task_graph("app x\nfrobnicate\n"), ConfigError);   // keyword
  EXPECT_THROW(parse_task_graph("app x\ntask a\ncomm a\n"), ConfigError);  // arity
}

TEST(GraphIo, DotContainsNodesAndLabelledEdges) {
  const TaskGraph g = make_app(SocApp::PIP);
  const std::string dot = to_dot(g);
  EXPECT_EQ(dot.rfind("digraph", 0), 0u);
  for (int t = 0; t < g.num_tasks(); ++t) {
    EXPECT_NE(dot.find("\"" + g.task_name(t) + "\""), std::string::npos);
  }
  EXPECT_NE(dot.find("MB/s"), std::string::npos);
  EXPECT_EQ(std::count(dot.begin(), dot.end(), '{'), std::count(dot.begin(), dot.end(), '}'));
}

TEST(GraphIo, FileRoundTrip) {
  const TaskGraph g = make_app(SocApp::VOPD);
  const std::string path = ::testing::TempDir() + "vopd_roundtrip.tg";
  save_task_graph(g, path);
  const TaskGraph g2 = load_task_graph(path);
  EXPECT_EQ(g2.num_tasks(), g.num_tasks());
  EXPECT_EQ(g2.edges().size(), g.edges().size());
}

TEST(GraphIo, SaveIntoMissingDirectoryThrowsConfigError) {
  const std::string path = ::testing::TempDir() + "no_such_dir/vopd.tg";
  EXPECT_THROW(save_task_graph(make_app(SocApp::VOPD), path), ConfigError);
}

TEST(GraphIo, LoadMissingFileThrows) {
  EXPECT_THROW(load_task_graph("/nonexistent/nope.tg"), ConfigError);
}

}  // namespace
}  // namespace smartnoc::mapping
