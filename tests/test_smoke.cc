// End-to-end smoke check: build, evaluate and grow a network through one
// Scenario run on the engine.
#include <gtest/gtest.h>

#include "common/stats.h"
#include "eval/engine.h"

namespace jf {
namespace {

TEST(Smoke, BuildEvaluateExpand) {
  eval::Scenario s;
  s.name = "smoke";
  s.topologies = {
      {.family = "jellyfish", .switches = 20, .ports = 8, .servers = 60},
      // 20 switches of 8 ports (5 in-fabric, 3 servers), grown by one rack.
      {.family = "jellyfish-incr", .switches = 21, .ports = 8, .network_degree = 5,
       .grow_from = 20},
  };
  s.metrics = {eval::Metric::kPathStats, eval::Metric::kThroughput};
  s.seeds = {42};
  const auto report = eval::Engine({.threads = 2}).run(s);

  for (int t = 0; t < 2; ++t) {
    SCOPED_TRACE(report.topology_labels[static_cast<std::size_t>(t)]);
    const double mean_path = report.series(t, -1, "mean_path").at(0);
    const double diameter = report.series(t, -1, "diameter").at(0);
    EXPECT_GE(mean_path, 1.0);
    EXPECT_GE(diameter, 1.0);
    EXPECT_LE(mean_path, diameter);

    const double tput = report.series(t, -1, "throughput").at(0);
    EXPECT_GT(tput, 0.0);
    EXPECT_LE(tput, 1.0);
  }
}

}  // namespace
}  // namespace jf
