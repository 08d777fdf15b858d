// eval/serialize: Scenario/SweepSpec/Report JSON round trips, strict loader
// error paths, and validity of the shipped scenarios/ files.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <stdexcept>

#include "common/digest.h"
#include "eval/engine.h"
#include "eval/serialize.h"
#include "eval/sweep.h"

namespace jf {
namespace {

eval::Scenario nontrivial_scenario() {
  eval::Scenario s;
  s.name = "round-trip";
  s.topologies = {
      {.family = "jellyfish", .label = "jf", .switches = 20, .ports = 6, .servers = 40},
      {.family = "fattree", .fattree_k = 4},
  };
  s.routings = {{"ecmp", 8}, {"ksp", 4}};
  s.traffic.kind = eval::TrafficSpec::Kind::kHotspot;
  s.traffic.demand = 0.75;
  s.traffic.num_hot = 3;
  s.traffic.fan_in = 5;
  s.metrics = {eval::Metric::kPathStats, eval::Metric::kRoutedThroughput,
               eval::Metric::kCabling};
  s.seeds = {7, 8, 9};
  s.samples_per_seed = 2;
  s.mcf.epsilon = 0.1;
  s.mcf.max_phases = 99;
  s.sim.transport = sim::Transport::kMptcp;
  s.sim.subflows = 4;
  s.sim.shards = 8;
  s.sim.sim.queue_capacity_pkts = 32;
  s.capacity.threshold = 0.9;
  s.cabling_placement = layout::PlacementStyle::kToRInRack;
  return s;
}

TEST(Serialize, ScenarioRoundTripIsByteIdentical) {
  const auto s = nontrivial_scenario();
  const std::string once = eval::scenario_to_json(s).dump(2);
  const auto reloaded = eval::scenario_from_json(json::Value::parse(once));
  const std::string twice = eval::scenario_to_json(reloaded).dump(2);
  EXPECT_EQ(once, twice);
  // Spot-check fields survived.
  EXPECT_EQ(reloaded.name, "round-trip");
  EXPECT_EQ(reloaded.topologies[0].label, "jf");
  EXPECT_EQ(reloaded.traffic.kind, eval::TrafficSpec::Kind::kHotspot);
  EXPECT_EQ(reloaded.sim.transport, sim::Transport::kMptcp);
  EXPECT_EQ(reloaded.sim.shards, 8);
  EXPECT_EQ(reloaded.sim.sim.queue_capacity_pkts, 32);
  EXPECT_EQ(reloaded.metrics[2], eval::Metric::kCabling);
  EXPECT_EQ(reloaded.seeds, (std::vector<std::uint64_t>{7, 8, 9}));
  EXPECT_EQ(reloaded.cabling_placement, layout::PlacementStyle::kToRInRack);
}

TEST(Serialize, SweepRoundTripIsByteIdentical) {
  eval::SweepSpec spec;
  spec.base = nontrivial_scenario();
  spec.axes = {
      {{{"topology.servers", "jellyfish", {20, 30, 40}}}},
      {{{"routing.width", "", {2, 4}}, {"traffic.demand", "", {0.5, 1.0}}}},
  };
  const std::string once = eval::sweep_to_json(spec).dump(2);
  const auto reloaded = eval::sweep_from_json(json::Value::parse(once));
  EXPECT_EQ(once, eval::sweep_to_json(reloaded).dump(2));
  ASSERT_EQ(reloaded.axes.size(), 2u);
  EXPECT_EQ(reloaded.axes[0].entries[0].only, "jellyfish");
  EXPECT_EQ(reloaded.axes[1].entries.size(), 2u);
}

TEST(Serialize, RangeAxisExpandsInclusively) {
  const auto v = json::Value::parse(R"({
    "name": "r",
    "topologies": [{"family": "jellyfish", "switches": 8, "ports": 4, "servers": 8}],
    "sweep": [{"field": "topology.servers", "from": 600, "to": 900, "step": 100}]
  })");
  const auto spec = eval::sweep_from_json(v);
  ASSERT_EQ(spec.axes.size(), 1u);
  EXPECT_EQ(spec.axes[0].entries[0].values, (std::vector<double>{600, 700, 800, 900}));
}

TEST(Serialize, UnknownKeyErrorsNameKeyAndContext) {
  const auto v = json::Value::parse(
      R"({"name": "x", "topologies": [{"family": "jellyfish", "prots": 4}]})");
  try {
    eval::scenario_from_json(v);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("prots"), std::string::npos) << msg;
    EXPECT_NE(msg.find("topologies[0]"), std::string::npos) << msg;
  }
  EXPECT_THROW(eval::scenario_from_json(json::Value::parse(R"({"nmae": "x"})")),
               std::invalid_argument);
}

TEST(Serialize, LoaderErrorPaths) {
  auto load = [](const char* text) {
    return eval::sweep_from_json(json::Value::parse(text));
  };
  // Unknown metric name.
  EXPECT_THROW(load(R"({"metrics": ["throughputt"]})"), std::invalid_argument);
  // Unknown traffic kind / transport / placement.
  EXPECT_THROW(load(R"({"traffic": {"kind": "bursty"}})"), std::invalid_argument);
  EXPECT_THROW(load(R"({"sim": {"transport": "udp"}})"), std::invalid_argument);
  EXPECT_THROW(load(R"({"cabling_placement": "floor"})"), std::invalid_argument);
  // Unknown sweep field.
  EXPECT_THROW(load(R"({"sweep": [{"field": "topology.prots", "values": [1]}]})"),
               std::invalid_argument);
  // Bad ranges: zero step, step moving away from `to`, missing step.
  EXPECT_THROW(load(R"({"sweep": [{"field": "topology.ports", "from": 1, "to": 5, "step": 0}]})"),
               std::invalid_argument);
  EXPECT_THROW(load(R"({"sweep": [{"field": "topology.ports", "from": 5, "to": 1, "step": 2}]})"),
               std::invalid_argument);
  EXPECT_THROW(load(R"({"sweep": [{"field": "topology.ports", "from": 1, "to": 5}]})"),
               std::invalid_argument);
  // values and range are mutually exclusive; empty values rejected.
  EXPECT_THROW(
      load(R"({"sweep": [{"field": "topology.ports", "values": [1], "from": 1, "to": 2, "step": 1}]})"),
      std::invalid_argument);
  EXPECT_THROW(load(R"({"sweep": [{"field": "topology.ports", "values": []}]})"),
               std::invalid_argument);
  // Zipped entries must agree on length.
  EXPECT_THROW(load(R"({"sweep": [{"entries": [
      {"field": "topology.ports", "values": [1, 2]},
      {"field": "topology.switches", "values": [1]}]}]})"),
               std::invalid_argument);
  // Kind mismatches are errors, not coercions, and carry their context path
  // in the message — including non-scalar sections and array elements.
  auto expect_context = [&](const char* text, const char* needle) {
    try {
      load(text);
      FAIL() << "expected std::invalid_argument for " << text;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(needle), std::string::npos) << e.what();
    }
  };
  expect_context(R"({"topologies": [{"family": "jellyfish", "switches": "eight"}]})",
                 "topologies[0].switches");
  expect_context(R"({"topologies": "nope"})", "topologies");
  expect_context(R"({"seeds": ["one"]})", "seeds");
  expect_context(R"({"seeds": "1"})", "seeds");
  expect_context(R"({"sweep": [{"field": "topology.ports", "values": [true]}]})",
                 "values");
  EXPECT_THROW(load(R"({"samples_per_seed": 1.5})"), std::invalid_argument);
  // 64-bit values that don't fit the int field are hard errors, not silent
  // truncations.
  expect_context(R"({"topologies": [{"family": "jellyfish", "switches": 4294967298}]})",
                 "topologies[0].switches");
  // Report and sweep-report loaders qualify their errors the same way, down
  // to the array element.
  auto expect_report_context = [](auto loader, const char* text, const char* needle) {
    try {
      loader(json::Value::parse(text));
      FAIL() << "expected std::invalid_argument for " << text;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(needle), std::string::npos) << e.what();
    }
  };
  expect_report_context(eval::report_from_json, R"({"scenario": "x", "topologies": 5})",
                        "report.topologies");
  expect_report_context(eval::sweep_report_from_json, R"({"name": "x", "points": 7})",
                        "sweep_report.points");
  expect_report_context(eval::sweep_report_from_json,
                        R"({"name": "x", "points": [{"label": "p", "coords": [
                            {"field": "topology.servers", "value": 1},
                            {"field": "routing.width", "value": "two"}]}]})",
                        "sweep_report.points[0].coords[1].value");
}

// Cell-store digests hash the canonical scenario bytes, so a reordered or
// renamed field row would silently orphan every stored cell. Pin the bytes.
TEST(Serialize, CanonicalScenarioBytesArePinned) {
  EXPECT_EQ(common::sha256_hex(eval::scenario_to_json(eval::Scenario{}).dump()),
            "c82ae00d7f6cba188ef5c52c4de9a4d9355312aae9f5ea7ef1df1c98fafe003b");
  const auto smoke = eval::load_sweep_file(JF_SCENARIO_DIR "/smoke.json");
  EXPECT_EQ(common::sha256_hex(eval::scenario_to_json(smoke.base).dump()),
            "c4523283c17284e456b7615ba6c712d9399710a2887899f1405a5d4962d88b07");
}

TEST(Serialize, ReportRoundTripPreservesSamplesAndAggregates) {
  eval::Scenario s;
  s.name = "report-rt";
  s.topologies = {{.family = "jellyfish", .switches = 12, .ports = 5, .servers = 24}};
  s.routings = {{"ksp", 3}};
  s.metrics = {eval::Metric::kPathStats, eval::Metric::kThroughput,
               eval::Metric::kRoutedThroughput};
  s.seeds = {1, 2, 3};
  const auto report = eval::Engine({.threads = 2}).run(s);
  ASSERT_FALSE(report.samples.empty());

  const auto j = eval::report_to_json(report);
  const auto reloaded = eval::report_from_json(json::Value::parse(j.dump(2)));
  ASSERT_EQ(reloaded.samples.size(), report.samples.size());
  for (std::size_t i = 0; i < report.samples.size(); ++i) {
    EXPECT_EQ(reloaded.samples[i].topology, report.samples[i].topology);
    EXPECT_EQ(reloaded.samples[i].routing, report.samples[i].routing);
    EXPECT_EQ(reloaded.samples[i].seed, report.samples[i].seed);
    EXPECT_EQ(reloaded.samples[i].sample, report.samples[i].sample);
    EXPECT_EQ(reloaded.samples[i].metric, report.samples[i].metric);
    EXPECT_EQ(reloaded.samples[i].value, report.samples[i].value);
  }
  EXPECT_EQ(reloaded.topology_labels, report.topology_labels);
  EXPECT_EQ(reloaded.routing_labels, report.routing_labels);

  // The serialized aggregates match what the Report computes.
  const auto& aggs = j.find("aggregates")->as_array();
  const auto rows = report.aggregates();
  ASSERT_EQ(aggs.size(), rows.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(aggs[i].find("metric")->as_string(), rows[i].metric);
    EXPECT_DOUBLE_EQ(aggs[i].find("mean")->as_number(), rows[i].summary.mean);
    EXPECT_EQ(aggs[i].find("n")->as_uint(), rows[i].summary.count);
  }
  // Reloaded reports recompute identical aggregates.
  const auto reloaded_rows = reloaded.aggregates();
  ASSERT_EQ(reloaded_rows.size(), rows.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    EXPECT_DOUBLE_EQ(reloaded_rows[i].summary.mean, rows[i].summary.mean);
  }
}

// Every file in scenarios/ — whatever gets added there — loads and expands.
TEST(Serialize, ShippedScenarioFilesLoadAndExpand) {
  std::vector<std::filesystem::path> files;
  for (const auto& entry : std::filesystem::directory_iterator(JF_SCENARIO_DIR)) {
    if (entry.path().extension() == ".json") files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  ASSERT_FALSE(files.empty());
  for (const auto& f : files) {
    SCOPED_TRACE(f.filename().string());
    eval::SweepSpec spec;
    ASSERT_NO_THROW(spec = eval::load_sweep_file(f.string()));
    std::vector<eval::SweepPoint> points;
    ASSERT_NO_THROW(points = eval::expand_sweep(spec));
    EXPECT_FALSE(points.empty());
  }
}

TEST(Serialize, LoadSweepFileMissingFileThrows) {
  EXPECT_THROW(eval::load_sweep_file("/nonexistent/nope.json"), std::runtime_error);
}

}  // namespace
}  // namespace jf
