#include "eval/sweep.h"

#include <chrono>

#include "common/check.h"
#include "common/json.h"

namespace jf::eval {

bool topology_matches(const TopologySpec& t, const std::string& only) {
  return only.empty() || t.family == only || t.label == only;
}

namespace {

// "topology.servers" -> "servers"; non-topology fields keep the full path.
std::string short_field(const std::string& field) {
  if (field.starts_with("topology.")) return field.substr(std::string("topology.").size());
  return field;
}

void validate_axes(const std::vector<SweepAxis>& axes) {
  for (const auto& axis : axes) {
    check(!axis.entries.empty(), "sweep axis with no entries");
    const std::size_t n = axis.entries.front().values.size();
    check(n > 0, "sweep axis entry '" + axis.entries.front().field + "' has no values");
    for (const auto& entry : axis.entries) {
      check(!entry.field.empty(), "sweep axis entry with empty field");
      check(entry.values.size() == n,
            "zipped sweep entries disagree on length: '" + entry.field + "' has " +
                std::to_string(entry.values.size()) + " values, expected " +
                std::to_string(n));
    }
  }
}

}  // namespace

std::vector<SweepPoint> expand_sweep(const SweepSpec& spec) {
  validate_axes(spec.axes);

  std::size_t total = 1;
  for (const auto& axis : spec.axes) total *= axis.entries.front().values.size();

  std::vector<SweepPoint> points;
  points.reserve(total);
  // Odometer over axis value indices, first axis slowest (row-major).
  std::vector<std::size_t> idx(spec.axes.size(), 0);
  for (std::size_t p = 0; p < total; ++p) {
    SweepPoint point;
    point.scenario = spec.base;
    std::string coord_label;
    // Values first, then labels: `only` filters match the *base* specs, so
    // label suffixes added for earlier axes must not hide a topology from
    // later entries.
    for (std::size_t a = 0; a < spec.axes.size(); ++a) {
      for (const auto& entry : spec.axes[a].entries) {
        const double v = entry.values[idx[a]];
        apply_sweep_value(point.scenario, entry, v);
        point.coords.emplace_back(entry.field, v);
      }
    }
    for (std::size_t a = 0; a < spec.axes.size(); ++a) {
      const SweepAxis& axis = spec.axes[a];
      // Per-axis: each topology gets at most one label suffix (from the
      // first entry of the axis that applies to it), so zipped entries don't
      // stack redundant coordinates onto one label.
      std::vector<bool> suffixed(point.scenario.topologies.size(), false);
      for (const auto& entry : axis.entries) {
        if (!entry.field.starts_with("topology.")) continue;
        for (std::size_t t = 0; t < point.scenario.topologies.size(); ++t) {
          if (suffixed[t] || !topology_matches(spec.base.topologies[t], entry.only)) continue;
          auto& ts = point.scenario.topologies[t];
          ts.label = ts.display() + "/" + short_field(entry.field) + "=" +
                     json::number_to_string(entry.values[idx[a]]);
          suffixed[t] = true;
        }
      }
      const auto& first = axis.entries.front();
      if (!coord_label.empty()) coord_label += ' ';
      coord_label +=
          short_field(first.field) + "=" + json::number_to_string(first.values[idx[a]]);
    }
    point.label = point.scenario.name;
    if (!coord_label.empty()) point.label += " [" + coord_label + "]";
    // Advance the odometer, last axis fastest.
    for (std::size_t a = spec.axes.size(); a-- > 0;) {
      if (++idx[a] < spec.axes[a].entries.front().values.size()) break;
      idx[a] = 0;
    }
    points.push_back(std::move(point));
  }
  return points;
}

Table SweepReport::to_table() const {
  Table table({"point", "topology", "routing", "metric", "mean", "stddev", "min", "max", "n"});
  for (const auto& point : points) {
    std::string coords;
    for (const auto& [field, v] : point.coords) {
      if (!coords.empty()) coords += ' ';
      coords += short_field(field);
      coords += '=';
      coords += json::number_to_string(v);
    }
    // push_back, not = "-": gcc 12's -Wrestrict misfires on literal assign
    // after the += loop above (GCC PR 105329).
    if (coords.empty()) coords.push_back('-');
    for (const auto& row : point.report.aggregates()) {
      table.add_row({coords, row.topology, row.routing, row.metric,
                     Table::fmt(row.summary.mean), Table::fmt(row.summary.stddev),
                     Table::fmt(row.summary.min), Table::fmt(row.summary.max),
                     Table::fmt(row.summary.count)});
    }
  }
  return table;
}

SweepReport run_sweep(const SweepSpec& spec, const EngineOptions& opts,
                      const SweepProgress& progress) {
  auto points = expand_sweep(spec);
  Engine engine(opts);
  SweepReport out;
  out.name = spec.base.name;
  out.points.resize(points.size());
  std::vector<Scenario> scenarios;
  scenarios.reserve(points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    out.points[i].label = std::move(points[i].label);
    out.points[i].coords = std::move(points[i].coords);
    scenarios.push_back(std::move(points[i].scenario));
  }
  // One interleaved batch: cells from every point share the engine's worker
  // budget, so a sweep of many small points fills wide machines instead of
  // draining at each point boundary. The engine buffers out-of-order
  // completions and emits strictly in point order, so progress lines — and
  // the report itself — stay canonical at any thread count. The per-point
  // seconds are the wall time since the previous emission (run start for
  // the first point); they sum to the sweep's wall time but, unlike the
  // old one-point-at-a-time runner, include overlapped work from
  // neighboring points.
  // detlint: ok(per-point seconds feed only the stderr progress callback)
  auto last_emit = std::chrono::steady_clock::now();
  engine.run_batch(scenarios, [&](std::size_t i, Report& report) {
    out.points[i].report = std::move(report);
    const auto now = std::chrono::steady_clock::now();  // detlint: ok(progress only)
    const double seconds = std::chrono::duration<double>(now - last_emit).count();
    last_emit = now;
    if (progress) {
      progress(static_cast<int>(i) + 1, static_cast<int>(points.size()), out.points[i],
               seconds);
    }
  });
  return out;
}

}  // namespace jf::eval
