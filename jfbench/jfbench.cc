// End-to-end benchmark runner: runs one workload's generated job files
// through the same calls `jf_eval` makes and records every pass.
//
//   jfbench --plan plan.json --out result.json
//
// plan.json (written by run.py):
//   {"mode": "sweep" | "serve", "seconds": 30, "min_passes": 1,
//    "trace": false, "store_dir": "...",
//    "jobs": [{"name": "...", "file": "...", "out": "..."}]}
//
// A "sweep" pass loads the one job file, runs it with run_sweep and writes
// its report; each sweep point counts as a job whose latency is the time
// from the pass start to that point's completion. A "serve" pass opens an
// empty ResultStore and submits the jobs one after another, each after the
// previous report is on disk (load_sweep_file -> run_sweep ->
// sweep_report_to_json -> atomic write, as `jf_eval serve` does per job).
//
// Passes repeat until `seconds` would be exceeded. obs counters are on in
// every pass (they are the work counts the checks compare); spans are on
// only with "trace": true, which needs the jfbench_traced build. A traced
// pass splits the engine's cell time into layer self-times (see
// attribute_trace). All checks on the numbers live in run.py.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/digest.h"
#include "common/fs.h"
#include "common/json.h"
#include "eval/serialize.h"
#include "eval/sweep.h"
#include "obs/metrics.h"
#include "obs/perfrec.h"
#include "obs/trace.h"
#include "store/result_store.h"

namespace fs = std::filesystem;
using namespace jf;

namespace {

// The engine's --threads for every workload: one process at a time, no
// more workers than the 4-core machine the sizes were chosen on.
constexpr int kThreads = 4;

// Schedule-independent counters: equal in every pass of one input, at any
// thread count. run.py fails the run when any of them drifts.
const std::vector<std::string> kWorkCounters = {
    "engine.cells", "engine.cells_solved", "engine.cell_memo_hits", "engine.cell_store_hits",
    "mcf.solves", "mcf.phases", "mcf.rounds", "sim.runs", "sim.rounds", "sim.events",
    "sim.handoffs", "store.hits", "store.misses", "store.puts", "store.dropped",
    "store.bytes_read", "store.bytes_written", "jfb.topo.builds", "jfb.topo.links",
    "jfb.traffic.samples", "jfb.traffic.commodities", "jfb.routing.pairs", "jfb.routing.paths",
    "jfb.mcf.calls", "jfb.restricted.solves", "jfb.partition.calls", "jfb.expansion.steps",
    "jfb.layout.calls", "jfb.sim.calls", "jfb.sim.serial_calls",
};

// Span name of each interposed layer (layers.cc) -> per-layer metric.
const std::map<std::string, std::string> kLayerSpans = {
    {"jfb.topo", "topo.build_s"},          {"jfb.traffic", "traffic.sample_s"},
    {"jfb.routing", "routing.paths_s"},    {"jfb.mcf", "mcf.solve_s"},
    {"jfb.restricted", "restricted.solve_s"}, {"jfb.partition", "partition.kl_s"},
    {"jfb.expansion", "expansion.plan_s"}, {"jfb.layout", "layout.cabling_s"},
    {"jfb.sim", "sim.run_s"},
};

struct Job {
  std::string name;
  std::string file;
  std::string out;
};

struct Plan {
  std::string mode;
  double seconds = 10.0;
  int min_passes = 1;
  bool trace = false;
  std::string store_dir;
  std::vector<Job> jobs;
};

Plan load_plan(const std::string& path) {
  const json::Value v = json::Value::parse(common::read_file(path));
  auto get = [&](const char* key) -> const json::Value& {
    const json::Value* x = v.find(key);
    if (x == nullptr) throw std::invalid_argument(std::string("plan: missing key ") + key);
    return *x;
  };
  Plan p;
  p.mode = get("mode").as_string();
  if (p.mode != "sweep" && p.mode != "serve") throw std::invalid_argument("plan: bad mode");
  p.seconds = get("seconds").as_number();
  p.min_passes = static_cast<int>(get("min_passes").as_int());
  p.trace = get("trace").as_bool();
  p.store_dir = get("store_dir").as_string();
  for (const auto& j : get("jobs").as_array()) {
    p.jobs.push_back({j.find("name")->as_string(), j.find("file")->as_string(),
                      j.find("out")->as_string()});
  }
  if (p.jobs.empty()) throw std::invalid_argument("plan: no jobs");
  if (p.mode == "sweep" && p.jobs.size() != 1) {
    throw std::invalid_argument("plan: a sweep plan runs exactly one job");
  }
  return p;
}

double dist_seconds(const obs::MetricsSnapshot& m, const char* name) {
  const obs::DistributionSnapshot* d = m.find_distribution(name);
  return d == nullptr ? 0.0 : static_cast<double>(d->sum) / 1e9;
}

json::Object work_counts(const obs::MetricsSnapshot& m) {
  json::Object o;
  for (const auto& name : kWorkCounters) o.emplace_back(name, m.counter_value(name));
  return o;
}

// Per-layer busy seconds of one traced stretch, from the Chrome trace.
//
// On each thread, spans nest by containment. A layer span's self time is
// its duration minus that of the layer spans directly inside it. Layer
// self time inside an "engine.cell" span is the cell's attributed time;
// store get/put (timed by the store's own distributions, always inside a
// cell) is attributed too, and the rest of the cell is `unattributed_s`,
// so sum(layers) + unattributed_s == cell_s by construction and the check
// worth making is unattributed_s >= 0. Layer time outside any cell (the
// engine's provider warm-up, workers lent to a cell's solver) is reported
// as outside_cell_s.
struct LayerTimes {
  std::map<std::string, double> in_cell;  // metric -> seconds
  double outside_cell_s = 0.0;
  double cell_s = 0.0;
  double sim_run_until_s = 0.0;  // sharded-engine run spans (events are counted there)
  std::int64_t dropped_events = 0;

  void add(const LayerTimes& o) {
    for (const auto& [k, v] : o.in_cell) in_cell[k] += v;
    outside_cell_s += o.outside_cell_s;
    cell_s += o.cell_s;
    sim_run_until_s += o.sim_run_until_s;
    dropped_events += o.dropped_events;
  }
};

LayerTimes attribute_trace() {
  struct Ev {
    std::int64_t start, end;
    std::string name;
  };
  const json::Value tr = obs::trace_to_json();
  LayerTimes out;
  out.dropped_events = tr.find("otherData")->find("dropped_events")->as_int();
  std::map<std::int64_t, std::vector<Ev>> by_tid;
  for (const auto& e : tr.find("traceEvents")->as_array()) {
    const std::int64_t start = std::llround(e.find("ts")->as_number() * 1000.0);
    const std::int64_t dur = std::llround(e.find("dur")->as_number() * 1000.0);
    by_tid[e.find("tid")->as_int()].push_back({start, start + dur, e.find("name")->as_string()});
  }
  for (auto& [tid, evs] : by_tid) {
    std::sort(evs.begin(), evs.end(), [](const Ev& a, const Ev& b) {
      return a.start != b.start ? a.start < b.start : a.end > b.end;
    });
    // Open spans: (index, nearest enclosing layer span index or -1, in cell).
    struct Open {
      std::size_t ev;
      long layer_parent;
      bool in_cell;
    };
    std::vector<Open> stack;
    std::vector<double> child_layer_s(evs.size(), 0.0);
    std::vector<long> layer_parent(evs.size(), -1);
    std::vector<bool> in_cell(evs.size(), false);
    for (std::size_t i = 0; i < evs.size(); ++i) {
      while (!stack.empty() && evs[stack.back().ev].end <= evs[i].start) stack.pop_back();
      long parent_layer = -1;
      bool cell = false;
      if (!stack.empty()) {
        const Open& top = stack.back();
        parent_layer = kLayerSpans.contains(evs[top.ev].name) ? static_cast<long>(top.ev)
                                                              : top.layer_parent;
        cell = top.in_cell || evs[top.ev].name == "engine.cell";
      }
      layer_parent[i] = parent_layer;
      in_cell[i] = cell;
      const double dur_s = static_cast<double>(evs[i].end - evs[i].start) / 1e9;
      if (evs[i].name == "engine.cell") out.cell_s += dur_s;
      if (evs[i].name == "sim.run_until") out.sim_run_until_s += dur_s;
      if (kLayerSpans.contains(evs[i].name) && parent_layer >= 0) {
        child_layer_s[static_cast<std::size_t>(parent_layer)] += dur_s;
      }
      stack.push_back({i, parent_layer, cell});
    }
    for (std::size_t i = 0; i < evs.size(); ++i) {
      auto it = kLayerSpans.find(evs[i].name);
      if (it == kLayerSpans.end()) continue;
      const double self =
          static_cast<double>(evs[i].end - evs[i].start) / 1e9 - child_layer_s[i];
      if (in_cell[i]) {
        out.in_cell[it->second] += self;
      } else {
        out.outside_cell_s += self;
      }
    }
  }
  return out;
}

struct PassOut {
  json::Object rec;
  LayerTimes layers;
};

// Report bytes exactly as jf_eval writes them, written atomically.
std::string write_report(const eval::SweepReport& report, const std::string& path,
                         json::Array* point_digests) {
  const json::Value rj = eval::sweep_report_to_json(report);
  for (const auto& pt : rj.find("points")->as_array()) point_digests->push_back(common::sha256_hex(pt.dump()));
  std::string bytes = rj.dump(2) + "\n";
  common::write_file_atomic(fs::path(path), bytes);
  return bytes;
}

void begin_stretch(bool traced) {
  obs::reset_trace();
  obs::set_trace_enabled(traced);
}

PassOut sweep_pass(const Plan& p, bool traced) {
  const Job& job = p.jobs.front();
  obs::reset_metrics();
  begin_stretch(traced);
  std::vector<double> point_ms;
  obs::WallTimer t;
  eval::SweepSpec spec = eval::load_sweep_file(job.file);
  const double load_s = t.seconds();
  eval::BatchStats stats;
  eval::EngineOptions opts;
  opts.threads = kThreads;
  opts.stats = &stats;
  const double run_t0 = t.seconds();
  eval::SweepReport report = eval::run_sweep(
      spec, opts, [&](int, int, const eval::SweepPointResult&, double) {
        point_ms.push_back(t.seconds() * 1e3);
      });
  const double run_s = t.seconds() - run_t0;
  const double r0 = t.seconds();
  json::Array point_digests;
  const std::string bytes = write_report(report, job.out, &point_digests);
  const double report_s = t.seconds() - r0;
  const double wall_s = t.seconds();
  obs::set_trace_enabled(false);

  const obs::MetricsSnapshot m = obs::collect_metrics();
  PassOut out;
  if (traced) out.layers = attribute_trace();
  // Set-up: load plus everything run_sweep does before the engine's cell
  // phase starts (sweep expansion, validation, shared topology builds and
  // path-provider warm-up).
  const double setup_s = load_s + run_s - dist_seconds(m, "engine.phase_cells_ns");
  json::Array lat;
  for (double v : point_ms) lat.emplace_back(v);
  json::Object jrec = {{"name", job.name},
                       {"digest", common::sha256_hex(bytes)},
                       {"point_digests", json::Value(std::move(point_digests))},
                       {"cells", stats.cells},
                       {"solved", stats.solved}};
  out.rec.emplace_back("wall_s", wall_s);
  out.rec.emplace_back("setup_s", setup_s);
  out.rec.emplace_back("load_s", load_s);
  out.rec.emplace_back("report_s", report_s);
  out.rec.emplace_back("report_bytes", static_cast<std::int64_t>(bytes.size()));
  out.rec.emplace_back("cells", stats.cells);
  out.rec.emplace_back("latencies_ms", json::Value(std::move(lat)));
  out.rec.emplace_back("jobs", json::Value(json::Array{json::Value(std::move(jrec))}));
  out.rec.emplace_back("metrics", metrics_to_json(m));
  out.rec.emplace_back("work", json::Value(work_counts(m)));
  return out;
}

PassOut serve_pass(const Plan& p, bool traced) {
  obs::reset_metrics();
  PassOut out;
  const fs::path store_dir(p.store_dir);
  double excluded_s = 0.0;  // trace attribution between jobs, kept out of wall_s
  static obs::Distribution& phase_cells = obs::distribution("engine.phase_cells_ns");
  fs::remove_all(store_dir);
  obs::WallTimer t;
  auto st = std::make_unique<store::ResultStore>(store_dir);
  // Set-up: the store open, plus each job's start-up up to its engine's
  // cell phase (load, expansion, validation, shared builds, warm-up).
  double setup_s = t.seconds();
  eval::EngineOptions opts;
  opts.threads = kThreads;
  opts.store = st.get();
  double load_s = 0.0, report_s = 0.0;
  std::int64_t report_bytes = 0, cells = 0;
  json::Array lat, jobs;
  for (const Job& job : p.jobs) {
    begin_stretch(traced);
    const double j0 = t.seconds();
    eval::SweepSpec spec = eval::load_sweep_file(job.file);
    const double j1 = t.seconds();
    eval::BatchStats stats;
    opts.stats = &stats;
    const std::int64_t cells_ns0 = phase_cells.sum();
    eval::SweepReport report = eval::run_sweep(spec, opts);
    const double j2 = t.seconds();
    setup_s += j2 - j0 - static_cast<double>(phase_cells.sum() - cells_ns0) / 1e9;
    json::Array point_digests;
    const std::string bytes = write_report(report, job.out, &point_digests);
    const double j3 = t.seconds();
    obs::set_trace_enabled(false);
    load_s += j1 - j0;
    report_s += j3 - j2;
    report_bytes += static_cast<std::int64_t>(bytes.size());
    cells += stats.cells;
    lat.emplace_back((j3 - j0) * 1e3);
    json::Object jrec = {{"name", job.name},
                         {"digest", common::sha256_hex(bytes)},
                         {"point_digests", json::Value(std::move(point_digests))},
                         {"cells", stats.cells},
                         {"solved", stats.solved},
                         {"memo_hits", stats.memo_hits},
                         {"store_hits", stats.store_hits},
                         {"ms", (j3 - j0) * 1e3}};
    jobs.emplace_back(json::Value(std::move(jrec)));
    if (traced) {
      const double a0 = t.seconds();
      out.layers.add(attribute_trace());
      excluded_s += t.seconds() - a0;
    }
  }
  const double wall_s = t.seconds() - excluded_s;
  st.reset();
  fs::remove_all(store_dir);
  const obs::MetricsSnapshot m = obs::collect_metrics();
  out.rec.emplace_back("wall_s", wall_s);
  out.rec.emplace_back("setup_s", setup_s);
  out.rec.emplace_back("load_s", load_s);
  out.rec.emplace_back("report_s", report_s);
  out.rec.emplace_back("report_bytes", report_bytes);
  out.rec.emplace_back("cells", cells);
  out.rec.emplace_back("latencies_ms", json::Value(std::move(lat)));
  out.rec.emplace_back("jobs", json::Value(std::move(jobs)));
  out.rec.emplace_back("metrics", metrics_to_json(m));
  out.rec.emplace_back("work", json::Value(work_counts(m)));
  return out;
}

json::Object layer_record(const LayerTimes& l) {
  json::Object o;
  for (const auto& [span, metric] : kLayerSpans) {
    auto it = l.in_cell.find(metric);
    o.emplace_back(metric, it == l.in_cell.end() ? 0.0 : it->second);
  }
  o.emplace_back("outside_cell_s", l.outside_cell_s);
  o.emplace_back("cell_s", l.cell_s);
  o.emplace_back("sim_run_until_s", l.sim_run_until_s);
  o.emplace_back("dropped_events", l.dropped_events);
  return o;
}

json::Value fingerprint_json() {
  const obs::EnvFingerprint fp = obs::current_fingerprint("");
  json::Object o;
  o.emplace_back("compiler", fp.compiler);
  o.emplace_back("flags", fp.flags);
  o.emplace_back("build_type", fp.build_type);
  o.emplace_back("sanitizer", fp.sanitizer);
  o.emplace_back("hw_concurrency", fp.hw_concurrency);
  o.emplace_back("cpu_model", fp.cpu_model);
  return json::Value(std::move(o));
}

int run(const std::string& plan_path, const std::string& out_path) {
  const Plan p = load_plan(plan_path);
#ifndef JFB_TRACED
  if (p.trace) throw std::invalid_argument("this build has no layer interposition; use jfbench_traced");
#endif
  obs::set_metrics_enabled(true);
  json::Object result;
  result.emplace_back("fingerprint", fingerprint_json());
  json::Array passes;
  obs::WallTimer total;
  double longest = 0.0;
  while (true) {
    const double before = total.seconds();
    PassOut pass;
    bool failed = false;
    try {
      pass = p.mode == "sweep" ? sweep_pass(p, p.trace) : serve_pass(p, p.trace);
    } catch (const std::exception& e) {
      // A failed pass is a result, not a crash: run.py counts its jobs as
      // failed and the run as incorrect.
      obs::set_trace_enabled(false);
      std::cerr << "jfbench: pass failed: " << e.what() << "\n";
      pass = PassOut{};
      pass.rec.emplace_back("error", e.what());
      failed = true;
    }
    longest = std::max(longest, total.seconds() - before);
    if (p.trace && !failed) {
      pass.rec.emplace_back("layers", json::Value(layer_record(pass.layers)));
    }
    passes.emplace_back(json::Value(std::move(pass.rec)));
    const int done = static_cast<int>(passes.size());
    if (done >= p.min_passes && total.seconds() + longest > p.seconds) break;
  }
  result.emplace_back("passes", json::Value(std::move(passes)));
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  result.emplace_back("peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0);
  common::write_file_atomic(fs::path(out_path), json::Value(std::move(result)).dump() + "\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string plan, out;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string arg = argv[i];
    if (arg == "--plan") {
      plan = argv[i + 1];
    } else if (arg == "--out") {
      out = argv[i + 1];
    }
  }
  if (plan.empty() || out.empty()) {
    std::cerr << "usage: jfbench --plan PLAN.json --out RESULT.json\n";
    return 2;
  }
  try {
    return run(plan, out);
  } catch (const std::exception& e) {
    std::cerr << "jfbench: " << e.what() << "\n";
    return 1;
  }
}
