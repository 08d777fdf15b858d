// Result-store warm-up benchmark — the perf record for the persistent
// content-addressed cell cache.
//
// Each repeat runs one scenario twice against a fresh cache directory: a
// cold pass that solves and persists every cell, then a warm pass that must
// splice every cell from disk (solved == 0, enforced). The output is a
// schema-v1 perf record (src/obs/perfrec.h) with a "cold" and a "warm"
// point — every repeat's wall time plus the engine/store work counters —
// so the record shows what resumable sweeps actually buy. Reports are
// compared for byte-identity across passes and repeats — a mismatch is a
// determinism bug, not a perf number. Run from the repo root:
//
//   ./build/bench_cache [--scenario scenarios/fig02a.json] [--threads N]
//                       [--repeats K] [--git-sha SHA] [--out BENCH_cache.json]
//
// The warm pass is pure deserialization, so unlike the scaling benches this
// record is meaningful even on a 1-core box; the environment fingerprint
// still records the core count so numbers from different machines are
// distinguishable.
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <string>
#include <vector>
#include <unistd.h>

#include "common/json.h"
#include "bench_util.h"
#include "common/cli.h"
#include "eval/serialize.h"
#include "eval/sweep.h"
#include "obs/metrics.h"
#include "obs/perfrec.h"
#include "store/result_store.h"

namespace {

using namespace jf;

// The deterministic work block: cell and store traffic, identical on every
// machine for a fixed scenario (cold: misses + puts; warm: hits).
const std::vector<std::string> kWorkMetrics = {"engine.cells", "engine.cells_solved",
                                               "store.hits", "store.misses",
                                               "store.puts"};

double sweep_seconds(const eval::SweepSpec& spec, const eval::EngineOptions& opts,
                     std::string& report_bytes) {
  obs::WallTimer timer;
  eval::SweepReport report = eval::run_sweep(spec, opts);
  const double secs = timer.seconds();
  report_bytes = eval::sweep_report_to_json(report).dump(2);
  return secs;
}

}  // namespace

int main(int argc, char** argv) {
  std::string scenario_path = JF_SCENARIO_DIR "/fig02a.json";
  std::string out_path = "BENCH_cache.json";
  std::string git_sha;
  int threads = 0;
  int repeats = 2;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::cerr << "bench_cache: " << arg << " needs a value\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--scenario") {
      scenario_path = value();
    } else if (arg == "--threads") {
      threads = cli::int_flag("bench_cache", arg, value());
    } else if (arg == "--repeats") {
      repeats = cli::int_flag("bench_cache", arg, value());
    } else if (arg == "--git-sha") {
      git_sha = value();
    } else if (arg == "--out") {
      out_path = value();
    } else {
      std::cerr << "usage: bench_cache [--scenario FILE] [--threads N] [--repeats K]"
                   " [--git-sha SHA] [--out FILE]\n";
      return 2;
    }
  }

  try {
    obs::set_metrics_enabled(true);
    const eval::SweepSpec spec = eval::load_sweep_file(scenario_path);

    obs::PerfRecorder rec("cache_warm",
                          obs::current_fingerprint(bench::resolve_git_sha(git_sha)));
    rec.set_meta("scenario", json::Value(scenario_path));
    rec.set_meta("threads", json::Value(threads));
    rec.set_meta("repeats", json::Value(repeats));

    json::Object cold_params;
    cold_params.emplace_back("pass", std::string("cold"));
    obs::PerfPoint& cold_point = rec.add_point("cold", std::move(cold_params));
    json::Object warm_params;
    warm_params.emplace_back("pass", std::string("warm"));
    obs::PerfPoint& warm_point = rec.add_point("warm", std::move(warm_params));

    std::string reference_report;
    eval::BatchStats cold_stats;
    eval::BatchStats warm_stats;
    std::uint64_t store_bytes = 0;
    for (int k = 0; k < std::max(1, repeats); ++k) {
      const std::filesystem::path cache_root =
          std::filesystem::temp_directory_path() /
          ("jf-bench-cache-" + std::to_string(static_cast<unsigned>(::getpid())) + "-" +
           std::to_string(k));
      std::filesystem::remove_all(cache_root);
      store::ResultStore store(cache_root);

      eval::BatchStats stats;
      eval::EngineOptions opts;
      opts.threads = threads;
      opts.store = &store;
      opts.stats = &stats;

      std::string cold_report;
      obs::reset_metrics();
      const double cold = sweep_seconds(spec, opts, cold_report);
      auto cold_work = obs::snapshot_work(kWorkMetrics);
      cold_stats = stats;

      std::string warm_report;
      obs::reset_metrics();
      const double warm = sweep_seconds(spec, opts, warm_report);
      auto warm_work = obs::snapshot_work(kWorkMetrics);
      warm_stats = stats;
      store_bytes = store.total_bytes();
      std::filesystem::remove_all(cache_root);

      if (warm_report != cold_report) {
        std::cerr << "bench_cache: warm report differs from cold — determinism bug\n";
        return 1;
      }
      if (warm_stats.solved != 0) {
        std::cerr << "bench_cache: warm pass solved " << warm_stats.solved
                  << " cells (expected 0) — cache-key instability\n";
        return 1;
      }
      if (k == 0) {
        reference_report = cold_report;
        cold_point.work = std::move(cold_work);
        warm_point.work = std::move(warm_work);
      } else if (cold_report != reference_report) {
        std::cerr << "bench_cache: repeat " << k
                  << " report differs from the first — determinism bug\n";
        return 1;
      } else if (cold_work != cold_point.work || warm_work != warm_point.work) {
        std::cerr << "bench_cache: work counters drifted across repeats — "
                     "determinism bug\n";
        return 1;
      }
      cold_point.wall_seconds.push_back(cold);
      warm_point.wall_seconds.push_back(warm);
      std::cerr << "repeat " << k << ": cold " << cold << " s (cells "
                << cold_stats.cells << ", solved " << cold_stats.solved << "), warm "
                << warm << " s (store_hits " << warm_stats.store_hits << ")\n";
    }

    const double cold_median =
        obs::derive_wall_stats(cold_point.wall_seconds).median_seconds;
    const double warm_median =
        obs::derive_wall_stats(warm_point.wall_seconds).median_seconds;
    const double speedup = warm_median > 0 ? cold_median / warm_median : 0.0;
    std::cerr << "speedup (cold median / warm median): " << speedup << "x\n";
    cold_point.extra.emplace_back("cells", cold_stats.cells);
    cold_point.extra.emplace_back("solved", cold_stats.solved);
    cold_point.extra.emplace_back("store_bytes", static_cast<double>(store_bytes));
    warm_point.extra.emplace_back("store_hits", warm_stats.store_hits);
    warm_point.extra.emplace_back("solved", warm_stats.solved);
    warm_point.extra.emplace_back("speedup_vs_cold", speedup);

    rec.write(out_path);
    std::cerr << "wrote " << out_path << "\n";
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "bench_cache: error: " << e.what() << "\n";
    return 1;
  }
}
