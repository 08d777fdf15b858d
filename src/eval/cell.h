// Engine-internal pieces shared by the cell scheduler (engine.cc) and the
// metric kernels (metrics.cc).
#pragma once

#include <cstdint>
#include <vector>

#include "eval/engine.h"

namespace jf::eval {

// RNG stream tags. Cells fork every stream from Rng(seed) with a tag mixed
// with the cell indices, which is what makes results independent of the
// cell-to-thread assignment.
inline constexpr std::uint64_t kTopoStream = 0x1000'0000ULL;
inline constexpr std::uint64_t kTrafficStream = 0x2000'0000ULL;
inline constexpr std::uint64_t kBisectionStream = 0x3000'0000ULL;
inline constexpr std::uint64_t kSimStream = 0x4000'0000ULL;
inline constexpr std::uint64_t kCapacityStream = 0x5000'0000ULL;
inline constexpr std::uint64_t kGrowthStream = 0x6000'0000ULL;

// Traffic for sample `k` of (seed, topo) — deliberately independent of the
// routing index so every routing scheme sees identical matrices.
inline Rng traffic_rng(std::uint64_t seed, int topo_idx, int k) {
  return Rng(seed).fork(kTrafficStream + static_cast<std::uint64_t>(topo_idx) * 4096 +
                        static_cast<std::uint64_t>(k));
}

// True when some metric of `s` has every flag in `needs`.
inline bool scenario_needs(const Scenario& s, unsigned needs) {
  for (Metric m : s.metrics) {
    if (metric_info(m).has(needs)) return true;
  }
  return false;
}

// Runs the kernel of every metric of `s` that belongs in this cell — the
// per-routing metrics when routing >= 0, else the routing-free ones — in
// the scenario's metric order, and returns their samples. The cell's inputs
// are built lazily and shared by its metrics (packet_sim and flow_stats read
// one simulation); `shared_topology` / `shared_routes` (may be null) are
// read-only builds shared across seed cells. A non-null `telemetry`
// receives every simulated run's dataset, in ascending sample order.
std::vector<Sample> evaluate_cell(const Scenario& s, int topo, int routing, std::uint64_t seed,
                                  const topo::Topology* shared_topology,
                                  routing::PathProvider* shared_routes,
                                  parallel::WorkBudget* budget,
                                  std::vector<CellTelemetry>* telemetry);

}  // namespace jf::eval
