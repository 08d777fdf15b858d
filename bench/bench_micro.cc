// Microbenchmarks (google-benchmark) for the core computational kernels:
// RRG construction, expansion splicing, APSP, Yen k-shortest paths, KL
// bisection, the Clos upgrade search, Dinic max-flow, Garg-Könemann MCF, and
// the packet simulator's event throughput.
#include <benchmark/benchmark.h>

#include <string>

#include "common/parallel.h"
#include "common/rng.h"
#include "expansion/clos.h"
#include "expansion/cost_model.h"
#include "flow/mcf.h"
#include "flow/throughput.h"
#include "graph/algorithms.h"
#include "graph/maxflow.h"
#include "graph/partition.h"
#include "graph/yen.h"
#include "sim/workload.h"
#include "topo/jellyfish.h"
#include "traffic/traffic.h"

namespace {

void BM_BuildJellyfish(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  jf::Rng rng(1);
  for (auto _ : state) {
    jf::Rng r = rng.fork(static_cast<std::uint64_t>(state.iterations()));
    auto topo = jf::topo::build_jellyfish(
        {.num_switches = n, .ports_per_switch = 48, .network_degree = 36}, r);
    benchmark::DoNotOptimize(topo.num_servers());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_BuildJellyfish)->Arg(100)->Arg(1000);

void BM_ExpandAddSwitch(benchmark::State& state) {
  jf::Rng rng(2);
  auto topo = jf::topo::build_jellyfish(
      {.num_switches = 200, .ports_per_switch = 24, .network_degree = 12}, rng);
  for (auto _ : state) {
    jf::topo::expand_add_switch(topo, 24, 12, 12, rng);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ExpandAddSwitch);

void BM_PathLengthStats(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  jf::Rng rng(3);
  auto topo = jf::topo::build_jellyfish(
      {.num_switches = n, .ports_per_switch = 24, .network_degree = 12}, rng);
  for (auto _ : state) {
    auto stats = jf::graph::path_length_stats(topo.switches());
    benchmark::DoNotOptimize(stats.mean);
  }
}
BENCHMARK(BM_PathLengthStats)->Arg(200)->Arg(800);

void BM_YenKShortest(benchmark::State& state) {
  jf::Rng rng(4);
  auto topo = jf::topo::build_jellyfish(
      {.num_switches = 245, .ports_per_switch = 14, .network_degree = 11}, rng);
  int t = 1;
  for (auto _ : state) {
    auto paths = jf::graph::k_shortest_paths(topo.switches(), 0, t, 8);
    benchmark::DoNotOptimize(paths.size());
    t = 1 + (t + 37) % 244;
  }
}
BENCHMARK(BM_YenKShortest);

// The KL estimate behind the non-uniform `bisection` metric: 982 servers on
// 195 twelve-port switches leave the network degree irregular.
void BM_KernighanLin(benchmark::State& state) {
  jf::Rng rng(8);
  auto topo = jf::topo::build_jellyfish_with_servers(195, 12, 982, rng);
  for (auto _ : state) {
    auto cut = jf::graph::min_bisection_estimate(topo.switches(), rng, 5);
    benchmark::DoNotOptimize(cut.cut_edges);
  }
  state.SetLabel("195 switches, 5 restarts");
}
BENCHMARK(BM_KernighanLin)->Unit(benchmark::kMillisecond);

// The first Clos step of the Fig. 7 arc: the best 34-switch, 24-port folded
// Clos for 480 servers, upgraded to host 720 within 35000.
void BM_ClosUpgrade(benchmark::State& state) {
  const jf::expansion::ClosConfig cur{27, 7, 18, 24};
  const jf::expansion::CostModel costs;
  for (auto _ : state) {
    double spent = 0.0;
    auto next = jf::expansion::best_clos_upgrade(cur, 720, 35000.0, costs, &spent);
    benchmark::DoNotOptimize(next.edge);
    benchmark::DoNotOptimize(spent);
  }
}
BENCHMARK(BM_ClosUpgrade)->Unit(benchmark::kMillisecond);

void BM_DinicMaxflow(benchmark::State& state) {
  jf::Rng rng(5);
  auto topo = jf::topo::build_jellyfish(
      {.num_switches = 200, .ports_per_switch = 24, .network_degree = 12}, rng);
  auto net = jf::graph::FlowNetwork::from_graph(topo.switches(), 1.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(net.max_flow(0, 199));
  }
}
BENCHMARK(BM_DinicMaxflow);

void BM_GargKonemannMcf(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  jf::Rng rng(6);
  auto topo = jf::topo::build_jellyfish(
      {.num_switches = n, .ports_per_switch = 12, .network_degree = 7}, rng);
  for (auto _ : state) {
    jf::Rng r = rng.fork(static_cast<std::uint64_t>(state.iterations()));
    benchmark::DoNotOptimize(jf::flow::permutation_throughput(topo, r, {}));
  }
}
BENCHMARK(BM_GargKonemannMcf)->Arg(40)->Arg(120)->Unit(benchmark::kMillisecond);

// Within-solve scaling: one large fixed MCF instance, worker budget on the
// x-axis. Results are bit-identical at every budget (see test_mcf_parallel);
// this curve tracks the wall-clock payoff. bench_mcf_scaling emits the same
// measurement as BENCH_mcf.json for the recorded perf trajectory.
void BM_GargKonemannMcfParallel(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  jf::Rng rng(6);
  auto topo = jf::topo::build_jellyfish(
      {.num_switches = 160, .ports_per_switch = 16, .network_degree = 10}, rng);
  auto tm = jf::traffic::random_permutation(topo.num_servers(), rng);
  auto cs = jf::traffic::to_switch_commodities(topo, tm);
  for (auto _ : state) {
    jf::parallel::WorkBudget budget(threads - 1);
    auto res = jf::flow::max_concurrent_flow(topo.switches(), cs, {}, &budget);
    benchmark::DoNotOptimize(res.lambda);
  }
  state.SetLabel("160 switches, budget " + std::to_string(threads));
}
BENCHMARK(BM_GargKonemannMcfParallel)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->MeasureProcessCPUTime()
    ->UseRealTime();

void BM_PacketSim(benchmark::State& state) {
  jf::Rng rng(7);
  auto topo = jf::topo::build_jellyfish(
      {.num_switches = 40, .ports_per_switch = 8, .network_degree = 4}, rng);
  for (auto _ : state) {
    jf::Rng r = rng.fork(static_cast<std::uint64_t>(state.iterations()));
    jf::sim::WorkloadConfig cfg;
    cfg.routing = {jf::routing::Scheme::kKsp, 8};
    cfg.transport = jf::sim::Transport::kMptcp;
    cfg.subflows = 4;
    cfg.warmup_ns = 2 * jf::sim::kMillisecond;
    cfg.measure_ns = 5 * jf::sim::kMillisecond;
    auto res = jf::sim::run_permutation_workload(topo, cfg, r);
    benchmark::DoNotOptimize(res.mean_flow_throughput);
  }
  state.SetLabel("160 servers, 7ms sim");
}
BENCHMARK(BM_PacketSim)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
