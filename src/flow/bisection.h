// Bisection-bandwidth calculators (paper §4.1, Figs. 2(a), 2(b), 7).
//
// Exact minimum bisection is NP-hard, so the paper works with three tools we
// replicate: (1) the Bollobás probabilistic lower bound for random regular
// graphs — almost every r-regular graph on N nodes has every N/2-subset
// joined to the rest by at least N*(r/4 - sqrt(r ln 2)/2) edges; (2) the
// fat-tree's by-construction bisection of k^3/8 links; and (3) a
// Kernighan-Lin heuristic cut for concrete, possibly irregular instances.
// "Normalized" always means: cut capacity divided by the total NIC rate of
// the servers in one partition (values > 1 indicate overprovisioning).
#pragma once

#include <span>

#include "common/rng.h"
#include "topo/topology.h"

namespace jf::flow {

// Bollobás lower bound on edges across any balanced bisection of an
// r-regular graph on n nodes (clamped at 0; the bound is vacuous for tiny r).
double bollobas_bisection_edges(int n, int r);

// Normalized bisection bandwidth of RRG(N, k, r) hosting `total_servers`
// servers, from the Bollobás bound with unit link capacity.
double rrg_normalized_bisection(int n, int r, int total_servers);

// Bisection links of the k-ary fat-tree (k^3/8).
double fattree_bisection_edges(int k);

// Normalized bisection bandwidth when the fat-tree's edge layer hosts
// `total_servers` servers (k^3/4 gives the designed value 1.0; more servers
// oversubscribes it).
double fattree_normalized_bisection(int k, int total_servers);

// Fig. 2(b): minimum total switch ports for a Jellyfish network of k-port
// switches to host `servers` at full bisection bandwidth (>= 1.0 by the
// Bollobás bound). Returns 0 if impossible at this port count.
std::size_t jellyfish_min_ports_full_bisection(int servers, int ports_per_switch);

// Fig. 2(b): total ports of the smallest k-ary fat-tree with >= `servers`
// servers, choosing k from `port_choices`. Returns 0 if none suffices.
std::size_t fattree_min_ports_full_bisection(int servers, std::span<const int> port_choices);

// Concrete-topology estimate: best KL cut over `restarts` restarts,
// normalized by the servers in the lighter partition, or by half of all
// servers when one side hosts none. Works for irregular and expanded
// topologies (Fig. 7 scoring). Throws if the topology hosts no servers.
double estimated_normalized_bisection(const topo::Topology& topo, Rng& rng, int restarts = 5);

// The `bisection` metric's rule: the analytic RRG bound when every switch
// has the same network degree, else the KL estimate (5 restarts on `rng`).
double normalized_bisection(const topo::Topology& topo, Rng& rng);

}  // namespace jf::flow
