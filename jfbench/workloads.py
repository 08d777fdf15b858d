"""Seeded workload generators for the end-to-end benchmark.

Each generator turns a workload seed into the scenario/sweep files the
program receives, plus the facts the output checks need (which points of a
re-submitted job must equal the cold point they splice). Only this module
decides what a workload contains; the runner and the program see only the files.

The randomness is a local splitmix64 stream, so a seed yields the same
files on every Python version.
"""

MASK64 = (1 << 64) - 1

WORKLOADS = ("fluid_mcf", "packet_sim", "serve_mixed")


class SplitMix64:
    def __init__(self, seed):
        self.state = seed & MASK64

    def next(self):
        self.state = (self.state + 0x9E3779B97F4A7C15) & MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        return z ^ (z >> 31)

    def below(self, n):
        return self.next() % n

    def seeds(self, n):
        """n distinct cell seeds in [1, 2^31)."""
        out = []
        while len(out) < n:
            s = 1 + self.below((1 << 31) - 1)
            if s not in out:
                out.append(s)
        return out

    def shuffle(self, items):
        for i in range(len(items) - 1, 0, -1):
            j = self.below(i + 1)
            items[i], items[j] = items[j], items[i]


def _stream(workload, seed):
    # One independent stream per (workload, seed).
    tag = WORKLOADS.index(workload) + 1
    return SplitMix64((seed & MASK64) * 0x100000001B3 ^ (tag << 56))


# --- fluid_mcf ---------------------------------------------------------------
# Fig. 8 shape: optimal-routing permutation throughput of an equal-equipment
# jellyfish vs fat-tree pair under uniform random link failures. Only the
# topology build, traffic sampling and the unrestricted MCF solver run.

FAIL_FRACTIONS = [0.0, 0.05, 0.1, 0.15, 0.2, 0.25, 0.3]


def fluid_mcf(seed):
    rng = _stream("fluid_mcf", seed)
    sweep = {
        "name": "fluid_mcf",
        "topologies": [
            {"family": "jellyfish", "label": "jellyfish_300",
             "switches": 125, "ports": 10, "servers": 300},
            {"family": "fattree", "label": "fattree_250", "fattree_k": 10},
        ],
        "metrics": ["throughput"],
        "seeds": rng.seeds(5),
        "sweep": [{"field": "topology.fail_links", "values": FAIL_FRACTIONS}],
    }
    return {"mode": "sweep", "jobs": [{"name": "fluid_mcf", "spec": sweep}], "splices": [],
            "min_passes": 4}


# --- packet_sim --------------------------------------------------------------
# MPTCP-8 packet simulation, ECMP-8 vs KSP-8, jellyfish vs fat-tree, at two
# small sizes on the serial engine (shards=1) and three larger ones on the
# sharded engine (shards=4). Every point has its own size, so no cell is
# evaluated at two shard counts. Sized flows make both goodput and
# completed-flow counts non-zero in every cell.

def packet_sim(seed):
    rng = _stream("packet_sim", seed)
    sweep = {
        "name": "packet_sim",
        "topologies": [
            {"family": "jellyfish", "label": "jellyfish", "switches": 45, "ports": 6,
             "servers": 54},
            {"family": "fattree", "label": "fattree", "fattree_k": 6},
        ],
        "routings": [{"scheme": "ecmp", "width": 8}, {"scheme": "ksp", "width": 8}],
        "metrics": ["packet_sim", "flow_stats"],
        "seeds": rng.seeds(2),
        "sim": {
            "transport": "mptcp",
            "subflows": 8,
            "shards": 1,
            "warmup_ns": 2000000,
            "measure_ns": 10000000,
            "flow_size_bytes": 400000,
        },
        "sweep": [{"entries": [
            {"field": "topology.switches", "only": "jellyfish",
             "values": [20, 45, 80, 125, 180]},
            {"field": "topology.ports", "only": "jellyfish", "values": [4, 6, 8, 10, 12]},
            {"field": "topology.servers", "only": "jellyfish",
             "values": [16, 54, 128, 250, 432]},
            {"field": "topology.fattree_k", "only": "fattree", "values": [4, 6, 8, 10, 12]},
            {"field": "sim.shards", "values": [1, 1, 4, 4, 4]},
        ]}],
    }
    return {"mode": "sweep", "jobs": [{"name": "packet_sim", "spec": sweep}], "splices": [],
            "min_passes": 4}


# --- serve_mixed -------------------------------------------------------------
# A closed-loop job stream on one engine and one result store. Four job
# kinds exercise routing + the restricted solver, KL partitioning, growth
# planning and cabling; about a third of the jobs are edited re-submissions
# of an earlier job and share some of its sweep points with it, so store
# hits sit beside store misses and puts.

def _routed_job(rng, name):
    n = 135
    return {
        "name": name,
        "topologies": [{"family": "jellyfish", "label": "jf", "switches": n, "ports": 10,
                        "servers": 4 * n}],
        "routings": [{"scheme": "ksp", "width": 8}, {"scheme": "ecmp", "width": 8}],
        "metrics": ["routed_throughput", "link_diversity"],
        "seeds": rng.seeds(2),
        "sweep": [{"field": "traffic.demand", "values": [0.25, 0.5]}],
    }


def _bisection_job(rng, name):
    n = 195
    # servers not divisible by switches: the network degree is non-uniform,
    # which sends the bisection metric to the KL estimate.
    return {
        "name": name,
        "topologies": [{"family": "jellyfish", "label": "jf", "switches": n, "ports": 12,
                        "servers": 5 * n + 7}],
        "metrics": ["bisection"],
        "seeds": rng.seeds(2),
        "sweep": [{"field": "topology.servers", "values": [5 * n + 7, 5 * n + 19]}],
    }


def _growth_job(rng, name):
    budget = 32000
    return {
        "name": name,
        "topologies": [
            {"family": "jellyfish", "label": "jellyfish", "growth_policy": "jellyfish"},
            {"family": "jellyfish", "label": "clos", "growth_policy": "clos"},
        ],
        "metrics": ["expansion_cost", "rewired_cables", "expansion_bisection"],
        "seeds": rng.seeds(1),
        "growth": {
            "policy": "jellyfish",
            "initial": {"switches": 34, "ports": 24, "servers": 480},
            "steps": [{"min_servers": 720, "budget": budget}] + [{"budget": budget}] * 2,
        },
        "sweep": [{"field": "growth.budget", "values": [budget, budget + 4000]}],
    }


def _cabling_job(rng, name):
    return {
        "name": name,
        "topologies": [
            {"family": "fattree", "fattree_k": 24},
            {"family": "jellyfish", "switches": 720, "ports": 24, "servers": 3456},
        ],
        "metrics": ["cabling"],
        "seeds": rng.seeds(2),
        "cabling_placement": "switch-cluster",
        "sweep": [{"field": "topology.servers", "only": "jellyfish",
                   "values": [3456, 3480]}],
    }


JOB_KINDS = {"routed": _routed_job, "bisection": _bisection_job, "growth": _growth_job,
             "cabling": _cabling_job}
COLD_PER_KIND = 4
RESUBMITTED_PER_KIND = 2


def _resubmit(spec):
    """An edited re-submission: the first sweep axis gains two new values.

    The job keeps its name, so each old point reappears with identical
    scenario bytes (its cells are store hits and its report must be
    byte-identical to the cold point), and the new points are misses.
    """
    edited = dict(spec)
    axis = dict(spec["sweep"][0])
    values = list(axis["values"])
    step = values[-1] - values[-2]
    values += [values[-1] + step, values[-1] + 2 * step]
    axis["values"] = values
    edited["sweep"] = [axis] + spec["sweep"][1:]
    return edited


def serve_mixed(seed):
    """16 cold jobs (4 per kind) in seeded order; 2 jobs of each kind come
    back edited 1-3 jobs after their cold run: 24 jobs, one in three a
    re-submission. Fixed per-kind counts keep the latency mix the same for
    every seed; the seed moves sizes, cell seeds and order."""
    rng = _stream("serve_mixed", seed)
    cold = []
    for kind, make in JOB_KINDS.items():
        for i in range(COLD_PER_KIND):
            cold.append((kind, i, make(rng, "%s_%d" % (kind, i))))
    rng.shuffle(cold)
    # slot -> list of specs to submit after that cold job
    later = {}
    for pos, (kind, i, spec) in enumerate(cold):
        if i < RESUBMITTED_PER_KIND:
            later.setdefault(pos + 1 + rng.below(3), []).append(pos)
    jobs, splices, name_of = [], [], {}
    for pos in range(len(cold) + 3):
        for src in later.get(pos, []):
            spec = cold[src][2]
            jobs.append({"name": "job%02d" % len(jobs), "spec": _resubmit(spec)})
            splices.append({"cold": name_of[src], "warm": jobs[-1]["name"],
                            "points": len(spec["sweep"][0]["values"])})
        if pos < len(cold):
            name_of[pos] = "job%02d" % len(jobs)
            jobs.append({"name": name_of[pos], "spec": cold[pos][2]})
    return {"mode": "serve", "jobs": jobs, "splices": splices, "min_passes": 5}


GENERATORS = {"fluid_mcf": fluid_mcf, "packet_sim": packet_sim, "serve_mixed": serve_mixed}


def generate(workload, seed):
    """The workload's inputs for `seed`: {"mode", "jobs": [{"name", "spec"}],
    "splices": [{"cold", "warm", "points"}], "min_passes"}. min_passes fixes
    the sample count the tail percentile is chosen from."""
    if workload not in GENERATORS:
        raise ValueError("unknown workload %r (expected one of %s)"
                         % (workload, ", ".join(WORKLOADS)))
    return GENERATORS[workload](seed)
