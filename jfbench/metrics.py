"""Metric tables of the benchmark: name, unit, and what each should move.

BENCHMARK.json lists the same names and units; tests/test_jfbench.py keeps
the two in step. `moves` says which end-to-end metric a per-layer metric
should move, and on which workload (README.md renders the same table).
"""

import math
import re

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

# name, unit, better
END_TO_END = [
    ("wall_s", "s", "lower"),
    ("cells_per_s", "1/s", "higher"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("job_ms_p50", "ms", "lower"),
    ("job_ms_tail", "ms", "lower"),
]

# name, unit, moves
PER_LAYER = [
    ("serialize.load_s", "s", "setup_s on all; job_ms_p50 (warm jobs) on serve_mixed"),
    ("serialize.report_s", "s", "setup_s on all; job_ms_p50 (warm jobs) on serve_mixed"),
    ("serialize.report_bytes", "bytes", "setup_s on all; job_ms_p50 on serve_mixed"),
    ("engine.warm_s", "s", "setup_s on packet_sim"),
    ("engine.queue_wait_s", "s", "wall_s on fluid_mcf and packet_sim (stragglers)"),
    ("engine.cells_solved", "count", "setup_s on packet_sim"),
    ("engine.memo_hits", "count", "setup_s on packet_sim"),
    ("engine.store_hits", "count", "job_ms_p50 on serve_mixed"),
    ("topo.build_s", "s", "wall_s, small on every workload"),
    ("topo.builds", "count", "wall_s, small on every workload"),
    ("topo.links", "count", "wall_s, small on every workload"),
    ("traffic.sample_s", "s", "wall_s on fluid_mcf (small)"),
    ("traffic.commodities", "count", "wall_s on fluid_mcf (small)"),
    ("routing.paths_s", "s", "setup_s on packet_sim; job_ms_p50 on serve_mixed"),
    ("routing.pairs", "count", "setup_s on packet_sim; job_ms_p50 on serve_mixed"),
    ("routing.paths", "count", "setup_s on packet_sim; job_ms_p50 on serve_mixed"),
    ("mcf.solve_s", "s", "wall_s, cells_per_s on fluid_mcf; none elsewhere"),
    ("mcf.sweep_s", "s", "wall_s, cells_per_s on fluid_mcf; none elsewhere"),
    ("mcf.apply_s", "s", "wall_s, cells_per_s on fluid_mcf; none elsewhere"),
    ("mcf.solves", "count", "wall_s, cells_per_s on fluid_mcf"),
    ("mcf.phases", "count", "wall_s, cells_per_s on fluid_mcf"),
    ("mcf.rounds", "count", "wall_s, cells_per_s on fluid_mcf"),
    ("restricted.solve_s", "s", "job_ms_p50 on serve_mixed"),
    ("restricted.solves", "count", "job_ms_p50 on serve_mixed"),
    ("partition.kl_s", "s", "job_ms_tail on serve_mixed"),
    ("partition.calls", "count", "job_ms_tail on serve_mixed"),
    ("expansion.plan_s", "s", "job_ms_p50 on serve_mixed"),
    ("expansion.steps", "count", "job_ms_p50 on serve_mixed"),
    ("layout.cabling_s", "s", "job_ms_p50 on serve_mixed"),
    ("sim.run_s", "s", "wall_s, cells_per_s, peak_rss_mb on packet_sim"),
    ("sim.events", "count", "wall_s, cells_per_s on packet_sim"),
    ("sim.rounds", "count", "wall_s, cells_per_s on packet_sim"),
    ("sim.handoffs", "count", "wall_s, cells_per_s on packet_sim"),
    ("sim.barrier_wait_s", "s", "wall_s, cells_per_s on packet_sim"),
    ("sim.events_per_s", "1/s", "wall_s, cells_per_s on packet_sim"),
    ("sim.handoff_ratio", "ratio", "wall_s, cells_per_s on packet_sim"),
    ("sim.unmetered_runs", "count", "coverage: sim runs whose events no counter sees"),
    ("store.get_s", "s", "job_ms_p50, setup_s on serve_mixed"),
    ("store.put_s", "s", "job_ms_p50, setup_s on serve_mixed"),
    ("store.hits", "count", "job_ms_p50 on serve_mixed"),
    ("store.misses", "count", "job_ms_p50 on serve_mixed"),
    ("store.puts", "count", "job_ms_p50 on serve_mixed"),
    ("store.dropped", "count", "job_ms_p50 on serve_mixed"),
    ("store.bytes_read", "bytes", "job_ms_p50 on serve_mixed"),
    ("store.bytes_written", "bytes", "job_ms_p50 on serve_mixed"),
    ("store.hit_ratio", "ratio", "job_ms_p50 on serve_mixed"),
    ("parallel.budget_denied", "count", "wall_s on packet_sim and fluid_mcf"),
    ("parallel.team_idle_s", "s", "wall_s on packet_sim and fluid_mcf"),
    ("cell_s", "s", "summed traced cell time the layers split"),
    ("outside_cell_s", "s", "layer time outside cells (warm-up, lent workers)"),
    ("unattributed_s", "s", "cell time no layer claims"),
    ("trace_overhead_pct", "%", "traced vs untraced wall_s"),
]

# Per-layer metrics where more is better; for every other one (time, work,
# bytes, overhead) less is.
LAYER_HIGHER_IS_BETTER = {"engine.memo_hits", "engine.store_hits", "store.hits",
                          "store.hit_ratio", "sim.events_per_s"}


def layer_better(name):
    return "higher" if name in LAYER_HIGHER_IS_BETTER else "lower"


TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
TAIL_MIN_BEYOND = 10


def nearest_rank(p, n):
    """0-based index of the nearest-rank p-th percentile of n samples."""
    return max(0, min(n - 1, math.ceil(p / 100.0 * n) - 1))


def tail_percentile(n):
    """The highest ladder percentile with at least TAIL_MIN_BEYOND samples
    above its rank, or None when n is too small for any."""
    best = None
    for p in TAIL_LADDER:
        if n - 1 - nearest_rank(p, n) >= TAIL_MIN_BEYOND:
            best = p
    return best


def percentile(values, p):
    s = sorted(values)
    return s[nearest_rank(p, len(s))]


def median(values):
    s = sorted(values)
    n = len(s)
    return s[n // 2] if n % 2 else 0.5 * (s[n // 2 - 1] + s[n // 2])
