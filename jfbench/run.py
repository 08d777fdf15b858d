#!/usr/bin/env python3
"""End-to-end, layer-attributed benchmark of the jellyfish evaluation engine.

    python3 jfbench/run.py --workload fluid_mcf --seed 1 --seconds 30 --trace 0

Run from the repository root. Builds jfbench/ (CMake, into
$CARGO_TARGET_DIR/jfbench, default .bench_build/jfbench), generates the
workload's job files from --seed, runs them for --seconds, checks every
output, and prints one JSON object as the last line of stdout:
--trace 0 gives the end-to-end metrics, --trace 1 the per-layer ones. Any
failed check prints "correct": false and exits 1. See README.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import metrics as M  # noqa: E402
import workloads  # noqa: E402

ROOT = os.path.dirname(HERE)
BUILD_JOBS = 4
GK_EPSILON = 0.08  # McfOptions default; the generated scenarios keep it


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "jfbench")


def build(bdir):
    """Configures once, then lets the build tool decide what is stale."""
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", bdir, "-j", str(BUILD_JOBS)], check=True,
                   stdout=sys.stderr, stderr=sys.stderr)


def write_inputs(gen, work):
    jobs = []
    for job in gen["jobs"]:
        path = os.path.join(work, job["name"] + ".json")
        with open(path, "w") as f:
            json.dump(job["spec"], f, indent=1)
        jobs.append({"name": job["name"], "file": path,
                     "out": os.path.join(work, job["name"] + ".report.json")})
    return jobs


def jobs_per_pass(gen):
    """Jobs one pass submits: serve jobs, or the points of the one sweep."""
    if gen["mode"] == "serve":
        return len(gen["jobs"])
    n = 1
    for axis in gen["jobs"][0]["spec"].get("sweep", []):
        entry = axis["entries"][0] if "entries" in axis else axis
        n *= len(entry["values"])
    return n


def exe_path(bdir, traced):
    return os.path.join(bdir, "jfbench_traced" if traced else "jfbench")


def file_digest(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def run_binary(bdir, work, gen, jobs, seconds, traced, min_passes, tag):
    """One jfbench process. A process that crashes, exits non-zero or times
    out comes back as one failed pass, so run.py still prints its result."""
    plan = {
        "mode": gen["mode"], "seconds": seconds, "min_passes": min_passes,
        "trace": traced, "store_dir": os.path.join(work, "store"), "jobs": jobs,
    }
    plan_path = os.path.join(work, "plan-%s.json" % tag)
    out_path = os.path.join(work, "result-%s.json" % tag)
    with open(plan_path, "w") as f:
        json.dump(plan, f)
    try:
        subprocess.run([exe_path(bdir, traced), "--plan", plan_path, "--out", out_path],
                       check=True, stdout=sys.stderr, stderr=sys.stderr, timeout=170)
        with open(out_path) as f:
            return json.load(f)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as e:
        return {"passes": [{"error": "jfbench process: %s" % e}], "fingerprint": None}


# --- output checks -------------------------------------------------------------

class Checks:
    def __init__(self):
        self.failures = []

    def expect(self, ok, what):
        if not ok:
            self.failures.append(what)
        return ok


def report_samples(path):
    """(point label, topology label, metric, value) for every sample."""
    with open(path) as f:
        rep = json.load(f)
    out = []
    for pt in rep["points"]:
        topos = pt["report"]["topologies"]
        for t, _r, _seed, _k, metric, value in pt["report"]["samples"]:
            out.append((pt["label"], topos[t], metric, value))
    return out


def sanity(workload, jobs, checks, detail):
    """Per-job sanity of the last reports written; returns failing job names."""
    bad = set()
    fattree_min = 1.0
    for job in jobs:
        samples = report_samples(job["out"])
        ok = checks.expect(len(samples) > 0, "%s: empty report" % job["name"])
        for label, topo, metric, value in samples:
            if metric in ("throughput", "routed_throughput", "sim_goodput"):
                ok &= checks.expect(0.0 <= value <= 1.0,
                                    "%s %s %s: %s=%r outside [0, 1]"
                                    % (job["name"], label, topo, metric, value))
            if workload == "fluid_mcf" and metric == "throughput" and \
                    topo.startswith("fattree") and "fail_links=0]" in label:
                # A full-bisection fat-tree has optimal throughput 1.
                # Garg-Koenemann run to completion finds at least
                # (1 - eps)^3 of it; the solver's convergence stop can end
                # below that, which fails here (README: known defects).
                floor = (1.0 - GK_EPSILON) ** 3
                ok &= checks.expect(value >= floor, "%s %s: fat-tree optimal throughput %r < %.4f"
                                    % (label, topo, value, floor))
                fattree_min = min(fattree_min, value)
            if metric == "sim_goodput":
                ok &= checks.expect(value > 0.0, "%s %s: sim goodput is 0" % (label, topo))
            if metric == "flows_completed":
                ok &= checks.expect(value > 0, "%s %s: no flow completed" % (label, topo))
        if not ok:
            bad.add(job["name"])
    if workload == "fluid_mcf":
        detail["fattree_zero_fail_min_throughput"] = fattree_min
    return bad


def identity(results, gen, checks):
    """Byte-identical reports across every pass (untraced and traced), warm
    points equal to the cold points they splice, and exact work counts.
    Returns the names of failing jobs."""
    bad = set()
    first = {}
    for res in results:
        for p in res["passes"]:
            for j in p["jobs"]:
                ref = first.setdefault(j["name"], j)
                if not checks.expect(j["digest"] == ref["digest"],
                                     "%s: report differs between passes" % j["name"]):
                    bad.add(j["name"])
    for sp in gen["splices"]:
        cold, warm = first[sp["cold"]], first[sp["warm"]]
        same = cold["point_digests"][:sp["points"]] == warm["point_digests"][:sp["points"]]
        if not checks.expect(same, "%s: spliced points differ from cold %s"
                             % (sp["warm"], sp["cold"])):
            bad.add(sp["warm"])
        checks.expect(warm["store_hits"] > 0, "%s: re-submission made no store hit" % sp["warm"])
    for traced in (False, True):
        works = [p["work"] for res in results if res["traced"] == traced
                 for p in res["passes"]]
        for w in works[1:]:
            drift = sorted(k for k in w if w[k] != works[0][k])
            checks.expect(not drift, "work counts drift between passes: %s" % ", ".join(drift))
    plain = [p["work"] for res in results if not res["traced"] for p in res["passes"]]
    traced = [p["work"] for res in results if res["traced"] for p in res["passes"]]
    if plain and traced:
        common = [k for k in plain[0] if not k.startswith("jfb.")]
        drift = [k for k in common if plain[0][k] != traced[0][k]]
        checks.expect(not drift, "work counts differ traced vs untraced: %s" % ", ".join(drift))
    return bad


def remember_work(store, workload, gen, builds, results, checks):
    """Work counts must also repeat across runs of the same build and inputs.

    Counts are kept under `store`, keyed by the inputs and by the digest of
    the binary that made them (builds: {"plain": digest, "traced": digest}),
    so only reruns of the same executable are compared: a rebuilt program
    may legitimately do different work.
    """
    inputs = hashlib.sha256(json.dumps(gen, sort_keys=True).encode()).hexdigest()[:16]
    for res in results:
        kind = "traced" if res["traced"] else "plain"
        path = os.path.join(store, "%s-%s-%s-%s.json"
                            % (workload, inputs, kind, builds[kind][:16]))
        work = res["passes"][0]["work"]
        if os.path.exists(path):
            with open(path) as f:
                old = json.load(f)
            drift = sorted(k for k in work if old.get(k) != work[k])
            checks.expect(not drift, "work counts differ from an earlier run: %s"
                          % ", ".join(drift))
        else:
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(path, "w") as f:
                json.dump(work, f, sort_keys=True)


# --- metrics -------------------------------------------------------------------

def end_to_end(res, gen, detail):
    passes = res["passes"]
    lat = [v for p in passes for v in p["latencies_ms"]]
    # The percentile is fixed by the guaranteed sample count (min_passes),
    # so it names the same rank in every run however many passes fit.
    tail_p = M.tail_percentile(len(passes[0]["latencies_ms"]) * gen["min_passes"])
    if tail_p is None:
        raise RuntimeError("too few jobs per run for a tail with %d beyond it"
                           % M.TAIL_MIN_BEYOND)
    detail["job_ms_tail"] = {"percentile": tail_p, "n": len(lat)}
    detail["passes"] = len(passes)
    return {
        "wall_s": M.median([p["wall_s"] for p in passes]),
        "cells_per_s": M.median([p["cells"] / p["wall_s"] for p in passes]),
        "setup_s": M.median([p["setup_s"] for p in passes]),
        "peak_rss_mb": res["peak_rss_mb"],
        "job_ms_p50": M.percentile(lat, 50.0),
        "job_ms_tail": M.percentile(lat, tail_p),
    }


def dist_s(metrics, name):
    d = metrics["distributions"].get(name)
    return d["sum"] / 1e9 if d else 0.0


def layer_values(p):
    m = p["metrics"]
    c = m["counters"]
    L = p["layers"]
    w = p["work"]
    store_get, store_put = dist_s(m, "store.get_ns"), dist_s(m, "store.put_ns")
    layers_in_cell = sum(v for k, v in L.items() if k.endswith("_s") and k not in (
        "outside_cell_s", "cell_s", "sim_run_until_s"))
    events = w["sim.events"]
    hits, misses = w["store.hits"], w["store.misses"]
    return {
        "serialize.load_s": p["load_s"],
        "serialize.report_s": p["report_s"],
        "serialize.report_bytes": p["report_bytes"],
        "engine.warm_s": dist_s(m, "engine.phase_warm_ns"),
        "engine.queue_wait_s": dist_s(m, "engine.cell_queue_wait_ns"),
        "engine.cells_solved": w["engine.cells_solved"],
        "engine.memo_hits": w["engine.cell_memo_hits"],
        "engine.store_hits": w["engine.cell_store_hits"],
        "topo.build_s": L["topo.build_s"],
        "topo.builds": w["jfb.topo.builds"],
        "topo.links": w["jfb.topo.links"],
        "traffic.sample_s": L["traffic.sample_s"],
        "traffic.commodities": w["jfb.traffic.commodities"],
        "routing.paths_s": L["routing.paths_s"],
        "routing.pairs": w["jfb.routing.pairs"],
        "routing.paths": w["jfb.routing.paths"],
        "mcf.solve_s": L["mcf.solve_s"],
        "mcf.sweep_s": dist_s(m, "mcf.sweep_ns"),
        "mcf.apply_s": dist_s(m, "mcf.apply_ns"),
        "mcf.solves": w["mcf.solves"],
        "mcf.phases": w["mcf.phases"],
        "mcf.rounds": w["mcf.rounds"],
        "restricted.solve_s": L["restricted.solve_s"],
        "restricted.solves": w["jfb.restricted.solves"],
        "partition.kl_s": L["partition.kl_s"],
        "partition.calls": w["jfb.partition.calls"],
        "expansion.plan_s": L["expansion.plan_s"],
        "expansion.steps": w["jfb.expansion.steps"],
        "layout.cabling_s": L["layout.cabling_s"],
        "sim.run_s": L["sim.run_s"],
        "sim.events": events,
        "sim.rounds": w["sim.rounds"],
        "sim.handoffs": w["sim.handoffs"],
        "sim.barrier_wait_s": dist_s(m, "sim.barrier_wait_ns"),
        "sim.events_per_s": events / L["sim_run_until_s"] if L["sim_run_until_s"] > 0 else 0.0,
        "sim.handoff_ratio": w["sim.handoffs"] / events if events else 0.0,
        "sim.unmetered_runs": w["jfb.sim.calls"] - w["sim.runs"],
        "store.get_s": store_get,
        "store.put_s": store_put,
        "store.hits": hits,
        "store.misses": misses,
        "store.puts": w["store.puts"],
        "store.dropped": w["store.dropped"],
        "store.bytes_read": w["store.bytes_read"],
        "store.bytes_written": w["store.bytes_written"],
        "store.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "parallel.budget_denied": c.get("parallel.budget_denied", 0),
        "parallel.team_idle_s": c.get("parallel.team_idle_ns", 0) / 1e9,
        "cell_s": L["cell_s"],
        "outside_cell_s": L["outside_cell_s"],
        "unattributed_s": L["cell_s"] - layers_in_cell - store_get - store_put,
    }


# Each workload's interposed layers, by the wrapper's own call counter: a
# layer whose wrapper never runs (an entry point moved or inlined away)
# fails the traced run instead of reading 0.
EXERCISED = {
    "fluid_mcf": ["jfb.topo.builds", "jfb.traffic.samples", "jfb.traffic.commodities",
                  "jfb.mcf.calls"],
    "packet_sim": ["jfb.topo.builds", "jfb.traffic.samples", "jfb.routing.pairs",
                   "jfb.sim.calls"],
    "serve_mixed": ["jfb.topo.builds", "jfb.traffic.samples", "jfb.routing.pairs",
                    "jfb.restricted.solves", "jfb.partition.calls", "jfb.expansion.steps",
                    "jfb.layout.calls"],
}


def per_layer(workload, plain, traced, checks, detail):
    rows = []
    for p in traced:
        missing = [c for c in EXERCISED[workload] if p["work"][c] == 0]
        checks.expect(not missing, "%s: interposed layers never called: %s"
                      % (workload, ", ".join(missing)))
        v = layer_values(p)
        tol = 1e-3 * max(v["cell_s"], 1e-3)
        checks.expect(p["layers"]["dropped_events"] == 0,
                      "trace ring overflowed (%d events dropped)" % p["layers"]["dropped_events"])
        checks.expect(v["unattributed_s"] >= -tol,
                      "layers claim %.6f s more than the cells took" % -v["unattributed_s"])
        rows.append(v)
    out = {}
    for name, _unit, _moves in M.PER_LAYER:
        if name == "trace_overhead_pct":
            continue
        out[name] = M.median([r[name] for r in rows])
    untraced_wall = M.median([p["wall_s"] for p in plain])
    traced_wall = M.median([p["wall_s"] for p in traced])
    out["trace_overhead_pct"] = 100.0 * (traced_wall / untraced_wall - 1.0)
    detail["trace_dropped_events"] = max(p["layers"]["dropped_events"] for p in traced)
    detail["unattributed_s_min"] = min(r["unattributed_s"] for r in rows)
    # The serial sim engine counts no events: say so instead of printing 0.
    unmetered = out["sim.unmetered_runs"]
    detail["sim.events"] = {
        "metered_runs": traced[0]["work"]["sim.runs"],
        "metered_events": out["sim.events"],
        "unmetered_runs": unmetered,
        "unmetered_events": None if unmetered else 0,
    }
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    bdir = build_dir()
    build(bdir)
    gen = workloads.generate(args.workload, args.seed)
    work = os.path.join(bdir, "work", "%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    jobs = write_inputs(gen, work)
    checks = Checks()
    detail = {"workload": args.workload, "seed": args.seed}

    results = []
    if args.trace == 0:
        res = run_binary(bdir, work, gen, jobs, args.seconds, False, gen["min_passes"], "plain")
        res["traced"] = False
        results.append(res)
    else:
        # Untraced and traced passes alternate, one pass per process, so
        # both sides see the same machine state; the traced side also pays
        # for the layer interposition, which trace_overhead_pct includes.
        deadline = time.monotonic() + args.seconds
        i = 0
        while i < 4 or (time.monotonic() < deadline and i < 40):
            traced = (i % 2 == 1)
            res = run_binary(bdir, work, gen, jobs, 0.0, traced, 1, "%d" % i)
            res["traced"] = traced
            results.append(res)
            i += 1
    detail["fingerprint"] = next((r["fingerprint"] for r in results if r["fingerprint"]), None)

    # A pass the program aborted counts all its jobs as failed; the
    # metrics come from the passes that completed.
    per_pass = jobs_per_pass(gen)
    attempted = per_pass * sum(len(r["passes"]) for r in results)
    failed = 0
    for r in results:
        errors = [p["error"] for p in r["passes"] if "error" in p]
        for e in errors:
            checks.expect(False, "pass failed: %s" % e)
        failed += per_pass * len(errors)
        r["passes"] = [p for p in r["passes"] if "error" not in p]
    complete = [r for r in results if r["passes"]]
    plain = [p for r in complete if not r["traced"] for p in r["passes"]]
    traced = [p for r in complete if r["traced"] for p in r["passes"]]

    values, units = {}, {}
    if plain and (traced or args.trace == 0):
        bad = sanity(args.workload, jobs, checks, detail) | identity(complete, gen, checks)
        builds = {"plain": file_digest(exe_path(bdir, False)),
                  "traced": file_digest(exe_path(bdir, True))}
        remember_work(os.path.join(bdir, "workcounts"), args.workload, gen, builds,
                      complete, checks)
        points = 1 if gen["mode"] == "serve" else per_pass
        failed += points * len(bad) * (len(plain) + len(traced))
        if args.trace == 0:
            values = end_to_end(complete[0], gen, detail)
            units = {n: u for n, u, _ in M.END_TO_END}
        else:
            values = per_layer(args.workload, plain, traced, checks, detail)
            units = {n: u for n, u, _ in M.PER_LAYER}
    if checks.failures and failed == 0:
        failed = 1  # a run-wide check (work counts, layer sum) failed
    failed = min(failed, attempted)
    detail["failed_frac"] = failed / attempted
    for f in checks.failures[:20]:
        log("CHECK FAILED:", f)
    log("detail:", json.dumps(detail, sort_keys=True))
    shutil.rmtree(work, ignore_errors=True)
    correct = not checks.failures
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (subprocess.CalledProcessError, OSError) as e:
        log("jfbench: %s" % e)
        sys.exit(2)
