"""Unit tests of the benchmark's own logic (no build needed):

    python3 -m unittest discover -s jfbench/tests
"""

import json
import os
import stat
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path.insert(0, BENCH)

import metrics as M  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


class GeneratorTest(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        for w in workloads.WORKLOADS:
            a = json.dumps(workloads.generate(w, 42), sort_keys=True)
            b = json.dumps(workloads.generate(w, 42), sort_keys=True)
            self.assertEqual(a, b, w)

    def test_other_seed_other_inputs(self):
        for w in workloads.WORKLOADS:
            self.assertNotEqual(json.dumps(workloads.generate(w, 1), sort_keys=True),
                                json.dumps(workloads.generate(w, 2), sort_keys=True), w)

    def test_known_stream_values(self):
        # Pins the splitmix64 stream, so a seed names the same inputs on
        # every machine and Python version.
        rng = workloads.SplitMix64(0)
        self.assertEqual(rng.next(), 0xE220A8397B1DCDAF)
        self.assertEqual(rng.next(), 0x6E789E6AA1B965F4)

    def test_unknown_workload_rejected(self):
        with self.assertRaises(ValueError):
            workloads.generate("nope", 1)

    def test_serve_mix_is_stratified(self):
        for seed in range(20):
            gen = workloads.generate("serve_mixed", seed)
            names = [j["name"] for j in gen["jobs"]]
            self.assertEqual(len(names), 24)
            self.assertEqual(len(gen["splices"]), 8)  # one job in three
            kinds = sorted(j["spec"]["name"].split("_")[0] for j in gen["jobs"])
            for k in workloads.JOB_KINDS:
                self.assertEqual(kinds.count(k), 6, (seed, k))
            for sp in gen["splices"]:
                # the cold job runs first, and the edit keeps its points
                self.assertLess(names.index(sp["cold"]), names.index(sp["warm"]))
                cold = gen["jobs"][names.index(sp["cold"])]["spec"]
                warm = gen["jobs"][names.index(sp["warm"])]["spec"]
                self.assertEqual(warm["sweep"][0]["values"][:sp["points"]],
                                 cold["sweep"][0]["values"])
                self.assertEqual({k: v for k, v in warm.items() if k != "sweep"},
                                 {k: v for k, v in cold.items() if k != "sweep"})

    def test_packet_sim_never_repeats_a_cell_at_two_shard_counts(self):
        spec = workloads.generate("packet_sim", 3)["jobs"][0]["spec"]
        entries = spec["sweep"][0]["entries"]
        shards = next(e["values"] for e in entries if e["field"] == "sim.shards")
        sizes = list(zip(*[e["values"] for e in entries if e["field"] != "sim.shards"]))
        self.assertEqual(len(set(sizes)), len(sizes))
        self.assertIn(1, shards)
        self.assertTrue(any(s > 1 for s in shards))


class TailTest(unittest.TestCase):
    def test_examples(self):
        self.assertIsNone(M.tail_percentile(10))
        self.assertEqual(M.tail_percentile(20), 50.0)
        self.assertEqual(M.tail_percentile(48), 75.0)
        self.assertEqual(M.tail_percentile(120), 90.0)
        self.assertEqual(M.tail_percentile(220), 95.0)

    def test_at_least_ten_beyond_and_highest(self):
        for n in range(1, 3000):
            p = M.tail_percentile(n)
            if p is None:
                lowest = M.TAIL_LADDER[0]
                self.assertLess(n - 1 - M.nearest_rank(lowest, n), M.TAIL_MIN_BEYOND, n)
                continue
            self.assertGreaterEqual(n - 1 - M.nearest_rank(p, n), M.TAIL_MIN_BEYOND, n)
            higher = [q for q in M.TAIL_LADDER if q > p]
            if higher:
                q = higher[0]
                self.assertLess(n - 1 - M.nearest_rank(q, n), M.TAIL_MIN_BEYOND, n)

    def test_percentile_is_a_sample(self):
        vals = [5.0, 1.0, 4.0, 2.0, 3.0]
        self.assertEqual(M.percentile(vals, 50.0), 3.0)
        self.assertEqual(M.percentile(vals, 100.0), 5.0)
        self.assertEqual(M.median([4.0, 1.0, 3.0, 2.0]), 2.5)


class RememberWorkTest(unittest.TestCase):
    GEN = workloads.generate("fluid_mcf", 1)

    def remember(self, store, build, count):
        checks = run.Checks()
        results = [{"traced": False, "passes": [{"work": {"mcf.rounds": count}}]}]
        run.remember_work(store, "fluid_mcf", self.GEN, {"plain": build, "traced": "t"},
                          results, checks)
        return checks.failures

    def test_same_build_must_repeat_its_counts(self):
        with tempfile.TemporaryDirectory() as store:
            self.assertEqual(self.remember(store, "a" * 64, 100), [])
            self.assertEqual(self.remember(store, "a" * 64, 100), [])
            self.assertEqual(len(self.remember(store, "a" * 64, 101)), 1)

    def test_other_build_may_do_other_work(self):
        with tempfile.TemporaryDirectory() as store:
            self.assertEqual(self.remember(store, "a" * 64, 100), [])
            self.assertEqual(self.remember(store, "b" * 64, 90), [])
            self.assertEqual(self.remember(store, "a" * 64, 100), [])


class CrashedProcessTest(unittest.TestCase):
    def test_crash_is_a_failed_pass(self):
        with tempfile.TemporaryDirectory() as bdir:
            exe = run.exe_path(bdir, False)
            with open(exe, "w") as f:
                f.write("#!/bin/sh\nkill -SEGV $$\n")
            os.chmod(exe, stat.S_IRWXU)
            gen = workloads.generate("fluid_mcf", 1)
            res = run.run_binary(bdir, bdir, gen, [], 1.0, False, 1, "x")
            self.assertEqual(len(res["passes"]), 1)
            self.assertIn("error", res["passes"][0])


class BenchmarkJsonTest(unittest.TestCase):
    def setUp(self):
        with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json")) as f:
            self.spec = json.load(f)

    def test_metric_names_are_valid_and_unique(self):
        names = [n for n, _, _ in M.END_TO_END] + [n for n, _, _ in M.PER_LAYER]
        self.assertEqual(len(names), len(set(names)))
        for n in names:
            self.assertRegex(n, M.NAME_RE)
        for _, u, _ in M.END_TO_END + M.PER_LAYER:
            self.assertRegex(u, M.UNIT_RE)

    def test_end_to_end_matches(self):
        got = [(m["name"], m["unit"], m["better"]) for m in self.spec["end_to_end"]]
        self.assertEqual(got, list(M.END_TO_END))
        for m in self.spec["end_to_end"]:
            self.assertEqual(sorted(m), ["better", "bound", "name", "unit"])
            self.assertLessEqual(m["bound"], 0.25)
        setup = next(m for m in self.spec["end_to_end"] if m["name"] == "setup_s")
        self.assertEqual(setup["bound"], max(m["bound"] for m in self.spec["end_to_end"]))

    def test_per_layer_matches(self):
        got = [(m["name"], m["unit"], m["better"]) for m in self.spec["per_layer"]]
        self.assertEqual(got, [(n, u, M.layer_better(n)) for n, u, _ in M.PER_LAYER])

    def test_workloads_match(self):
        self.assertEqual([w["name"] for w in self.spec["workloads"]], list(workloads.WORKLOADS))
        for w in self.spec["workloads"]:
            self.assertLessEqual(len(w["why"]), 200)
            self.assertNotIn("\n", w["why"])

    def test_command_and_paths(self):
        self.assertEqual(self.spec["paths"], ["jfbench"])
        self.assertEqual(self.spec["command"], ["python3", "jfbench/run.py"])


if __name__ == "__main__":
    unittest.main()
