"""Self-tests of the benchmark's own machinery (not of cofrig).

    python3 bench/selftest.py

Covers the checker (it must reject a tampered rank, an improper sequence and
a wrong val_d), the corpus generator (byte-identical for one seed), the
tracer (self times add up to the traced wall time; uninstall restores the
library), the host-speed scaling and the percentile sample rule.  Named so that the repository's pytest run does not collect it.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import shutil
import sys
import tempfile
import time
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checker  # noqa: E402
import corpus  # noqa: E402
import run  # noqa: E402
from tracer import Tracer, layer_metrics, read_spans, self_times  # noqa: E402


def _scratch_dir() -> str:
    base = os.path.join(ROOT, ".bench_work")
    os.makedirs(base, exist_ok=True)
    return tempfile.mkdtemp(dir=base, prefix="selftest-")


def _cli(*argv) -> str:
    from cofrig import cli
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        assert cli.main(list(argv)) == 0
    return out.getvalue()


class CheckerTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.tmp = _scratch_dir()
        cls.banana = sorted(corpus.double_banana())
        cls.glued = sorted(corpus.complete_on(range(5)) | corpus.complete_on((0, 1, 5, 6, 7)))
        cls.paths = {}
        for name, edges in (("banana", cls.banana), ("glued", cls.glued)):
            path = os.path.join(cls.tmp, f"{name}.txt")
            with open(path, "w") as fh:
                fh.write(corpus.edge_text(8, edges))
            cls.paths[name] = path

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.tmp)

    def test_accepts_genuine_certificate(self):
        text = _cli("rank", self.paths["banana"])
        self.assertEqual(checker.check_rank(8, self.banana, text), [])

    def test_rejects_tampered_rank(self):
        out = json.loads(_cli("rank", self.paths["banana"]))
        for delta in (1, -1):
            bad = dict(out, rank=out["rank"] + delta)
            self.assertTrue(checker.check_rank(8, self.banana, json.dumps(bad)))

    def test_rejects_improper_sequence(self):
        out = json.loads(_cli("rank", self.paths["banana"]))
        seq = out["k5_sequence"]
        self.assertTrue(seq)
        bad = dict(out, k5_sequence=seq + [seq[0]])
        problems = checker.check_rank(8, self.banana, json.dumps(bad))
        self.assertTrue(any("not proper" in p for p in problems), problems)

    def test_rejects_wrong_val_d(self):
        text = _cli("dress", self.paths["glued"])
        self.assertEqual(checker.check_dress(8, self.glued, text), [])
        out = json.loads(text)
        self.assertEqual(len(out["members"]), 2)
        bad = dict(out, val_d=out["val_d"] + 1)
        problems = checker.check_dress(8, self.glued, json.dumps(bad))
        self.assertTrue(any("val_d" in p for p in problems), problems)

    def test_rejects_wrong_oracle_answers(self):
        from cofrig import CofactorOracle, EdgeSet
        F = EdgeSet.from_edges(8, self.banana)
        closure = [list(e) for e in CofactorOracle(8).closure(F).sorted_edges()]
        self.assertEqual(checker.check_oracle("closure", 8, self.banana, closure), [])
        self.assertTrue(checker.check_oracle("closure", 8, self.banana, closure[1:]))
        self.assertTrue(checker.check_oracle("rank", 8, self.banana, 18))


class CorpusTest(unittest.TestCase):
    def _write(self, workload, seed):
        out = _scratch_dir()
        self.addCleanup(shutil.rmtree, out)
        corpus.write_corpus(workload, seed, out)
        files = {}
        for name in sorted(os.listdir(out)):
            with open(os.path.join(out, name), "rb") as fh:
                files[name] = fh.read()
        return files

    def test_same_seed_same_bytes(self):
        for workload in ("certify", "oracle"):
            self.assertEqual(self._write(workload, 5), self._write(workload, 5))

    def test_other_seed_other_graphs(self):
        self.assertNotEqual(self._write("certify", 5), self._write("certify", 6))

    def test_constructions_have_their_sizes(self):
        rng = random.Random(1)
        for n in range(5, 14):
            self.assertEqual(len(corpus.henneberg(rng, n)), 3 * n - 6)
        manifest = self._write("certify", 2)["manifest.json"]
        jobs = sum(len(g["jobs"]) for g in json.loads(manifest)["graphs"])
        self.assertGreaterEqual(jobs, 100)

    def test_glued_graphs_have_two_members(self):
        # One clique of at most 6 vertices has at most 15 edges.
        rng = random.Random(3)
        for _ in range(50):
            for cls, n, count in corpus.CERTIFY_SLOTS:
                if cls == "glued":
                    self.assertGreater(len(corpus.glued_cliques(rng, n, count)), 15)


class TracerTest(unittest.TestCase):
    def test_self_times_of_nested_spans(self):
        tracer = Tracer()
        leaf = tracer.wrap("t.leaf", lambda: time.sleep(0.002))

        def middle():
            leaf()
            time.sleep(0.001)
            leaf()

        mid = tracer.wrap("t.middle", middle)
        root = tracer.wrap("t.root", lambda: (mid(), leaf()))
        root()
        own = self_times(tracer.parent, tracer.start, tracer.end)
        self.assertEqual([tracer.names[i] for i in tracer.name],
                         ["t.root", "t.middle", "t.leaf", "t.leaf", "t.leaf"])
        self.assertAlmostEqual(sum(own), tracer.end[0] - tracer.start[0], places=9)
        self.assertTrue(all(t >= 0 for t in own))

        out = _scratch_dir()
        self.addCleanup(shutil.rmtree, out)
        tracer.write(os.path.join(out, "trace"))
        names, spans = read_spans(os.path.join(out, "trace"))
        self.assertEqual(names, tracer.names)
        self.assertEqual(spans, list(zip(tracer.name, tracer.parent,
                                         tracer.start, tracer.end)))

    def test_traced_self_time_adds_up_to_wall(self):
        from cofrig import CofactorOracle, EdgeSet, cli
        original = cli.dress_rank
        tracer = Tracer()
        tracer.install()
        try:
            self.assertIsNot(cli.dress_rank, original)
            F = EdgeSet.from_edges(10, sorted(corpus.planted_dependent(
                random.Random(3), 10, 24)))
            t0 = time.perf_counter()
            oracle = CofactorOracle(10)
            oracle.cyc(F)
            oracle.closure(F)
            wall = time.perf_counter() - t0
        finally:
            tracer.uninstall()
        self.assertIs(cli.dress_rank, original)
        own = self_times(tracer.parent, tracer.start, tracer.end)
        roots = sum(tracer.end[i] - tracer.start[i]
                    for i, p in enumerate(tracer.parent) if p < 0)
        self.assertAlmostEqual(sum(own), roots, places=9)
        metrics = layer_metrics(tracer, wall)
        self.assertGreater(metrics["trace.self_coverage"], 0.9)
        self.assertLessEqual(metrics["trace.self_coverage"], 1.0)
        self.assertGreater(metrics["cofactor.cyc.rank_calls_per_call"], 1)


class ScalingTest(unittest.TestCase):
    def test_host_speed_cancels(self):
        def metrics(slowdown):
            passes = [{"setup_s": 0.1 * slowdown, "wall_s": (4.0 + i / 10) * slowdown,
                       "reference_s": [0.2 * slowdown, 0.21 * slowdown],
                       "peak_rss_mb": 20.0} for i in range(3)]
            setups = [{"setup_s": 0.09 * slowdown, "reference_s": [0.19 * slowdown]}]
            return run.end_to_end(setups * 7 + passes, passes)

        fast, slow = metrics(1.0), metrics(1.7)
        for name in fast:
            self.assertAlmostEqual(fast[name]["value"], slow[name]["value"])
        self.assertNotEqual(fast["wall_s"]["value"], 4.1)


class PercentileTest(unittest.TestCase):
    def test_needs_ten_samples_beyond(self):
        self.assertIsNone(run.percentile(range(99), 0.9))
        self.assertEqual(run.percentile(range(1, 101), 0.9), 90)
        self.assertIsNone(run.percentile(range(6), 0.5))
        self.assertEqual(run.percentile(range(1, 21), 0.5), 10)


if __name__ == "__main__":
    unittest.main()
