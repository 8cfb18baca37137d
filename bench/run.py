"""Benchmark entry point: one run of one workload.

    python3 bench/run.py --workload certify --seed 1 --seconds 24 --trace 0

Workloads (see bench/README.md for why each exists):

* ``certify``  ``cofrig rank`` and ``cofrig dress`` through ``cofrig.cli.main``
               on a seeded corpus of 51 graphs (102 jobs per pass).
* ``oracle``   rank / is_rigid / closure / cyc / basis_of /
               fundamental_circuit on a fresh ``CofactorOracle`` per job
               (105 jobs per pass).
* ``verify``   ``cofrig verify SUITE --seed SEED`` for each of the six suites,
               in one process, as ``cofrig verify all`` runs them.

Every pass runs the workload's whole fixed job list once, in a fresh worker
process, one job at a time; no job has a deadline.  The number of passes is
fixed by ``--seconds`` and the workload's nominal pass cost, never by how
fast the passes go.  ``--trace 0`` reports the end-to-end metrics (medians
over the run, each time rescaled to a reference host speed with the
``reference.py`` timings taken during it; raw times are in the run report);
``--trace 1`` runs one untraced and one traced pass of the same
seed and reports the per-layer metrics.  Every job's output is checked by
``checker.py`` and its stdout digest compared across passes and across runs
of the same seed and library code.  The last stdout line is the JSON result; a readable
summary goes to stderr.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import select
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".bench_work")

sys.path.insert(0, HERE)
import checker  # noqa: E402
import corpus  # noqa: E402
from reference import REFERENCE_S  # noqa: E402

# Nominal seconds per pass; passes = round(--seconds / this), at least 1.
PASS_SECONDS = {"certify": 4.25, "oracle": 6.5, "verify": 18.0}
SETUP_SAMPLES = 7
SAFETY_S = 170.0  # the whole run fails, unreported, past this


class RunFailed(Exception):
    pass


class Run:
    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.deadline = time.monotonic() + SAFETY_S
        self.dir = os.path.join(WORK, f"{workload}-{seed}")
        os.makedirs(self.dir, exist_ok=True)
        self.corpus = None
        self.graphs = {}
        if workload != "verify":
            self.corpus = os.path.join(self.dir, "corpus")
            self.graphs = {g["file"]: g for g in
                           corpus.write_corpus(workload, seed, self.corpus)}
        # Fixed hashing keeps traced counts repeatable; bytecode caching on, so
        # set-up after the warm-up start loads compiled modules as an installed
        # package would.
        self.env = dict(os.environ, PYTHONHASHSEED="0")
        for var in ("PYTHONPATH", "PYTHONDONTWRITEBYTECODE"):
            self.env.pop(var, None)
        self._passes = 0

    def spawn(self, setup_only: bool = False, trace: bool = False) -> dict:
        """Start a worker; return its set-up time and, for a pass, its result."""
        cmd = [sys.executable, os.path.join(HERE, "worker.py"),
               "--workload", self.workload, "--seed", str(self.seed)]
        if self.corpus:
            cmd += ["--corpus", self.corpus]
        if setup_only:
            result_path = os.path.join(self.dir, "setup.json")
            cmd.append("--setup-only")
        else:
            self._passes += 1
            result_path = os.path.join(self.dir, f"pass{self._passes}.json")
            if trace:
                cmd += ["--trace", os.path.join(self.dir, "trace")]
        cmd += ["--result", result_path]
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                env=self.env, cwd=ROOT, text=True)
        try:
            ready, _, _ = select.select([proc.stdout], [], [], self._left())
            line = proc.stdout.readline() if ready else ""
            setup_s = time.perf_counter() - t0
            _, err = proc.communicate(timeout=self._left())
        except subprocess.TimeoutExpired:
            raise RunFailed(f"run exceeded its {SAFETY_S:.0f} s safety limit")
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if line.strip() != "ready" or proc.returncode != 0:
            raise RunFailed(f"worker failed (exit {proc.returncode}): {err.strip()[-2000:]}")
        with open(result_path) as fh:
            result = json.load(fh)
        result["setup_s"] = setup_s
        return result

    def _left(self) -> float:
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise RunFailed(f"run exceeded its {SAFETY_S:.0f} s safety limit")
        return left

    # -- correctness ----------------------------------------------------------

    def check(self, passes: list[dict]) -> tuple[int, int, list[str]]:
        """(attempted, failed, problems) over every job of every pass."""
        first = passes[0]["jobs"]
        reference = self._reference([r["job"] for r in first], [r["digest"] for r in first])
        verdicts: dict[tuple[str, str], list[str]] = {}
        attempted = failed = 0
        problems: list[str] = []
        for p in passes:
            for rec in p["jobs"]:
                attempted += 1
                if rec["error"] or rec["rc"] != 0:
                    bad = [rec["error"] or f"exit code {rec['rc']}"]
                elif rec["digest"] != reference[rec["job"]]:
                    bad = ["stdout differs from the reference digest"]
                else:
                    key = (rec["job"], rec["digest"])
                    if key not in verdicts:
                        verdicts[key] = self._verdict(rec["job"], rec["stdout"])
                    bad = verdicts[key]
                if bad:
                    failed += 1
                    problems.append(f"{rec['job']}: {'; '.join(bad)}")
        return attempted, failed, problems

    def _verdict(self, job: str, text: str) -> list[str]:
        command, name = job.split(" ", 1)
        if self.workload == "verify":
            return checker.check_suite(name, text, self.seed)
        g = self.graphs[name]
        edges = _read_edges(os.path.join(self.corpus, name))
        if self.workload == "certify":
            check = checker.check_rank if command == "rank" else checker.check_dress
            return check(g["n"], edges, text)
        return checker.check_oracle(command, g["n"], edges, json.loads(text), g.get("edge"))

    def _reference(self, labels, digests) -> dict:
        """Digests from the first run of this seed and corpus on the same
        cofrig sources in this checkout, so that output drift across runs
        counts as failure too.  Other sources keep digests of their own: a
        change may alter its output, and the checker still proves it."""
        inputs = hashlib.sha256(_source_digest().encode())
        if self.corpus:
            with open(os.path.join(self.corpus, "manifest.json"), "rb") as fh:
                inputs.update(fh.read())
        path = os.path.join(self.dir, f"digests-{inputs.hexdigest()[:16]}.json")
        if os.path.exists(path):
            with open(path) as fh:
                return json.load(fh)
        ref = dict(zip(labels, digests))
        with open(path, "w") as fh:
            json.dump(ref, fh, indent=1, sort_keys=True)
        return ref


def _source_digest() -> str:
    """SHA-256 over the path and bytes of every file under ``src/cofrig``."""
    top = os.path.join(ROOT, "src", "cofrig")
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(top):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, top).encode() + b"\0")
            with open(path, "rb") as fh:
                digest.update(fh.read() + b"\0")
    return digest.hexdigest()


def _read_edges(path: str) -> list[tuple[int, int]]:
    with open(path) as fh:
        lines = fh.read().split("\n")[1:]
    return [tuple(int(x) for x in line.split()) for line in lines if line]


def percentile(values, q: float) -> float | None:
    """Nearest-rank q-quantile, or None unless >= 10 samples lie above it."""
    ordered = sorted(values)
    k = max(0, math.ceil(q * len(ordered)) - 1)
    if len(ordered) - 1 - k < 10:
        return None
    return ordered[k]


def scaled(seconds: float, reference: float) -> float:
    """A time measured next to ``reference``, rescaled to the reference host."""
    return seconds * REFERENCE_S / reference


def pass_seconds(p: dict) -> float:
    """A pass's wall time, scaled by the mean of the references its worker
    timed before, during and after it."""
    return scaled(p["wall_s"], statistics.fmean(p["reference_s"]))


def end_to_end(setups, passes) -> dict:
    """Medians over the run.  Each start-up is scaled by the reference its
    worker timed right after it, each pass as in ``pass_seconds``."""
    return {
        "setup_s": {"value": statistics.median(
            scaled(s["setup_s"], s["reference_s"][0]) for s in setups), "unit": "s"},
        "wall_s": {"value": statistics.median(pass_seconds(p) for p in passes),
                   "unit": "s"},
        "peak_rss_mb": {"value": statistics.median(p["peak_rss_mb"] for p in passes),
                        "unit": "MB"},
    }


def job_latency(passes) -> dict:
    """Per-job latency percentiles over every job of every pass, each only
    where at least 10 samples lie beyond it, with the sample count."""
    samples = [r["ms"] for p in passes for r in p["jobs"]]
    out = {"samples": len(samples)}
    for name, q in (("job_p50_ms", 0.5), ("job_p90_ms", 0.9)):
        value = percentile(samples, q)
        if value is not None:
            out[name] = value
    return out


def layer_units(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_frac") or name.endswith("coverage"):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="cofrig benchmark: one run")
    parser.add_argument("--workload", choices=sorted(PASS_SECONDS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "cofrig", "__init__.py")):
        print("error: no cofrig sources at src/cofrig; run from a checkout of "
              "the repository", file=sys.stderr)
        return 2

    try:
        run = Run(args.workload, args.seed)
        run.spawn(setup_only=True)  # compiles bytecode; not measured
        if args.trace:
            passes = [run.spawn(), run.spawn(trace=True)]
            setups = []
        else:
            setups = [run.spawn(setup_only=True) for _ in range(SETUP_SAMPLES)]
            count = max(1, round(args.seconds / PASS_SECONDS[args.workload]))
            passes = [run.spawn() for _ in range(count)]
            setups += passes  # a pass worker's start-up is timed alike
        attempted, failed, problems = run.check(passes)
    except RunFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if args.trace:
        untraced, traced = (pass_seconds(p) for p in passes)
        layers = dict(passes[1]["layers"])
        layers["trace.overhead_frac"] = (traced - untraced) / untraced
        metrics = {k: {"value": v, "unit": layer_units(k)} for k, v in layers.items()}
    else:
        metrics = end_to_end(setups, passes)

    summary = [f"{args.workload} seed {args.seed}: {len(passes)} passes, "
               f"{attempted} jobs attempted, {failed} failed"]
    summary += [f"  {k} = {v['value']:.6g} {v['unit']}" for k, v in metrics.items()]
    latency = job_latency(passes[:1] if args.trace else passes)  # untraced only
    summary += [f"  {k} = {v:.3f} ms  (over {latency['samples']} jobs)"
                for k, v in latency.items() if k != "samples"]
    summary += [f"  FAILED {p}" for p in problems[:20]]
    print("\n".join(summary), file=sys.stderr)
    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "setups_s": [s["setup_s"] for s in setups],
              "setup_reference_s": [s["reference_s"] for s in setups],
              "pass_walls_s": [p["wall_s"] for p in passes],
              "pass_cpu_s": [p["cpu_s"] for p in passes],
              "pass_reference_s": [p["reference_s"] for p in passes],
              "job_latency": latency,
              "problems": problems, "metrics": metrics}
    with open(os.path.join(run.dir, f"report-trace{args.trace}.json"), "w") as fh:
        json.dump(report, fh, indent=1)

    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
