"""One measured pass of a workload, in a fresh interpreter.

Started by ``run.py``; not meant to be run by hand.  The worker imports
cofrig from ``src/``, loads the corpus, prints ``ready`` (the parent times
set-up up to that line), times the host-speed reference (``reference.py``),
then runs the workload's fixed job list once, one job after another on one
thread.  Between jobs it times the reference again once at least
``REFERENCE_EVERY_S`` of job time has run since the last sample, and always
after the last job, so a long pass is sampled throughout.  Results go to the
``--result`` file as JSON: per-job latency, exit code, stdout digest and
stdout, the pass wall and CPU time (job time only, without the reference
samples), the reference times and the process's peak resident memory.  A
``--setup-only`` worker writes only its first reference time and exits.
With ``--trace BASE`` the pass runs under the tracer and the spans are
written to ``BASE.*``.

Every pass is its own process, so every pass starts from the same state:
no oracle memo, ``lru_cache`` or rank table survives from an earlier pass.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REFERENCE_EVERY_S = 1.0


def _load(workload: str, seed: int, corpus: str | None):
    """Import cofrig and build the job list: (label, callable) pairs, where
    the callable returns (exit code, stdout text)."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from cofrig import cli
    from cofrig.cofactor import CofactorOracle
    from cofrig.graphs import load_edge_file

    def via_cli(argv):
        def job():
            out = io.StringIO()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(io.StringIO()):
                rc = cli.main(argv)
            return rc, out.getvalue()
        return job

    if workload == "verify":
        # One process for all six suites, as ``cofrig verify all`` runs them:
        # they share the cached K6 oracle.
        from checker import SUITES
        return [(f"verify {suite}", via_cli(["verify", suite, "--seed", str(seed)]))
                for suite in SUITES]

    with open(os.path.join(corpus, "manifest.json")) as fh:
        graphs = json.load(fh)["graphs"]
    jobs = []
    for g in graphs:
        path = os.path.join(corpus, g["file"])
        if workload == "certify":
            for command in g["jobs"]:
                jobs.append((f"{command} {g['file']}", via_cli([command, path])))
            continue
        F = load_edge_file(path)
        op = g["jobs"][0]

        def job(F=F, op=op, edge=g.get("edge")):
            oracle = CofactorOracle(F.n)
            if op == "fundamental_circuit":
                answer = oracle.fundamental_circuit(F, tuple(edge))
            else:
                answer = getattr(oracle, op)(F)
            if hasattr(answer, "sorted_edges"):
                answer = [list(e) for e in answer.sorted_edges()]
            return 0, json.dumps(answer)

        jobs.append((f"{op} {g['file']}", job))
    return jobs


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--corpus")
    parser.add_argument("--result", required=True)
    parser.add_argument("--trace")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    jobs = _load(args.workload, args.seed, args.corpus)
    print("ready", flush=True)
    from reference import reference_s
    references = [reference_s()]
    if args.setup_only:
        with open(args.result, "w") as fh:
            json.dump({"reference_s": references}, fh)
        return 0

    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()

    records = []
    wall = cpu = since_reference = 0.0
    for i, (label, job) in enumerate(jobs):
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        try:
            rc, text = job()
            error = None
        except Exception as exc:  # a raising job is a failed job, not a crash
            rc, text, error = None, "", f"{type(exc).__name__}: {exc}"
        took = time.perf_counter() - t0
        cpu += time.process_time() - cpu0
        wall += took
        since_reference += took
        records.append({"job": label, "ms": took * 1000.0,
                        "rc": rc, "error": error, "stdout": text,
                        "digest": hashlib.sha256(text.encode()).hexdigest()})
        if since_reference >= REFERENCE_EVERY_S or i == len(jobs) - 1:
            references.append(reference_s())
            since_reference = 0.0
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    result = {"wall_s": wall, "cpu_s": cpu, "reference_s": references,
              "peak_rss_mb": peak_kb / 1024.0, "jobs": records}
    if tracer is not None:
        tracer.uninstall()
        tracer.write(args.trace)
        from tracer import layer_metrics
        result["layers"] = layer_metrics(tracer, wall)
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
