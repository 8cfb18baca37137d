"""Steadiness report: how much the end-to-end metrics spread between runs.

    python3 bench/steady.py --workload certify --seeds 1-10
    python3 bench/steady.py --workload oracle --trace-repeat 3

The first form runs ``run.py`` once per seed in two sets, the second in
reverse seed order so that slow drift of the host does not line up with the
seeds.  For each end-to-end metric it prints, per set,
the median, the quartiles (``statistics.quantiles(n=4)``) and the spread
(q3 - q1) / median, then the shift of each set's median from the first set's,
each next to the metric's bound in BENCHMARK.json.  Two sets are what the
benchmark's acceptance compares: each set's spread, and the second median
against the first.

The second form runs the traced mode twice on one seed and lists every
per-layer count (``*.calls``, ``*_frac``, ``*_per_call``, ``trace.spans``)
that differs between the two runs; a sound trace lists none.

Raw results go to ``.bench_work/steady-<workload>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETS = 2


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"run failed for seed {seed}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def spread(values: list[float]) -> tuple[float, float, float, float]:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return median, q1, q3, (q3 - q1) / median


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace-repeat", type=int, default=None, metavar="SEED",
                        help="run the traced mode twice on SEED and compare counts")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    os.makedirs(os.path.join(ROOT, ".bench_work"), exist_ok=True)
    out_path = os.path.join(ROOT, ".bench_work", f"steady-{args.workload}.json")

    if args.trace_repeat is not None:
        runs = [run_once(args.workload, args.trace_repeat, seconds, 1) for _ in range(2)]
        with open(out_path, "w") as fh:
            json.dump(runs, fh, indent=1)
        counted = [k for k in runs[0]["metrics"]
                   if k.endswith((".calls", "_frac", "_per_call", "trace.spans"))
                   and k != "trace.overhead_frac"]
        differ = [k for k in counted
                  if runs[0]["metrics"][k]["value"] != runs[1]["metrics"][k]["value"]]
        print(f"{len(counted)} per-layer counts compared, {len(differ)} differ")
        for k in differ:
            print(f"  {k}: {runs[0]['metrics'][k]['value']} vs "
                  f"{runs[1]['metrics'][k]['value']}")
        return 1 if differ else 0

    seeds = parse_seeds(args.seeds)
    sets = []
    for k in range(SETS):
        order = seeds if k % 2 == 0 else seeds[::-1]
        results = {}
        for seed in order:
            res = run_once(args.workload, seed, seconds, 0)
            results[seed] = res
            print(f"set {k + 1} seed {seed}: correct={res['correct']} " + ", ".join(
                f"{m}={v['value']:.5g}" for m, v in res["metrics"].items()),
                file=sys.stderr, flush=True)
        sets.append(results)
    with open(out_path, "w") as fh:
        json.dump([{str(s): r for s, r in results.items()} for results in sets], fh,
                  indent=1)

    print(f"{args.workload}: {len(seeds)} seeds x {SETS} sets, {seconds} s runs")
    print(f"{'metric':<14}{'set':>4}{'median':>12}{'q1':>12}{'q3':>12}"
          f"{'spread':>9}{'shift':>9}{'bound':>7}")
    ok = all(r["correct"] for results in sets for r in results.values())
    for name in next(iter(sets[0].values()))["metrics"]:
        first = None
        for k, results in enumerate(sets):
            values = [r["metrics"][name]["value"] for r in results.values()]
            median, q1, q3, width = spread(values)
            first = median if first is None else first
            shift = (median - first) / first
            bound = bounds.get(name, float("nan"))
            print(f"{name:<14}{k + 1:>4}{median:>12.5g}{q1:>12.5g}{q3:>12.5g}"
                  f"{width:>9.4f}{shift:>+9.4f}{bound:>7.2f}")
    print(f"all runs correct: {ok}")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
