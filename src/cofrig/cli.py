"""Command-line front end for the cofactor rigidity toolkit.

JSON results go to standard output and are byte-identical across re-runs
with the same inputs, flags, and seeds; human-readable notes go to
standard error.  Exit codes: 0 success, 1 property or witness failure,
2 input error, 3 cap exceeded.

Commands::

    cofrig rank GRAPH         rank certificate (independent set + sequence)
    cofrig independent GRAPH  is the edge set independent?
    cofrig rigid GRAPH        does the edge set span its matroid?
    cofrig closure GRAPH      closure of the edge set
    cofrig elevate MATROID    free elevation chain of a serialized matroid
    cofrig dress GRAPH        maximal-clique rank formula on closure(GRAPH)
    cofrig covers GRAPH       clique-cover analysis (hinges, shelling, bounds)
    cofrig verify SUITE       run a named verification suite

Graph files hold one ``u v`` pair per line with an optional ``n=<k>``
header; matroid files use the ``ground_size=…`` / ``bases`` serialization.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import cache

from .cofactor import DEFAULT_SEEDS, CofactorOracle
from .covers import (
    dress_rank,  # noqa: F401 -- bench/selftest.py patches cli.dress_rank
    find_shellable_order,
    hinge_table,
    is_M_degenerate,
    maximal_cliques,
    val_D,
)
from .erection import free_elevation
from .errors import CapExceeded, SeedDisagreement, WitnessMismatch
from .field import MERSENNE61
from .graphs import EdgeSet, load_edge_file
from .matroids import ExplicitMatroid
from .sequences import dress_certificate, rank_certificate
from .verify import SUITE_NAMES, run_suite

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INPUT = 2
EXIT_CAP = 3


def _seed_list(text: str) -> tuple[int, ...]:
    try:
        seeds = tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad seed list {text!r}") from None
    if not seeds:
        raise argparse.ArgumentTypeError("seed list is empty")
    return seeds


def _resolve_s(args) -> int:
    if args.dim is not None:
        if args.dim < 1:
            raise ValueError("--dim must be at least 1")
        if args.s is not None and args.s != args.dim - 1:
            raise ValueError(
                f"--s {args.s} conflicts with --dim {args.dim} (need s = dim - 1)")
        return args.dim - 1
    if args.s is not None:
        if args.s < 0:
            raise ValueError("--s must be nonnegative")
        return args.s
    return 2


def _oracle_from(args, n: int) -> CofactorOracle:
    seeds = args.seeds if args.seeds else DEFAULT_SEEDS
    return CofactorOracle(n, s=_resolve_s(args), seeds=seeds, modulus=args.modulus)


def _load_graph(path: str) -> EdgeSet:
    F = load_edge_file(path)
    if F.n < 1:
        F = F.reindexed(1)
    return F


def _emit(args, payload) -> None:
    text = payload if isinstance(payload, str) else json.dumps(payload, indent=2)
    print(text)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")


def _note(message: str) -> None:
    print(message, file=sys.stderr)


# -- commands ------------------------------------------------------------------

def cmd_rank(args) -> int:
    F = _load_graph(args.graph)
    oracle = _oracle_from(args, F.n)
    certificate = rank_certificate(F, oracle)
    _emit(args, certificate.to_json())
    _note(f"rank {certificate.rank} certified by {len(certificate.independent_set)} "
          f"independent edges and a {len(certificate.sequence)}-clique sequence")
    return EXIT_OK


def cmd_independent(args) -> int:
    F = _load_graph(args.graph)
    oracle = _oracle_from(args, F.n)
    rank = oracle.rank(F)
    independent = rank == len(F)
    _emit(args, {
        "n": F.n,
        "s": oracle.s,
        "edge_count": len(F),
        "rank": rank,
        "independent": independent,
    })
    _note("independent" if independent
          else f"dependent: rank {rank} < {len(F)} edges")
    return EXIT_OK if independent else EXIT_FAIL


def cmd_rigid(args) -> int:
    F = _load_graph(args.graph)
    oracle = _oracle_from(args, F.n)
    d = oracle.dim
    target = d * F.n - (d + 1) * d // 2
    rigid = oracle.is_rigid(F)
    _emit(args, {
        "n": F.n,
        "s": oracle.s,
        "rank": oracle.rank(F),
        "target": target,
        "rigid": rigid,
    })
    _note("rigid" if rigid else f"flexible: rank below {target}")
    return EXIT_OK if rigid else EXIT_FAIL


def cmd_closure(args) -> int:
    F = _load_graph(args.graph)
    oracle = _oracle_from(args, F.n)
    closed = oracle.closure(F)
    _emit(args, {
        "n": F.n,
        "s": oracle.s,
        "rank": oracle.rank(F),
        "edges": [list(e) for e in F.sorted_edges()],
        "closure": [list(e) for e in closed.sorted_edges()],
    })
    _note(f"closure has {len(closed)} edges (input had {len(F)})")
    return EXIT_OK


def cmd_elevate(args) -> int:
    with open(args.matroid) as fh:
        M = ExplicitMatroid.from_text(fh.read())
    chain = free_elevation(M)
    _emit(args, {
        "ground_size": M.m,
        "start_rank": M.rank_total,
        "step_ranks": [step.rank_total for step in chain.steps[1:]],
        "nontrivial_steps": len(chain.steps) - 1,
        "family_sizes": [len(f) for f in chain.families],
        "final_rank": chain.final.rank_total,
        "final": chain.final.to_text(),
    })
    for i, step in enumerate(chain.steps[1:], 1):
        _note(f"step {i}: erected to rank {step.rank_total}")
    if len(chain.steps) == 1:
        _note("no nontrivial erection: the matroid is its own elevation")
    return EXIT_OK


def cmd_dress(args) -> int:
    F = _load_graph(args.graph)
    closed, value, cover, f0, order = dress_certificate(F, _oracle_from(args, F.n))
    if closed != F:
        _note(f"input is not a flat; analyzing its closure ({len(closed)} edges)")
    _emit(args, {
        "n": F.n,
        "rank": value,
        "members": [list(m) for m in cover.members],
        "f0_edges": [list(e) for e in f0.sorted_edges()],
        "hinges": [{"pair": list(pair), "degree": deg}
                   for pair, deg in sorted(cover.hinges.items())],
        "val_d": val_D(cover),
        "shelling": list(order),
    })
    _note(f"rank {value} = {len(f0)} uncovered edges + cover value {val_D(cover)}")
    return EXIT_OK


def cmd_covers(args) -> int:
    F = _load_graph(args.graph)
    oracle = _oracle_from(args, F.n)
    if oracle.s != 2:
        raise ValueError("cover analysis is specific to s = 2 (clique size 5)")
    cover, f0 = maximal_cliques(F)
    hinges, violations = hinge_table(cover)
    shelling = find_shellable_order(cover)
    degenerate, degenerate_order = is_M_degenerate(cover, oracle)
    covers_input = cover.covers(F)
    upper = val_D(cover) if degenerate and covers_input and not violations else None
    payload = {
        "n": F.n,
        "rank": oracle.rank(F),
        "members": [list(m) for m in cover.members],
        "f0_edges": [list(e) for e in f0.sorted_edges()],
        "hinges": [{"pair": list(pair), "degree": deg}
                   for pair, deg in sorted(hinges.items())],
        "thin_violations": [[i, j, list(shared)] for i, j, shared in violations],
        "val_d": val_D(cover),
        "shellable_order": list(shelling) if shelling is not None else None,
        "m_degenerate": degenerate,
        "m_degenerate_order": (list(degenerate_order)
                               if degenerate_order is not None else None),
        "covers_input": covers_input,
        "upper_bound": upper,
    }
    _emit(args, payload)
    if upper is not None and payload["rank"] > upper:
        _note(f"cover value {upper} fell below the rank {payload['rank']}")
        return EXIT_FAIL
    _note(f"{len(cover.members)} maximal cliques, {len(f0)} uncovered edges")
    return EXIT_OK


def cmd_verify(args) -> int:
    names = SUITE_NAMES if args.suite == "all" else (args.suite,)
    results = []
    for name in names:
        result = run_suite(name, seed=args.seed)
        results.append(result)
        _note(result.summary())
        for check in result.checks:
            mark = "ok" if check.passed else "FAIL"
            _note(f"  [{mark}] {check.name}: {check.detail}")
    passed = all(r.passed for r in results)
    if len(results) == 1:
        _emit(args, results[0].to_payload())
    else:
        _emit(args, {"suites": [r.to_payload() for r in results], "passed": passed})
    return EXIT_OK if passed else EXIT_FAIL


# -- parser --------------------------------------------------------------------

def _add_flags(p: argparse.ArgumentParser, *, oracle: bool = False) -> None:
    """--out on every command; the oracle flags only on the commands that
    read them, so anywhere else they are input errors."""
    if oracle:
        p.add_argument("--s", type=int, default=None,
                       help="cofactor smoothness degree (default 2)")
        p.add_argument("--dim", type=int, default=None,
                       help="rigidity dimension d; shorthand for --s d-1")
        p.add_argument("--modulus", type=int, default=MERSENNE61,
                       help="prime modulus for the evaluation field")
        p.add_argument("--seeds", type=_seed_list, default=None,
                       help="comma-separated evaluation seeds (default 101,202,303)")
    p.add_argument("--out", default=None,
                   help="also write the JSON result to this file")


@cache  # built on the first main call, then reused
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cofrig",
        description="ranks, certificates, and covers in generic cofactor "
                    "rigidity matroids")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("rank", help="emit a rank certificate for an edge list")
    p.add_argument("graph", help="edge-list file")
    _add_flags(p, oracle=True)
    p.set_defaults(func=cmd_rank)

    for name, func, help_text in (
        ("independent", cmd_independent, "test independence of an edge list"),
        ("rigid", cmd_rigid, "test whether an edge list spans its matroid"),
        ("closure", cmd_closure, "closure of an edge list"),
        ("dress", cmd_dress, "maximal-clique rank formula on the closure"),
        ("covers", cmd_covers, "clique-cover analysis of an edge list"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("graph", help="edge-list file")
        _add_flags(p, oracle=True)
        p.set_defaults(func=func)

    p = sub.add_parser("elevate", help="free elevation chain of a matroid file")
    p.add_argument("matroid", help="matroid serialization file")
    _add_flags(p)
    p.set_defaults(func=cmd_elevate)

    p = sub.add_parser("verify", help="run a named verification suite")
    p.add_argument("suite", choices=SUITE_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=13,
                   help="seed for all sampled instances (default 13)")
    _add_flags(p)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CapExceeded as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return EXIT_CAP
    except (WitnessMismatch, SeedDisagreement) as exc:
        detail = getattr(exc, "detail", None)
        if detail:
            print(json.dumps(detail, indent=2))
        print(f"verification failed: {exc}", file=sys.stderr)
        return EXIT_FAIL
    except (OSError, ValueError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    raise SystemExit(main())
