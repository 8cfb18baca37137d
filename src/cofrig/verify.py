"""Named verification suites crossing the algebraic rank oracle against
its combinatorial characterizations.

Each suite bundles related checks — axiom sweeps, exhaustive rank
comparisons on small complete graphs, randomized structural properties —
and returns a structured result that the command-line front end renders
as JSON.  All randomness flows from one explicit seed, so every sampled
instance (and therefore the entire JSON payload) is reproducible.

Suites:

* ``axioms``          rank axioms on E(K6); the two closure laws for
                      low-overlap unions and clique merges; K5 copies in
                      K8 are circuits.
* ``sequence-sweep``  exhaustive check, on level bitsets, that the best
                      proper clique-sequence value of each of the 32768
                      subsets of E(K6) equals the oracle rank, plus sampled
                      dual certificates.
* ``elevation``       the free elevation of the rank-10 clique truncation
                      on E(K6) reproduces the degree-2 cofactor matroid;
                      cyclic flats stay unions of K5 copies; truncating
                      back returns the start; degree-1/2 analogues.
* ``dress``           the maximal-clique cover formula on random flats of
                      K7 and on the double banana; brute-force outer
                      minima; shellable covers are M-degenerate;
                      simplicial base vertices exist on cyclic flats.
* ``connectivity``    complete graphs span their matroids; K13 survives
                      any sampled 6-edge deletion at full rank 33.
* ``extensions``      0-/1-extensions and X-replacements preserve
                      independence.
"""

from __future__ import annotations

import random
import time
from functools import lru_cache
from itertools import combinations, zip_longest
from typing import NamedTuple

from .cofactor import CofactorOracle
from .covers import (
    CliqueCover,
    dress_rank,
    find_shellable_order,
    is_M_degenerate,
    val_D,
)
from .erection import check_cyclic_flat_cover, free_elevation
from .errors import WitnessMismatch
from .graphs import (
    EdgeSet,
    apply_extension,
    complete_edges,
    complete_graph,
    double_banana,
)
from .matroids import clique_truncation_matroid, members, verify_rank_axioms
from .sequences import (
    find_simplicial_base_vertex,
    min_sequence_levels,
    rank_certificate,
)

__all__ = ["Check", "SuiteResult", "SUITE_NAMES", "run_suite"]


class Check(NamedTuple):
    """One named pass/fail item inside a suite."""

    name: str
    passed: bool
    detail: str = ""


class SuiteResult(NamedTuple):
    suite: str
    seed: int
    checks: tuple[Check, ...]
    elapsed: float

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_payload(self) -> dict:
        # elapsed is deliberately left out: the JSON result of a run must
        # depend only on the seed, never on wall-clock noise.
        return {
            "suite": self.suite,
            "seed": self.seed,
            "passed": self.passed,
            "checks": [
                {"name": c.name, "passed": c.passed, "detail": c.detail}
                for c in self.checks
            ],
        }

    def summary(self) -> str:
        good = sum(1 for c in self.checks if c.passed)
        return (f"{self.suite}: {good}/{len(self.checks)} checks passed "
                f"in {self.elapsed:.1f}s")


def _check(name: str, failures: list[str], ok_detail: str) -> Check:
    if failures:
        shown = "; ".join(failures[:3])
        if len(failures) > 3:
            shown += f" (+{len(failures) - 3} more)"
        return Check(name, False, shown)
    return Check(name, True, ok_detail)


@lru_cache(maxsize=None)
def _oracle(n: int, s: int = 2) -> CofactorOracle:
    return CofactorOracle(n, s=s)


def _random_edge_subset(rng: random.Random, F: EdgeSet, p: float = 0.6) -> EdgeSet:
    keep = [e for e in F.sorted_edges() if rng.random() < p]
    return EdgeSet.from_edges(F.n, keep)


# -- axioms ------------------------------------------------------------------

def _low_overlap_pair(rng: random.Random, n: int) -> tuple[EdgeSet, EdgeSet]:
    """Two nonempty edge sets whose vertex supports share at most 2 vertices."""
    while True:
        verts = list(range(n))
        rng.shuffle(verts)
        a = rng.randint(3, 5)
        overlap = rng.randint(max(0, 3 - (n - a)), 2)
        b = rng.randint(3, min(5, n - a + overlap))
        s1 = verts[:a]
        s2 = verts[a - overlap:a - overlap + b]
        e1 = _random_edge_subset(rng, complete_edges(n, s1))
        e2 = _random_edge_subset(rng, complete_edges(n, s2))
        if not e1.mask or not e2.mask:
            continue
        if len(e1.vertex_support() & e2.vertex_support()) <= 2:
            return e1, e2


def _suite_axioms(rng: random.Random) -> list[Check]:
    checks: list[Check] = []

    try:
        verify_rank_axioms(_oracle(6).explicit_matroid())
        checks.append(Check(
            "rank-axioms-k6", True,
            "unit increase and local submodularity hold on all 32768 subsets"))
    except AssertionError as exc:
        checks.append(Check("rank-axioms-k6", False, str(exc)))

    oracle = _oracle(7)

    failures = []
    for _ in range(40):
        e1, e2 = _low_overlap_pair(rng, 7)
        closed = oracle.closure(e1 | e2)
        allowed = (complete_edges(7, e1.vertex_support())
                   | complete_edges(7, e2.vertex_support()))
        if closed.mask & ~allowed.mask:
            failures.append(
                f"E1={e1.sorted_edges()} E2={e2.sorted_edges()}")
    checks.append(_check(
        "union-closure-bound", failures,
        "40 sampled pairs sharing <= 2 vertices: the closure of the union "
        "stays inside the two complete supports"))

    failures = []
    for _ in range(40):
        verts = list(range(7))
        rng.shuffle(verts)
        a = rng.randint(4, 6)
        o = rng.randint(3, min(4, a))
        b = rng.randint(4, min(6, 7 - a + o))
        s1 = verts[:a]
        s2 = rng.sample(s1, o) + rng.sample(verts[a:], b - o)
        e1 = complete_edges(7, s1)
        e2 = complete_edges(7, s2)
        target = complete_edges(7, set(s1) | set(s2))
        if oracle.closure(e1 | e2) != target:
            failures.append(f"S1={sorted(s1)} S2={sorted(s2)}")
    checks.append(_check(
        "clique-merge-closure", failures,
        "40 sampled clique pairs sharing >= 3 vertices close to the full "
        "clique on the union of their supports"))

    oracle8 = _oracle(8)
    failures = []
    for c in combinations(range(8), 5):
        clique = complete_edges(8, c)
        if oracle8.independent(clique):
            failures.append(f"K5 on {c} is independent")
            continue
        for u, v in clique.sorted_edges():
            if not oracle8.independent(clique.remove(u, v)):
                failures.append(f"K5 on {c} minus ({u},{v}) is dependent")
                break
    checks.append(_check(
        "k5-copies-are-circuits", failures,
        "all 56 copies of K5 in K8 are dependent with every 9-edge subset "
        "independent"))

    return checks


# -- sequence sweep ----------------------------------------------------------

def _suite_sequence_sweep(rng: random.Random) -> list[Check]:
    oracle = _oracle(6)
    M, values = oracle.explicit_matroid(), min_sequence_levels(6)
    wrong = 0
    for v, r in zip_longest(values, M.levels, fillvalue=0):
        wrong |= v ^ r
    mismatches = [
        f"mask {mask:#x}: sequence value "
        f"{sum(v >> mask & 1 for v in values[1:])}, rank {M.rank(mask)}"
        for mask in members(wrong)]
    checks = [_check(
        "k6-exhaustive-sweep", mismatches,
        "all 32768 subsets of E(K6): best proper sequence value equals the "
        "oracle rank")]

    failures = []
    for _ in range(50):
        F = EdgeSet(6, rng.getrandbits(15))
        try:
            rank_certificate(F, oracle)
        except WitnessMismatch as exc:
            failures.append(f"mask {F.mask:#x}: {exc}")
    checks.append(_check(
        "sampled-certificates", failures,
        "50 random subsets produce matching independent-set and sequence "
        "witnesses"))
    return checks


# -- elevation ---------------------------------------------------------------

def _suite_elevation(rng: random.Random) -> list[Check]:
    checks: list[Check] = []

    oracle = _oracle(6)
    table = oracle.rank_table()
    r6 = clique_truncation_matroid(6, 5)
    chain = free_elevation(r6)
    ranks = [m.rank_total for m in chain.steps]
    checks.append(Check(
        "clique-truncation-chain-ranks", ranks == [10, 11, 12],
        f"free elevation of the rank-10 truncation steps through ranks {ranks}"))

    final_table = chain.final.full_table()
    bad = 0 if final_table == table else sum(
        a != b for a, b in zip(final_table, table))
    checks.append(Check(
        "elevation-matches-oracle", bad == 0,
        "final rank table equals the cofactor oracle on all 32768 subsets"
        if bad == 0 else f"{bad} subsets disagree with the oracle"))

    members = [complete_edges(6, c).mask for c in combinations(range(6), 5)]
    try:
        covered = check_cyclic_flat_cover(chain, members)
        checks.append(Check(
            "cyclic-flats-are-clique-unions", covered,
            "every cyclic flat of the elevated matroid is a union of K5 copies"))
    except ValueError as exc:
        checks.append(Check("cyclic-flats-are-clique-unions", False, str(exc)))

    same = chain.final.truncate(10).full_table() == r6.full_table()
    checks.append(Check(
        "truncating-back-returns-start", same,
        "truncating the elevated matroid to rank 10 returns the clique "
        "truncation"))

    graphic = free_elevation(clique_truncation_matroid(5, 3)).final
    g_table = _oracle(5, 0).rank_table()
    ok = graphic.full_table() == g_table
    checks.append(Check(
        "degree1-elevation-is-graphic", ok,
        "the K3 truncation on E(K5) elevates to the degree-0 cofactor "
        "(graphic) matroid"))

    planar = free_elevation(clique_truncation_matroid(6, 4)).final
    p_table = _oracle(6, 1).rank_table()
    ok = planar.full_table() == p_table
    checks.append(Check(
        "degree2-elevation-is-rigidity", ok,
        "the K4 truncation on E(K6) elevates to the degree-1 cofactor "
        "(generic 2-dimensional rigidity) matroid"))

    return checks


# -- dress covers ------------------------------------------------------------

def _suite_dress(rng: random.Random) -> list[Check]:
    checks: list[Check] = []
    flats = 110
    oracle = _oracle(7)

    # Half the samples at density 1/2 and half at 1/4 (denser masks almost
    # always close to the full graph), plus every clique flat of size >= 5.
    pool = [EdgeSet(7, rng.getrandbits(21)) for _ in range(flats // 2)]
    pool += [EdgeSet(7, rng.getrandbits(21) & rng.getrandbits(21))
             for _ in range(flats - len(pool))]
    pool += [complete_edges(7, c)
             for size in (5, 6, 7) for c in combinations(range(7), size)]

    seen: dict[int, EdgeSet] = {}
    failures = []
    member_counts: dict[int, int] = {}
    for F in pool:
        G = oracle.closure(F)
        seen[G.mask] = G
        try:
            _, cover, _, _ = dress_rank(G, oracle)
            k = len(cover.members)
            member_counts[k] = member_counts.get(k, 0) + 1
        except WitnessMismatch as exc:
            failures.append(f"flat {G.mask:#x}: {exc}")
    counts = ", ".join(f"{k} cliques: {c}" for k, c in sorted(member_counts.items()))
    checks.append(_check(
        "random-flat-formula", failures,
        f"{len(pool)} random and clique-seeded closures in K7 satisfy the "
        f"clique-cover rank formula ({counts})"))

    oracle8 = _oracle(8)
    banana = oracle8.closure(double_banana())
    try:
        value, cover, f0, _ = dress_rank(banana, oracle8)
        ok = value == 17 and len(cover.members) == 2 and not f0.mask
        detail = (f"rank {value} from members {list(cover.members)}"
                  if ok else f"value {value}, members {cover.members}, "
                             f"F0 {f0.sorted_edges()}")
    except WitnessMismatch as exc:
        ok, detail = False, str(exc)
    checks.append(Check("double-banana-formula", ok, detail))

    failures = []
    for size in (5, 6, 7):
        G = complete_edges(7, range(size))
        value, cover, f0, _ = dress_rank(G, oracle)
        if value != 3 * size - 6 or len(cover.members) != 1 or f0.mask:
            failures.append(f"K{size}: value {value}")
    checks.append(_check(
        "single-clique-formula", failures,
        "complete graphs on 5..7 vertices give one member and rank 3k-6"))

    # Outer minimum: on a sample of the flats above, no single-member cover
    # bound beats the oracle rank, and the best one attains it.  (In K7 any
    # two sets of >= 5 vertices share >= 3, so thin families have one member;
    # a single member has no hinge, so it is M-degenerate.)
    candidates = [c for k in (5, 6, 7) for c in combinations(range(7), k)]
    failures = []
    sample = [seen[m] for m in sorted(seen)]
    sample = rng.sample(sample, min(8, len(sample)))
    for G in sample:
        rank = oracle.rank(G)
        best = len(G)
        for c in candidates:
            cover = CliqueCover(7, [c])
            outside = (G.mask & ~cover.union_edges().mask).bit_count()
            best = min(best, outside + val_D(cover))
        if best != rank:
            failures.append(f"flat {G.mask:#x}: best bound {best}, rank {rank}")
    checks.append(_check(
        "single-clique-outer-minimum", failures,
        f"on {len(sample)} sampled flats the best single-clique bound equals "
        "the rank"))

    failures = []
    shellable = 0
    for _ in range(40):
        want = rng.randint(2, 3)
        members: set[tuple[int, ...]] = set()
        while len(members) < want:
            size = rng.randint(5, 6)
            members.add(tuple(sorted(rng.sample(range(8), size))))
        cover = CliqueCover(8, sorted(members))
        if find_shellable_order(cover) is None:
            continue
        shellable += 1
        ok, _ = is_M_degenerate(cover, oracle8)
        if not ok:
            failures.append(f"members {sorted(members)}")
    checks.append(_check(
        "shellable-implies-m-degenerate", failures,
        f"{shellable} of 40 sampled families were 4-shellable and every one "
        "was M-degenerate"))

    failures = []
    cyclic = 0
    for mask in sorted(seen):
        G = seen[mask]
        if not G.mask or not oracle.is_cyclic(G):
            continue
        cyclic += 1
        try:
            v, base = find_simplicial_base_vertex(G, oracle)
            if base.degree(v) != 3:
                failures.append(f"flat {mask:#x}: degree {base.degree(v)}")
        except RuntimeError as exc:
            failures.append(f"flat {mask:#x}: {exc}")
    checks.append(_check(
        "simplicial-base-vertices", failures,
        f"{cyclic} distinct cyclic flats each have a simplicial vertex with "
        "a degree-3 base"))

    return checks


# -- connectivity ------------------------------------------------------------

def _suite_connectivity(rng: random.Random) -> list[Check]:
    checks: list[Check] = []

    failures = []
    for n in range(5, 11):
        if not _oracle(n).is_rigid(complete_graph(n)):
            failures.append(f"K{n} is not rigid")
    checks.append(_check(
        "complete-graphs-rigid", failures,
        "K5 through K10 span their cofactor matroids"))

    oracle = _oracle(13)
    full = complete_graph(13)
    edges = full.sorted_edges()
    failures = []
    for _ in range(100):
        F = full
        removed = rng.sample(edges, 6)
        for u, v in removed:
            F = F.remove(u, v)
        if oracle.rank(F) != 33:
            failures.append(f"removed {removed}")
    checks.append(_check(
        "k13-minus-six-edges", failures,
        "100 random 6-edge deletions from K13 all keep rank 33"))

    return checks


# -- extensions --------------------------------------------------------------

def _random_extension(rng: random.Random, F: EdgeSet, kind: str,
                      new_vertex: int) -> EdgeSet | None:
    verts = range(F.n)
    if kind == "0ext":
        return apply_extension(F, "0ext", new_vertex, rng.sample(verts, 3))
    edges = F.sorted_edges()
    if kind == "1ext":
        if not edges:
            return None
        u, v = rng.choice(edges)
        rest = [w for w in verts if w not in (u, v)]
        attach = [u, v] + rng.sample(rest, 2)
        return apply_extension(F, "1ext", new_vertex, attach, delete=((u, v),))
    disjoint = [(e, f) for e, f in combinations(edges, 2) if not set(e) & set(f)]
    if not disjoint:
        return None
    e, f = rng.choice(disjoint)
    support = set(e) | set(f)
    rest = [w for w in verts if w not in support]
    attach = sorted(support) + [rng.choice(rest)]
    return apply_extension(F, "xrep", new_vertex, attach, delete=(e, f))


def _suite_extensions(rng: random.Random) -> list[Check]:
    counts = {"0ext": 0, "1ext": 0, "xrep": 0}
    failures = []
    done = 0
    while done < 200:
        n = rng.randint(5, 8)
        small = _oracle(n)
        big = _oracle(n + 1)
        F = small.basis_of(EdgeSet(n, rng.getrandbits(n * (n - 1) // 2)))
        kind = rng.choice(("0ext", "1ext", "xrep"))
        extended = _random_extension(rng, F, kind, n)
        if extended is None:
            continue
        done += 1
        counts[kind] += 1
        if not big.independent(extended):
            failures.append(
                f"n={n} kind={kind} result={extended.sorted_edges()}")
    summary = ", ".join(f"{k}: {v}" for k, v in sorted(counts.items()))
    return [_check(
        "independence-preserved", failures,
        f"{done} random extensions of independent sets stay independent "
        f"({summary})")]


# -- registry ----------------------------------------------------------------

_SUITES = {
    "axioms": _suite_axioms,
    "sequence-sweep": _suite_sequence_sweep,
    "elevation": _suite_elevation,
    "dress": _suite_dress,
    "connectivity": _suite_connectivity,
    "extensions": _suite_extensions,
}

SUITE_NAMES = tuple(_SUITES)


def run_suite(name: str, seed: int = 13) -> SuiteResult:
    """Run one named suite with all randomness drawn from ``seed``."""
    if name not in _SUITES:
        known = ", ".join(SUITE_NAMES)
        raise ValueError(f"unknown suite {name!r}; expected one of {known}")
    rng = random.Random(seed)
    start = time.perf_counter()
    checks = _SUITES[name](rng)
    return SuiteResult(name, seed, tuple(checks), time.perf_counter() - start)
