"""Independent checker for the benchmark's job outputs.

Nothing here imports cofrig.  Ranks come from this file's own cofactor rows
and Gaussian elimination, evaluated at points drawn from seeds the library
never uses.  An evaluation rank never exceeds the generic rank, so an
independent set found here is independent for certain; every other check is
plain combinatorics on vertex tuples.

* ``rank`` certificates: the independent set is independent (lower bound) and
  the clique sequence is proper with value |F ∪ union| − t equal to the rank
  (upper bound), so the claimed rank is proven from both sides.
* ``dress`` results: the closure, its maximal cliques, F0, the hinges and
  ``val_d`` are all recomputed, and rank = |F0| + val_d must hold.
* oracle answers (rank, is_rigid, closure, cyc, basis_of,
  fundamental_circuit) are recomputed from one elimination pass.
* ``verify SUITE`` must report that suite, seeded as asked, with every
  check passed.

Each ``check_*`` function returns a list of problems; empty means correct.
"""

from __future__ import annotations

import json
import random
from itertools import combinations

P = (1 << 61) - 1
CHECKER_SEED = 9091  # not one of the library's evaluation seeds
SUITES = ("axioms", "sequence-sweep", "elevation", "dress", "connectivity",
          "extensions")


def _edge(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


class Elimination:
    """Degree-2 cofactor rows at random points, reduced in insertion order.

    Each stored row carries its combination of inserted edges, so a row that
    reduces to zero yields its fundamental circuit at no extra cost.
    """

    def __init__(self, n: int, seed: int = CHECKER_SEED):
        rng = random.Random(f"checker:{seed}:{n}")
        self.n = n
        self.points = [(rng.randrange(P), rng.randrange(P)) for _ in range(n)]
        self.rows: list[tuple[int, list[int], dict]] = []  # pivot, row, combination
        self.basis: list[tuple[int, int]] = []

    def _row(self, e) -> list[int]:
        i, j = _edge(*e)
        (xi, yi), (xj, yj) = self.points[i], self.points[j]
        dx, dy = (xi - xj) % P, (yi - yj) % P
        block = [dx * dx % P, dx * dy % P, dy * dy % P]
        row = [0] * (3 * self.n)
        row[3 * i:3 * i + 3] = block
        row[3 * j:3 * j + 3] = [(-b) % P for b in block]
        return row

    def add(self, e) -> set | None:
        """Insert edge e; None if it raised the rank, else its circuit."""
        e = _edge(*e)
        cur = self._row(e)
        comb = {e: 1}
        for piv, row, rcomb in self.rows:
            c = cur[piv]
            if c:
                cur = [(a - c * b) % P for a, b in zip(cur, row)]
                for k, v in rcomb.items():
                    comb[k] = (comb.get(k, 0) - c * v) % P
        piv = next((j for j, x in enumerate(cur) if x), None)
        if piv is None:
            return {k for k, v in comb.items() if v}
        inv = pow(cur[piv], -1, P)
        self.rows.append((piv, [a * inv % P for a in cur],
                          {k: v * inv % P for k, v in comb.items()}))
        self.basis.append(e)
        return None

    def spans(self, e) -> bool:
        """Whether e lies in the span of the inserted rows (no insertion)."""
        cur = self._row(e)
        for piv, row, _ in self.rows:
            c = cur[piv]
            if c:
                cur = [(a - c * b) % P for a, b in zip(cur, row)]
        return not any(cur)

    @property
    def rank(self) -> int:
        return len(self.rows)


def rank_of(n: int, edges) -> int:
    elim = Elimination(n)
    for e in sorted(_edge(*e) for e in edges):
        elim.add(e)
    return elim.rank


def closure_of(n: int, edges) -> set:
    elim = Elimination(n)
    present = {_edge(*e) for e in edges}
    for e in sorted(present):
        elim.add(e)
    return present | {e for e in combinations(range(n), 2)
                      if e not in present and elim.spans(e)}


def clique_edges(vertices) -> set:
    return {_edge(u, v) for u, v in combinations(vertices, 2)}


def maximal_cliques(n: int, edges, min_size: int = 5) -> set:
    """Maximal cliques of at least ``min_size`` vertices, by subset table."""
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    is_clique = bytearray(1 << n)
    is_clique[0] = 1
    found = set()
    for mask in range(1, 1 << n):
        top = mask.bit_length() - 1
        rest = mask & ~(1 << top)
        if not is_clique[rest] or adj[top] & rest != rest:
            continue
        is_clique[mask] = 1
    for mask in range(1, 1 << n):
        if not is_clique[mask] or mask.bit_count() < min_size:
            continue
        common = ~0
        for v in range(n):
            if mask >> v & 1:
                common &= adj[v]
        if not common & ~mask & ((1 << n) - 1):
            found.add(tuple(v for v in range(n) if mask >> v & 1))
    return found


def hinges_of(members) -> dict:
    sets = [set(m) for m in members]
    pairs = set()
    for a, b in combinations(sets, 2):
        shared = a & b
        if len(shared) == 2:
            pairs.add(tuple(sorted(shared)))
    return {p: sum(1 for s in sets if set(p) <= s) for p in pairs}


def dress_value(members) -> int:
    return (sum(3 * len(m) - 6 for m in members)
            - sum(d - 1 for d in hinges_of(members).values()))


def sequence_value(edges, sequence) -> tuple[int | None, str]:
    """(value, "") of a proper clique sequence, or (None, reason)."""
    union: set = set()
    for i, member in enumerate(sequence):
        if len(member) != 5 or len(set(member)) != 5:
            return None, f"member {i} is not 5 distinct vertices"
        new = clique_edges(member)
        if new <= union:
            return None, f"member {i} adds no new edge"
        union |= new
    return len(union | set(edges)) - len(sequence), ""


# -- per-output checks --------------------------------------------------------

def check_rank(n: int, edges, text: str) -> list[str]:
    out = json.loads(text)
    edges = sorted(_edge(*e) for e in edges)
    problems = []
    if out.get("n") != n or out.get("s") != 2:
        problems.append("wrong n or s")
    if sorted(_edge(*e) for e in out["edges"]) != edges:
        problems.append("edge list differs from the input")
    rank = out["rank"]
    indep = [_edge(*e) for e in out["independent_set"]]
    if not set(indep) <= set(edges) or len(set(indep)) != len(indep):
        problems.append("independent set is not a subset of F")
    if len(indep) != rank:
        problems.append(f"independent set has {len(indep)} edges, rank is {rank}")
    elif rank_of(n, indep) != rank:
        problems.append("independent set is not independent")
    value, why = sequence_value(edges, [tuple(m) for m in out["k5_sequence"]])
    if value is None:
        problems.append(f"sequence is not proper: {why}")
    elif value != rank:
        problems.append(f"sequence value {value} differs from rank {rank}")
    return problems


def check_dress(n: int, edges, text: str) -> list[str]:
    out = json.loads(text)
    problems = []
    members = [tuple(sorted(m)) for m in out["members"]]
    closed = closure_of(n, edges)
    if set(members) != maximal_cliques(n, closed):
        problems.append("members are not the maximal 5+-cliques of the closure")
    covered = set().union(*(clique_edges(m) for m in members)) if members else set()
    if sorted(closed - covered) != sorted(_edge(*e) for e in out["f0_edges"]):
        problems.append("f0_edges differ from the uncovered closure edges")
    for a, b in combinations(members, 2):
        if len(set(a) & set(b)) > 2:
            problems.append(f"members {a} and {b} share more than 2 vertices")
    hinges = {tuple(h["pair"]): h["degree"] for h in out["hinges"]}
    if hinges != hinges_of(members):
        problems.append("hinge table differs from the members")
    val_d = dress_value(members)
    if out["val_d"] != val_d:
        problems.append(f"val_d {out['val_d']} differs from recomputed {val_d}")
    order = out["shelling"]
    if sorted(order) != list(range(len(members))):
        problems.append("shelling is not a permutation of the members")
    else:
        seen: set = set()
        for i in order:
            if seen and len(seen & set(members[i])) > 4:
                problems.append(f"shelling step {i} meets its predecessors in > 4")
            seen |= set(members[i])
    if out["rank"] != len(out["f0_edges"]) + out["val_d"]:
        problems.append("rank is not |F0| + val_d")
    if out["rank"] != rank_of(n, edges):
        problems.append("rank differs from the checker's rank")
    return problems


def check_oracle(op: str, n: int, edges, answer, edge=None) -> list[str]:
    edges = sorted(_edge(*e) for e in edges)
    elim = Elimination(n)
    circuits = [elim.add(e) for e in edges]
    rank = elim.rank
    if op == "rank":
        want = rank
    elif op == "is_rigid":
        want = rank == 3 * n - 6
    elif op == "closure":
        want = sorted(e for e in combinations(range(n), 2)
                      if e in set(edges) or elim.spans(e))
    elif op == "basis_of":
        want = sorted(elim.basis)
    elif op == "cyc":
        want = sorted(set().union(*(c for c in circuits if c)))
    elif op == "fundamental_circuit":
        circuit = elim.add(edge)
        want = sorted(circuit) if circuit else None
    else:
        return [f"unknown operation {op}"]
    if isinstance(answer, list):
        answer = sorted(_edge(*e) for e in answer)
    return [] if answer == want else [f"{op}: answer differs from the checker"]


def check_suite(name: str, text: str, seed: int) -> list[str]:
    """Problems with the JSON of ``cofrig verify NAME --seed SEED``."""
    suite = json.loads(text)
    if suite.get("suite") != name or suite.get("seed") != seed:
        return [f"suite {name} with seed {seed} was asked for, "
                f"{suite.get('suite')} with seed {suite.get('seed')} came back"]
    checks = suite.get("checks") or []
    if not suite.get("passed") or not checks or not all(c["passed"] for c in checks):
        return [f"suite {name} did not pass"]
    return []
