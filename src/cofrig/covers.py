"""Clique covers, hinges, and cover-based rank formulas.

A cover collects vertex sets of size ≥ 5 whose cliques absorb an edge set.
Pairs of vertices arising as two members' exact intersection are *hinges*;
the Dress value

    val_D(𝒳) = Σ (3|X| − 6)  −  Σ (deg(h) − 1)

prices the cover: each member is worth the rank of its clique and every
hinge refunds the over-counted shared edge.  For a flat F, the maximal
cliques of size ≥ 5 form a 2-thin, 4-shellable cover whose value (plus the
uncovered edges) equals the rank of F; this module builds that witness and
checks the equality against the field oracle.
"""

from __future__ import annotations

from functools import cached_property
from itertools import combinations

from .errors import AmbientMismatch, WitnessMismatch
from .graphs import CliqueFamily, EdgeSet, peel_order, union_of

__all__ = [
    "CliqueCover",
    "maximal_cliques",
    "hinge_table",
    "val_D",
    "find_shellable_order",
    "is_M_degenerate",
    "dress_value",
    "dress_rank",
]


class CliqueCover(CliqueFamily):
    """A family of distinct vertex sets of size ≥ 5 inside K_n, given as
    sorted tuples."""

    def __init__(self, n: int, members):
        super().__init__(n, members)
        if len(set(self.members)) != len(self.members):
            raise ValueError("duplicate cover members")

    def _check_member(self, i: int, m: tuple[int, ...]) -> None:
        if len(set(m)) != len(m) or len(m) < 5:
            raise ValueError(f"member {i} must have >= 5 distinct vertices, got {m}")

    @cached_property
    def meets(self) -> dict[tuple[int, int], tuple[int, ...]]:
        """Shared vertices of each member pair (i, j), i < j, meeting in two or
        more vertices: the pairwise intersections, computed once per cover."""
        sets = [set(m) for m in self.members]
        shared = {(i, j): sets[i] & sets[j]
                  for i, j in combinations(range(len(sets)), 2)}
        return {pair: tuple(sorted(s)) for pair, s in shared.items() if len(s) >= 2}

    @cached_property
    def hinges(self) -> dict[tuple[int, int], int]:
        """Each hinge, in sorted order, mapped to the number of members
        containing it."""
        pairs = sorted({shared for shared in self.meets.values() if len(shared) == 2})
        return {(x, y): sum(x in m and y in m for m in self.members) for x, y in pairs}

    def covers(self, F: EdgeSet) -> bool:
        if F.n != self.n:
            raise AmbientMismatch(f"edge set in K_{F.n} vs cover in K_{self.n}")
        return not F.mask & ~self.union_edges().mask


def _maximal_cliques(F: EdgeSet, size: int) -> tuple[tuple[int, ...], ...]:
    """The maximal cliques of (V(F), F) with ≥ size vertices, as sorted
    tuples in lexicographic order (Bron–Kerbosch with pivoting)."""
    adjacency = {v: F.neighbors(v) for v in F.vertex_support()}
    found: list[tuple[int, ...]] = []

    def expand(clique: set[int], cands: set[int], done: set[int]):
        if not cands and not done:
            if len(clique) >= size:
                found.append(tuple(sorted(clique)))
            return
        pivot = max(cands | done, key=lambda u: len(adjacency[u] & cands))
        for v in sorted(cands - adjacency[pivot]):
            expand(clique | {v}, cands & adjacency[v], done & adjacency[v])
            cands = cands - {v}
            done = done | {v}

    if adjacency:
        expand(set(), set(adjacency), set())
    return tuple(sorted(found))


def maximal_cliques(F: EdgeSet) -> tuple[CliqueCover, EdgeSet]:
    """All maximal cliques of (V(F), F) with ≥ 5 vertices, plus F₀.

    F₀ is the set of edges lying in no listed clique.  Enumeration is
    branch-and-bound with pivoting; members come out lexicographically.
    """
    cover = CliqueCover(F.n, _maximal_cliques(F, 5))
    return cover, F - cover.union_edges()


def hinge_table(cover: CliqueCover):
    """Hinge degrees plus any 2-thin violations.

    Returns ``(hinges, violations)``: ``hinges`` maps each vertex pair that
    is the exact intersection of two members to the number of members
    containing it; ``violations`` lists (i, j, shared vertices) for member
    pairs meeting in 3 or more vertices.
    """
    violations = [(i, j, shared) for (i, j), shared in cover.meets.items()
                  if len(shared) >= 3]
    return dict(cover.hinges), violations


def val_D(cover: CliqueCover) -> int:
    """Σ(3|X|−6) over members minus Σ(deg(h)−1) over hinges."""
    total = sum(3 * len(m) - 6 for m in cover.members)
    return total - sum(deg - 1 for deg in cover.hinges.values())


def _shelling_order(members, overlap: int) -> tuple[int, ...] | None:
    """An order of the vertex sets ``members`` with every member meeting its
    predecessors' union in at most ``overlap`` vertices, or None if there is
    none.

    The overlap only shrinks with fewer predecessors, so ``peel_order``
    decides this exactly.
    """
    sets = [sum(1 << v for v in m) for m in members]
    return peel_order(len(sets), lambda i, before:
                      (sets[i] & union_of(sets, before)).bit_count() <= overlap)


def find_shellable_order(cover: CliqueCover) -> tuple[int, ...] | None:
    """An order with every member meeting its predecessors' union in ≤ 4
    vertices, or None if there is none."""
    return _shelling_order(cover.members, 4)


def is_M_degenerate(cover: CliqueCover, oracle) -> tuple[bool, tuple[int, ...] | None]:
    """An order keeping every step's applicable hinge edges independent in
    the oracle's matroid.

    When member i joins the placed members, the applicable hinges are those
    that are the exact intersection of two members of the grown prefix and
    lie inside member i.  Fewer predecessors leave a subset of those hinges,
    which stays independent, so ``peel_order`` decides this exactly.
    """
    if cover.n != oracle.n:
        raise AmbientMismatch(f"cover in K_{cover.n} vs oracle on K_{oracle.n}")

    def fits(i: int, before: int) -> bool:
        prefix, inside = before | 1 << i, set(cover.members[i])
        hinges = [h for (a, b), h in cover.meets.items() if len(h) == 2
                  and prefix >> a & prefix >> b & 1 and inside.issuperset(h)]
        return oracle.independent(EdgeSet.from_edges(cover.n, hinges))

    order = peel_order(len(cover.members), fits)
    return order is not None, order


def dress_value(F: EdgeSet):
    """``(value, cover, F0, shelling_order)`` of F's maximal cliques on five
    or more vertices: the value is |F₀| + val_D, or None unless the cover is
    2-thin and 4-shellable."""
    cover, f0 = maximal_cliques(F)
    order = None if hinge_table(cover)[1] else find_shellable_order(cover)
    return (None if order is None else len(f0) + val_D(cover)), cover, f0, order


def dress_rank(F: EdgeSet, oracle):
    """Rank of a flat from its maximal cliques: |F₀| + val_D(𝒳*).

    Builds 𝒳* (maximal cliques of size ≥ 5) and the uncovered rest F₀,
    requires 𝒳* to be 2-thin and 4-shellable (``dress_value``), and checks
    the formula against the oracle rank.  Any failure raises WitnessMismatch
    with a diagnostic payload, since on a flat all three facts are guaranteed.

    Returns ``(value, cover, F0, shelling_order)``.
    """
    if oracle.s != 2:
        raise ValueError(f"the clique-cover formula needs s = 2, got s = {oracle.s}")
    if not oracle.is_flat(F):
        raise ValueError("dress_rank requires a flat (closure(F) == F)")
    value, cover, f0, order = dress = dress_value(F)
    rank = oracle.rank(F)
    if value != rank:
        hinges, violations = hinge_table(cover)
        raise WitnessMismatch(
            "maximal cliques of a flat are not 2-thin" if violations
            else "maximal cliques of a flat admit no 4-shellable order"
            if order is None else "clique-cover formula disagrees with the oracle rank",
            detail={
                "n": F.n,
                "edges": [list(e) for e in F.sorted_edges()],
                "members": [list(m) for m in cover.members],
                "F0": [list(e) for e in f0.sorted_edges()],
                "hinges": {f"{x},{y}": d for (x, y), d in hinges.items()},
                "seeds": list(oracle.seeds),
                "violations": violations,
                "value": value,
                "rank": rank,
            },
        )
    return dress
