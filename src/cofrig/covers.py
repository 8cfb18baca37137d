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

from dataclasses import dataclass
from itertools import combinations

from .errors import AmbientMismatch, CapExceeded, WitnessMismatch
from .graphs import EdgeSet, complete_edges, order_search

__all__ = [
    "CliqueCover",
    "maximal_cliques",
    "hinge_table",
    "val_D",
    "find_shellable_order",
    "is_k_degenerate",
    "is_M_degenerate",
    "cover_upper_bound",
    "dress_rank",
]

SEARCH_CAP = 12


@dataclass(frozen=True)
class CliqueCover:
    """A family of vertex sets of size ≥ 5 inside K_n, given as sorted tuples.

    ``shelling``, if present, is an ordering of the members under which each
    one meets the union of its predecessors in at most 4 vertices.
    """

    n: int
    members: tuple[tuple[int, ...], ...]
    shelling: tuple[int, ...] | None = None

    def __post_init__(self):
        members = tuple(tuple(sorted(m)) for m in self.members)
        object.__setattr__(self, "members", members)
        for i, m in enumerate(members):
            if len(set(m)) != len(m) or len(m) < 5:
                raise ValueError(f"member {i} must have >= 5 distinct vertices, got {m}")
            if m[0] < 0 or m[-1] >= self.n:
                raise ValueError(f"member {i} does not fit inside K_{self.n}: {m}")
        if len(set(members)) != len(members):
            raise ValueError("duplicate cover members")
        if self.shelling is not None:
            order = tuple(self.shelling)
            object.__setattr__(self, "shelling", order)
            if sorted(order) != list(range(len(members))):
                raise ValueError("shelling must be a permutation of the member indices")
            seen: set[int] = set()
            for i in order:
                overlap = len(seen & set(members[i]))
                if seen and overlap > 4:
                    raise ValueError(
                        f"member {i} meets the union of its predecessors "
                        f"in {overlap} > 4 vertices"
                    )
                seen |= set(members[i])

    def __len__(self) -> int:
        return len(self.members)

    def member_edges(self, i: int) -> EdgeSet:
        return complete_edges(self.n, self.members[i])

    def union_edges(self) -> EdgeSet:
        mask = 0
        for m in self.members:
            mask |= complete_edges(self.n, m).mask
        return EdgeSet(self.n, mask)

    def covers(self, F: EdgeSet) -> bool:
        if F.n != self.n:
            raise AmbientMismatch(f"edge set in K_{F.n} vs cover in K_{self.n}")
        return not F.mask & ~self.union_edges().mask


def maximal_cliques(F: EdgeSet, min_size: int = 5) -> tuple[CliqueCover, EdgeSet]:
    """All maximal cliques of (V(F), F) with ≥ min_size vertices, plus F₀.

    F₀ is the set of edges lying in no listed clique.  Enumeration is
    branch-and-bound with pivoting; members come out lexicographically.
    """
    adjacency = {v: F.neighbors(v) for v in F.vertex_support()}
    found: list[tuple[int, ...]] = []

    def expand(clique: set[int], cands: set[int], done: set[int]):
        if not cands and not done:
            if len(clique) >= min_size:
                found.append(tuple(sorted(clique)))
            return
        pivot = max(cands | done, key=lambda u: len(adjacency[u] & cands))
        for v in sorted(cands - adjacency[pivot]):
            expand(clique | {v}, cands & adjacency[v], done & adjacency[v])
            cands = cands - {v}
            done = done | {v}

    if adjacency:
        expand(set(), set(adjacency), set())
    cover = CliqueCover(F.n, tuple(sorted(found)))
    covered = cover.union_edges()
    return cover, F - covered


def hinge_table(cover: CliqueCover):
    """Hinge degrees plus any 2-thin violations.

    Returns ``(hinges, violations)``: ``hinges`` maps each vertex pair that
    is the exact intersection of two members to the number of members
    containing it; ``violations`` lists (i, j, shared vertices) for member
    pairs meeting in 3 or more vertices.
    """
    sets = [set(m) for m in cover.members]
    pairs: set[tuple[int, int]] = set()
    violations: list[tuple[int, int, tuple[int, ...]]] = []
    for i, j in combinations(range(len(sets)), 2):
        shared = sets[i] & sets[j]
        if len(shared) == 2:
            x, y = sorted(shared)
            pairs.add((x, y))
        elif len(shared) >= 3:
            violations.append((i, j, tuple(sorted(shared))))
    hinges = {
        pair: sum(1 for s in sets if pair[0] in s and pair[1] in s)
        for pair in sorted(pairs)
    }
    return hinges, violations


def val_D(cover: CliqueCover) -> int:
    """Σ(3|X|−6) over members minus Σ(deg(h)−1) over hinges."""
    hinges, _ = hinge_table(cover)
    total = sum(3 * len(m) - 6 for m in cover.members)
    return total - sum(deg - 1 for deg in hinges.values())


def find_shellable_order(
    cover: CliqueCover, k: int = 4, cap: int = SEARCH_CAP
) -> tuple[int, ...] | None:
    """An order with every member meeting its predecessors' union in ≤ k
    vertices, or None once backtracking has exhausted all orders.

    Greedy (smallest overlap first) with full backtracking behind it, so a
    None answer is a certificate of absence.
    """
    sets = [set(m) for m in cover.members]

    def moves(used: int, union: set[int]):
        ranked = sorted(
            (len(s & union), i) for i, s in enumerate(sets) if not used >> i & 1
        )
        for overlap, i in ranked:
            if used and overlap > k:
                return
            yield i, union | sets[i]

    return _capped_search(cover, cap, moves, set())


def _step_hinge_edges(cover: CliqueCover, prefix_mask: int, last: int) -> EdgeSet:
    """Hinges of the prefix family that lie inside the last-placed member.

    The prefix family is every member indexed by ``prefix_mask`` (which
    includes ``last``); a hinge between any two of them counts as soon as
    both its vertices belong to member ``last``.
    """
    sets = [set(m) for m in cover.members]
    idx = [i for i in range(len(sets)) if prefix_mask >> i & 1]
    inside = sets[last]
    mask = 0
    for a, b in combinations(idx, 2):
        shared = sets[a] & sets[b]
        if len(shared) == 2 and shared <= inside:
            x, y = sorted(shared)
            mask |= complete_edges(cover.n, (x, y)).mask
    return EdgeSet(cover.n, mask)


def _capped_search(cover: CliqueCover, cap: int, moves, start):
    """order_search over the members, refusing covers of more than cap."""
    count = len(cover.members)
    if count > cap:
        raise CapExceeded(f"cover has {count} > {cap} members")
    return order_search(count, moves, start)


def _degenerate_order(cover: CliqueCover, step_ok, cap: int):
    """First-fit order search where each placed member must pass step_ok."""

    def moves(used: int, _):
        for i in range(len(cover.members)):
            if not used >> i & 1 and step_ok(used | 1 << i, i):
                yield i, None

    return _capped_search(cover, cap, moves, None)


def is_k_degenerate(
    cover: CliqueCover, k: int, cap: int = SEARCH_CAP
) -> tuple[bool, tuple[int, ...] | None]:
    """Search for an order keeping every step's applicable hinge count ≤ k."""

    def step_ok(prefix_mask: int, last: int) -> bool:
        return len(_step_hinge_edges(cover, prefix_mask, last)) <= k

    order = _degenerate_order(cover, step_ok, cap)
    return order is not None, order


def is_M_degenerate(
    cover: CliqueCover, oracle, cap: int = SEARCH_CAP
) -> tuple[bool, tuple[int, ...] | None]:
    """Search for an order keeping every step's applicable hinge edges
    independent in the oracle's matroid."""
    if cover.n != oracle.n:
        raise AmbientMismatch(f"cover in K_{cover.n} vs oracle on K_{oracle.n}")

    def step_ok(prefix_mask: int, last: int) -> bool:
        return oracle.independent(_step_hinge_edges(cover, prefix_mask, last))

    order = _degenerate_order(cover, step_ok, cap)
    return order is not None, order


def cover_upper_bound(F: EdgeSet, cover: CliqueCover, oracle) -> int:
    """val_D of an M-degenerate cover of F, checked to bound rank(F) above."""
    if not cover.covers(F):
        missing = F - cover.union_edges()
        raise ValueError(
            f"not a cover of F: uncovered edges {missing.sorted_edges()}"
        )
    ok, _ = is_M_degenerate(cover, oracle)
    if not ok:
        raise ValueError("cover is not M-degenerate for this oracle")
    value = val_D(cover)
    rank = oracle.rank(F)
    if rank > value:
        raise WitnessMismatch(
            "M-degenerate cover value fell below the oracle rank",
            detail={
                "n": F.n,
                "edges": [list(e) for e in F.sorted_edges()],
                "members": [list(m) for m in cover.members],
                "val_D": value,
                "rank": rank,
                "seeds": list(oracle.seeds),
            },
        )
    return value


def dress_rank(F: EdgeSet, oracle):
    """Rank of a flat from its maximal cliques: |F₀| + val_D(𝒳*).

    Builds 𝒳* (maximal cliques of size ≥ 5) and the uncovered rest F₀,
    requires 𝒳* to be 2-thin and 4-shellable, and checks the formula against
    the oracle rank.  Any failure raises WitnessMismatch with a diagnostic
    payload, since on a flat all three facts are guaranteed.

    Returns ``(value, cover, F0, shelling_order)``.
    """
    if oracle.s != 2:
        raise ValueError(f"the clique-cover formula needs s = 2, got s = {oracle.s}")
    if not oracle.is_flat(F):
        raise ValueError("dress_rank requires a flat (closure(F) == F)")
    cover, f0 = maximal_cliques(F, 5)
    hinges, violations = hinge_table(cover)

    def bail(message: str, **extra):
        raise WitnessMismatch(
            message,
            detail={
                "n": F.n,
                "edges": [list(e) for e in F.sorted_edges()],
                "members": [list(m) for m in cover.members],
                "F0": [list(e) for e in f0.sorted_edges()],
                "hinges": {f"{x},{y}": d for (x, y), d in hinges.items()},
                "seeds": list(oracle.seeds),
                **extra,
            },
        )

    if violations:
        bail("maximal cliques of a flat are not 2-thin", violations=violations)
    order = find_shellable_order(cover, 4)
    if order is None:
        bail("maximal cliques of a flat admit no 4-shellable order")
    value = len(f0) + val_D(cover)
    rank = oracle.rank(F)
    if value != rank:
        bail(
            "clique-cover formula disagrees with the oracle rank",
            val_D=val_D(cover),
            value=value,
            rank=rank,
        )
    return value, cover, f0, order
