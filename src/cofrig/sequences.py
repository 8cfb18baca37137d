"""Clique sequences: combinatorial certificates for cofactor ranks.

A *clique sequence* is an ordered list of (d+2)-vertex sets inside K_n.  It
is proper when every clique contributes at least one edge unseen in the union
of the earlier cliques.  For an edge set F the quantity

    value(F, C) = |F ∪ (union of the cliques' edges)| − (number of cliques)

bounds the rank of F in the d-dimensional generic cofactor matroid from
above, and the minimum over all proper sequences attains the rank exactly.
This module evaluates sequence values, builds the explicit covering sequence
behind the dn − C(d+1, 2) upper bound, searches exhaustively for the
minimum on small vertex pools, and packages matching algebraic/combinatorial
witness pairs as rank certificates.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

from .errors import AmbientMismatch, CapExceeded, WitnessMismatch
from .graphs import EdgeSet, complete_edges, order_search

__all__ = [
    "CircuitSequence",
    "RankCertificate",
    "seq_value",
    "covering_sequence",
    "proper_order",
    "min_sequence_value",
    "rank_certificate",
    "find_simplicial_base_vertex",
]

DEFAULT_POOL_CAP = 9


@lru_cache(maxsize=None)
def _clique_mask(n: int, verts: tuple[int, ...]) -> int:
    return complete_edges(n, verts).mask


@dataclass(frozen=True)
class CircuitSequence:
    """An ordered list of (d+2)-vertex cliques inside K_n.

    Each member is stored as a sorted vertex tuple.  The cliques of order
    d+2 are exactly the minimal rank-deficient complete subgraphs in
    dimension d, which is why sequences of them can witness ranks.
    """

    n: int
    members: tuple[tuple[int, ...], ...]
    d: int = 3

    def __post_init__(self):
        members = tuple(tuple(sorted(m)) for m in self.members)
        object.__setattr__(self, "members", members)
        size = self.d + 2
        for i, m in enumerate(members):
            if len(m) != size or len(set(m)) != size:
                raise ValueError(
                    f"member {i} must have {size} distinct vertices, got {m}"
                )
            if m[0] < 0 or m[-1] >= self.n:
                raise ValueError(f"member {i} does not fit inside K_{self.n}: {m}")

    def __len__(self) -> int:
        return len(self.members)

    def edge_masks(self) -> list[int]:
        return [_clique_mask(self.n, m) for m in self.members]

    def union_edges(self) -> EdgeSet:
        mask = 0
        for m in self.edge_masks():
            mask |= m
        return EdgeSet(self.n, mask)

    def improper_index(self) -> int | None:
        """Index of the first clique adding no new edge, or None if proper."""
        seen = 0
        for i, mask in enumerate(self.edge_masks()):
            if not mask & ~seen:
                return i
            seen |= mask
        return None

    @property
    def is_proper(self) -> bool:
        return self.improper_index() is None


def seq_value(F: EdgeSet, seq: CircuitSequence) -> int:
    """|F ∪ union of clique edges| − t for a proper sequence of t cliques."""
    if F.n != seq.n:
        raise AmbientMismatch(
            f"edge set lives in K_{F.n} but sequence lives in K_{seq.n}"
        )
    bad = seq.improper_index()
    if bad is not None:
        raise ValueError(
            f"sequence is not proper: member {bad} {seq.members[bad]} adds no new edge"
        )
    return len(F | seq.union_edges()) - len(seq)


def covering_sequence(n: int, d: int = 3) -> CircuitSequence:
    """A proper sequence of C(n−d, 2) cliques whose union covers E(K_n).

    Start with the clique on the first d+2 vertices; every later vertex i is
    tied in by the cliques on {0..d−1} ∪ {j, i} for each previously handled
    j ≥ d.  Evaluating on E(K_n) gives the dn − C(d+1, 2) rank upper bound.
    """
    if d < 1:
        raise ValueError("dimension must be at least 1")
    if n < d + 2:
        raise ValueError(f"need at least {d + 2} vertices, got {n}")
    members = [tuple(range(d + 2))]
    pivot = tuple(range(d))
    for i in range(d + 2, n):
        for j in range(d, i):
            members.append(pivot + (j, i))
    return CircuitSequence(n, tuple(members), d)


def _proper_order_masks(masks: list[int]) -> tuple[int, ...] | None:
    """Reorder edge masks so each adds a new edge; None if impossible.

    Greedy first (take the first clique that extends the union), with full
    backtracking and a failed-state memo behind it.  Any subset of an
    orderable family is orderable, so callers may prune supersets of a
    failure.
    """

    def moves(used: int, union: int):
        for i, mask in enumerate(masks):
            if not used >> i & 1 and mask & ~union:
                yield i, union | mask

    return order_search(len(masks), moves, 0)


def proper_order(n: int, cliques, d: int = 3) -> tuple[int, ...] | None:
    """Indices ordering the given cliques into a proper sequence, or None."""
    masks = [_clique_mask(n, tuple(sorted(c))) for c in cliques]
    return _proper_order_masks(masks)


class _SearchDone(Exception):
    """Internal: cuts the subset search once ``stop_at`` has been attained."""


def min_sequence_value(
    F: EdgeSet,
    vertex_pool=None,
    *,
    d: int = 3,
    cap_n: int = DEFAULT_POOL_CAP,
    force: bool = False,
    candidates=None,
    stop_at: int | None = None,
) -> tuple[int, CircuitSequence]:
    """Minimum sequence value of F over proper sequences from a clique pool.

    The search runs over unordered candidate subsets (a subset is usable
    iff some ordering of it is proper), so each family is priced once.  Ties
    among minimizers break toward fewer cliques, then the lexicographically
    smallest clique set.  Candidates default to all (d+2)-subsets of the
    vertex pool, which itself defaults to the support of F; pools larger
    than ``cap_n`` vertices raise CapExceeded unless ``force`` is set.

    ``stop_at`` is for callers who already hold a trusted lower bound on
    every sequence value (every proper sequence values F at or above the
    rank, so the oracle rank qualifies): the search returns the first
    witness attaining the bound, skipping both the remaining subsets and
    the tie-break canonicalization.

    Dense edge sets on 8+ support vertices make the exhaustive search
    expensive; prefer an explicit ``candidates`` list (or an oracle-backed
    certificate, which restricts candidates to the closure) in that regime.

    Returns ``(value, witness)`` where witness is a proper sequence
    achieving the value.
    """
    n = F.n
    size = d + 2
    per_clique = size * (size - 1) // 2
    if candidates is not None:
        cliques = sorted({tuple(sorted(c)) for c in candidates})
        for c in cliques:
            if len(c) != size or len(set(c)) != size:
                raise ValueError(f"candidate {c} must have {size} distinct vertices")
            if c[0] < 0 or c[-1] >= n:
                raise ValueError(f"candidate {c} does not fit inside K_{n}")
    else:
        pool = sorted(vertex_pool) if vertex_pool is not None else sorted(F.vertex_support())
        if pool and (pool[0] < 0 or pool[-1] >= n):
            raise ValueError(f"vertex pool {pool} does not fit inside K_{n}")
        if len(pool) > cap_n and not force:
            raise CapExceeded(
                f"vertex pool has {len(pool)} > {cap_n} vertices; "
                "pass force=True, a smaller pool, or explicit candidates"
            )
        cliques = list(combinations(pool, size))

    fmask = F.mask
    cliques.sort(key=lambda c: ((_clique_mask(n, c) & ~fmask).bit_count(), c))
    masks = [_clique_mask(n, c) for c in cliques]
    count = len(cliques)
    suffix_or = [0] * (count + 1)
    for i in range(count - 1, -1, -1):
        suffix_or[i] = suffix_or[i + 1] | masks[i]

    # Best = (value, clique count, sorted clique tuple); empty sequence seeds it.
    best = [len(F), 0, ()]
    best_members: list[tuple[int, ...]] = []
    if stop_at is not None and best[0] <= stop_at:
        return best[0], CircuitSequence(n, (), d)

    def settle(chosen: list[int], start: int, union: int, witness: tuple[int, ...]):
        here = (fmask | union).bit_count() - len(chosen)
        if (here, len(chosen)) <= (best[0], best[1]):
            entry = [here, len(chosen), tuple(sorted(cliques[i] for i in chosen))]
            if entry < best:
                best[:] = entry
                best_members[:] = [cliques[i] for i in witness]
                if stop_at is not None and best[0] <= stop_at:
                    raise _SearchDone
        for i in range(start, count):
            child_union = union | masks[i]
            if masks[i] & ~union:
                child_witness = witness + (i,)
            else:
                # The new clique is swallowed by the current union; only a
                # full reordering of the whole subset can salvage properness.
                reordered = _proper_order_masks([masks[j] for j in chosen] + [masks[i]])
                if reordered is None:
                    continue
                picked = chosen + [i]
                child_witness = tuple(picked[j] for j in reordered)
            k1 = len(chosen) + 1
            child_w = (fmask | child_union).bit_count()
            # Any deeper family must keep adding fresh edges, so its size is
            # capped by the edges still reachable; price the subtree floor.
            avail = (child_union | suffix_or[i + 1]).bit_count()
            qmax = min(count - i - 1, max(0, avail - per_clique + 1 - k1))
            floor = child_w - k1 - qmax
            if floor > best[0] or (floor == best[0] and k1 > best[1]):
                continue
            settle(chosen + [i], i + 1, child_union, child_witness)

    try:
        settle([], 0, 0, ())
    except _SearchDone:
        pass
    witness = CircuitSequence(n, tuple(best_members), d)
    return best[0], witness


@dataclass(frozen=True)
class RankCertificate:
    """Matching algebraic and combinatorial rank witnesses for an edge set.

    ``independent_set`` is a maximum independent subset found by the field
    oracle (the lower witness); ``sequence`` is a proper clique sequence
    whose value equals the rank (the upper witness).  Verifying either side
    is cheap, which is what makes the pair a certificate.
    """

    F: EdgeSet
    rank: int
    independent_set: EdgeSet
    sequence: CircuitSequence
    s: int
    seeds: tuple[int, ...]

    def to_json(self) -> str:
        payload = {
            "n": self.F.n,
            "s": self.s,
            "edges": [list(e) for e in self.F.sorted_edges()],
            "rank": self.rank,
            "independent_set": [list(e) for e in self.independent_set.sorted_edges()],
            "k5_sequence": [list(m) for m in self.sequence.members],
            "seeds": list(self.seeds),
        }
        return json.dumps(payload, indent=2)


def rank_certificate(F: EdgeSet, oracle, *, candidates=None) -> RankCertificate:
    """Certify oracle rank(F) with a maximum independent set and a sequence.

    Candidates default to the cliques lying inside closure(F): a minimizing
    sequence always fits there, because at equality the clique union is
    forced into the closure and everything it misses is a coloop.  The same
    two tightness conditions are re-checked on the winning sequence; any
    disagreement raises WitnessMismatch with a diagnostic payload, since it
    would mean a bug rather than new mathematics.
    """
    d = oracle.s + 1
    rank = oracle.rank(F)
    lower = oracle.basis_of(F)
    closure = oracle.closure(F)
    if candidates is None:
        verts = sorted(closure.vertex_support())
        cmask = closure.mask
        candidates = [
            c
            for c in combinations(verts, d + 2)
            if not _clique_mask(F.n, c) & ~cmask
        ]
    value, seq = min_sequence_value(F, d=d, candidates=candidates, stop_at=rank)

    def bail(message: str, **extra):
        raise WitnessMismatch(
            message,
            detail={
                "n": F.n,
                "s": oracle.s,
                "seeds": list(oracle.seeds),
                "edges": [list(e) for e in F.sorted_edges()],
                "oracle_rank": rank,
                "sequence_value": value,
                "sequence": [list(m) for m in seq.members],
                "independent_set": [list(e) for e in lower.sorted_edges()],
                **extra,
            },
        )

    if len(lower) != rank:
        bail("maximum independent set does not match the oracle rank")
    if value != rank:
        bail("minimum sequence value does not match the oracle rank")
    union = seq.union_edges()
    if union.mask & ~closure.mask:
        stray = EdgeSet(F.n, union.mask & ~closure.mask)
        bail(
            "tight sequence leaves the closure",
            stray_edges=[list(e) for e in stray.sorted_edges()],
        )
    for u, v in (F - union).edges():
        if oracle.rank(F.remove(u, v)) != rank - 1:
            bail(
                "edge outside the sequence union is not a coloop",
                edge=[u, v],
            )
    return RankCertificate(
        F=F,
        rank=rank,
        independent_set=lower,
        sequence=seq,
        s=oracle.s,
        seeds=tuple(oracle.seeds),
    )


def find_simplicial_base_vertex(X: EdgeSet, oracle) -> tuple[int, EdgeSet]:
    """A vertex v with K(N_X(v)) ⊆ X together with a base of X where d(v)=3.

    Scans vertices in increasing order; for each simplicial vertex it builds
    a base greedily, starting from a base of the neighbourhood clique, then
    the rest of X away from v, then the edges at v.  Every nonempty cyclic
    flat of the 3-dimensional matroid admits such a vertex; failing to find
    one is reported as an implementation failure.
    """
    if oracle.s != 2:
        raise ValueError(f"simplicial base vertices need s = 2, got s = {oracle.s}")
    if not oracle.is_flat(X):
        raise ValueError("X must be a flat (closure(X) == X)")
    if not oracle.is_cyclic(X):
        raise ValueError("X must be cyclic (no coloops)")
    if not X:
        raise ValueError("X must be nonempty")
    rank = oracle.rank(X)
    for v in sorted(X.vertex_support()):
        hood = complete_edges(X.n, sorted(X.neighbors(v)))
        if hood.mask & ~X.mask:
            continue
        base = oracle.basis_of(hood)
        base = oracle.extend_basis(base, X - X.star(v))
        base = oracle.extend_basis(base, X)
        if len(base) != rank:
            raise RuntimeError("greedy base construction lost rank")
        if base.degree(v) == 3:
            return v, base
    raise RuntimeError(
        "no simplicial vertex with a degree-3 base found; "
        "this should be impossible for a nonempty cyclic flat"
    )
