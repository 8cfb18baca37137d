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
from itertools import combinations

from .errors import AmbientMismatch, CapExceeded, WitnessMismatch
from .graphs import (
    CliqueFamily, EdgeSet, bits, clique_mask, complete_edges, edge_count,
    peel_order, union_of)
from .matroids import ENUM_CAP, down_closure, element_bits, uniform_matroid

__all__ = [
    "CircuitSequence",
    "RankCertificate",
    "seq_value",
    "covering_sequence",
    "proper_order",
    "min_sequence_value",
    "min_sequence_levels",
    "rank_certificate",
    "find_simplicial_base_vertex",
]

DEFAULT_POOL_CAP = 9


@dataclass(frozen=True)
class CircuitSequence(CliqueFamily):
    """An ordered list of (d+2)-vertex cliques inside K_n.

    Each member is stored as a sorted vertex tuple.  The cliques of order
    d+2 are exactly the minimal rank-deficient complete subgraphs in
    dimension d, which is why sequences of them can witness ranks.
    """

    d: int = 3

    def _check_member(self, i: int, m: tuple[int, ...]) -> None:
        size = self.d + 2
        if len(m) != size or len(set(m)) != size:
            raise ValueError(f"member {i} must have {size} distinct vertices, got {m}")

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

    A clique adding a new edge after some cliques adds it after any subset
    of them, so ``peel_order`` decides this exactly, and any subset of an
    orderable family is orderable: callers may prune supersets of a failure.
    """
    return peel_order(len(masks), lambda i, before:
                      masks[i] & ~union_of(masks, before))


def proper_order(n: int, cliques) -> tuple[int, ...] | None:
    """Indices ordering the given cliques into a proper sequence, or None."""
    return _proper_order_masks([clique_mask(n, tuple(sorted(c))) for c in cliques])


class _SearchDone(Exception):
    """Internal: cuts the subset search once ``stop_at`` has been attained."""


def min_sequence_value(
    F: EdgeSet,
    vertex_pool=None,
    *,
    d: int = 3,
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
    than ``DEFAULT_POOL_CAP`` vertices raise CapExceeded unless ``force`` is
    set.

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
        # the sequence member rule validates and normalizes every candidate
        cliques = sorted(set(CircuitSequence(n, tuple(candidates), d).members))
    else:
        pool = sorted(vertex_pool) if vertex_pool is not None else sorted(F.vertex_support())
        if pool and (pool[0] < 0 or pool[-1] >= n):
            raise ValueError(f"vertex pool {pool} does not fit inside K_{n}")
        if len(pool) > DEFAULT_POOL_CAP and not force:
            raise CapExceeded(
                f"vertex pool has {len(pool)} > {DEFAULT_POOL_CAP} vertices; "
                "lift the cap with force (--force on the command line), "
                "or search a smaller pool or explicit candidates"
            )
        cliques = list(combinations(pool, size))

    fmask = F.mask
    cliques.sort(key=lambda c: ((clique_mask(n, c) & ~fmask).bit_count(), c))
    masks = [clique_mask(n, c) for c in cliques]
    count = len(cliques)
    suffix_or = [0] * (count + 1)
    for i in range(count - 1, -1, -1):
        suffix_or[i] = suffix_or[i + 1] | masks[i]

    # Best = (value, clique count, sorted clique tuple); empty sequence seeds it.
    best = [len(F), 0, ()]
    best_chosen: list[int] = []
    if stop_at is not None and best[0] <= stop_at:
        return best[0], CircuitSequence(n, (), d)

    def settle(chosen: list[int], start: int, union: int):
        here = (fmask | union).bit_count() - len(chosen)
        if (here, len(chosen)) <= (best[0], best[1]):
            entry = [here, len(chosen), tuple(sorted(cliques[i] for i in chosen))]
            if entry < best:
                best[:] = entry
                best_chosen[:] = chosen
                if stop_at is not None and best[0] <= stop_at:
                    raise _SearchDone
        for i in range(start, count):
            child_union = union | masks[i]
            # A clique swallowed by the current union needs the whole subset
            # reordered; if no order is proper, no superset's is either.
            if not masks[i] & ~union and _proper_order_masks(
                    [masks[j] for j in chosen] + [masks[i]]) is None:
                continue
            k1 = len(chosen) + 1
            child_w = (fmask | child_union).bit_count()
            # Any deeper family must keep adding fresh edges, so its size is
            # capped by the edges still reachable; price the subtree floor.
            avail = (child_union | suffix_or[i + 1]).bit_count()
            qmax = min(count - i - 1, max(0, avail - per_clique + 1 - k1))
            floor = child_w - k1 - qmax
            if floor > best[0] or (floor == best[0] and k1 > best[1]):
                continue
            settle(chosen + [i], i + 1, child_union)

    try:
        settle([], 0, 0)
    except _SearchDone:
        pass
    order = _proper_order_masks([masks[i] for i in best_chosen])
    witness = CircuitSequence(n, tuple(cliques[best_chosen[j]] for j in order), d)
    return best[0], witness


def min_sequence_levels(n: int) -> list[int]:
    """The minimum sequence value (d = 3) of every edge set of K_n at once,
    as level bitsets oriented like ``ExplicitMatroid.levels``: bit x of
    entry k is set when the edge set with mask x has value >= k.

    With tau(G) the size of the largest proper family of K5s inside G, the
    minimum value of F is min over G ⊇ F of |G| - tau(G) (take G = F ∪ the
    cliques).  The last clique of a proper family has an edge e no earlier
    one has, and any K5 through e extends a proper family inside G - e, so
    tau(G) > k iff tau(G - e) >= k for some e on a K5 inside G.
    """
    m = edge_count(n)
    if m > ENUM_CAP:
        raise CapExceeded(f"sequence levels over {m} edges")
    with_e = element_bits(m)
    every = (1 << (1 << m)) - 1
    on_clique = [0] * m  # on_clique[e]: the edge sets holding a K5 through e
    for c in combinations(range(n), 5):
        edges = list(bits(clique_mask(n, c)))
        holds = every
        for e in edges:
            holds &= with_e[e]
        for e in edges:
            on_clique[e] |= holds
    tau = [every]  # tau[k]: the edge sets G with tau(G) >= k
    while tau[-1]:
        tau.append(0)
        for e in range(m):
            tau[-1] |= on_clique[e] & (tau[-2] & ~with_e[e]) << (1 << e)
    sizes = uniform_matroid(m, m).levels + [0]  # sizes[j]: >= j edges
    levels = [every]
    while levels[-1]:
        # value <= r: a subset of some G with tau(G) >= k and |G| <= r + k
        r, low = len(levels) - 1, 0
        for k, family in enumerate(tau):
            low |= family & ~sizes[min(r + k + 1, m + 1)]
        levels.append(every & ~down_closure(low, m))
    return levels[:-1]


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


def rank_certificate(F: EdgeSet, oracle, *, vertex_pool=None,
                     force: bool = False) -> RankCertificate:
    """Certify oracle rank(F) with a maximum independent set and a sequence.

    Candidates default to the cliques lying inside closure(F): a minimizing
    sequence always fits there, because at equality the clique union is
    forced into the closure and everything it misses is a coloop.  Given a
    ``vertex_pool``, the search runs over all its cliques instead, under the
    pool cap of ``min_sequence_value`` that ``force`` lifts.  The same two
    tightness conditions are re-checked on the winning sequence; any
    disagreement raises WitnessMismatch with a diagnostic payload, since it
    would mean a bug rather than new mathematics.  The search runs before
    any oracle work it does not need, so a pool over the cap fails fast.
    """
    d = oracle.s + 1
    rank = oracle.rank(F)
    closure = candidates = None
    if vertex_pool is None:
        closure = oracle.closure(F)
        cmask = closure.mask
        candidates = [
            c
            for c in combinations(sorted(closure.vertex_support()), d + 2)
            if not clique_mask(F.n, c) & ~cmask
        ]
    value, seq = min_sequence_value(F, vertex_pool, d=d, force=force,
                                    candidates=candidates, stop_at=rank)
    lower = oracle.basis_of(F)
    if closure is None:
        closure = oracle.closure(F)

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
    outside = F - union
    if outside:
        # every edge outside the union must be a coloop: one cyc answers all
        in_circuits = outside & oracle.cyc(F)
        if in_circuits:
            u, v = next(in_circuits.edges())
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
