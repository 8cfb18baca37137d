"""Clique sequences: combinatorial certificates for cofactor ranks.

A *clique sequence* is an ordered list of (d+2)-vertex sets inside K_n.  It
is proper when every clique contributes at least one edge unseen in the union
of the earlier cliques.  For an edge set F the quantity

    value(F, C) = |F ∪ (union of the cliques' edges)| − (number of cliques)

bounds the rank of F in the d-dimensional generic cofactor matroid from
above, and the minimum over all proper sequences attains the rank exactly.
This module evaluates sequence values, builds the explicit covering sequence
behind the dn − C(d+1, 2) upper bound, computes the minimum value of every
edge set of K_6 at once on level bitsets, and builds tight sequences from
the maximal cliques of a closure, packaged with a maximum independent set
as rank certificates.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import combinations

from .covers import _maximal_cliques, _shelling_order
from .errors import AmbientMismatch, CapExceeded, WitnessMismatch
from .graphs import CliqueFamily, EdgeSet, bits, clique_mask, complete_edges, edge_count
from .matroids import ENUM_CAP, down_closure, element_bits, uniform_matroid

__all__ = [
    "CircuitSequence",
    "RankCertificate",
    "seq_value",
    "covering_sequence",
    "min_sequence_levels",
    "rank_certificate",
    "find_simplicial_base_vertex",
]


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


def rank_certificate(F: EdgeSet, oracle) -> RankCertificate:
    """Certify oracle rank(F) with a maximum independent set and a sequence.

    The sequence is built, not searched for, from the maximal (d+2)-cliques
    of C = closure(F), d = s + 1.  They are ordered so that each meets the
    earlier ones in at most d + 1 vertices, and each member X in turn
    contributes ``covering_sequence(|X|, d)`` with its shared vertices
    labelled first, so every clique adds an edge at a vertex that no
    earlier member holds and the sequence is proper.  For s = 2 the paper's
    cover theorem (the maximal cliques of a flat are 2-thin and
    4-shellable) makes its value the rank; for s = 0 and 1 the members are
    the components and the rigid components.  An independent F gets the
    empty sequence.  The value, the closure and the coloops outside the
    union are re-checked, and any failure raises WitnessMismatch with a
    diagnostic payload; nothing falls back to a search.
    """
    d = oracle.s + 1
    rank = oracle.rank(F)
    closure = oracle.closure(F)
    lower = oracle.basis_of(F)
    seq = CircuitSequence(F.n, (), d)
    value = len(F)

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
    if rank < len(F):
        cliques = _maximal_cliques(closure, d + 2)
        order = _shelling_order(cliques, d + 1)
        if order is None:
            bail("the closure's maximal cliques admit no shelling order")
        members, seen = [], set()
        for X in (cliques[i] for i in order):
            label = sorted(seen.intersection(X)) + sorted(set(X) - seen)
            members += [tuple(label[v] for v in c)
                        for c in covering_sequence(len(X), d).members]
            seen.update(X)
        seq = CircuitSequence(F.n, tuple(members), d)
        value = seq_value(F, seq)
    if value != rank:
        bail("clique-cover sequence value does not match the oracle rank")
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
