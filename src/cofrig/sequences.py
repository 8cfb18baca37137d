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
from itertools import combinations
from typing import NamedTuple

from .covers import _maximal_cliques, _shelling_order, dress_value
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
    "dress_certificate",
    "find_simplicial_base_vertex",
]


class CircuitSequence(CliqueFamily):
    """An ordered list of (d+2)-vertex cliques inside K_n.

    Each member is stored as a sorted vertex tuple.  The cliques of order
    d+2 are exactly the minimal rank-deficient complete subgraphs in
    dimension d, which is why sequences of them can witness ranks.
    """

    def __init__(self, n: int, members, d: int = 3):
        object.__setattr__(self, "d", d)
        super().__init__(n, members)

    def _fields(self) -> dict:
        return {**super()._fields(), "d": self.d}

    def _check_member(self, i: int, m: tuple[int, ...]) -> None:
        size = self.d + 2
        if len(m) != size or len(set(m)) != size:
            raise ValueError(f"member {i} must have {size} distinct vertices, got {m}")

    def _walk(self) -> tuple[int | None, int]:
        """improper_index, and the union of the cliques before that index."""
        seen = 0
        for i, mask in enumerate(self.edge_masks()):
            if not mask & ~seen:
                return i, seen
            seen |= mask
        return None, seen

    def improper_index(self) -> int | None:
        """Index of the first clique adding no new edge, or None if proper."""
        return self._walk()[0]

    @property
    def is_proper(self) -> bool:
        return self.improper_index() is None


def seq_value(F: EdgeSet, seq: CircuitSequence) -> int:
    """|F ∪ union of clique edges| − t for a proper sequence of t cliques."""
    if F.n != seq.n:
        raise AmbientMismatch(
            f"edge set lives in K_{F.n} but sequence lives in K_{seq.n}"
        )
    bad, union = seq._walk()
    if bad is not None:
        raise ValueError(
            f"sequence is not proper: member {bad} {seq.members[bad]} adds no new edge"
        )
    return (F.mask | union).bit_count() - len(seq)


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


class RankCertificate(NamedTuple):
    """Matching algebraic and combinatorial rank witnesses for an edge set.

    ``independent_set`` is one seed's base of F (the lower witness): the
    rows its peel-order basis took in, which need not be the
    lexicographically greedy base.  ``sequence`` is a proper clique sequence
    whose value equals the base's size (the upper witness).  Verifying
    either side is cheap, which is what makes the pair a certificate.
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


def _first_proving_seed(F: EdgeSet, oracle, witness):
    """``(B, C, proof)`` of the first seed whose witness meets its base.

    ``oracle.seed_closure`` gives a seed's base B and closure C of F, and
    ``witness(B, C)`` returns a proper sequence value bounding rank(F) from
    above (or None), the cliques behind it, and the proof to return.  B is
    independent at its seed, so generically: |B| <= rank(F) <= value, and
    where they meet no later seed runs.
    """
    tried = []
    for idx, seed in enumerate(oracle.seeds):
        base, closure = oracle.seed_closure(F, idx)
        value, cliques, proof = witness(base, closure)
        if value == len(base):
            return base, closure, proof
        tried.append({"seed": seed, "base_size": len(base), "sequence_value": value,
                      "cliques": cliques if cliques is None
                      else [list(m) for m in cliques.members]})
    raise WitnessMismatch("no seed's base size meets its sequence value", detail={
        "n": F.n, "s": oracle.s, "seeds": list(oracle.seeds),
        "edges": [list(e) for e in F.sorted_edges()], "per_seed": tried})


def rank_certificate(F: EdgeSet, oracle) -> RankCertificate:
    """Certify rank(F) with a maximum independent set and a sequence, both
    from the first seed whose witnesses meet (``_first_proving_seed``).

    The sequence S is built, not searched for, from the maximal
    (d+2)-cliques of that seed's closure C, d = s + 1, ordered so that each
    meets the earlier ones in at most d + 1 vertices.  Each member X in turn
    contributes ``covering_sequence(|X|, d)`` with its shared vertices
    labelled first, so every clique adds an edge at a vertex that no earlier
    member holds and S is proper.  For s = 2 the paper's cover theorem (the
    maximal cliques of a flat are 2-thin and 4-shellable) makes its value
    the rank; for s = 0 and 1 the members are the components and the rigid
    components.  A base B with |B| = |F| gets the empty sequence and reads
    no closure, so an F that is its own peel base asks no seed.  Once
    value(F, S) = |B| nothing is left to check: an edge of F outside S's
    union is a coloop, since value(F - e, S) = |B| - 1.  If no seed gets
    there, WitnessMismatch carries each seed's base size, value and
    sequence; nothing falls back to a search.
    """
    d = oracle.s + 1
    if oracle.peel_base(F) == F:
        empty = CircuitSequence(F.n, (), d)
        return RankCertificate(F, len(F), F, empty, oracle.s, tuple(oracle.seeds))

    def witness(base: EdgeSet, closure: EdgeSet):
        cliques, order = (), ()
        if len(base) < len(F):
            cliques = _maximal_cliques(closure, d + 2)
            if (order := _shelling_order(cliques, d + 1)) is None:
                return None, None, None
        members, seen = [], set()
        for X in (cliques[i] for i in order):
            label = sorted(seen.intersection(X)) + sorted(set(X) - seen)
            members += [tuple(label[v] for v in c)
                        for c in covering_sequence(len(X), d).members]
            seen.update(X)
        seq = CircuitSequence(F.n, tuple(members), d)
        return seq_value(F, seq), seq, seq

    base, _, seq = _first_proving_seed(F, oracle, witness)
    return RankCertificate(F, len(base), base, seq, oracle.s, tuple(oracle.seeds))


def dress_certificate(F: EdgeSet, oracle):
    """The closure C of F and its rank |F₀| + val_D, from the first seed
    whose closure's cover proves both (``_first_proving_seed``).

    A seed proves C = cl(F) when C's maximal cliques on five or more
    vertices are 2-thin and 4-shellable and |F₀| + val_D is the size of its
    base B: that is the value on C of C's cover sequence (a member X adds
    C(|X|, 2) - C(|X| - 3, 2) = 3|X| - 6, a hinge's edge counts once), so
    rank(F) <= rank(C) <= |B| <= rank(F), and every edge outside C lifted
    the seed's rank of F + e above |B| or is a coloop of F + e
    (``seed_closure``).

    Returns ``(C, value, cover, F0, shelling_order)``.
    """
    if oracle.s != 2:
        raise ValueError(f"the clique-cover formula needs s = 2, got s = {oracle.s}")

    def witness(_, closure: EdgeSet):
        dress = dress_value(closure)
        return dress[0], dress[1], dress

    _, closure, dress = _first_proving_seed(F, oracle, witness)
    return closure, *dress


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
