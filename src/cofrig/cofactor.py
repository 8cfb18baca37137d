"""Randomized evaluation oracle for generic cofactor rigidity matroids.

For smoothness order s, the row of edge ij (i < j) carries the block

    D_ij = (dx^s, dx^(s-1)*dy, ..., dy^s),  dx = x_i - x_j, dy = y_i - y_j,

of length s+1 at vertex i, its negation at vertex j, and zeros elsewhere.
s = 0 gives the signed incidence matrix (graphic matroid), s = 1 the
two-dimensional generic rigidity matroid, and s = 2 the matroid this package
is about: the maximal abstract 3-rigidity matroid.

Ranks are evaluated at random points of GF(p).  An evaluation rank is never
above the generic rank (a nonzero minor mod p lifts to a nonzero generic
minor), so the maximum over several seeds is a sound lower bound, and it is
exact whenever it meets the combinatorial upper bound d*|V| - C(d+1,2).

Columns run over the vertices in reverse: vertex v's block sits at columns
(s+1)(n-1-v) .. (s+1)(n-1-v) + s, so the row of ij has its leftmost key in
j's block, and the field kernel pivots an edge on its higher endpoint.  The
oracle inserts rows in edge order, grouped by the lower endpoint i, so a
star at i pivots on the blocks of its other ends and needs no clearing;
pivoting on i's block instead would clear every later edge at i against the
first ones and spread entries over all of i's earlier neighbours.  A column
permutation changes the rank of no set of rows, so every rank, base, coloop
and circuit is the same under either order; only the fill-in differs.

A seed's *motions* are the kernel of its evaluated rows (for s = 1, the
infinitesimal motions of a plane framework; Whiteley 1996).  ``closure``
tests each row against one random motion per seed; a row outside the span
passes with probability 1/p, and the seed then ranks F + e too low.
"""

from __future__ import annotations

import random
from bisect import insort
from dataclasses import dataclass
from functools import cache

from . import matroids
from .errors import AmbientMismatch, SeedDisagreement
from .field import (MERSENNE61, EchelonBasis, independent_subsets, is_prime,
                    subset_rank_table)
from .graphs import EdgeSet, bits, edge_at, edge_count, edge_index

DEFAULT_SEEDS = (101, 202, 303)
MIN_MODULUS = (1 << 31) - 1
# How many recent masks keep their per-seed echelon bases.
SPAN_CACHE = 4


@dataclass(frozen=True)
class GenericConfiguration:
    """Random plane positions in GF(p)^2 for n vertices."""

    n: int
    seed: int
    p: int
    points: tuple[tuple[int, int], ...]

    @classmethod
    def generate(cls, n: int, seed: int, p: int = MERSENNE61) -> "GenericConfiguration":
        rng = random.Random(seed)
        points = tuple((rng.randrange(p), rng.randrange(p)) for _ in range(n))
        return cls(n, seed, p, points)


def cofactor_row(edge, config: GenericConfiguration, s: int) -> dict[int, int]:
    """Evaluated cofactor row of an edge, as a sparse {column: entry} dict:
    the (s+1)-block D_ij at vertex i and its negation at vertex j.

    Vertex v's block starts at column (s+1)(n-1-v), so j > i lies left of i
    and the row pivots in j's block.  Edges inserted in order, grouped by
    their lower endpoint, then fill in only near the star they join (see the
    module docstring)."""
    i, j = sorted(edge)
    p = config.p
    xi, yi = config.points[i]
    xj, yj = config.points[j]
    dx = (xi - xj) % p
    dy = (yi - yj) % p
    w = s + 1
    at_i, at_j = w * (config.n - 1 - i), w * (config.n - 1 - j)
    row = {}
    for t in range(w):
        b = pow(dx, s - t, p) * pow(dy, t, p) % p
        if b:
            row[at_i + t] = b
            row[at_j + t] = p - b
    return row


def _vertex_cap(v: int, d: int) -> int:
    """Cap on the rank of any edge set on v vertices, d = s + 1."""
    return v * (v - 1) // 2 if v <= d + 1 else d * v - (d + 1) * d // 2


def generic_rank_upper_bound(F: EdgeSet, s: int) -> int:
    """Matroid-theoretic cap on the rank of F in the order-s cofactor matroid."""
    return min(len(F), _vertex_cap(len(F.vertex_support()), s + 1))


class CofactorOracle:
    """Rank oracle for the generic C_s^(s-1) cofactor matroid on E(K_n).

    Every rank is decided by one rule over k random evaluations (default
    three seeds), asked for in seed order: the first seed to meet the
    combinatorial cap gives the rank; otherwise the maximum does, unless a
    strict majority of seeds falls below it, and then the oracle aborts with
    a diagnostic instead of guessing.  Results are memoized per edge bitmask.

    The modulus must be a prime of at least 2^31 - 1, which keeps the chance
    that one seed drops below the generic rank under about 1e-7 for n <= 60.
    """

    def __init__(self, n: int, s: int = 2, seeds=DEFAULT_SEEDS,
                 modulus: int = MERSENNE61):
        if n < 1:
            raise ValueError("need at least one vertex")
        if s < 0:
            raise ValueError("smoothness order must be nonnegative")
        seeds = tuple(seeds)
        if not seeds:
            raise ValueError("need at least one seed")
        if len(set(seeds)) != len(seeds):
            raise ValueError("seeds must be distinct")
        if modulus < MIN_MODULUS or not is_prime(modulus):
            raise ValueError(f"modulus {modulus} is not a prime >= 2^31 - 1")
        self.n = n
        self.s = s
        self.seeds = seeds
        self.modulus = modulus
        self.configs = tuple(
            GenericConfiguration.generate(n, seed, modulus) for seed in seeds)
        self._row_cache: list[dict[int, dict[int, int]]] = [{} for _ in seeds]
        self._memo: dict[int, int] = {0: 0}
        self._spans: dict[int, list[EchelonBasis | None]] = {}
        self._table: list[int] | None = None
        # masks that closure and cyc returned: flats and cyclic sets
        self._flats: set[int] = set()
        self._cyclic: set[int] = set()

    # -- plumbing ----------------------------------------------------------

    @property
    def dim(self) -> int:
        return self.s + 1

    def _check(self, F: EdgeSet) -> None:
        if F.n != self.n:
            raise AmbientMismatch(
                f"edge set lives in K_{F.n}, oracle in K_{self.n}"
            )

    def _row(self, edge_bit: int, seed_idx: int) -> dict[int, int]:
        """The evaluated row of an edge as a sparse {column: entry} dict."""
        cache = self._row_cache[seed_idx]
        row = cache.get(edge_bit)
        if row is None:
            row = cache[edge_bit] = cofactor_row(
                edge_at(self.n, edge_bit), self.configs[seed_idx], self.s)
        return row

    def _spans_of(self, mask: int) -> list[EchelonBasis | None]:
        """The per-seed echelon bases of mask, None where not yet built, kept
        for the last SPAN_CACHE masks asked for."""
        slots = self._spans.pop(mask, None) or [None] * len(self.seeds)
        self._spans[mask] = slots
        if len(self._spans) > SPAN_CACHE:
            del self._spans[next(iter(self._spans))]
        return slots

    def _seed_basis(self, mask: int, seed_idx: int) -> EchelonBasis:
        """One seed's echelon basis of the rows of mask, in edge order, kept
        in the mask's span slot.

        It stops once it reaches the proven cap: no evaluation rank exceeds
        the generic rank, so that prefix already spans every row of mask.
        """
        slots = self._spans_of(mask)
        if slots[seed_idx] is None:
            cap = generic_rank_upper_bound(EdgeSet(self.n, mask), self.s)
            slots[seed_idx] = self._greedy(bits(mask), seed_idx, cap)[0]
        return slots[seed_idx]

    def _greedy(self, elems, seed_idx: int, stop: int):
        """One seed's echelon basis of the rows of elems, inserted in the
        given order until its rank reaches stop, and the mask of the
        elements whose rows grew it."""
        basis, base = EchelonBasis(self.modulus), 0
        for b in elems:
            if basis.rank == stop:
                break
            if basis.insert(self._row(b, seed_idx)):
                base |= 1 << b
        return basis, base

    def _decide(self, mask: int, seed_rank, cap: int | None = None) -> int:
        """The rank of a mask by the seed rule of _vote, memoized: a table
        or memo hit asks no seed.  A caller that knows the mask's cap passes
        it, which spares a vertex-support count."""
        if self._table is not None:
            return self._table[mask]
        got = self._memo.get(mask)
        if got is not None:
            return got
        if cap is None:
            cap = generic_rank_upper_bound(EdgeSet(self.n, mask), self.s)
        self._memo[mask] = r = self._vote(mask, seed_rank, cap)
        return r

    def _vote(self, mask: int, seed_rank, cap: int) -> int:
        """The rank of a mask from its per-seed ranks, asked for lazily in
        seed order: a seed meeting the proven cap ends the asking, and
        otherwise the maximum stands unless a strict majority of seeds falls
        below it."""
        per_seed = []
        for idx in range(len(self.seeds)):
            r = seed_rank(idx)
            if r == cap:
                # meets the proven cap, so it is the generic rank
                return r
            per_seed.append(r)
        r = max(per_seed)
        if 2 * sum(x < r for x in per_seed) > len(per_seed):
            raise SeedDisagreement(
                "strict majority of seeds fell below the maximum rank",
                detail={"mask": mask, "n": self.n, "s": self.s,
                        "seeds": self.seeds, "ranks": per_seed,
                        "modulus": self.modulus})
        return r

    def _tagged_pass(self, elems: list[int], seed_idx: int):
        """One elimination of the rows of elems, in the given order.

        The row of the t-th element carries its tag as the one extra key
        width + t, a unit vector right of the real columns, so a row that
        reduces to zero on the real columns is left with the combination of
        earlier basis rows it equals: its keys from width on are its
        fundamental circuit.  Returns the basis mask and the circuits of the
        rejected elements, in order.
        """
        width = self.dim * self.n
        basis = EchelonBasis(self.modulus)
        base, circuits = 0, []
        for t, b in enumerate(elems):
            pair = basis.reduce({**self._row(b, seed_idx), width + t: 1})
            if pair[0] < width:
                insort(basis.pairs, pair)
                base |= 1 << b
            else:
                circuit = 0
                for j in pair[1]:
                    if j >= width:
                        circuit |= 1 << elems[j - width]
                circuits.append(circuit)
        return base, circuits

    # -- core queries ------------------------------------------------------

    def rank(self, F: EdgeSet) -> int:
        self._check(F)
        return self._decide(F.mask, lambda idx: self._seed_basis(F.mask, idx).rank)

    def independent(self, F: EdgeSet) -> bool:
        return self.rank(F) == len(F)

    def is_rigid(self, F: EdgeSet) -> bool:
        """Whether F spans the whole matroid: rank d*n - C(d+1,2)."""
        self._check(F)
        d = self.dim
        if self.n < d + 2:
            raise ValueError(f"rigidity needs ambient n >= {d + 2}")
        return self.rank(F) == d * self.n - (d + 1) * d // 2

    def closure(self, F: EdgeSet) -> EdgeSet:
        """All edges of K_n whose addition leaves the rank unchanged.

        A seed's rank of F + e is its rank of F plus whether the row of e
        fails to annihilate one random motion of F, drawn from the seed
        alone: 2(s+1) products, no reduction.  F + e is capped by F's vertex
        support and e's endpoints, and voted unless the table has it, not
        memoized.  The seeds whose rank of F is the decided rank r file their
        basis under the closure C: an edge joins C only if no seed ranks
        F + e above r, so it spans C's rows too.  C is remembered as a flat,
        so closing it again, as is_flat does, votes nothing.
        """
        self._check(F)
        if F.mask in self._flats:
            return F
        basis = cache(lambda idx: self._seed_basis(F.mask, idx))
        support = F.vertex_support()
        r = self._decide(F.mask, lambda idx: basis(idx).rank,
                         min(len(F), _vertex_cap(len(support), self.dim)))
        p, out, width = self.modulus, F.mask, self.dim * self.n

        @cache
        def motion(idx):
            rng = random.Random(f"motion:{self.seeds[idx]}")
            return basis(idx).motion([rng.randrange(p) for _ in range(width)])

        for bit in bits(((1 << edge_count(self.n)) - 1) & ~F.mask):
            def with_e(idx):
                w = motion(idx)
                return basis(idx).rank + (
                    sum(c * w[j] for j, c in self._row(bit, idx).items()) % p != 0)
            v_e = len(support) + sum(u not in support for u in edge_at(self.n, bit))
            cap = min(len(F) + 1, _vertex_cap(v_e, self.dim))
            x = F.mask | 1 << bit
            if (self._vote(x, with_e, cap) if self._table is None
                    else self._table[x]) == r:
                out |= 1 << bit
        if out != F.mask:
            filed = self._spans_of(out)
            for idx, b in enumerate(self._spans_of(F.mask)):
                if b is not None and b.rank == r:
                    filed[idx] = b
        self._flats.add(out)
        return EdgeSet(self.n, out)

    def is_flat(self, F: EdgeSet) -> bool:
        return self.closure(F).mask == F.mask

    def cyc(self, F: EdgeSet) -> EdgeSet:
        """F minus its restriction coloops, i.e. the union of circuits in F.

        One tagged pass per seed gives that seed's rank of F and its coloops:
        the basis elements in no recorded circuit.  Dropping e lowers a seed's
        rank exactly when e is one of its coloops, which gives every rank of
        F - e without a further elimination.  F - e is capped by its vertex
        support and voted unless the table has it, not memoized.  The result
        is remembered as a cyclic set, so is_cyclic of it votes nothing.
        """
        self._check(F)
        if F.mask in self._cyclic:
            return F
        elems = list(bits(F.mask))

        @cache
        def seed_pass(idx):
            base, circuits = self._tagged_pass(elems, idx)
            for circuit in circuits:
                base &= ~circuit
            return len(elems) - len(circuits), base

        support = F.vertex_support()
        r = self._decide(F.mask, lambda idx: seed_pass(idx)[0],
                         min(len(elems), _vertex_cap(len(support), self.dim)))
        keep = 0
        for b in elems:
            def without(idx):
                r_i, coloops = seed_pass(idx)
                return r_i - (coloops >> b & 1)
            v_e = len(support) - sum(F.degree(u) == 1 for u in edge_at(self.n, b))
            cap = min(len(elems) - 1, _vertex_cap(v_e, self.dim))
            x = F.mask & ~(1 << b)
            if (self._vote(x, without, cap) if self._table is None
                    else self._table[x]) == r:
                keep |= 1 << b
        self._cyclic.add(keep)
        return EdgeSet(self.n, keep)

    def is_cyclic(self, F: EdgeSet) -> bool:
        return self.cyc(F).mask == F.mask

    def basis_of(self, F: EdgeSet) -> EdgeSet:
        """Lexicographically greedy base of F, as extend_basis qualifies it."""
        self._check(F)
        return self.extend_basis(EdgeSet.empty(self.n), F)

    def extend_basis(self, independent: EdgeSet, F: EdgeSet) -> EdgeSet:
        """Greedily extend an independent subset of F to a base of F.

        Each seed in turn inserts the rows of the starting set and then those
        of the rest of F, in increasing order, until its rank reaches
        rank(F).  A set independent at one evaluation is generically
        independent, so the first seed whose base reaches rank(F) and keeps
        the starting set gives a base of F.  It is the lexicographically
        greedy base unless that seed is degenerate on some prefix of F, where
        it may skip an element the generic greedy takes.  If no seed gets
        there, the seeds disagree and SeedDisagreement is raised.
        """
        self._check(F)
        start = independent.mask
        if not independent.issubset(F):
            raise ValueError("starting set is not contained in F")
        if not self.independent(independent):
            raise ValueError("starting set is dependent")
        target = self.rank(F)
        elems = [*bits(start), *bits(F.mask & ~start)]
        ranks = []
        for idx in range(len(self.seeds)):
            basis, base = self._greedy(elems, idx, target)
            if basis.rank == target and base & start == start:
                return EdgeSet(self.n, base)
            ranks.append(basis.rank)
        raise SeedDisagreement(
            "no seed extends the starting set to a base of the decided rank",
            detail={"mask": F.mask, "start": start, "rank": target,
                    "n": self.n, "s": self.s, "seeds": self.seeds,
                    "ranks": ranks, "modulus": self.modulus})

    def fundamental_circuit(self, B: EdgeSet, e) -> EdgeSet:
        """The unique circuit inside B + e, for B independent with e in cl(B).

        Every seed on which B stays independent writes the row of e, in one
        tagged pass, as a combination of the rows of B.  Its support lies
        inside the generic circuit, and is all of it unless a coefficient
        vanishes at that seed's point, so the union over those seeds is
        returned: the greedy rank-derived answer whenever the seeds agree.
        """
        self._check(B)
        bit = edge_index(self.n, *e)
        if B.mask >> bit & 1:
            raise ValueError("element is already in the base")
        if not self.independent(B):
            raise ValueError("B is not independent")
        elems = [*bits(B.mask), bit]
        seed_pass = cache(lambda idx: self._tagged_pass(elems, idx))
        if self._decide(B.mask | 1 << bit,
                        lambda idx: seed_pass(idx)[0].bit_count()) != len(B):
            raise ValueError("element is not in the closure of the base")
        circuit = 0
        for idx in range(len(self.seeds)):
            base, circuits = seed_pass(idx)
            if base == B.mask:
                circuit |= circuits[0]
        return EdgeSet(self.n, circuit)

    # -- whole-powerset table ---------------------------------------------

    def rank_table(self) -> list[int]:
        """Rank of every subset of E(K_n), indexed by bitmask (n small).

        Seed 0's table comes from its bases, found by one depth-first walk
        over the r-subsets of its rows, r its rank of E(K_n): a linear
        matroid ranks X as the largest |X & B| over its bases B.  The masks
        it ranks below their cap, read off its levels, go through _vote; seed
        k ranks, in one table restricted to them and their parent chains, the
        masks on which seeds 0..k-1 all fell below the cap.  The finished
        table then serves as the memo.
        """
        if self._table is not None:
            return self._table
        m = edge_count(self.n)
        if m > 16:
            raise ValueError(f"rank table over {m} edges is not tractable")
        full, rows = (1 << m) - 1, [self._row(b, 0) for b in range(m)]
        r = subset_rank_table(rows, self.modulus, [full])[full]
        first = matroids.ExplicitMatroid.from_bases(
            m, independent_subsets(rows, r, self.modulus))
        table, levels = first.full_table(), first.levels
        independent = sum(lv & sz for lv, sz in zip(levels, matroids.size_bits(m)))
        # on[v]: the masks whose edges touch exactly v of the vertices so far
        on = [levels[0]]
        for u in range(self.n):
            star = EdgeSet.complete(self.n).star(u).mask
            at_u = levels[0] & ~matroids.down_closure(1 << (full & ~star), m)
            on = [a & ~at_u | b & at_u for a, b in zip([*on, 0], [0, *on])]
        cap = {}
        for v, on_v in enumerate(on):
            c = _vertex_cap(v, self.dim)
            below = on_v & ~independent & ~(levels[c] if c <= r else 0)
            cap.update((x, min(x.bit_count(), c)) for x in matroids.members(below))
        asked = sorted(cap)
        ranks, below = [table], asked
        for idx in range(1, len(self.seeds)):
            if not below:
                break
            ranks.append(subset_rank_table(
                [self._row(b, idx) for b in range(m)], self.modulus, below))
            below = [x for x in below if ranks[idx][x] < cap[x]]
        for x in asked:
            # reads table[x], seed 0's rank, before overwriting it
            table[x] = self._vote(x, lambda idx: ranks[idx][x], cap[x])
        self._table = table
        return table

    def explicit_matroid(self) -> matroids.ExplicitMatroid:
        return matroids.ExplicitMatroid.from_table(self.rank_table())

