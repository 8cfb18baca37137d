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

cofactor_row puts vertex v's block at the column a layout gives it, and
the oracle lays every row out by a least-degree peel of a mask: the k-th
peeled vertex v takes the k-th block, columns (s+1)k .. (s+1)k + s.  The
bases behind rank, closure, cyc and fundamental circuits take their mask's
peel, where up to s+1 of v's edges to vertices not yet peeled go in first,
ahead of all other rows; a greedy base takes the peel of the set it spans
and a rank table that of E(K_n), each keeping its own row order.  Read
backwards, the peel adds each vertex to the later ones with at most s+1
edges, a 0-extension, which keeps a set generically independent for every
s (Whiteley 1996).  So a mask's rank is at least the number of its
0-extension rows, and where they number its count cap, that is its rank:
``_decide`` answers such a mask from the peel alone, with no seed asked and
no row evaluated, and the peel order is a witness one can check by hand.
Below the cap the seeds build their bases from the same peel, where the
0-extension rows pivot in v's own block and clear only against each other,
with almost no fill-in; the peel lays them out in rounds, each vertex's
k-th row in the k-th round, and a round's rows share one inverse.  One walk
(``_walk``) builds every seed basis: ``_seed_basis`` and ``_coloop_pass``
walk the peel, rounds first, and ``extend_basis`` walks F in edge order.  A
column permutation changes the rank of no set of rows, so no rank depends
on the layout; only the fill-in does.  A rank table sweeps the minors of
the rows' dual (``field.dual_rows``), seed by seed, and returns the first
seed's table whose circuits each have more edges than their count cap
(``generic_rank_upper_bound``), which proves it generic.

The same fact settles many closure and cyc questions with no seed, read
off the peel's cores: every edge outside the (s+2)-core of a set, what is
left after deleting vertices of degree at most s + 1 until none is left, is
a coloop of it, since the peel makes it a 0-extension row.  So ``cyc`` votes
only on the edges of F's (s+2)-core.  Adding a non-edge e raises no degree
by more than one, so the (s+2)-core of F + e lies inside F's (s+1)-core; an
e with an end outside that is a coloop of F + e and never in cl(F), and
``closure`` and ``seed_closure`` test only the non-edges inside it.  Both
vote on each element left in one routine (``_vote_each``), under
rank(F) + 1 for F + e and rank(F) for F - e.

A seed's *motions* are the kernel of its evaluated rows (for s = 1, the
infinitesimal motions of a plane framework; Whiteley 1996).
``seed_closure`` tests each non-edge left open against one random motion of
one seed, with no vote, and ``closure`` votes on each with the same test;
the walk tests its later rows the same way once one of them falls in the
span.  A row outside the span passes with probability 1/p; the seed then
ranks the set one too low, never too high.  So a motion test is only ever
added to its own seed's rank of the set, never to a peel-proven rank: a
degenerate seed ranks the set below it, and the sum could rank some F + e
above its generic rank.  A certificate (``sequences``) is proven by the
first seed whose base meets its clique sequence, and its
``independent_set`` is the peel's 0-extension rows where they prove the
cap, else that seed's peel-order base; neither need be lexicographically
greedy.  A seed's *self-stresses* are the linear relations among its rows:
``cyc`` reads its coloops, the rows in no circuit, as the rows where one
random self-stress vanishes, which errs the same way.
"""

from __future__ import annotations

import random
from functools import cache
from typing import NamedTuple

from . import matroids
from .errors import AmbientMismatch, CapExceeded, SeedDisagreement
from .field import MERSENNE61, EchelonBasis, bases_by_minors, dual_rows, is_prime
from .graphs import EdgeSet, _edge_table, bits, edge_at, edge_count, edge_index, stars

DEFAULT_SEEDS = (101, 202, 303)
MIN_MODULUS = (1 << 31) - 1


def cofactor_row(edge, points, p: int, s: int, at) -> dict[int, int]:
    """Evaluated cofactor row of an edge at the plane points, one per
    vertex in GF(p)^2, as a sparse {column: entry} dict: the (s+1)-block
    D_ij at vertex i and its negation at vertex j.

    Vertex v's block starts at column at[v]; the oracle lays every row out
    by a mask's peel (see the module docstring).  The powers of dx and dy
    are running products."""
    i, j = edge
    if i > j:
        i, j = j, i
    xi, yi = points[i]
    xj, yj = points[j]
    dx = (xi - xj) % p
    dy = (yi - yj) % p
    w = s + 1
    at_i, at_j = at[i], at[j]
    xs, ys = [1] * w, [1] * w
    for t in range(1, w):
        xs[t] = xs[t - 1] * dx % p
        ys[t] = ys[t - 1] * dy % p
    row = {}
    for t in range(w):
        b = xs[s - t] * ys[t] % p
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


class _Peel(NamedTuple):
    """The peel of the last mask peeled (CofactorOracle._peel), and per seed
    its echelon basis of the mask, None until built, and the edge bits of
    the rows that basis took in."""

    mask: int
    order: list[int]
    first: int
    rounds: list[int]
    at: list[int]
    shells: list[int]
    support_cap: int
    cap: int
    bases: list[EchelonBasis | None]
    picked: list[int]


class CofactorOracle:
    """Rank oracle for the generic C_s^(s-1) cofactor matroid on E(K_n).

    A rank is decided from the mask's peel where its 0-extension rows
    number the combinatorial cap, with no evaluation at all.  Below that
    one rule over k random evaluations (default three seeds) decides it,
    asked for in seed order: the first seed to meet the cap gives the rank;
    otherwise the maximum does, unless a strict majority of seeds falls
    below it, and then the oracle aborts with a diagnostic instead of
    guessing.  Results are memoized per edge bitmask.
    Per-seed bases outlive a query only in the record of the last mask
    peeled (_peel), where the next query on that mask reads them; every
    row is evaluated afresh where a basis or test needs it, and none is kept.
    The one exception is the rank table, which the first seed whose
    circuits all exceed their caps proves whole (rank_table): it answers
    every mask with no vote.

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
        # a seed's points, drawn on its first row: later seeds are seldom asked
        self._configs: list[list[tuple[int, int]] | None] = [None] * len(seeds)
        self._values: list[list[int] | None] = [None] * len(seeds)
        self._memo: dict[int, int] = {0: 0}
        self._last_peel: _Peel | None = None
        self._table: bytes | None = None
        self._matroid: matroids.ExplicitMatroid | None = None
        # closure and cyc per mask asked or returned: a returned flat or
        # cyclic set maps to itself
        self._flats: dict[int, int] = {}
        self._cyclic: dict[int, int] = {}

    # -- plumbing ----------------------------------------------------------

    @property
    def dim(self) -> int:
        return self.s + 1

    def _check(self, F: EdgeSet) -> None:
        if F.n != self.n:
            raise AmbientMismatch(
                f"edge set lives in K_{F.n}, oracle in K_{self.n}"
            )

    def _row(self, edge_bit: int, seed_idx: int, at) -> dict[int, int]:
        """The evaluated row of an edge as a fresh sparse {column: entry}
        dict, vertex v's block at column at[v]: a peel's layout.  The seed's
        points are drawn on its first row, x then y for each vertex in turn,
        from random.Random(seed), and kept."""
        points, p = self._configs[seed_idx], self.modulus
        if points is None:
            rng = random.Random(self.seeds[seed_idx])
            points = self._configs[seed_idx] = [
                (rng.randrange(p), rng.randrange(p)) for _ in range(self.n)]
        return cofactor_row(edge_at(self.n, edge_bit), points, p, self.s, at)

    def _motion_values(self, seed_idx: int) -> list[int]:
        """Independent uniform values, one per column, drawn from the seed
        alone, never from the query order: the free values of every random
        motion of that seed."""
        values = self._values[seed_idx]
        if values is None:
            rng = random.Random(f"motion:{self.seeds[seed_idx]}")
            values = self._values[seed_idx] = [
                rng.randrange(self.modulus) for _ in range(self.dim * self.n)]
        return values

    def _walk(self, order, rounds, at, seed_idx: int, stop: int,
              width: int | None = None) -> tuple[EchelonBasis, int]:
        """One seed's echelon basis of the rows of the edge bits in order,
        laid out by at, and the edge bits of the rows it took in.

        The first rows go in a round at a time (absorb), rounds[t] of
        them in round t, with one inverse per round, and the later rows one
        at a time, until the rank reaches stop.  Once one of the later rows
        falls in the span, each row after it is tested against one random
        motion of the basis so far and reduced only if it passes, which
        proves it independent; a row that goes in drops the motion, and the
        next row to fall in the span draws it again.  A row outside the span
        fails with probability 1/p, which lowers this seed's rank and never
        raises it.  With width, the k-th row carries a unit tag at column
        width + k, right of the real columns, so every basis row keeps its
        combination of the rows, and a row pivoting at a tag is left out;
        the motion is 0 at every tag, so it sees the real columns alone.
        """
        p, picked, k = self.modulus, 0, 0
        basis = EchelonBasis(p)

        def row(i):
            got = self._row(order[i], seed_idx, at)
            if width is not None:
                got[width + i] = 1
            return got

        for size in rounds:
            for i in basis.absorb([row(j) for j in range(k, k + size)], width):
                picked |= 1 << order[k + i]
            k += size
        motion = None
        for k in range(k, len(order)):
            if basis.rank == stop:
                break
            cur = row(k)
            if motion is not None and not sum(c * motion[j] for j, c in cur.items()) % p:
                continue
            if basis.absorb([cur], width):
                picked |= 1 << order[k]
                motion = None
            elif motion is None:
                values = self._motion_values(seed_idx)
                motion = basis.motion(values if width is None
                                      else [*values, *[0] * len(order)])
        return basis, picked

    def _seed_basis(self, mask: int, seed_idx: int) -> EchelonBasis:
        """One seed's echelon basis of the rows of mask, the walk (_walk)
        over its peel's order, rounds and layout, kept in the peel's record
        with the rows it took in.  It stops once it reaches the proven cap:
        no evaluation rank exceeds the generic rank, so that prefix already
        spans every row of mask.
        """
        peel = self._peel(mask)
        if peel.bases[seed_idx] is None:
            peel.bases[seed_idx], peel.picked[seed_idx] = self._walk(
                peel.order, peel.rounds, peel.at, seed_idx, peel.cap)
        return peel.bases[seed_idx]

    def _coloop_pass(self, mask: int, seed_idx: int) -> tuple[int, int]:
        """One seed's rank of mask and its coloops, from one random
        self-stress of its rows.

        The tagged walk (_walk with width) takes the rows in the peel's
        order and layout, as _seed_basis does; the rows it leaves out are in
        the span.  Their sum with random weights from the seed, in the
        peel's order, is absorbed up to width, as dual_rows absorbs a row:
        it reduces to zero on the real columns and is left out, and the tags
        left in it are the basis rows' part of a random self-stress.  Every
        row left out is in a circuit, and a basis row is in one exactly when
        that part is nonzero at its tag, unless its weights cancel, with
        probability 1/p; it is taken for a coloop then.  A sum that a missed
        motion test leaves outside the span grows the basis instead and
        clears no coloop; the rank is the walk's, taken before.  Each rank
        this gives for mask minus one element is at most the seed's, also
        when a motion test misses.
        """
        peel = self._peel(mask)
        order, p, width = peel.order, self.modulus, self.dim * self.n
        basis, base = self._walk(order, peel.rounds, peel.at, seed_idx, peel.cap, width)
        rank, rng = basis.rank, random.Random(f"stress:{self.seeds[seed_idx]}")
        stress: dict[int, int] = {}
        for b in order:
            if not base >> b & 1:
                weight = rng.randrange(p)
                for j, x in self._row(b, seed_idx, peel.at).items():
                    stress[j] = stress.get(j, 0) + weight * x
        if not basis.absorb([stress], width):
            for j, x in stress.items():
                if x % p:
                    base &= ~(1 << order[j - width])
        return rank, base

    def _peel(self, mask: int) -> _Peel:
        """The record of mask's peel: its edge bits in peeling order, how
        many of them are 0-extension rows, the block layout, each vertex's
        shell, and the count caps of its support and of mask.

        Vertices leave by least degree among those left, from a bucket queue.
        The k-th vertex v to leave takes the k-th (s+1)-block: at[v] = (s+1)k
        is the column its block starts at in every row laid out by this peel
        (cofactor_row).  Its first s+1 edges to vertices still left, in edge
        order, are its 0-extension rows.  The order puts all of those first,
        round-major: round t holds each vertex's (t+1)-th 0-extension row, in
        peel order, and rounds counts them per round; every other edge
        follows.  Each row of a round pivots in its own vertex's block, so a
        round goes into a basis with one shared inverse
        (EchelonBasis.absorb).  A vertex's shell is the largest least
        degree met up to its leaving, its core number: the k-core of mask,
        what is left after deleting vertices of degree below k until none is
        left, is the vertices of shell at least k (Batagelj and Zaversnik
        2003).  Only the last mask's record is kept, with the seed bases
        built on it, so the seeds of a mask, and a seed's rank followed by
        its basis, peel it once; peeling another mask drops it.
        """
        peel = self._last_peel
        if peel is not None and peel.mask == mask:
            return peel
        n, w = self.n, self.dim
        nbrs: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        edges, todo = _edge_table(n)[0], mask
        while todo:
            low = todo & -todo
            b = low.bit_length() - 1
            i, j = edges[b]
            nbrs[i].append((j, b))
            nbrs[j].append((i, b))
            todo ^= low
        degree = [len(x) for x in nbrs]
        support_cap = _vertex_cap(n - degree.count(0), w)
        buckets: list[dict[int, None]] = [{} for _ in range(max(degree) + 1)]
        for v, d in enumerate(degree):
            buckets[d][v] = None
        rounds, rest = [[] for _ in range(w)], []
        at, shells = [0] * n, [0] * n
        low = shell = 0
        for k in range(n):
            while not buckets[low]:
                low += 1
            if low > shell:
                shell = low
            v = buckets[low].popitem()[0]
            shells[v] = shell
            degree[v] = -1
            at[v] = w * k
            taken = 0
            for u, b in nbrs[v]:
                d = degree[u]
                if d > 0:
                    if taken < w:
                        rounds[taken].append(b)
                    else:
                        rest.append(b)
                    taken += 1
                    del buckets[d][u]
                    buckets[d - 1][u] = None
                    degree[u] = d - 1
            low = max(low - 1, 0)
        seeds, first = len(self.seeds), [b for batch in rounds for b in batch]
        self._last_peel = _Peel(mask, first + rest, len(first), [*map(len, rounds)], at,
                                shells, support_cap, min(mask.bit_count(), support_cap),
                                [None] * seeds, [0] * seeds)
        return self._last_peel

    def _decide(self, mask: int, seed_rank) -> int:
        """The rank of a mask, memoized: a table or memo hit asks no seed.
        On a miss the mask is peeled, and where its 0-extension rows number
        its count cap, the cap is its rank with no seed asked; below that
        the seeds vote on it (_vote)."""
        if self._table is not None:
            return self._table[mask]
        r = self._memo.get(mask)
        if r is None:
            peel = self._peel(mask)
            r = self._memo[mask] = (peel.cap if peel.first == peel.cap
                                    else self._vote(mask, seed_rank, peel.cap))
        return r

    def _vote(self, mask: int, seed_rank, cap: int) -> int:
        """The rank of a mask from its per-seed ranks, asked for lazily in
        seed order: a seed meeting cap ends the asking, and otherwise the
        maximum stands unless a strict majority of seeds falls below it.
        A proven table answers in their place, with no seed asked.

        cap must be a proven upper bound on the generic rank of mask: its
        count cap, rank(F) for F - e, or rank(F) + 1 for F + e (_vote_each).
        No evaluation rank exceeds the generic rank, so a seed meeting it
        proves the rank."""
        if self._table is not None:
            return self._table[mask]
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

    def _off_core(self, mask: int, k: int) -> int:
        """The edges of K_n at a vertex outside mask's k-core, as an edge
        mask: the vertices whose shell in mask's peel is below k."""
        out = 0
        for star, shell in zip(stars(self.n), self._peel(mask).shells):
            if shell < k:
                out |= star
        return out

    def _open(self, F: EdgeSet) -> int:
        """The non-edges with both ends in F's (s+1)-core, as an edge mask:
        any other is a coloop of F + e, never in cl(F) (module docstring)."""
        full = (1 << edge_count(self.n)) - 1
        return full & ~F.mask & ~self._off_core(F.mask, self.dim)

    def _lifts(self, F: EdgeSet, seed_idx: int):
        """Whether the row of a non-edge, by bit, lifts one seed's rank of F:
        whether it fails to annihilate one random motion of the seed's basis
        of F, 2(s+1) products and no reduction.  Such a row lies outside the
        span, so the seed ranks F + e one above its own rank of F."""
        v = self._seed_basis(F.mask, seed_idx).motion(self._motion_values(seed_idx))
        at, p = self._peel(F.mask).at, self.modulus
        return lambda b: sum(
            c * v[j] for j, c in self._row(b, seed_idx, at).items()) % p != 0

    def peel_base(self, F: EdgeSet) -> EdgeSet | None:
        """F's 0-extension rows where they number its count cap, which makes
        them a base of F with no seed asked; else None."""
        self._check(F)
        peel = self._peel(F.mask)
        return (EdgeSet(self.n, sum(1 << b for b in peel.order[:peel.first]))
                if peel.first == peel.cap else None)

    def seed_closure(self, F: EdgeSet, seed_idx: int) -> tuple[EdgeSet, EdgeSet]:
        """One seed's base of F and its closure of F; the seed ranks F at
        the base's size r.

        Only the non-edges in ``_open`` may join, with no seed asked for the
        others.  Where F's peel base (``peel_base``) proves its cap and no
        non-edge is open or the cap of F's support is that rank too, it is
        the base.  Otherwise the base is the rows the seed's basis of F took
        in (``_seed_basis``), even where the peel proves a higher rank: a
        motion test adds only to its own seed's rank (see the module
        docstring).  The open non-edges join untested where the support cap
        is r, since r <= rank(F + e) <= that cap, and otherwise each joins
        unless its row fails to annihilate one random motion of the seed's
        basis of F (``_lifts``).
        """
        base, tested = self.peel_base(F), self._open(F)
        peel = self._peel(F.mask)
        if base is None or tested and peel.support_cap != len(base):
            self._seed_basis(F.mask, seed_idx)
            base = EdgeSet(self.n, peel.picked[seed_idx])
        out = F.mask
        if peel.support_cap == len(base):
            out |= tested
        elif tested:
            lifts = self._lifts(F, seed_idx)
            out |= sum(1 << b for b in bits(tested) if not lifts(b))
        return base, EdgeSet(self.n, out)

    def _vote_each(self, mask: int, elems: int, r: int, seed_rank, moves) -> int:
        """The elements b of elems whose toggle keeps mask's rank r, each by
        its own vote on mask ^ b (_vote), not memoized.  seed_rank(idx) is
        one seed's rank r_i of mask and moves(idx, b) whether toggling b
        moves it by one, asked only once the vote on mask ^ b reaches that
        seed: the seed ranks mask + b at r_i + 1 and mask - b at r_i - 1
        where it does, else at r_i.  Adding an element raises the rank by at
        most one and deleting one never raises it, so mask + b is voted
        under r + 1 and mask - b under r: a seed meeting the bound proves
        the rank and ends that vote."""
        keep = 0
        for b in bits(elems):
            sign = -1 if mask >> b & 1 else 1
            if self._vote(mask ^ 1 << b, lambda idx: seed_rank(idx) + sign * moves(idx, b),
                          r + (sign > 0)) == r:
                keep |= 1 << b
        return keep

    def closure(self, F: EdgeSet) -> EdgeSet:
        """All edges of K_n whose addition leaves the rank unchanged.

        A non-edge e with an end outside F's (s+1)-core is a coloop of F + e,
        so it stays out with no seed asked.  Where the cap of F's support is
        r = rank(F), every other one joins with no seed asked, since
        r <= rank(F + e) <= that cap.  Otherwise each F + e is voted under
        r + 1 (_vote_each), and a proven table answers the vote.  A seed
        asked ranks F + e at its own rank r_i of F, never the peel-proven r,
        plus one where the row of e lifts it (``_lifts``, the test
        ``seed_closure`` makes), which proves rank(F + e) = r + 1 where
        r_i = r.  Each seed draws its motion once per call, when a vote
        first reaches it, and tests the row of e only when the vote on F + e
        does.  An F whose 0-extension rows reach the cap of its support
        builds no basis.  The closure C has rank r, so it is memoized at r:
        a later rank of C, or cyc's rank decision on it, asks no seed.  C is
        remembered as the closure of F and of itself, so closing either
        again, as is_flat does, votes nothing.
        """
        self._check(F)
        out = self._flats.get(F.mask)
        if out is not None:
            return EdgeSet(self.n, out)
        seed_rank = cache(lambda idx: self._seed_basis(F.mask, idx).rank)
        r = self._decide(F.mask, seed_rank)
        tested, out = self._open(F), F.mask
        if self._peel(F.mask).support_cap == r:
            out |= tested
        else:
            lifts = cache(lambda idx: self._lifts(F, idx))
            out |= self._vote_each(F.mask, tested, r, seed_rank, lambda idx, b: lifts(idx)(b))
        self._memo[out] = r
        self._flats[F.mask] = self._flats[out] = out
        return EdgeSet(self.n, out)

    def is_flat(self, F: EdgeSet) -> bool:
        return self.closure(F).mask == F.mask

    def cyc(self, F: EdgeSet) -> EdgeSet:
        """F minus its restriction coloops, i.e. the union of circuits in F.

        Every edge outside F's (s+2)-core (``_off_core``) is a coloop, so
        only the core's edges are voted.  One peeled pass of F per seed gives
        that seed's rank of F and its coloops: the basis elements outside one
        random self-stress (_coloop_pass).  Dropping e lowers a seed's rank
        exactly when e is one of its coloops, which gives every rank of F - e
        without a further elimination.  F - e is voted under r = rank(F)
        (_vote_each), and a proven table answers the vote: a seed ranking
        F - e at r proves e in a circuit.  An F of decided rank |F| is
        independent, all coloops, and gets the empty set with no pass.
        Where r = |F| - 1 (nullity one, as for a fundamental circuit), F
        holds one circuit C, and if seed 0's pass ranks F at r, every generic
        coloop is among its coloops, so its other elements lie in C; a
        missed self-stress weight only adds coloops.  If they number more
        than their count cap, they are dependent, so they are C, and no edge
        is voted.  The result is remembered as cyc of F and of itself, so
        asking either again, as is_cyclic does, votes nothing.
        """
        self._check(F)
        keep = self._cyclic.get(F.mask)
        if keep is not None:
            return EdgeSet(self.n, keep)
        seed_pass = cache(lambda idx: self._coloop_pass(F.mask, idx))
        r = self._decide(F.mask, lambda idx: seed_pass(idx)[0])
        if r == len(F):
            keep = 0
        elif r == len(F) - 1 and self._table is None and seed_pass(0)[0] == r:
            circuit = EdgeSet(self.n, F.mask & ~seed_pass(0)[1])
            if len(circuit) > generic_rank_upper_bound(circuit, self.s):
                keep = circuit.mask
        if keep is None:
            core = F.mask & ~self._off_core(F.mask, self.dim + 1)
            keep = self._vote_each(F.mask, core, r, lambda idx: seed_pass(idx)[0],
                                   lambda idx, b: seed_pass(idx)[1] >> b & 1)
        self._cyclic[F.mask] = self._cyclic[keep] = keep
        return EdgeSet(self.n, keep)

    def is_cyclic(self, F: EdgeSet) -> bool:
        return self.cyc(F).mask == F.mask

    def basis_of(self, F: EdgeSet) -> EdgeSet:
        """Lexicographically greedy base of F, as extend_basis qualifies it:
        one seed's walk over F's rows in edge order, costing the rows it
        takes plus the motions it draws."""
        self._check(F)
        return self.extend_basis(EdgeSet.empty(self.n), F)

    def extend_basis(self, independent: EdgeSet, F: EdgeSet) -> EdgeSet:
        """Greedily extend an independent subset of F to a base of F.

        Each seed in turn walks (_walk) the rows of the starting set and then
        those of the rest of F, in increasing order and laid out by F's peel,
        until its rank reaches rank(F); it reduces the rows it takes and one
        per motion it draws.  A set independent at one evaluation is
        generically independent, so the first seed whose base reaches rank(F)
        and keeps the starting set gives a base of F.  It is the
        lexicographically greedy base unless that seed is degenerate on some
        prefix of F, or a motion test misses a row outside the span, with
        probability 1/p per row; either may skip an element the generic
        greedy takes.  If no seed gets there, the seeds disagree and
        SeedDisagreement is raised.  An independent F is its own base, so no
        seed builds one.
        """
        self._check(F)
        start = independent.mask
        if not independent.issubset(F):
            raise ValueError("starting set is not contained in F")
        if not self.independent(independent):
            raise ValueError("starting set is dependent")
        target = self.rank(F)
        if target == len(F):
            return F
        elems, at = [*bits(start), *bits(F.mask & ~start)], self._peel(F.mask).at
        ranks = []
        for idx in range(len(self.seeds)):
            basis, base = self._walk(elems, (), at, idx, target)
            if basis.rank == target and base & start == start:
                return EdgeSet(self.n, base)
            ranks.append(basis.rank)
        raise SeedDisagreement(
            "no seed extends the starting set to a base of the decided rank",
            detail={"mask": F.mask, "start": start, "rank": target,
                    "n": self.n, "s": self.s, "seeds": self.seeds,
                    "ranks": ranks, "modulus": self.modulus})

    def fundamental_circuit(self, B: EdgeSet, e) -> EdgeSet:
        """The unique circuit inside B + e, for B independent with e in cl(B):
        cyc(B + e) (Oxley, Matroid Theory, 1.2).

        B + e has nullity one, so cyc's nullity-one rule reads the circuit
        off seed 0 where it exceeds its count cap.  The rank of B + e, which
        cyc leaves in the memo, tells the errors apart: |B| + 1 puts e
        outside cl(B), and below |B|, or e outside the circuit, makes B
        dependent.
        """
        self._check(B)
        bit = edge_index(self.n, *e)
        if B.mask >> bit & 1:
            raise ValueError("element is already in the base")
        F = EdgeSet(self.n, B.mask | 1 << bit)
        circuit = self.cyc(F)
        r = self.rank(F)
        if r == len(B) + 1:
            raise ValueError("element is not in the closure of the base")
        if r < len(B) or not circuit.mask >> bit & 1:
            raise ValueError("B is not independent")
        return circuit

    # -- whole-powerset table ---------------------------------------------

    def rank_table(self) -> bytes:
        """Rank of every subset of E(K_n), indexed by bitmask (n small).

        A seed's table comes from its bases: a linear matroid ranks X as the
        largest |X & B| over its bases B.  One tagged pass over its rows, in
        edge order and laid out by the peel of E(K_n) (dual_rows), gives
        their rank r and vectors in m - r coordinates that represent the dual
        matroid, whose bases are the complements of the rows' bases; a sweep
        of minors (bases_by_minors) lists those.  Past matroids.ENUM_CAP
        edges, CapExceeded is raised before any row.

        The seeds are tried in order, and the first whose table its circuits
        prove is returned.  A seed's matroid M has no independent set that
        is generically dependent (evaluation is one-sided), and a matroid is
        fixed by its circuits (Oxley, Matroid Theory, 1.1).  So if every
        circuit of M, a cyclic set of nullity one on its levels, has more
        edges than its cap (generic_rank_upper_bound, with its vertices
        counted on the stars of K_n), all of them are
        generically dependent and M is the generic matroid.  A degenerate
        seed has some circuit within its cap (a lost row is a loop), so
        skipping it discards nothing; if every seed has one,
        SeedDisagreement is raised with each seed's lowest such circuit.
        The proven table then serves as the memo.
        """
        if self._table is not None:
            return self._table
        m = edge_count(self.n)
        if m > matroids.ENUM_CAP:
            raise CapExceeded(f"rank table over {m} edges")
        full, width, p = (1 << m) - 1, self.dim * self.n, self.modulus
        vstars, lowest, at = stars(self.n), [], self._peel(full).at
        for idx in range(len(self.seeds)):
            vectors, pivots = dual_rows([self._row(b, idx, at) for b in range(m)], width, p)
            bases = [full & ~x for x in bases_by_minors(vectors, m - len(pivots), p)]
            matroid = matroids.ExplicitMatroid.from_bases(m, bases)
            within = [c for c in matroid.circuits() if c.bit_count()
                      <= _vertex_cap(sum(c & x != 0 for x in vstars), self.dim)]
            if not within:
                self._matroid, self._table = matroid, matroid.full_table()
                return self._table
            lowest.append(within[0])
        raise SeedDisagreement(
            "every seed has a circuit within its count cap",
            detail={"n": self.n, "s": self.s, "seeds": self.seeds,
                    "circuits": lowest, "modulus": self.modulus})

    def explicit_matroid(self) -> matroids.ExplicitMatroid:
        self.rank_table()  # proves the matroid, once
        return self._matroid
