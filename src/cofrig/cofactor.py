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
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from . import matroids
from .errors import AmbientMismatch, SeedDisagreement
from .field import MERSENNE61, EchelonBasis, is_prime, subset_rank_table
from .graphs import EdgeSet, bits, edge_at, edge_count, edge_index

DEFAULT_SEEDS = (101, 202, 303)
MIN_MODULUS = (1 << 31) - 1


@dataclass(frozen=True)
class GenericConfiguration:
    """Random plane (plus optional third coordinate) positions for n vertices.

    The pair stream is drawn first, so the same (n, seed) gives identical
    (x, y) whether or not the third coordinate is ever used.
    """

    n: int
    seed: int
    p: int
    points: tuple[tuple[int, int], ...]
    thirds: tuple[int, ...]

    @classmethod
    def generate(cls, n: int, seed: int, p: int = MERSENNE61) -> "GenericConfiguration":
        rng = random.Random(seed)
        points = tuple((rng.randrange(p), rng.randrange(p)) for _ in range(n))
        thirds = tuple(rng.randrange(p) for _ in range(n))
        return cls(n, seed, p, points, thirds)


def cofactor_row(edge, config: GenericConfiguration, s: int) -> list[int]:
    """Evaluated cofactor row of an edge: (s+1)-blocks per vertex."""
    i, j = edge
    if i > j:
        i, j = j, i
    p = config.p
    xi, yi = config.points[i]
    xj, yj = config.points[j]
    dx = (xi - xj) % p
    dy = (yi - yj) % p
    block = []
    for t in range(s + 1):
        block.append(pow(dx, s - t, p) * pow(dy, t, p) % p)
    width = s + 1
    row = [0] * (width * config.n)
    row[width * i:width * (i + 1)] = block
    row[width * j:width * (j + 1)] = [(-b) % p for b in block]
    return row


def rigidity_row(edge, config: GenericConfiguration, d: int) -> list[int]:
    """Evaluated classical rigidity row in dimension d (1, 2 or 3)."""
    if d not in (1, 2, 3):
        raise ValueError(f"rigidity dimension {d} not supported")
    i, j = edge
    if i > j:
        i, j = j, i
    p = config.p

    def coords(v):
        x, y = config.points[v]
        return ((x,), (x, y), (x, y, config.thirds[v]))[d - 1]

    diff = [(a - b) % p for a, b in zip(coords(i), coords(j))]
    row = [0] * (d * config.n)
    row[d * i:d * (i + 1)] = diff
    row[d * j:d * (j + 1)] = [(-x) % p for x in diff]
    return row


def generic_rank_upper_bound(F: EdgeSet, s: int) -> int:
    """Matroid-theoretic cap on the rank of F in the order-s cofactor matroid."""
    d = s + 1
    v = len(F.vertex_support())
    if v <= d + 1:
        cap = v * (v - 1) // 2
    else:
        cap = d * v - (d + 1) * d // 2
    return min(len(F), cap)


class CofactorOracle:
    """Rank oracle for the generic C_s^(s-1) cofactor matroid on E(K_n).

    All queries are answered from k random evaluations (default three seeds);
    the reported rank is the maximum.  If a strict majority of seeds falls
    below that maximum the oracle aborts with a diagnostic instead of
    guessing.  Results are memoized per edge bitmask.

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
        if modulus < MIN_MODULUS or not is_prime(modulus):
            raise ValueError(f"modulus {modulus} is not a prime >= 2^31 - 1")
        self.n = n
        self.s = s
        self.seeds = seeds
        self.modulus = modulus
        self.configs = tuple(
            GenericConfiguration.generate(n, seed, modulus) for seed in seeds)
        self._row_cache: list[dict[int, tuple[int, ...]]] = [{} for _ in seeds]
        self._memo: dict[int, int] = {0: 0}
        self._table: list[int] | None = None

    # -- plumbing ----------------------------------------------------------

    @property
    def dim(self) -> int:
        return self.s + 1

    def _check(self, F: EdgeSet) -> None:
        if F.n != self.n:
            raise AmbientMismatch(
                f"edge set lives in K_{F.n}, oracle in K_{self.n}"
            )

    def _entries(self, edge, config: GenericConfiguration) -> list[int]:
        return cofactor_row(edge, config, self.s)

    def _row(self, edge_bit: int, seed_idx: int) -> tuple[int, ...]:
        cache = self._row_cache[seed_idx]
        row = cache.get(edge_bit)
        if row is None:
            edge = edge_at(self.n, edge_bit)
            row = cache[edge_bit] = tuple(
                self._entries(edge, self.configs[seed_idx]))
        return row

    def _seed_basis(self, mask: int, seed_idx: int) -> EchelonBasis:
        basis = EchelonBasis(self.modulus)
        for b in bits(mask):
            basis.insert(self._row(b, seed_idx))
        return basis

    def _mask_rank(self, mask: int) -> int:
        # through the public rank, so the memo and any tracing see each query
        return self.rank(EdgeSet(self.n, mask))

    def _majority_check(self, mask: int, per_seed: list[int]) -> int:
        top = max(per_seed)
        below = sum(1 for r in per_seed if r < top)
        if 2 * below > len(per_seed):
            raise SeedDisagreement(
                "strict majority of seeds fell below the maximum rank",
                detail={"mask": mask, "n": self.n, "s": self.s,
                        "seeds": self.seeds, "ranks": per_seed,
                        "modulus": self.modulus})
        return top

    # -- core queries ------------------------------------------------------

    def rank(self, F: EdgeSet) -> int:
        self._check(F)
        got = self._memo.get(F.mask)
        if got is not None:
            return got
        bound = generic_rank_upper_bound(F, self.s)
        per_seed = []
        result = None
        for idx in range(len(self.seeds)):
            r = self._seed_basis(F.mask, idx).rank
            per_seed.append(r)
            if r == bound:
                # meets the proven cap, so it is the generic rank
                result = r
                break
        if result is None:
            result = self._majority_check(F.mask, per_seed)
        self._memo[F.mask] = result
        return result

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
        """All edges of K_n whose addition leaves the rank unchanged."""
        # Not matroids.closure: one echelon basis per seed answers every
        # membership test by a single reduction, where a rank from scratch
        # per edge would cost about |E(K_n)| times as much.
        self._check(F)
        bases = [self._seed_basis(F.mask, idx) for idx in range(len(self.seeds))]
        per_seed = [b.rank for b in bases]
        r = self._majority_check(F.mask, per_seed)
        self._memo.setdefault(F.mask, r)
        out = F.mask
        for bit in range(edge_count(self.n)):
            if F.mask >> bit & 1:
                continue
            grown = [per_seed[i] + (bases[i].reduce(self._row(bit, i)) is not None)
                     for i in range(len(self.seeds))]
            r_e = self._majority_check(F.mask | 1 << bit, grown)
            self._memo.setdefault(F.mask | 1 << bit, r_e)
            if r_e == r:
                out |= 1 << bit
        return EdgeSet(self.n, out)

    def is_flat(self, F: EdgeSet) -> bool:
        return self.closure(F).mask == F.mask

    def cyc(self, F: EdgeSet) -> EdgeSet:
        """F minus its restriction coloops, i.e. the union of circuits in F."""
        self._check(F)
        return EdgeSet(self.n, matroids.cyc(self._mask_rank, F.mask))

    def is_cyclic(self, F: EdgeSet) -> bool:
        return self.cyc(F).mask == F.mask

    def basis_of(self, F: EdgeSet) -> EdgeSet:
        """Lexicographically greedy base of F."""
        self._check(F)
        return self.extend_basis(EdgeSet.empty(self.n), F)

    def extend_basis(self, independent: EdgeSet, F: EdgeSet) -> EdgeSet:
        """Greedily extend an independent subset of F to a base of F."""
        self._check(F)
        if not independent.issubset(F):
            raise ValueError("starting set is not contained in F")
        if not self.independent(independent):
            raise ValueError("starting set is dependent")
        return EdgeSet(self.n, matroids.extend_basis(
            self._mask_rank, independent.mask, F.mask))

    def fundamental_circuit(self, B: EdgeSet, e) -> EdgeSet:
        """The unique circuit inside B + e, for B independent with e in cl(B)."""
        self._check(B)
        bit = edge_index(self.n, *e)
        if not self.independent(B):
            raise ValueError("B is not independent")
        return EdgeSet(self.n, matroids.fundamental_circuit(
            self._mask_rank, B.mask, bit))

    # -- whole-powerset table ---------------------------------------------

    def rank_table(self) -> list[int]:
        """Rank of every subset of E(K_n), indexed by bitmask (n small)."""
        if self._table is not None:
            return self._table
        m = edge_count(self.n)
        if m > 16:
            raise ValueError(f"rank table over {m} edges is not tractable")
        per_seed = []
        for idx in range(len(self.seeds)):
            rows = [self._row(b, idx) for b in range(m)]
            per_seed.append(subset_rank_table(rows, self.modulus))
        table = [self._majority_check(mask, list(ranks))
                 for mask, ranks in enumerate(zip(*per_seed))]
        self._table = table
        self._memo.update(enumerate(table))
        return table

    def explicit_matroid(self):
        labels = [edge_at(self.n, i) for i in range(edge_count(self.n))]
        return matroids.ExplicitMatroid.from_table(self.rank_table(), labels=labels)


class RigidityOracle(CofactorOracle):
    """Same oracle machinery over the classical dimension-d rigidity rows.

    Used only to cross-check the cofactor construction at s = d - 1.
    """

    def __init__(self, n: int, d: int = 2, seeds=DEFAULT_SEEDS,
                 modulus: int = MERSENNE61):
        super().__init__(n, s=d - 1, seeds=seeds, modulus=modulus)
        self.d = d

    def _entries(self, edge, config: GenericConfiguration) -> list[int]:
        return rigidity_row(edge, config, self.d)
