"""Exact linear algebra over a prime field.

Everything here works on plain Python ints reduced mod p, so there is no
overflow and no floating point.  The default modulus is the Mersenne prime
2^61 - 1, large enough that a random evaluation of a generic matrix keeps
full rank except with vanishing probability.

An echelon basis is a pivot-sorted sequence of (pivot, row) pairs: each row
is normalized to 1 at its pivot and is zero to the left of it.  One kernel,
``_eliminate``, reduces a row against such a sequence; ``EchelonBasis`` keeps
a growing list of pairs, and ``subset_rank_table`` keeps one immutable tuple
of pairs per subset, sharing the row tuples between subsets.
"""

from __future__ import annotations

from bisect import bisect, insort

MERSENNE61 = (1 << 61) - 1

# Miller-Rabin with these bases is exact below 3.3e24, so for every p < 2^64.
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(p: int) -> bool:
    """Deterministic primality test for p < 2^64."""
    if p >= 1 << 64:
        raise ValueError("primality is only decided below 2^64")
    if p < 2:
        return False
    for a in _WITNESSES:
        if p % a == 0:
            return p == a
    d, r = p - 1, 0
    while not d & 1:
        d >>= 1
        r += 1
    for a in _WITNESSES:
        x = pow(a, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(r - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def matrix_rank(rows, p: int = MERSENNE61) -> int:
    """Rank by Gaussian elimination with exact arithmetic mod p.

    Pivots on the first nonzero entry of each remaining row.
    """
    basis = EchelonBasis(p)
    for row in rows:
        basis.insert(list(row))
    return basis.rank


class EchelonBasis:
    """Incremental row echelon form over GF(p), as one sequence of pairs.

    Rows are never modified after insertion, so copies share them.
    """

    __slots__ = ("p", "pairs")

    def __init__(self, p: int = MERSENNE61):
        self.p = p
        self.pairs: list[tuple[int, tuple[int, ...]]] = []

    @property
    def rank(self) -> int:
        return len(self.pairs)

    def copy(self) -> "EchelonBasis":
        out = EchelonBasis(self.p)
        out.pairs = list(self.pairs)
        return out

    def reduce(self, row) -> tuple[int, tuple[int, ...]] | None:
        """Reduce a row against the basis: its new (pivot, normalized row)
        pair, or None if it reduces to zero.  The row does not alias the input.
        """
        p = self.p
        return _eliminate([x % p for x in row], self.pairs, p)

    def insert(self, row) -> bool:
        """Add a row to the span; True if the rank grew."""
        pair = self.reduce(row)
        if pair is None:
            return False
        insort(self.pairs, pair)
        return True


def _eliminate(row, pairs, p: int):
    """Reduce a row with entries in [0, p) against pivot-sorted pairs.

    Returns the new (pivot, normalized row) pair, or None if the row lies
    in their span.  Each pair's row vanishes left of its pivot, so one pass
    in pivot order clears every pivot column and the new pivot is unique.
    """
    cur = row
    for piv, brow in pairs:
        c = cur[piv]
        if c:
            cur = [(a - c * b) % p for a, b in zip(cur, brow)]
    for j, x in enumerate(cur):
        if x:
            inv = pow(x, -1, p)
            return j, tuple(a * inv % p for a in cur)
    return None


def subset_rank_table(rows, p: int = MERSENNE61) -> list[int]:
    """Rank of every subset of the given rows, indexed by bitmask.

    Subsets are processed in increasing numeric order, so each mask X reuses
    the pairs of X minus its lowest bit; masks keep immutable tuples of pairs
    that share row tuples, which keeps the table affordable up to 16 rows.
    """
    m = len(rows)
    if m > 16:
        raise ValueError(f"subset table over {m} rows is too large")
    rows = [tuple(x % p for x in r) for r in rows]
    size = 1 << m
    rank = [0] * size
    basis: list[tuple] = [()] * size
    for x in range(1, size):
        low = (x & -x).bit_length() - 1
        y = x & (x - 1)
        b = basis[y]
        pair = _eliminate(rows[low], b, p)
        if pair is None:
            basis[x] = b
            rank[x] = rank[y]
        else:
            at = bisect(b, pair)
            basis[x] = b[:at] + (pair,) + b[at:]
            rank[x] = rank[y] + 1
    return rank
