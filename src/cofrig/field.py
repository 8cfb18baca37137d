"""Exact linear algebra over a prime field.

Everything here works on plain Python ints reduced mod p, so there is no
overflow and no floating point.  The default modulus is the Mersenne prime
2^61 - 1, large enough that a random evaluation of a generic matrix keeps
full rank except with vanishing probability.

Rows are sparse: a dict from column to nonzero entry in [0, p).  A cofactor
row has 2(s+1) nonzeros among (s+1)n columns, so elimination touches only
the columns a row and its reducers actually use.  An echelon basis is a
pivot-sorted sequence of (pivot, row) pairs: each row is 1 at its pivot and
has no key left of it, and no two pivots are equal, so pairs sort by pivot
alone.  Pivoting on the lowest column makes the caller's column order the
elimination order: it decides how many entries clearing adds to a row (the
fill-in), though never a rank.  One kernel, ``_eliminate``, reduces a row
against such a sequence: its pivot-clearing loop ``_clear_pivots``, then
one inverse to normalize.
``EchelonBasis`` keeps a growing list of pairs and turns its input rows,
dense sequences or mappings, into the sparse form at the boundary.
``subset_rank_table`` keeps one immutable tuple of pairs per subset, sharing
the rows between subsets, and drops a subset's tuple as soon as the last
subset built from it is done.  A subset that no other is built from only
asks whether its row survives the clearing loop, with no inverse, and a
table asked about a list of masks reduces only them and their parent chains.
``independent_subsets`` walks the same chains depth first for the bases of
the rows' matroid, cutting every prefix whose new row falls in its span.

A caller may give its rows tag columns right of the real ones, one unit
vector per element, and insert only the rows whose pivot falls left of the
tags.  A row whose pivot falls inside the tags is zero on the real columns,
and its tag part is the combination of inserted rows it equals: its support
is the row's fundamental circuit.  The cofactor oracle answers cyc and
fundamental circuits this way, through the same ``reduce``.

``EchelonBasis.motion`` back-substitutes the kernel vector with given values
at the free columns.  Independent uniform values make it a uniform kernel
vector, which a row outside the span annihilates with probability 1/p.
"""

from __future__ import annotations

from bisect import bisect, insort
from collections.abc import Mapping

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
        basis.insert(row)
    return basis.rank


def _sparse_row(row, p: int) -> dict[int, int]:
    """A fresh {column: entry mod p} dict of a dense sequence or a mapping,
    without zero entries."""
    items = row.items() if isinstance(row, Mapping) else enumerate(row)
    return {j: y for j, x in items if (y := x % p)}


class EchelonBasis:
    """Incremental row echelon form over GF(p), as one sequence of pairs.

    Rows are never modified after insertion.
    """

    __slots__ = ("p", "pairs")

    def __init__(self, p: int = MERSENNE61):
        self.p = p
        self.pairs: list[tuple[int, dict[int, int]]] = []

    @property
    def rank(self) -> int:
        return len(self.pairs)

    def reduce(self, row) -> tuple[int, dict[int, int]] | None:
        """Reduce a row, dense or a mapping, against the basis: its new
        (pivot, sparse normalized row) pair, or None if it reduces to zero.
        The row does not alias the input.
        """
        return _eliminate(_sparse_row(row, self.p), self.pairs, self.p)

    def insert(self, row) -> bool:
        """Add a row to the span; True if the rank grew."""
        pair = self.reduce(row)
        if pair is None:
            return False
        insort(self.pairs, pair)
        return True

    def motion(self, values) -> list[int]:
        """The vector that every row annihilates and that keeps the given
        values, a dense sequence, at the free columns.  Going down the pivots
        in decreasing order, each pivot entry loses the row's product with the
        vector so far; the row is 1 at its pivot, so the product drops to 0."""
        p, m = self.p, list(values)
        for piv, row in reversed(self.pairs):
            m[piv] = (m[piv] - sum(c * m[j] for j, c in row.items())) % p
        return m


def _clear_pivots(cur: dict[int, int], pairs, p: int) -> None:
    """Clear, in place, every pivot column of pivot-sorted pairs from a
    sparse row: one pass in pivot order, since no pair's row has a key left of
    its pivot.  Entries stay exact integers, reduced mod p only where read as
    a multiplier, so a kept entry may be 0 mod p; a cleared column is dropped.
    """
    get = cur.get
    for piv, brow in pairs:
        c = get(piv)
        if c is not None:
            c %= p
            if c:
                for j, b in brow.items():
                    cur[j] = get(j, 0) - c * b
            del cur[piv]


def _eliminate(cur: dict[int, int], pairs, p: int):
    """Reduce a sparse row, consumed, against pivot-sorted pairs: the new
    (pivot, normalized row) pair, whose pivot no pair has, or None if the row
    lies in their span."""
    _clear_pivots(cur, pairs, p)
    support = [j for j, x in cur.items() if x % p]
    if not support:
        return None
    lead = min(support)
    inv = pow(cur[lead], -1, p)
    return lead, {j: y for j, x in cur.items() if (y := x * inv % p)}


def subset_rank_table(rows, p: int = MERSENNE61,
                      masks=None) -> list[int] | dict[int, int]:
    """Rank of every subset of the given rows, as a list indexed by bitmask.

    Given masks, only those subsets and their parent chains are reduced, and
    a {mask: rank} dict of them (and of 0) is returned.  Subsets are processed
    in increasing numeric order, so each mask x reuses the pairs of its
    parent, x minus its lowest bit.  A mask's pairs are kept only while a
    child still needs them, and a childless mask (every odd one, in the full
    table) only checks whether its new row survives, with no inverse and no
    normalized row.  The live tuples share their rows, which keeps the table
    affordable up to 16 rows.
    """
    m = len(rows)
    if m > 16:
        raise ValueError(f"subset table over {m} rows is too large")
    rows = [_sparse_row(r, p) for r in rows]
    size = 1 << m
    if masks is None:
        order = range(1, size)
    else:
        chains = set()
        for x in masks:
            while x and x not in chains:
                chains.add(x)
                x &= x - 1
        order = sorted(chains)
    kids = bytearray(size)
    for x in order:
        kids[x & (x - 1)] += 1
    rank = [0] * size if masks is None else {0: 0}
    basis: dict[int, tuple] = {0: ()}
    for x in order:
        y = x & (x - 1)
        kids[y] -= 1
        b = basis[y] if kids[y] else basis.pop(y)
        cur = dict(rows[(x & -x).bit_length() - 1])
        if not kids[x]:
            _clear_pivots(cur, b, p)
            rank[x] = rank[y] + any(v % p for v in cur.values())
            continue
        pair = _eliminate(cur, b, p)
        rank[x] = rank[y] + (pair is not None)
        if pair is not None:
            at = bisect(b, pair)
            b = b[:at] + (pair,) + b[at:]
        basis[x] = b
    return rank


def independent_subsets(rows, r: int, p: int = MERSENNE61) -> list[int]:
    """The bitmasks of the linearly independent r-subsets of the rows,
    depth first over the parent chains of subset_rank_table: a prefix grows
    only by rows below its lowest row while enough are left to reach r, is
    cut with its subtree when its new row falls in its span, and its r-th
    row only asks whether it survives the clearing loop."""
    rows = [_sparse_row(row, p) for row in rows]
    found, stack = ([], [(0, (), len(rows), r)]) if r else ([0], [])
    while stack:
        x, pairs, below, need = stack.pop()
        for i in range(need - 1, below):
            cur = dict(rows[i])
            if need == 1:
                _clear_pivots(cur, pairs, p)
                if any(v % p for v in cur.values()):
                    found.append(x | 1 << i)
                continue
            pair = _eliminate(cur, pairs, p)
            if pair is not None:
                at = bisect(pairs, pair)
                pairs_i = pairs[:at] + (pair,) + pairs[at:]
                stack.append((x | 1 << i, pairs_i, i, need - 1))
    return found
