"""Exact linear algebra over a prime field.

Everything here works on plain Python ints reduced mod p, so there is no
overflow and no floating point.  The default modulus is the Mersenne prime
2^61 - 1, large enough that a random evaluation of a generic matrix keeps
full rank except with vanishing probability.

Rows are sparse: a dict from column to entry, and a stored row's entries
are nonzero and in [0, p).  A cofactor row has 2(s+1) nonzeros among (s+1)n
columns, so elimination touches only the columns a row and its reducers
actually use.  An echelon basis is a dict from pivot column to row: each
row is 1 at its pivot and has no key left of it.  One routine,
``reduce_row``, reduces a row against such a dict: it walks the row's own
keys in increasing order, clears each key that is a pivot, and stops at the
first nonzero key that is not one.  That key is the row's new pivot, and
the row is normalized there, scaled by the inverse of its entry.  The keys
right of it are left as they are, so a stored row may still be nonzero at
later pivots: the basis is in semi-reduced echelon form, not reduced form.
Back-substitution and the tag-column self-stresses below need no more.
Which columns a row meets first is the caller's column order, which decides
how many entries clearing adds (the fill-in), though never a rank.
``EchelonBasis`` keeps one growing dict, and ``absorb`` is the one way in:
it consumes a list of sparse rows, inserts those that grow the rank with
one inverse per pass over them (a peel round's 0-extension rows take one in
all), and leaves every other row reduced in place, the relation it is.
``bases_by_minors`` lists the bases of vectors in r coordinates as the
r-subsets of nonzero determinant, from a sweep of minors by Laplace
expansion, with no reduction and no inverse.

A caller may give its rows tag columns right of the real ones, one unit
vector per element, and hand ``absorb`` the first tag column as width, so
that only rows pivoting left of it go in.  A row pivoting inside the tags
is zero on the real columns, and its tag part, left in the row ``absorb``
reduced, is the combination of inserted rows it equals, a self-stress.  No
other module writes a basis's rows.  The cofactor oracle's tagged walk
reads cyc and fundamental circuits off one random self-stress per seed,
which it absorbs as one more row (``_coloop_pass``).  ``dual_rows``
absorbs every row tagged and keeps each relation it finds: read per row,
their coefficients represent the dual matroid, of rank m - r, whose bases
are the complements of the rows' bases.  A rank table sweeps the minors of
the dual vectors and complements the bases it finds.

``EchelonBasis.motion`` back-substitutes the kernel vector with given values
at the free columns.  Independent uniform values make it a uniform kernel
vector, which a row outside the span annihilates with probability 1/p.
"""

from __future__ import annotations

from functools import lru_cache

MERSENNE61 = (1 << 61) - 1

# Miller-Rabin with these bases is exact below 3.3e24, so for every p < 2^64.
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


@lru_cache(maxsize=8)
def is_prime(p: int) -> bool:
    """Deterministic primality test for p < 2^64, remembered for the last few
    moduli asked about, since every oracle asks about its own."""
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


def reduce_row(cur: dict[int, int], rows: dict[int, dict[int, int]],
               p: int) -> int | None:
    """Reduce a sparse row, in place, against an echelon basis indexed by
    pivot: the row's new pivot, or None if the row lies in the span.

    The walk takes the row's least key each time.  A key that is a pivot is
    cleared, which adds keys only right of it, since no basis row has a key
    left of its pivot; a zero entry is dropped; the first nonzero key that
    is no pivot ends the walk, and is returned with its entry reduced mod p.
    Entries right of it stay exact integers, reduced mod p only where read
    as a multiplier, so one of them may be 0 mod p.
    """
    get = cur.get
    while cur:
        k = min(cur)
        c = cur[k] % p
        if not c:
            del cur[k]
            continue
        brow = rows.get(k)
        if brow is None:
            cur[k] = c
            return k
        for j, b in brow.items():
            cur[j] = get(j, 0) - c * b
        del cur[k]
    return None


def _scaled(cur: dict[int, int], inv: int, p: int) -> dict[int, int]:
    """The row times inv, reduced mod p, without zero entries."""
    return {j: y for j, x in cur.items() if (y := x * inv % p)}


class EchelonBasis:
    """Incremental row echelon form over GF(p), as one dict from pivot to
    row.  Rows are never modified after insertion.
    """

    __slots__ = ("p", "rows")

    def __init__(self, p: int = MERSENNE61):
        self.p = p
        self.rows: dict[int, dict[int, int]] = {}

    @property
    def rank(self) -> int:
        return len(self.rows)

    def absorb(self, rows: list[dict[int, int]],
               width: int | None = None) -> list[int]:
        """Add sparse rows, which the basis consumes, to the span: the
        indices of those that grew the rank, in increasing order.  A row
        whose pivot is width or more is a relation and is left out, reduced
        in place, as at a tag column.  Entries may be any integers:
        reduce_row reads each one mod p, and a stored row is reduced mod p.

        Each pass reduces the rows still waiting once against the basis as
        it stands and takes their pivots in order.  A row's walk stops at
        its first nonzero key that is no pivot, so it passed each pivot
        taken before it in the pass at a zero entry unless it stopped
        there: up to the first row whose pivot repeats one taken, each row
        is reduced as if the rows before it had gone in one at a time.  That
        row and every row after it wait for the next pass.  The rows taken
        share one inverse: the product of their pivot entries is inverted
        once, and a backward walk over the running products peels off each
        entry's own inverse (Montgomery 1987).  Rows whose pivots fall in
        distinct blocks, as a peel round's 0-extension rows do, all go in on
        the first pass; a single row takes one inverse if it grows the basis.
        """
        p, grown, start = self.p, [], 0
        while start < len(rows):
            taken: dict[int, int] = {}  # pivot -> row index
            stop = len(rows)
            for k in range(start, len(rows)):
                lead = reduce_row(rows[k], self.rows, p)
                if lead is None or width is not None and lead >= width:
                    continue
                if lead in taken:
                    stop = k
                    break
                taken[lead] = k
            if taken:
                before, product = [], 1
                for lead, k in taken.items():
                    before.append(product)
                    product = product * rows[k][lead] % p
                # inv is the inverse of the product of the entries up to
                # row k; times the product before k it inverts k's own
                inv = pow(product, -1, p)
                for (lead, k), prior in zip(reversed(taken.items()), reversed(before)):
                    self.rows[lead] = _scaled(rows[k], inv * prior % p, p)
                    inv = inv * rows[k][lead] % p
                grown.extend(taken.values())
            start = stop
        return grown

    def motion(self, values) -> list[int]:
        """The vector that every row annihilates and that keeps the given
        values, a dense sequence, at the free columns.  Going down the pivots
        in decreasing order, each pivot entry loses the row's product with the
        vector so far; the row is 1 at its pivot, so the product drops to 0."""
        p, m = self.p, list(values)
        for piv in sorted(self.rows, reverse=True):
            m[piv] = (m[piv] - sum(c * m[j] for j, c in self.rows[piv].items())) % p
        return m


def dual_rows(rows: list[dict[int, int]], width: int,
              p: int = MERSENNE61) -> tuple[list[dict[int, int]], list[int]]:
    """A representation of the dual of the sparse rows' matroid, which it
    consumes, one sparse vector per row, and the rows' r pivot columns;
    every column is below width.

    Row k is absorbed up to width with a unit tag at column width + k: a
    row whose pivot falls left of the tags grows the basis, and any other
    row reduces to zero on the real columns, leaving a relation among the
    rows, its tag part.  The relation of row k has tag k and otherwise only
    tags of basis rows, so the m - r relations are independent and span
    every relation.  Row e's dual vector holds its coefficients across them,
    {relation: coefficient}, so a set X of rows has rank
    |X| + r*(E - X) - r*(E), r* the rank of dual vectors and r*(E) = m - r
    (Oxley, Matroid Theory, Thm 2.2.8).  The basis rows are unit upper
    triangular on the pivots, so the rows keep every rank there.
    """
    basis, vectors = EchelonBasis(p), [{} for _ in rows]
    for k, cur in enumerate(rows):
        cur[width + k] = 1
        if basis.absorb([cur], width):
            continue
        # the relations found before this one: one per row left out so far
        relation = k - basis.rank
        for j, x in cur.items():
            if x := x % p:
                vectors[j - width][relation] = x
    return vectors, sorted(basis.rows)


def bases_by_minors(vectors, r: int, p: int = MERSENNE61) -> list[int]:
    """The r-subsets, as bitmasks, of vectors with keys in range(r) whose
    determinant is nonzero mod p.  Level j maps the j-subsets on coordinates
    0..j-1 to their nonzero minors.  By Laplace expansion along j - 1, the
    minor of S sums x times the minor of S - c over each c in S with entry x
    there, negated where an odd number of S lies above c.  Every level is
    pushed into the next alike and dropped; the next is reduced mod p in
    place, its zero minors deleted, so no third dict is built beside the
    two.  Level r's keys are the bases.  Nothing is reduced as a row or
    inverted."""
    level = {0: 1}
    for j in range(r):
        column = [(1 << c, -2 << c, x) for c, v in enumerate(vectors) if (x := v.get(j))]
        sums: dict[int, int] = {}
        for t, d in level.items():
            for b, above, x in column:
                if not t & b:
                    y = -x * d if (t & above).bit_count() & 1 else x * d
                    sums[t | b] = sums.get(t | b, 0) + y
        level, zeros = sums, []
        for t, x in level.items():
            if x := x % p:
                level[t] = x
            else:
                zeros.append(t)
        for t in zeros:
            del level[t]
    return list(level)
