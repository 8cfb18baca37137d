"""Finite matroids given by the full rank table of a small ground set.

Ground elements are 0..m-1 and subsets are bitmasks, matching the edge
encoding in graphs.py, so a rank table from the cofactor oracle plugs in
directly.  An explicit matroid holds the rank of all 2^m subsets, so it is
capped at m <= ENUM_CAP = 16.
"""

from __future__ import annotations

import itertools
from functools import cached_property
from typing import Callable, Iterable

from .errors import CapExceeded
from .graphs import EdgeSet, bits, edge_count

ENUM_CAP = 16

RankFn = Callable[[int], int]


# -- operations derived from a rank function on masks ---------------------------

def closure(rank: RankFn, mask: int, ground: int) -> int:
    """Elements of the ground mask whose addition keeps rank(mask)."""
    r = rank(mask)
    out = mask
    for b in bits(ground & ~mask):
        if rank(mask | 1 << b) == r:
            out |= 1 << b
    return out


def cyc(rank: RankFn, mask: int) -> int:
    """mask minus its restriction coloops: the union of circuits inside."""
    r = rank(mask)
    keep = 0
    for b in bits(mask):
        if rank(mask & ~(1 << b)) == r:
            keep |= 1 << b
    return keep


def extend_basis(rank: RankFn, start: int, mask: int) -> int:
    """Greedily extend an independent start inside mask to a base of mask,
    trying the remaining elements in increasing order."""
    cur, r = start, start.bit_count()
    target = rank(mask)
    for b in bits(mask & ~start):
        if r == target:
            break
        if rank(cur | 1 << b) > r:
            cur |= 1 << b
            r += 1
    return cur


def fundamental_circuit(rank: RankFn, base: int, element: int) -> int:
    """The circuit inside base + element, for an independent base spanning
    the element, via greedy removal."""
    if base >> element & 1:
        raise ValueError("element is already in the base")
    cur = base | 1 << element
    if rank(cur) != rank(base):
        raise ValueError("element is not in the closure of the base")
    for b in bits(base):
        smaller = cur & ~(1 << b)
        if rank(smaller) < smaller.bit_count():
            cur = smaller
    return cur


class ExplicitMatroid:
    """A matroid on {0..m-1} given by its full rank table, m <= ENUM_CAP."""

    def __init__(self, table: list[int]):
        m = (len(table) - 1).bit_length()
        if len(table) != 1 << m:
            raise ValueError("table length must be a power of two")
        if m > ENUM_CAP:
            raise CapExceeded(f"rank table over {m} elements")
        self.m = m
        self.full_mask = (1 << m) - 1
        self._table = list(table)

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_table(cls, table: list[int]) -> "ExplicitMatroid":
        return cls(table)

    @classmethod
    def from_function(cls, m: int, rank_fn: Callable[[int], int]) -> "ExplicitMatroid":
        return cls([rank_fn(x) for x in range(1 << m)])

    @classmethod
    def from_independence(cls, m: int,
                          independent: Callable[[int], bool]) -> "ExplicitMatroid":
        """Build the full table from an independence predicate.

        rank(X) = |X| when X is independent, else the max over one-element
        deletions; correct because some element of a dependent X lies in a
        circuit of X, and removing it keeps the rank.
        """
        if m > ENUM_CAP:
            raise CapExceeded(f"independence table over {m} elements")
        table = [0] * (1 << m)
        # every one-element deletion of x is a smaller number than x
        for x in range(1, 1 << m):
            table[x] = (x.bit_count() if independent(x)
                        else max(table[x & ~(1 << b)] for b in bits(x)))
        return cls(table)

    @classmethod
    def from_bases(cls, m: int, bases: Iterable[int]) -> "ExplicitMatroid":
        base_set = set(bases)
        if not base_set:
            raise ValueError("a matroid has at least one base")
        sizes = {b.bit_count() for b in base_set}
        if len(sizes) != 1:
            raise ValueError("bases must all have the same size")
        if m > ENUM_CAP:
            raise CapExceeded(f"bases table over {m} elements")
        outside = [b for b in base_set if b >> m]
        if outside:
            raise ValueError(
                f"base {min(outside):#x} is not a subset of the {m} ground elements")
        independent = [False] * (1 << m)
        for b in base_set:
            independent[b] = True
        # downward closure, largest number first: subsets of bases are the
        # independent sets
        for x in range((1 << m) - 1, 0, -1):
            if independent[x]:
                for b in bits(x):
                    independent[x & ~(1 << b)] = True
        return cls.from_independence(m, independent.__getitem__)

    # -- rank and derived operators ------------------------------------------

    def rank(self, mask: int) -> int:
        return self._table[mask]

    def full_table(self) -> list[int]:
        return self._table

    @property
    def rank_total(self) -> int:
        return self._table[self.full_mask]

    def is_independent(self, mask: int) -> bool:
        return self.rank(mask) == mask.bit_count()

    def closure(self, mask: int) -> int:
        return closure(self.rank, mask, self.full_mask)

    def is_flat(self, mask: int) -> bool:
        """Whether every element outside mask raises its rank."""
        table, r = self._table, self._table[mask]
        return all(table[mask | 1 << b] > r for b in bits(self.full_mask & ~mask))

    @cached_property
    def cyc_table(self) -> list[int]:
        """cyc(x) for every mask x, built on first use."""
        rank = self._table.__getitem__
        return [cyc(rank, x) for x in range(1 << self.m)]

    def cyc(self, mask: int) -> int:
        """mask minus its restriction coloops: the union of circuits inside."""
        return self.cyc_table[mask]

    def is_cyclic(self, mask: int) -> bool:
        return self.cyc_table[mask] == mask

    def is_modular_pair(self, x: int, y: int) -> bool:
        return (self.rank(x) + self.rank(y)
                == self.rank(x | y) + self.rank(x & y))

    def truncate(self, k: int) -> "ExplicitMatroid":
        return ExplicitMatroid([min(r, k) for r in self._table])

    def fundamental_circuit(self, base: int, element: int) -> int:
        """Circuit inside base + element, via greedy removal."""
        return fundamental_circuit(self.rank, base, element)

    # -- enumeration ---------------------------------------------------------

    def flats(self) -> list[int]:
        return [x for x in range(1 << self.m) if self.is_flat(x)]

    def cyclic_sets(self) -> list[int]:
        """All unions of circuits, the empty set included."""
        return [x for x, c in enumerate(self.cyc_table) if c == x]

    def cyclic_flats(self, include_spanning: bool = False) -> list[int]:
        """Non-spanning cyclic flats (the erection seed family) by default."""
        table, top = self._table, self.rank_total
        return [x for x in self.cyclic_sets()
                if (include_spanning or table[x] < top) and self.is_flat(x)]

    def circuits(self) -> list[int]:
        """Minimal dependent sets: the cyclic sets of nullity one."""
        table = self._table
        return [x for x in self.cyclic_sets() if table[x] == x.bit_count() - 1]

    # -- serialization -----------------------------------------------------------

    def bases(self) -> list[int]:
        table = self._table
        r = self.rank_total
        return [x for x in range(1 << self.m)
                if x.bit_count() == r and table[x] == r]

    def to_text(self) -> str:
        lines = [f"ground_size={self.m}", f"rank={self.rank_total}", "bases"]
        lines.extend(format(b, "x") for b in self.bases())
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "ExplicitMatroid":
        """Parse a basis list; anything that is not the serialization of a
        matroid raises ValueError."""
        lines = [ln.strip() for ln in text.splitlines()
                 if ln.strip() and not ln.lstrip().startswith("#")]
        header = {}
        i = 0
        while i < len(lines) and "=" in lines[i]:
            key, val = lines[i].split("=", 1)
            header[key.strip()] = val.strip()
            i += 1
        if "ground_size" not in header:
            raise ValueError("missing ground_size")
        m = int(header["ground_size"])
        if i >= len(lines) or lines[i] != "bases":
            raise ValueError("expected a 'bases' section")
        matroid = cls.from_bases(m, [int(b, 16) for b in lines[i + 1:]])
        try:
            verify_rank_axioms(matroid)
        except AssertionError as exc:
            raise ValueError(f"the bases do not form a matroid: {exc}") from None
        if "rank" in header and matroid.rank_total != int(header["rank"]):
            raise ValueError("declared rank does not match the matroid body")
        return matroid


def verify_rank_axioms(M: ExplicitMatroid) -> None:
    """Full sweep of the local rank axioms; raises AssertionError on failure.

    Checked: r(empty) = 0, unit increase, and local submodularity
    (r(X+e) = r(X+f) = r(X) implies r(X+e+f) = r(X)), which together
    characterize matroid rank functions.
    """
    table = M.full_table()
    m = M.m
    if table[0] != 0:
        raise AssertionError("rank of the empty set is not 0")
    for x in range(1 << m):
        r = table[x]
        for e in range(m):
            if x >> e & 1:
                continue
            re = table[x | 1 << e]
            if not r <= re <= r + 1:
                raise AssertionError(f"unit increase fails at {x:#x}+{e}")
    for e in range(m):
        for f in range(e + 1, m):
            pair = 1 << e | 1 << f
            rest = ((1 << m) - 1) & ~pair
            sub = rest
            while True:
                r = table[sub]
                if table[sub | 1 << e] == r and table[sub | 1 << f] == r:
                    if table[sub | pair] != r:
                        raise AssertionError(
                            f"local submodularity fails at {sub:#x}+{e},{f}")
                if sub == 0:
                    break
                sub = (sub - 1) & rest


def uniform_matroid(m: int, r: int) -> ExplicitMatroid:
    return ExplicitMatroid.from_table([min(x.bit_count(), r)
                                       for x in range(1 << m)])


def clique_truncation_matroid(n: int, clique_order: int) -> ExplicitMatroid:
    """The rank-C(t,2) matroid on E(K_n) whose nonspanning circuits are the
    K_t copies: independence means at most C(t,2) edges and no full K_t.

    For t = 5 this is the common rank-10 truncation of every abstract
    3-rigidity matroid; its free elevation is the object under study here.
    """
    t = clique_order
    m = edge_count(n)
    cap = t * (t - 1) // 2
    cliques = [EdgeSet.complete(n, vs).mask
               for vs in itertools.combinations(range(n), t)]

    def independent(x: int) -> bool:
        if x.bit_count() > cap:
            return False
        return all(x & c != c for c in cliques)

    return ExplicitMatroid.from_independence(m, independent)
