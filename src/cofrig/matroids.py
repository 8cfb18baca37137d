"""Finite matroids given by the full rank table of a small ground set.

Ground elements are 0..m-1 and subsets are bitmasks, matching the edge
encoding in graphs.py, so a rank table from the cofactor oracle plugs in
directly.  An explicit matroid holds the rank of all 2^m subsets, so it is
capped at m <= ENUM_CAP = 16.

Whole-table questions (rank axioms, cyclic sets, flats) run on bitsets of
subsets: 2^m-bit integers whose bit x stands for the subset x.  levels[k]
holds the subsets of rank >= k and element_bits(m)[e] those containing e.
A right shift by 2^e moves the bit of x + e onto x, so one shift compares
every subset without e with its extension by e, and each question costs
O(m^2 r) big-integer operations instead of a loop over the 2^m subsets.
A rank table is bytes, one rank in 0..m <= 16 per subset: tables are capped
with bytes.translate and add as integers with no byte carry.
"""

from __future__ import annotations

import itertools
import re
from functools import cached_property, lru_cache
from typing import Collection, Iterable, Sequence

from .errors import CapExceeded
from .graphs import EdgeSet, edge_count

ENUM_CAP = 16

_DIGIT_VALUE = bytes.maketrans(b"01", b"\x00\x01")
_PLUS_ONE = bytes(range(1, 256)) + b"\x00"


@lru_cache(maxsize=ENUM_CAP + 1)
def element_bits(m: int) -> tuple[int, ...]:
    """For each element e of {0..m-1}, the bitset of the subsets containing e,
    built by doubling: e's subsets are the upper half of the 2^(e+1)."""
    with_e = []
    for e in range(m):
        w = 1 << e
        with_e = [x | x << w for x in with_e] + [(1 << w) - 1 << w]
    return tuple(with_e)


@lru_cache(maxsize=ENUM_CAP + 1)
def size_bits(m: int) -> tuple[int, ...]:
    """For each k in 0..m, the bitset of the k-element subsets of {0..m-1}."""
    sizes = [1]
    for e in range(m):
        sizes = [a | b << (1 << e) for a, b in zip([*sizes, 0], [0, *sizes])]
    return tuple(sizes)


@lru_cache(maxsize=ENUM_CAP + 1)
def subset_sizes(m: int) -> bytes:
    """One byte per subset of {0..m-1}, lowest first: its number of elements.
    The subsets with element e are the upper half of each run of 2^(e+1), so
    each doubling appends a copy one higher."""
    sizes = b"\x00"
    for _ in range(m):
        sizes += sizes.translate(_PLUS_ONE)
    return sizes


def _capped(ranks: bytes, k: int) -> bytes:
    """The byte ranks, each lowered to at most k >= 0."""
    return ranks.translate(bytes(min(v, k) for v in range(256)))


def down_closure(family: int, m: int) -> int:
    """The bitset of every subset of a member of the family bitset."""
    for e, with_e in enumerate(element_bits(m)):
        family |= (family & with_e) >> (1 << e)
    return family


def family_bits(family: Collection[int]) -> int:
    """The bitset of a family of subsets."""
    packed = bytearray((max(family, default=0) >> 3) + 1)
    for x in family:
        packed[x >> 3] |= 1 << (x & 7)
    return int.from_bytes(packed, "little")


def members(family: int) -> list[int]:
    """The subsets in a family bitset, in increasing order."""
    return [hit.start() for hit in re.finditer("1", format(family, "b")[::-1])]


def subset_flags(family: int, m: int) -> bytes:
    """One byte per subset of {0..m-1}, lowest first: 1 for the members of
    the family bitset, else 0."""
    return format(family, f"0{1 << m}b")[::-1].encode().translate(_DIGIT_VALUE)


class ExplicitMatroid:
    """A matroid on {0..m-1} given by its full rank table, m <= ENUM_CAP,
    kept as bytes (not copied); a rank outside 0..m raises ValueError."""

    def __init__(self, table: Sequence[int]):
        m = (len(table) - 1).bit_length()
        if len(table) != 1 << m:
            raise ValueError("table length must be a power of two")
        if m > ENUM_CAP:
            raise CapExceeded(f"rank table over {m} elements")
        try:
            ranks = bytes(table)
        except ValueError:  # a rank outside 0..255
            ranks = None
        # deleting every byte in 0..m leaves the ranks outside it
        if ranks is None or ranks.translate(None, bytes(range(m + 1))):
            x = next(x for x, r in enumerate(table) if not 0 <= r <= m)
            raise ValueError(f"rank {table[x]} of {x:#x} is outside 0..{m}")
        self.m = m
        self.full_mask = (1 << m) - 1
        self._table = ranks

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_bases(cls, m: int, bases: Iterable[int]) -> "ExplicitMatroid":
        """The matroid with the given bases, if they form one: rank(X) is the
        largest size of a subset of X inside a base.  Level k, the subsets
        of rank >= k, is the up-closure of the independent k-sets, and the
        table is the sum of the levels."""
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
        # subsets of bases are the independent sets
        independent = down_closure(family_bits(base_set), m)
        levels = []
        for size_k in size_bits(m)[:max(sizes) + 1]:
            level = independent & size_k
            for e, with_e in enumerate(element_bits(m)):
                level |= (level & ~with_e) << (1 << e)
            levels.append(level)
        table = sum(int.from_bytes(subset_flags(level, m), "little")
                    for level in levels[1:])
        matroid = cls(table.to_bytes(1 << m, "little"))
        matroid.levels = levels
        return matroid

    # -- rank and derived operators ------------------------------------------

    def rank(self, mask: int) -> int:
        return self._table[mask]

    def full_table(self) -> bytes:
        return self._table

    @property
    def rank_total(self) -> int:
        return self._table[self.full_mask]

    def truncate(self, k: int) -> "ExplicitMatroid":
        """The rank-k truncation, k >= 0."""
        return ExplicitMatroid(_capped(self._table, k))

    # -- whole-table bitsets (see the module docstring) ------------------------

    @cached_property
    def levels(self) -> list[int]:
        """levels[k] is the bitset of the subsets of rank >= k, k <= max rank."""
        ranks = self._table[::-1]  # one byte per subset, highest first
        # translating byte v to the digit of "v >= k" spells levels[k] in binary
        return [int(ranks.translate(b"0" * k + b"1" * (256 - k)), 2)
                for k in range(max(ranks) + 1)]

    @cached_property
    def _raises(self) -> list[int]:
        """raises[e] is the bitset of the subsets x without e whose rank
        r(x + e) exceeds r(x): some level holds x + e and not x."""
        raises = []
        for e, with_e in enumerate(element_bits(self.m)):
            step, up = 1 << e, 0
            for level in self.levels[1:]:
                up |= level >> step & ~level
            raises.append(up & ~with_e)
        return raises

    @cached_property
    def _cyclic_and_flat_bits(self) -> tuple[int, int]:
        """The bitsets of the cyclic sets (no element is a coloop) and of the
        flats (every element outside raises the rank), both read off _raises:
        e is a coloop of x exactly when x - e is in raises[e]."""
        cyclic = flats = (1 << (1 << self.m)) - 1
        raises = self._raises
        # these two bitsets are all that is kept of raises, to save memory:
        # free_erection checks a new matroid's axioms before it asks for its
        # cyclic flats, and a later axiom check derives raises again
        del self.__dict__["_raises"]
        for e, (up, with_e) in enumerate(zip(raises, element_bits(self.m))):
            cyclic &= ~(up << (1 << e))
            flats &= with_e | up
        return cyclic, flats

    @property
    def cyclic_bits(self) -> int:
        return self._cyclic_and_flat_bits[0]

    @cached_property
    def circuit_bits(self) -> int:
        """The circuits: the cyclic sets of rank k with k + 1 elements."""
        circuits, levels = 0, self.levels
        for level, higher, size in zip(levels, [*levels[1:], 0], size_bits(self.m)[1:]):
            circuits |= level & ~higher & size
        return circuits & self.cyclic_bits

    # -- enumeration ---------------------------------------------------------

    def flats(self) -> list[int]:
        return members(self._cyclic_and_flat_bits[1])

    def cyclic_flats(self, include_spanning: bool = False) -> list[int]:
        """Non-spanning cyclic flats (the erection seed family) by default."""
        cyclic, flats = self._cyclic_and_flat_bits
        if not include_spanning:
            flats &= ~self.levels[self.rank_total]
        return members(cyclic & flats)

    def circuits(self) -> list[int]:
        """Minimal dependent sets: the cyclic sets of nullity one."""
        return members(self.circuit_bits)

    # -- serialization -----------------------------------------------------------

    def bases(self) -> list[int]:
        r = self.rank_total
        return members(self.levels[r] & size_bits(self.m)[r])

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
            key, val = (part.strip() for part in lines[i].split("=", 1))
            if key in header:
                raise ValueError(f"repeated header key {key!r}")
            header[key] = val
            i += 1
        if "ground_size" not in header:
            raise ValueError("missing ground_size")
        m = int(header["ground_size"])
        if m < 0:
            raise ValueError(f"negative ground_size {m}")
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
    """Check the local rank axioms on the whole table; raises AssertionError
    naming the lowest failing subset.

    Checked: r(empty) = 0, unit increase, and local submodularity
    (r(X+e) = r(X+f) = r(X) implies r(X+e+f) = r(X)), which with ranks in
    0..m (as ExplicitMatroid keeps them) characterize matroid rank functions.
    Unit increase is checked level by level for each element.  Once it holds,
    x + e lies outside raises[e] (M._raises) exactly when r(x + e) = r(x),
    so local submodularity fails at x+e,f exactly where x lies in neither
    raises[e] nor raises[f] but x + e lies in raises[f]: three operations
    per pair of elements, whatever the rank.
    """
    if M.rank(0) != 0:
        raise AssertionError("rank of the empty set is not 0")
    m, levels, with_e = M.m, M.levels, element_bits(M.m)
    failures = []
    for e in range(m):
        step, bad = 1 << e, 0
        for below, level in zip(levels, levels[1:]):
            up = level >> step  # bit x: rank(x + e) >= k, for level k
            # rank(x + e) < k <= rank(x), or rank(x) + 2 <= k <= rank(x + e)
            bad |= level & ~up | up & ~below
        bad &= ~with_e[e]
        if bad:
            failures.append(((bad & -bad).bit_length() - 1, e))
    if failures:
        x, e = min(failures)
        raise AssertionError(f"unit increase fails at {x:#x}+{e}")
    raises = M._raises
    # stays[e]: the x without e with rank(x + e) = rank(x)
    stays = [~up & ~with_e[e] for e, up in enumerate(raises)]
    for e, f in itertools.combinations(range(m), 2):
        bad = stays[e] & stays[f] & raises[f] >> (1 << e)
        if bad:
            failures.append(((bad & -bad).bit_length() - 1, e, f))
    if failures:
        x, e, f = min(failures)
        raise AssertionError(f"local submodularity fails at {x:#x}+{e},{f}")


def _size_levels(m: int, r: int) -> list[int]:
    """The levels of U(r, m): levels[k] holds the subsets of at least k
    elements, for k up to min(r, m)."""
    levels, at_least = [], 0
    for size_k in reversed(size_bits(m)):
        at_least |= size_k
        levels.append(at_least)
    return levels[::-1][:min(r, m) + 1]


def uniform_matroid(m: int, r: int) -> ExplicitMatroid:
    """U(r, m): every subset of at most r >= 0 elements is independent.
    Its levels come from the subset sizes, not from parsing its table."""
    matroid = ExplicitMatroid(_capped(subset_sizes(m), r))
    matroid.levels = _size_levels(m, r)
    return matroid


def clique_truncation_matroid(n: int, clique_order: int) -> ExplicitMatroid:
    """The rank-C(t,2) matroid on E(K_n) whose nonspanning circuits are the
    K_t copies: independence means at most C(t,2) edges and no full K_t.

    For t = 5 this is the common rank-10 truncation of every abstract
    3-rigidity matroid; its free elevation is the object under study here.
    Its rank is min(|X|, C(t,2)) - [X is a K_t copy]: for t >= 3 two K_t
    copies share at most C(t-1,2) < C(t,2) - 1 edges, so a set of more than
    C(t,2) edges has a C(t,2)-subset that is no copy.  So its levels are
    those of U(C(t,2), m) with the copies taken out of level C(t,2), which
    is dropped if that leaves it empty (n = t).
    """
    t = clique_order
    if t < 3:
        raise ValueError(f"clique truncations need t >= 3, not {t}")
    m = edge_count(n)
    if m > ENUM_CAP:
        raise CapExceeded(f"clique truncation over {m} elements")
    c = t * (t - 1) // 2
    copies = [EdgeSet.complete(n, vs).mask for vs in itertools.combinations(range(n), t)]
    table = bytearray(_capped(subset_sizes(m), c))
    for x in copies:
        table[x] -= 1
    matroid, levels = ExplicitMatroid(table), _size_levels(m, c)
    if copies:
        levels[c] &= ~family_bits(copies)
        if not levels[c]:
            levels.pop()
    matroid.levels = levels
    return matroid
