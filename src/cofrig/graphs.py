"""Edge-set combinatorics on complete graphs.

Every edge subset of K_n is stored as a bitmask over a fixed lexicographic
edge order, so set algebra is integer arithmetic and any subset is hashable.
The ambient vertex count n travels with the mask; combining edge sets with
different ambients is a hard error rather than a silent reindexing.
"""

from __future__ import annotations

import itertools
import warnings
from functools import lru_cache
from typing import Iterable, Iterator

from .errors import AmbientMismatch

Edge = tuple[int, int]


@lru_cache(maxsize=None)
def _edge_table(n: int) -> tuple[tuple[Edge, ...], dict[Edge, int]]:
    edges = tuple((u, v) for u in range(n) for v in range(u + 1, n))
    return edges, {e: i for i, e in enumerate(edges)}


@lru_cache(maxsize=None)
def stars(n: int) -> tuple[int, ...]:
    """Per vertex of K_n, the mask of the edges at it."""
    out = [0] * n
    for i, (u, v) in enumerate(_edge_table(n)[0]):
        out[u] |= 1 << i
        out[v] |= 1 << i
    return tuple(out)


def edge_count(n: int) -> int:
    return n * (n - 1) // 2


def canonical_edge(u: int, v: int) -> Edge:
    if u == v:
        raise ValueError(f"loop edge ({u},{v}) is not allowed")
    if u < 0 or v < 0:
        raise ValueError(f"negative vertex in edge ({u},{v})")
    return (u, v) if u < v else (v, u)


def edge_index(n: int, u: int, v: int) -> int:
    """Position of edge uv in the lexicographic order on E(K_n)."""
    e = canonical_edge(u, v)
    if e[1] >= n:
        raise ValueError(f"edge {e} does not fit in ambient K_{n}")
    return _edge_table(n)[1][e]


def edge_at(n: int, i: int) -> Edge:
    return _edge_table(n)[0][i]


def bits(mask: int) -> Iterator[int]:
    """Positions of the set bits of mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def union_of(masks, chosen: int) -> int:
    """Bitwise union of ``masks[j]`` over the set bits j of ``chosen``."""
    union = 0
    for j in bits(chosen):
        union |= masks[j]
    return union


def peel_order(count: int, fits) -> tuple[int, ...] | None:
    """An order of 0..count-1 in which every index fits after its
    predecessors, or None if there is none.

    ``fits(i, before)`` says whether index i may follow the indices in the
    bitmask ``before``, and must be hereditary: if it holds for ``before``,
    it holds for every submask of ``before``.  Then restricting an order to
    a subfamily keeps each index's predecessors a submask, so every
    subfamily of an orderable family is orderable; and if index i fits
    after all the others, an order of the others followed by i is an order
    of the whole.  So peeling off, last to first, any index that fits after
    the rest never has to backtrack, and an empty choice proves that no
    order exists (smallest-last, as in degeneracy orderings).

    The highest fitting index is peeled first, so a family already in a
    valid order keeps its index order.
    """
    rest = (1 << count) - 1
    peeled: list[int] = []
    while rest:
        for i in range(rest.bit_length() - 1, -1, -1):
            if rest >> i & 1 and fits(i, rest ^ 1 << i):
                break
        else:
            return None
        peeled.append(i)
        rest ^= 1 << i
    return tuple(reversed(peeled))


class _Immutable:
    """Refuses assignment and deletion: a value whose __init__ set its
    fields through object.__setattr__ stays as built, so it can be hashed."""

    __slots__ = ()

    def __setattr__(self, name, *_):
        raise AttributeError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__


class EdgeSet(_Immutable):
    """A subset of E(K_n): ambient size plus a bitmask in lexicographic edge order.

    Two edge sets are equal when their ambients and masks are."""

    __slots__ = ("n", "mask")

    def __init__(self, n: int, mask: int = 0):
        if n < 0:
            raise ValueError("ambient vertex count must be nonnegative")
        if mask < 0 or mask >> edge_count(n):
            raise ValueError(f"mask {mask:#x} out of range for ambient K_{n}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "mask", mask)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.n, self.mask) == (other.n, other.mask)

    def __hash__(self) -> int:
        return hash((self.n, self.mask))

    def __repr__(self) -> str:
        return f"EdgeSet(n={self.n!r}, mask={self.mask!r})"

    def __reduce__(self):
        # copy and pickle rebuild through __init__, which may set the fields
        return EdgeSet, (self.n, self.mask)

    @classmethod
    def empty(cls, n: int) -> "EdgeSet":
        return cls(n, 0)

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[Edge]) -> "EdgeSet":
        mask = 0
        for u, v in edges:
            mask |= 1 << edge_index(n, u, v)
        return cls(n, mask)

    @classmethod
    def complete(cls, n: int, vertices: Iterable[int] | None = None) -> "EdgeSet":
        """All edges of K_n, or all edges among the given vertices."""
        if vertices is None:
            return cls(n, (1 << edge_count(n)) - 1)
        vs = sorted(set(vertices))
        mask = 0
        for u, v in itertools.combinations(vs, 2):
            mask |= 1 << edge_index(n, u, v)
        return cls(n, mask)

    # -- set algebra ------------------------------------------------------

    def _check_ambient(self, other: "EdgeSet") -> None:
        if self.n != other.n:
            raise AmbientMismatch(
                f"ambient mismatch: K_{self.n} vs K_{other.n}")

    def __or__(self, other: "EdgeSet") -> "EdgeSet":
        self._check_ambient(other)
        return EdgeSet(self.n, self.mask | other.mask)

    def __and__(self, other: "EdgeSet") -> "EdgeSet":
        self._check_ambient(other)
        return EdgeSet(self.n, self.mask & other.mask)

    def __sub__(self, other: "EdgeSet") -> "EdgeSet":
        self._check_ambient(other)
        return EdgeSet(self.n, self.mask & ~other.mask)

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __bool__(self) -> bool:
        return self.mask != 0

    def __contains__(self, edge: Edge) -> bool:
        u, v = canonical_edge(*edge)
        if v >= self.n:
            return False
        return bool(self.mask >> edge_index(self.n, u, v) & 1)

    def __iter__(self) -> Iterator[Edge]:
        return self.edges()

    def edges(self) -> Iterator[Edge]:
        return map(_edge_table(self.n)[0].__getitem__, bits(self.mask))

    def issubset(self, other: "EdgeSet") -> bool:
        self._check_ambient(other)
        return self.mask & ~other.mask == 0

    def add(self, u: int, v: int) -> "EdgeSet":
        return EdgeSet(self.n, self.mask | 1 << edge_index(self.n, u, v))

    def remove(self, u: int, v: int) -> "EdgeSet":
        return EdgeSet(self.n, self.mask & ~(1 << edge_index(self.n, u, v)))

    # -- graph queries ----------------------------------------------------

    def vertex_support(self) -> frozenset[int]:
        """Vertices incident to at least one edge."""
        mask = self.mask
        return frozenset(v for v, star in enumerate(stars(self.n)) if mask & star)

    def neighbors(self, v: int) -> frozenset[int]:
        return frozenset(u for e in self.star(v).edges() for u in e if u != v)

    def degree(self, v: int) -> int:
        return len(self.star(v))

    def star(self, v: int) -> "EdgeSet":
        """Edges of this set incident to v."""
        star = stars(self.n)[v] if 0 <= v < self.n else 0
        return EdgeSet(self.n, self.mask & star)

    def reindexed(self, new_n: int) -> "EdgeSet":
        """Same edges inside a different ambient K_new_n (bit positions move)."""
        if new_n == self.n:
            return self
        return EdgeSet.from_edges(new_n, self.edges())

    def sorted_edges(self) -> list[Edge]:
        return list(self.edges())


def complete_edges(n: int, vertices: Iterable[int]) -> EdgeSet:
    """Edge set of the clique on the given vertices inside ambient K_n.

    Fewer than two vertices give the empty edge set.
    """
    return EdgeSet.complete(n, vertices)


@lru_cache(maxsize=1024)
def clique_mask(n: int, verts: tuple[int, ...]) -> int:
    """Clique mask of a sorted vertex tuple in K_n; the last 1024 are cached."""
    return EdgeSet.complete(n, verts).mask


class CliqueFamily(_Immutable):
    """Vertex sets inside K_n, stored as sorted tuples and read as cliques.

    Every member must fit inside K_n; ``_check_member(i, m)`` in each subclass
    raises ValueError for any other member m (at index i) it does not admit.
    Two families of one class are equal when their fields (``_fields``)
    are, so a cached property never enters a comparison or a hash.
    """

    def __init__(self, n: int, members):
        members = tuple(tuple(sorted(m)) for m in members)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "members", members)
        for i, m in enumerate(members):
            self._check_member(i, m)
            if m[0] < 0 or m[-1] >= n:
                raise ValueError(f"member {i} does not fit inside K_{n}: {m}")

    def _fields(self) -> dict:
        return {"n": self.n, "members": self.members}

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(tuple(self._fields().values()))

    def __repr__(self) -> str:
        fields = ", ".join(f"{k}={v!r}" for k, v in self._fields().items())
        return f"{type(self).__qualname__}({fields})"

    def __len__(self) -> int:
        return len(self.members)

    def edge_masks(self) -> list[int]:
        return [clique_mask(self.n, m) for m in self.members]

    def union_edges(self) -> EdgeSet:
        mask = 0
        for m in self.edge_masks():
            mask |= m
        return EdgeSet(self.n, mask)


# -- vertex extensions ----------------------------------------------------

# kind -> number of edges deleted
_EXTENSION_DELETES = {"0ext": 0, "1ext": 1, "xrep": 2}


def apply_extension(F: EdgeSet, kind: str, new_vertex: int,
                    attach: Iterable[int], delete: Iterable[Edge] = ()) -> EdgeSet:
    """Apply a 0-extension, 1-extension or X-replacement at a new vertex.

    A k-extension deletes k edges of F and joins new_vertex to 3+k existing
    vertices, the deleted endpoints among them.  Deleting two adjacent edges
    (a V-replacement) is accepted but flagged with a warning, since only the
    disjoint form is known to preserve independence.
    """
    if kind not in _EXTENSION_DELETES:
        raise ValueError(f"unknown extension kind {kind!r}")
    k = _EXTENSION_DELETES[kind]
    attach = sorted(set(attach))
    delete = [canonical_edge(*e) for e in delete]
    want_attach = 3 + k
    if len(attach) != want_attach:
        raise ValueError(
            f"{kind} must attach to exactly {want_attach} vertices, got {len(attach)}")
    if len(delete) != k:
        raise ValueError(f"{kind} must delete exactly {k} edges, got {len(delete)}")
    support = F.vertex_support()
    if new_vertex in support:
        raise ValueError(f"new vertex {new_vertex} already has edges in F")
    if new_vertex in attach:
        raise ValueError("new vertex cannot attach to itself")
    for e in delete:
        if e not in F:
            raise ValueError(f"deleted edge {e} is not in F")
        if not set(e) <= set(attach):
            raise ValueError(f"deleted edge {e} has an endpoint outside the attach set")
    if k == 2:
        if set(delete[0]) & set(delete[1]):
            warnings.warn(
                "deleted edges share a vertex (V-replacement); independence "
                "preservation is not guaranteed", stacklevel=2)
    new_n = max(F.n, new_vertex + 1, max(attach, default=-1) + 1)
    out = F.reindexed(new_n)
    for e in delete:
        out = out.remove(*e)
    for u in attach:
        out = out.add(u, new_vertex)
    return out


# -- text format -----------------------------------------------------------

def parse_edge_text(text: str) -> EdgeSet:
    """Parse an edge list: one "u v" pair per line, '#' comments, and at
    most one "n=<k>" header (k >= 0) fixing the ambient vertex count."""
    edges: list[Edge] = []
    ambient = None
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("n="):
            if ambient is not None or not line[2:].strip().isdecimal():
                raise ValueError(f"line {lineno}: bad ambient header {line!r} "
                                 "(one n=<k> with k >= 0 is allowed)")
            ambient = int(line[2:])
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"line {lineno}: expected 'u v', got {line!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ValueError(f"line {lineno}: non-integer vertex in {line!r}") from None
        edges.append(canonical_edge(u, v))
    top = max((v for _, v in edges), default=-1)
    if ambient is None:
        ambient = top + 1
    elif top >= ambient:
        raise ValueError(f"edge vertex {top} exceeds declared ambient n={ambient}")
    return EdgeSet.from_edges(ambient, edges)


def load_edge_file(path) -> EdgeSet:
    with open(path) as fh:
        return parse_edge_text(fh.read())


def format_edge_text(F: EdgeSet) -> str:
    lines = [f"n={F.n}"]
    lines.extend(f"{u} {v}" for u, v in F.edges())
    return "\n".join(lines) + "\n"


# -- named graphs ----------------------------------------------------------

def complete_graph(n: int) -> EdgeSet:
    return EdgeSet.complete(n)


def double_banana() -> EdgeSet:
    """Two K_5 copies sharing vertices {0,1}, with the shared edge 01 removed.

    The classic flexible circuit-free witness: 18 edges on 8 vertices.
    """
    b1 = EdgeSet.complete(8, [0, 1, 2, 3, 4])
    b2 = EdgeSet.complete(8, [0, 1, 5, 6, 7])
    return (b1 | b2).remove(0, 1)
