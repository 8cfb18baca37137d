"""Edge-set combinatorics on complete graphs.

Every edge subset of K_n is stored as a bitmask over a fixed lexicographic
edge order, so set algebra is integer arithmetic and any subset is hashable.
The ambient vertex count n travels with the mask; combining edge sets with
different ambients is a hard error rather than a silent reindexing.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator

from .errors import AmbientMismatch

Edge = tuple[int, int]


@lru_cache(maxsize=None)
def _edge_table(n: int) -> tuple[tuple[Edge, ...], dict[Edge, int]]:
    edges = tuple((u, v) for u in range(n) for v in range(u + 1, n))
    return edges, {e: i for i, e in enumerate(edges)}


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


def order_search(count: int, moves, start) -> tuple[int, ...] | None:
    """An order of 0..count-1 built one step at a time, or None if none exists.

    ``moves(used, state)`` yields ``(i, next_state)`` for the unused indices
    allowed next, in the caller's preferred order; ``state`` must be a
    function of the bitmask ``used`` alone (``start`` for the empty prefix).
    Depth-first with full backtracking and a memo of failed ``used`` sets,
    so None is a certificate that no order exists.
    """
    full = (1 << count) - 1
    failed: set[int] = set()
    order: list[int] = []

    def walk(used: int, state) -> bool:
        if used == full:
            return True
        if used in failed:
            return False
        for i, nxt in moves(used, state):
            order.append(i)
            if walk(used | 1 << i, nxt):
                return True
            order.pop()
        failed.add(used)
        return False

    return tuple(order) if walk(0, start) else None


@dataclass(frozen=True)
class EdgeSet:
    """A subset of E(K_n): ambient size plus a bitmask in lexicographic edge order."""

    n: int
    mask: int = 0

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("ambient vertex count must be nonnegative")
        if self.mask < 0 or self.mask >> edge_count(self.n):
            raise ValueError(f"mask {self.mask:#x} out of range for ambient K_{self.n}")

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
        seen = set()
        for u, v in self.edges():
            seen.add(u)
            seen.add(v)
        return frozenset(seen)

    def neighbors(self, v: int) -> frozenset[int]:
        out = set()
        for a, b in self.edges():
            if a == v:
                out.add(b)
            elif b == v:
                out.add(a)
        return frozenset(out)

    def degree(self, v: int) -> int:
        return len(self.neighbors(v))

    def star(self, v: int) -> "EdgeSet":
        """Edges of this set incident to v."""
        mask = 0
        for u, w in self.edges():
            if v in (u, w):
                mask |= 1 << edge_index(self.n, u, w)
        return EdgeSet(self.n, mask)

    def induced(self, vertices: Iterable[int]) -> "EdgeSet":
        vs = set(vertices)
        return EdgeSet.from_edges(
            self.n, (e for e in self.edges() if e[0] in vs and e[1] in vs))

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


# -- vertex extensions ----------------------------------------------------

# kind -> (edges deleted, vertices attached) for the 3-dimensional case
_EXTENSION_SHAPE = {"0ext": (0, 3), "1ext": (1, 4), "xrep": (2, 5)}


def apply_extension(F: EdgeSet, kind: str, new_vertex: int,
                    attach: Iterable[int], delete: Iterable[Edge] = (),
                    dim: int = 3) -> EdgeSet:
    """Apply a 0-extension, 1-extension or X-replacement at a new vertex.

    A k-extension deletes k edges of F and joins new_vertex to dim+k existing
    vertices, the deleted endpoints among them.  Deleting two adjacent edges
    (a V-replacement) is accepted but flagged with a warning, since only the
    disjoint form is known to preserve independence.
    """
    if kind not in _EXTENSION_SHAPE:
        raise ValueError(f"unknown extension kind {kind!r}")
    k, base_attach = _EXTENSION_SHAPE[kind]
    attach = sorted(set(attach))
    delete = [canonical_edge(*e) for e in delete]
    want_attach = dim + k
    if base_attach != want_attach and dim == 3:
        raise AssertionError("extension shape table out of sync")
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
    """Parse an edge list: one "u v" pair per line, '#' comments, optional
    "n=<k>" header fixing the ambient vertex count."""
    edges: list[Edge] = []
    ambient = None
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("n="):
            try:
                ambient = int(line[2:])
            except ValueError:
                raise ValueError(f"line {lineno}: bad ambient header {line!r}") from None
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


def cycle_graph(n: int) -> EdgeSet:
    return EdgeSet.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def path_graph(n: int) -> EdgeSet:
    return EdgeSet.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def star_graph(n: int) -> EdgeSet:
    return EdgeSet.from_edges(n, [(0, i) for i in range(1, n)])


def wheel_graph(n: int) -> EdgeSet:
    """Cycle on vertices 1..n-1 plus a hub at 0."""
    rim = [(i, i % (n - 1) + 1) for i in range(1, n)]
    return EdgeSet.from_edges(n, rim + [(0, i) for i in range(1, n)])


def complete_bipartite_graph(a: int, b: int) -> EdgeSet:
    return EdgeSet.from_edges(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def double_banana() -> EdgeSet:
    """Two K_5 copies sharing vertices {0,1}, with the shared edge 01 removed.

    The classic flexible circuit-free witness: 18 edges on 8 vertices.
    """
    b1 = EdgeSet.complete(8, [0, 1, 2, 3, 4])
    b2 = EdgeSet.complete(8, [0, 1, 5, 6, 7])
    return (b1 | b2).remove(0, 1)


def petersen_graph() -> EdgeSet:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return EdgeSet.from_edges(10, outer + spokes + inner)


def shifted_union(F: EdgeSet, G: EdgeSet) -> EdgeSet:
    """Disjoint union: G's vertices are shifted past F's ambient."""
    n = F.n + G.n
    shifted = [(u + F.n, v + F.n) for u, v in G.edges()]
    return EdgeSet.from_edges(n, list(F.edges()) + shifted)
