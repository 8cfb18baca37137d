"""Finite matroids given by an explicit rank function on a small ground set.

Ground elements are 0..m-1 and subsets are bitmasks, matching the edge
encoding in graphs.py, so a rank table from the cofactor oracle plugs in
directly.  Enumerative operations (flats, circuits, erections downstream)
materialize the full 2^m rank table and are capped at m <= 16.
"""

from __future__ import annotations

import itertools
from typing import Callable, Iterable

from .errors import CapExceeded
from .graphs import EdgeSet, bits, edge_at, edge_count

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
    cur = base | 1 << element
    if rank(cur) != rank(base):
        raise ValueError("element is not in the closure of the base")
    for b in bits(base):
        smaller = cur & ~(1 << b)
        if rank(smaller) < smaller.bit_count():
            cur = smaller
    return cur


class ExplicitMatroid:
    """A matroid on {0..m-1} driven by a rank function or a full rank table."""

    def __init__(self, m: int, rank_fn: Callable[[int], int] | None = None,
                 table: list[int] | None = None, labels=None):
        if table is None and rank_fn is None:
            raise ValueError("need a rank function or a table")
        self.m = m
        self.full_mask = (1 << m) - 1
        self._fn = rank_fn
        self._table = table
        self.labels = list(labels) if labels is not None else None
        self._memo: dict[int, int] = {}

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_table(cls, table: list[int], labels=None) -> "ExplicitMatroid":
        m = (len(table) - 1).bit_length()
        if len(table) != 1 << m:
            raise ValueError("table length must be a power of two")
        return cls(m, table=list(table), labels=labels)

    @classmethod
    def from_function(cls, m: int, rank_fn: Callable[[int], int],
                      labels=None) -> "ExplicitMatroid":
        return cls(m, rank_fn=rank_fn, labels=labels)

    @classmethod
    def from_independence(cls, m: int, independent: Callable[[int], bool],
                          labels=None) -> "ExplicitMatroid":
        """Build the full table from an independence predicate.

        rank(X) = |X| when X is independent, else the max over one-element
        deletions; correct because some element of a dependent X lies in a
        circuit of X, and removing it keeps the rank.
        """
        if m > ENUM_CAP:
            raise CapExceeded(f"independence table over {m} elements")
        size = 1 << m
        table = [0] * size
        order = sorted(range(size), key=int.bit_count)
        for x in order:
            if x == 0:
                continue
            if independent(x):
                table[x] = x.bit_count()
            else:
                table[x] = max(table[x & ~(1 << b)] for b in bits(x))
        return cls(m, table=table, labels=labels)

    @classmethod
    def from_bases(cls, m: int, bases: Iterable[int], labels=None) -> "ExplicitMatroid":
        base_set = set(bases)
        if not base_set:
            raise ValueError("a matroid has at least one base")
        sizes = {b.bit_count() for b in base_set}
        if len(sizes) != 1:
            raise ValueError("bases must all have the same size")
        if m > ENUM_CAP:
            raise CapExceeded(f"bases table over {m} elements")
        independent = [False] * (1 << m)
        for b in base_set:
            independent[b] = True
        # downward closure: subsets of bases are the independent sets
        for x in sorted(range(1 << m), key=int.bit_count, reverse=True):
            if independent[x]:
                for b in range(m):
                    if x >> b & 1:
                        independent[x & ~(1 << b)] = True
        return cls.from_independence(m, lambda x: independent[x], labels=labels)

    # -- rank and derived operators ------------------------------------------

    def rank(self, mask: int) -> int:
        if self._table is not None:
            return self._table[mask]
        got = self._memo.get(mask)
        if got is None:
            got = self._memo[mask] = self._fn(mask)
        return got

    def full_table(self) -> list[int]:
        if self._table is None:
            if self.m > ENUM_CAP:
                raise CapExceeded(f"rank table over {self.m} elements")
            self._table = [self._fn(x) for x in range(1 << self.m)]
        return self._table

    @property
    def rank_total(self) -> int:
        return self.rank(self.full_mask)

    def is_independent(self, mask: int) -> bool:
        return self.rank(mask) == mask.bit_count()

    def is_spanning(self, mask: int) -> bool:
        return self.rank(mask) == self.rank_total

    def closure(self, mask: int) -> int:
        return closure(self.rank, mask, self.full_mask)

    def is_flat(self, mask: int) -> bool:
        return self.closure(mask) == mask

    def cyc(self, mask: int) -> int:
        """mask minus its restriction coloops: the union of circuits inside."""
        return cyc(self.rank, mask)

    def is_cyclic(self, mask: int) -> bool:
        return self.cyc(mask) == mask

    def is_modular_pair(self, x: int, y: int) -> bool:
        return (self.rank(x) + self.rank(y)
                == self.rank(x | y) + self.rank(x & y))

    def dual_rank(self, mask: int) -> int:
        return (mask.bit_count()
                + self.rank(self.full_mask & ~mask) - self.rank_total)

    def dual(self) -> "ExplicitMatroid":
        return ExplicitMatroid.from_function(self.m, self.dual_rank,
                                             labels=self.labels)

    def truncate(self, k: int) -> "ExplicitMatroid":
        table = self.full_table()
        return ExplicitMatroid.from_table([min(r, k) for r in table],
                                          labels=self.labels)

    def minor(self, delete: int = 0, contract: int = 0) -> "ExplicitMatroid":
        """Delete then contract; contraction rank r(X + C) - r(C).

        The minor is re-indexed onto 0..m'-1; labels follow the elements.
        """
        if delete & contract:
            raise ValueError("delete and contract sets overlap")
        keep = [b for b in range(self.m) if not (delete | contract) >> b & 1]
        rc = self.rank(contract)

        def fn(mask: int, _keep=tuple(keep), _c=contract, _rc=rc) -> int:
            full = _c
            for i, b in enumerate(_keep):
                if mask >> i & 1:
                    full |= 1 << b
            return self.rank(full) - _rc

        labels = None
        if self.labels is not None:
            labels = [self.labels[b] for b in keep]
        return ExplicitMatroid.from_function(len(keep), fn, labels=labels)

    # -- enumeration ---------------------------------------------------------

    def _require_table(self) -> list[int]:
        if self.m > ENUM_CAP:
            raise CapExceeded(f"enumeration over {self.m} elements")
        return self.full_table()

    def flats(self) -> list[int]:
        table = self._require_table()
        out = []
        for x in range(1 << self.m):
            r = table[x]
            if all(table[x | 1 << b] > r
                   for b in range(self.m) if not x >> b & 1):
                out.append(x)
        return out

    def cyclic_sets(self) -> list[int]:
        """All unions of circuits, the empty set included."""
        table = self._require_table()
        out = []
        for x in range(1 << self.m):
            r = table[x]
            if all(table[x & ~(1 << b)] == r for b in bits(x)):
                out.append(x)
        return out

    def cyclic_flats(self, include_spanning: bool = False) -> list[int]:
        """Non-spanning cyclic flats (the erection seed family) by default."""
        table = self._require_table()
        top = self.rank_total
        out = []
        for x in range(1 << self.m):
            r = table[x]
            if not include_spanning and r == top:
                continue
            if any(table[x & ~(1 << b)] < r for b in bits(x)):
                continue
            if any(table[x | 1 << b] == r
                   for b in range(self.m) if not x >> b & 1):
                continue
            out.append(x)
        return out

    def circuits(self, within: int | None = None) -> list[int]:
        """Minimal dependent sets, optionally restricted to subsets of `within`."""
        table = self._require_table()
        w = self.full_mask if within is None else within
        out = []
        sub = w
        while True:
            if sub:
                k = sub.bit_count()
                if table[sub] == k - 1 and all(
                        table[sub & ~(1 << b)] == k - 1 for b in bits(sub)):
                    out.append(sub)
            if sub == 0:
                break
            sub = (sub - 1) & w
        return sorted(out)

    # -- connectivity ----------------------------------------------------------

    def fundamental_circuit(self, base: int, element: int) -> int:
        """Circuit inside base + element, via greedy removal."""
        return fundamental_circuit(self.rank, base, element)

    def basis_of(self, mask: int) -> int:
        return extend_basis(self.rank, 0, mask)

    def connected_components(self, mask: int) -> list[int]:
        """Connected components of the restriction to mask.

        Elements sharing a circuit are merged via fundamental circuits with
        respect to one base (that reaches the full transitive closure);
        restriction coloops stay as singletons.  The component ranks must sum
        to rank(mask), which is asserted.
        """
        base = self.basis_of(mask)
        parent = {b: b for b in bits(mask)}

        def find(a):
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        def union(a, b):
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[ra] = rb

        for b in bits(mask & ~base):
            first, *rest = bits(self.fundamental_circuit(base, b))
            for other in rest:
                union(first, other)
        groups: dict[int, int] = {}
        for b in bits(mask):
            root = find(b)
            groups[root] = groups.get(root, 0) | 1 << b
        comps = sorted(groups.values())
        assert sum(self.rank(c) for c in comps) == self.rank(mask), \
            "component ranks do not sum to the rank"
        return comps

    def ear_decomposition(self, mask: int) -> list[int]:
        """An ear decomposition of a connected cyclic set.

        Circuits are added greedily, choosing at each step a circuit whose set
        of new elements is inclusion-minimal (ties: fewest new elements, then
        smallest masks).  The defining conditions and the rank recurrence
        r(C_<=i) = r(C_<=i-1) + |C_i \\ C_<=i-1| - 1 are checked before
        returning.
        """
        if not self.is_cyclic(mask) or mask == 0:
            raise ValueError("ear decompositions need a nonempty cyclic set")
        if len(self.connected_components(mask)) != 1:
            raise ValueError("the restriction must be connected")
        circs = self.circuits(within=mask)
        ears = [min(circs, key=lambda c: (c.bit_count(), c))]
        cov = ears[0]
        while cov != mask:
            cands = [c for c in circs if c & cov and c & ~cov]
            if not cands:
                raise ValueError("no circuit extends the partial decomposition")
            cands.sort(key=lambda c: ((c & ~cov).bit_count(), c & ~cov, c))
            ears.append(cands[0])
            cov |= cands[0]
        self._check_ears(mask, ears, circs)
        return ears

    def _check_ears(self, mask: int, ears: list[int], circs: list[int]) -> None:
        cov = 0
        for i, c in enumerate(ears):
            new = c & ~cov
            if i > 0:
                if not (c & cov) or not new:
                    raise AssertionError("ear neither overlaps nor extends")
                for other in circs:
                    diff = other & ~cov
                    if other & cov and diff and diff != new and diff & ~new == 0:
                        raise AssertionError("ear difference is not set-minimal")
                if self.rank(cov | c) != self.rank(cov) + new.bit_count() - 1:
                    raise AssertionError("ear rank recurrence failed")
            cov |= c
        if cov != mask:
            raise AssertionError("ears do not cover the set")

    # -- serialization -----------------------------------------------------------

    def bases(self) -> list[int]:
        table = self._require_table()
        r = self.rank_total
        return [x for x in range(1 << self.m)
                if x.bit_count() == r and table[x] == r]

    def to_text(self) -> str:
        lines = [f"ground_size={self.m}", f"rank={self.rank_total}", "bases"]
        lines.extend(format(b, "x") for b in self.bases())
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "ExplicitMatroid":
        lines = [ln.strip() for ln in text.splitlines()
                 if ln.strip() and not ln.lstrip().startswith("#")]
        header = {}
        i = 0
        while i < len(lines) and "=" in lines[i] and not lines[i].startswith("oracle:"):
            key, val = lines[i].split("=", 1)
            header[key.strip()] = val.strip()
            i += 1
        if "ground_size" not in header:
            raise ValueError("missing ground_size")
        m = int(header["ground_size"])
        declared_rank = int(header["rank"]) if "rank" in header else None
        if i < len(lines) and lines[i].startswith("oracle:cofactor"):
            params = dict(part.split("=", 1)
                          for part in lines[i].split()[1:])
            from .cofactor import DEFAULT_SEEDS, CofactorOracle
            from .field import MERSENNE61
            seeds = (tuple(int(s) for s in params["seeds"].split(","))
                     if "seeds" in params else DEFAULT_SEEDS)
            oracle = CofactorOracle(int(params["n"]), s=int(params.get("s", 2)),
                                    seeds=seeds,
                                    modulus=int(params.get("modulus", MERSENNE61)))
            matroid = oracle.explicit_matroid()
        else:
            if i >= len(lines) or lines[i] != "bases":
                raise ValueError("expected a 'bases' section or an oracle line")
            base_masks = [int(b, 16) for b in lines[i + 1:]]
            matroid = cls.from_bases(m, base_masks)
        if matroid.m != m:
            raise ValueError("ground size does not match the matroid body")
        if declared_rank is not None and matroid.rank_total != declared_rank:
            raise ValueError("declared rank does not match the matroid body")
        return matroid


def verify_rank_axioms(M: ExplicitMatroid) -> None:
    """Full sweep of the local rank axioms; raises AssertionError on failure.

    Checked: r(empty) = 0, unit increase, and local submodularity
    (r(X+e) = r(X+f) = r(X) implies r(X+e+f) = r(X)), which together
    characterize matroid rank functions.
    """
    table = M._require_table()
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
    if m > ENUM_CAP:
        raise CapExceeded(f"clique truncation over {m} edges")
    cap = t * (t - 1) // 2
    cliques = [EdgeSet.complete(n, vs).mask
               for vs in itertools.combinations(range(n), t)]

    def independent(x: int) -> bool:
        if x.bit_count() > cap:
            return False
        return all(x & c != c for c in cliques)

    labels = [edge_at(n, i) for i in range(m)]
    return ExplicitMatroid.from_independence(m, independent, labels=labels)
