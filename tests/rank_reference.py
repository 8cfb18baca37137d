"""Per-mask definitions of the matroid operations, written straight from a
rank function on bitmasks, and an exhaustive search for the minimum proper
clique-sequence value.  The library answers these questions on whole
bitsets of subsets or from clique covers; the tests check it against these
loops.  The G(n, p) sampler, the named graphs and the dense matrix rank
that the tests share live here too, with the small helpers that only the
tests call: dense rows made sparse, row insertion and a span test, an
inverse counter, per-mask independence and modular pairs, induced
subgraphs, the checked cover bound, the erection test and the cyclic sets
of an explicit matroid.  The (k, l)-pebble game is the exact, seed-free
rank of the s <= 1 cofactor matroids."""

import random
from itertools import combinations

from cofrig import field
from cofrig.covers import is_M_degenerate, val_D
from cofrig.erection import family_violation, free_erection
from cofrig.errors import WitnessMismatch
from cofrig.field import MERSENNE61, EchelonBasis, reduce_row
from cofrig.graphs import EdgeSet, bits, clique_mask, edge_count, peel_order, union_of
from cofrig.matroids import ExplicitMatroid, element_bits, members
from cofrig.sequences import CircuitSequence


def closure(rank, mask, ground):
    """Elements of the ground mask whose addition keeps rank(mask)."""
    r = rank(mask)
    out = mask
    for b in bits(ground & ~mask):
        if rank(mask | 1 << b) == r:
            out |= 1 << b
    return out


def cyclic_sets(M):
    """All unions of circuits of an explicit matroid, the empty set
    included."""
    return members(M.cyclic_bits)


def layout(oracle):
    """Vertex v's block at columns (s+1)v: a layout of the oracle's rows
    fixed by n and s alone, for the rows the tests evaluate themselves."""
    return range(0, oracle.dim * oracle.n, oracle.dim)


def reduction_closure(oracle, mask):
    """The cofactor oracle's closure by reduction: each seed keeps one echelon
    basis of the rows of mask, and its rank of mask + e is that rank plus
    whether the row of e reduces to nonzero against it.  Every rank goes
    through the oracle's own seed rule, mask + e voted under rank(mask) + 1
    and not memoized, as the oracle's closure votes it."""
    bases, at = {}, layout(oracle)

    def basis(idx):
        if idx not in bases:
            bases[idx] = EchelonBasis(oracle.modulus)
            for b in bits(mask):
                insert(bases[idx], oracle._row(b, idx, at))
        return bases[idx]

    r = oracle._decide(mask, lambda idx: basis(idx).rank)
    out = mask
    for bit in bits(((1 << edge_count(oracle.n)) - 1) & ~mask):
        def with_e(idx):
            return basis(idx).rank + (
                not in_span(basis(idx), oracle._row(bit, idx, at)))
        if oracle._vote(mask | 1 << bit, with_e, r + 1) == r:
            out |= 1 << bit
    return out


def subset_rank_table(rows, p):
    """Rank of every subset of the given rows, as a list indexed by bitmask.

    Subsets are processed in increasing numeric order, so each mask x reuses
    the basis of its parent, x minus its lowest bit.  A mask's basis is kept
    only while a child still needs it, and a childless mask (every odd one)
    only checks whether its new row finds a pivot, with no inverse and no
    normalized row.  The live dicts share their rows, which keeps the table
    affordable up to 16 rows.
    """
    m = len(rows)
    if m > 16:
        raise ValueError(f"subset table over {m} rows is too large")
    rows = [sparse(r, p) for r in rows]
    size = 1 << m
    kids = bytearray(size)
    for x in range(1, size):
        kids[x & (x - 1)] += 1
    rank = [0] * size
    basis: dict[int, dict] = {0: {}}
    for x in range(1, size):
        y = x & (x - 1)
        kids[y] -= 1
        b = basis[y] if kids[y] else basis.pop(y)
        cur = dict(rows[(x & -x).bit_length() - 1])
        lead = reduce_row(cur, b, p)
        rank[x] = rank[y] + (lead is not None)
        if kids[x]:
            if lead is not None:
                inv = pow(cur[lead], -1, p)
                b = {**b, lead: {j: z for j, c in cur.items() if (z := c * inv % p)}}
            basis[x] = b
    return rank


class _Unranked(Exception):
    """A mask asked a seed whose subset table is not built yet."""


def per_mask_rank_table(oracle):
    """The cofactor oracle's rank table decided mask by mask, every mask
    through the oracle's own seed rule, in passes: each seed ranks every
    mask from one full subset table of its rows, and seed k's table is built
    only once pass k has a mask that asks for it.  Masks are decided in
    increasing order within a pass, and only a mask that has asked every
    seed can split, so the first split raised is the first in numeric
    order."""
    m = edge_count(oracle.n)

    def rows(idx):
        return [oracle._row(b, idx, layout(oracle)) for b in range(m)]

    tables = [subset_rank_table(rows(0), oracle.modulus)]

    def seed_rank(mask, idx):
        if idx == len(tables):
            raise _Unranked
        return tables[idx][mask]

    ranks, pending = [0] * (1 << m), range(1 << m)
    while pending:
        asked = []
        for mask in pending:
            try:
                ranks[mask] = oracle._decide(mask, lambda idx: seed_rank(mask, idx))
            except _Unranked:
                asked.append(mask)
        if asked:
            tables.append(subset_rank_table(rows(len(tables)), oracle.modulus))
        pending = asked
    return ranks


def gnp(n, p, seed):
    """G(n, p): each pair u < v, in lexicographic order, kept with
    probability p under random.Random(seed)."""
    rng = random.Random(seed)
    return EdgeSet.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                                  if rng.random() < p])


def from_independence(m, independent):
    """The explicit matroid of an independence predicate on {0..m-1}, mask
    by mask: rank(X) = |X| when X is independent, else the max over
    one-element deletions; correct because some element of a dependent X
    lies in a circuit of X, and removing it keeps the rank.  For any
    down-closed predicate this is the size of a largest independent subset.
    """
    table = [0] * (1 << m)
    # every one-element deletion of x is a smaller number than x
    for x in range(1, 1 << m):
        table[x] = (x.bit_count() if independent(x)
                    else max(table[x & ~(1 << b)] for b in bits(x)))
    return ExplicitMatroid(table)


def graphic_rank(F):
    """Rank of F in the graphic matroid: the support's vertex count minus
    its number of components, by union-find."""
    parent = {v: v for v in F.vertex_support()}

    def root(v):
        while parent[v] != v:
            v = parent[v]
        return v

    for u, v in F.edges():
        parent[root(u)] = root(v)
    return len(parent) - sum(parent[v] == v for v in parent)


def pebble_base(F, k, l):
    """The edges of F that the (k, l)-pebble game accepts, taken in edge
    order, as an edge mask (Jacobs and Hendrickson 1997; Lee and Streinu
    2008): for 0 <= l < 2k, the greedy base of F in the matroid of
    (k, l)-sparse graphs, where no j vertices span more than kj - l edges.
    (2, 3) is the generic plane rigidity matroid (Laman 1970), the s = 1
    cofactor matroid (Whiteley 1996); (1, 1) is the graphic one, s = 0.

    Every vertex starts with k pebbles, and every accepted edge is directed
    away from the vertex whose pebble covers it.  An edge uv is accepted
    once u and v hold l + 1 pebbles between them, and uses one of them.
    Until then a free pebble is fetched to u along a directed path that
    avoids v, or to v along one that avoids u, and the path is reversed;
    if no path reaches one, uv spans a set that is already tight, and it
    is rejected.  No arithmetic is done, and no seed is drawn."""
    pebbles, heads, base = [k] * F.n, [[] for _ in range(F.n)], 0

    def fetch(root, other):
        parent, todo = {root: None, other: None}, [root]
        while todo:
            x = todo.pop()
            for y in heads[x]:
                if y in parent:
                    continue
                parent[y] = x
                if pebbles[y]:
                    pebbles[y] -= 1
                    pebbles[root] += 1
                    while y != root:
                        x = parent[y]
                        heads[x].remove(y)
                        heads[y].append(x)
                        y = x
                    return True
                todo.append(y)
        return False

    for b, (u, v) in zip(bits(F.mask), F.edges()):
        while pebbles[u] + pebbles[v] <= l and (fetch(u, v) or fetch(v, u)):
            pass
        if pebbles[u] + pebbles[v] > l:
            tail, head = (u, v) if pebbles[u] else (v, u)
            pebbles[tail] -= 1
            heads[tail].append(head)
            base |= 1 << b
    return base


# the pebble game's (k, l) for each smoothness order it decides exactly
PEBBLE_KL = {0: (1, 1), 1: (2, 3)}


def pebble_rank(F, s):
    """Rank of F in the order-s cofactor matroid, s <= 1, by the pebble
    game: exact, with no seed."""
    return pebble_base(F, *PEBBLE_KL[s]).bit_count()


def _proper_order_masks(masks):
    """Reorder edge masks so each adds a new edge; None if impossible.

    A clique adding a new edge after some cliques adds it after any subset
    of them, so ``peel_order`` decides this exactly, and any subset of an
    orderable family is orderable: callers may prune supersets of a failure.
    """
    return peel_order(len(masks), lambda i, before:
                      masks[i] & ~union_of(masks, before))


def proper_order(n, cliques):
    """Indices ordering the given cliques into a proper sequence, or None."""
    return _proper_order_masks([clique_mask(n, tuple(sorted(c))) for c in cliques])


def min_sequence_value(F, vertex_pool=None, *, d=3, candidates=None):
    """Minimum sequence value of F over proper sequences from a clique pool.

    The search runs over unordered candidate subsets (a subset is usable
    iff some ordering of it is proper), so each family is priced once.  Ties
    among minimizers break toward fewer cliques, then the lexicographically
    smallest clique set.  Candidates default to all (d+2)-subsets of the
    vertex pool, which itself defaults to the support of F.  Dense edge sets
    on 8+ pool vertices make the search expensive.

    Returns ``(value, witness)`` where witness is a proper sequence
    achieving the value.
    """
    n = F.n
    size = d + 2
    per_clique = size * (size - 1) // 2
    if candidates is not None:
        # the sequence member rule validates and normalizes every candidate
        cliques = sorted(set(CircuitSequence(n, tuple(candidates), d).members))
    else:
        pool = sorted(vertex_pool) if vertex_pool is not None else sorted(F.vertex_support())
        cliques = list(combinations(pool, size))

    fmask = F.mask
    cliques.sort(key=lambda c: ((clique_mask(n, c) & ~fmask).bit_count(), c))
    masks = [clique_mask(n, c) for c in cliques]
    count = len(cliques)
    suffix_or = [0] * (count + 1)
    for i in range(count - 1, -1, -1):
        suffix_or[i] = suffix_or[i + 1] | masks[i]

    # Best = (value, clique count, sorted clique tuple); empty sequence seeds it.
    best = [len(F), 0, ()]
    best_chosen = []

    def settle(chosen, start, union):
        here = (fmask | union).bit_count() - len(chosen)
        if (here, len(chosen)) <= (best[0], best[1]):
            entry = [here, len(chosen), tuple(sorted(cliques[i] for i in chosen))]
            if entry < best:
                best[:] = entry
                best_chosen[:] = chosen
        for i in range(start, count):
            child_union = union | masks[i]
            # A clique swallowed by the current union needs the whole subset
            # reordered; if no order is proper, no superset's is either.
            if not masks[i] & ~union and _proper_order_masks(
                    [masks[j] for j in chosen] + [masks[i]]) is None:
                continue
            k1 = len(chosen) + 1
            child_w = (fmask | child_union).bit_count()
            # Any deeper family must keep adding fresh edges, so its size is
            # capped by the edges still reachable; price the subtree floor.
            avail = (child_union | suffix_or[i + 1]).bit_count()
            qmax = min(count - i - 1, max(0, avail - per_clique + 1 - k1))
            floor = child_w - k1 - qmax
            if floor > best[0] or (floor == best[0] and k1 > best[1]):
                continue
            settle(chosen + [i], i + 1, child_union)

    settle([], 0, 0)
    order = _proper_order_masks([masks[i] for i in best_chosen])
    witness = CircuitSequence(n, tuple(cliques[best_chosen[j]] for j in order), d)
    return best[0], witness


def clique_truncation_independent(n, t):
    """Independence in the clique truncation on E(K_n): at most C(t,2) edges
    and no full K_t."""
    cap = t * (t - 1) // 2
    cliques = [EdgeSet.complete(n, vs).mask for vs in combinations(range(n), t)]
    return lambda x: x.bit_count() <= cap and all(x & c != c for c in cliques)


def cyc(rank, mask):
    """mask minus its restriction coloops: the union of circuits inside."""
    r = rank(mask)
    keep = 0
    for b in bits(mask):
        if rank(mask & ~(1 << b)) == r:
            keep |= 1 << b
    return keep


def extend_basis(rank, start, mask):
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


def fundamental_circuit(rank, base, element):
    """The circuit inside base + element, for an independent base spanning
    the element, via greedy removal."""
    cur = base | 1 << element
    assert not base >> element & 1 and rank(cur) == rank(base)
    for b in bits(base):
        smaller = cur & ~(1 << b)
        if rank(smaller) < smaller.bit_count():
            cur = smaller
    return cur


def rank_axioms_hold(table, touching=None):
    """Whether a table of 2^m ranks is a matroid rank function: r(empty) = 0,
    unit increase and local submodularity, checked subset by subset.

    With touching=c only the axiom instances that read the rank of c are
    checked, which decides a table that differs from a matroid's at c alone.
    """
    m = (len(table) - 1).bit_length()
    if table[0] != 0:
        return False
    for e in range(m):
        for x in _instances(m, 1 << e, touching):
            if not table[x] <= table[x | 1 << e] <= table[x] + 1:
                return False
    for e, f in combinations(range(m), 2):
        pair = 1 << e | 1 << f
        for x in _instances(m, pair, touching):
            r = table[x]
            if table[x | 1 << e] == r == table[x | 1 << f] and table[x | pair] != r:
                return False
    return True


def _instances(m, extra, touching):
    """The subsets x outside extra whose instance (x, x + extra) is checked."""
    if touching is None:
        return [x for x in range(1 << m) if not x & extra]
    return [touching & ~extra]


def per_rank_axiom_check(M):
    """The level-by-level rank axiom check that verify_rank_axioms replaced:
    the same checks and AssertionError messages, with local submodularity
    tested once per pair of elements per rank."""
    table, m = M.full_table(), M.m
    if table[0] != 0:
        raise AssertionError("rank of the empty set is not 0")
    if not 0 <= min(table) <= max(table) <= m:
        x = next(x for x, r in enumerate(table) if not 0 <= r <= m)
        raise AssertionError(f"rank {table[x]} of {x:#x} is outside 0..{m}")
    levels, with_e = M.levels, element_bits(m)
    # up[e][k]: bit x is set when rank(x + e) >= k (read on the x without e)
    up = [[level >> (1 << e) for level in levels] for e in range(m)]
    failures = []
    for e in range(m):
        bad = 0
        for k in range(1, len(levels)):
            # rank(x + e) < k <= rank(x), or rank(x) + 2 <= k <= rank(x + e)
            bad |= levels[k] & ~up[e][k] | up[e][k] & ~levels[k - 1]
        bad &= ~with_e[e]
        if bad:
            failures.append(((bad & -bad).bit_length() - 1, e))
    if failures:
        x, e = min(failures)
        raise AssertionError(f"unit increase fails at {x:#x}+{e}")
    # keeps[e][k - 1]: rank(x) = rank(x + e) = k - 1, for x without e
    keeps = [[levels[k - 1] & ~up[e][k] & ~with_e[e] for k in range(1, len(levels))]
             for e in range(m)]
    for e, f in combinations(range(m), 2):
        bad = 0
        for keep_e, keep_f, up_e in zip(keeps[e], keeps[f], up[e][1:]):
            bad |= keep_e & keep_f & up_e >> (1 << f)
        if bad:
            failures.append(((bad & -bad).bit_length() - 1, e, f))
    if failures:
        x, e, f = min(failures)
        raise AssertionError(f"local submodularity fails at {x:#x}+{e},{f}")


def matrix_rank(rows, p: int = MERSENNE61) -> int:
    """Rank by Gaussian elimination with exact arithmetic mod p.

    Pivots on the first nonzero entry of each remaining row.
    """
    basis = EchelonBasis(p)
    for row in rows:
        insert(basis, row)
    return basis.rank


def counting_inverses(monkeypatch):
    """Count the modular inverses the field module takes from here on, in a
    one-item list."""
    inverses = [0]

    def counting_pow(*args):
        inverses[0] += args[1:2] == (-1,)
        return pow(*args)

    monkeypatch.setattr(field, "pow", counting_pow, raising=False)
    return inverses


def sparse(row, p: int) -> dict[int, int]:
    """A fresh {column: entry mod p} dict of a dense row or a mapping,
    without zero entries: the sparse form the field module takes."""
    items = row.items() if isinstance(row, dict) else enumerate(row)
    return {j: y for j, x in items if (y := x % p)}


def insert(basis: EchelonBasis, row) -> bool:
    """Add a row, dense or a mapping, to the basis's span; True if the rank
    grew."""
    return bool(basis.absorb([sparse(row, basis.p)]))


def in_span(basis: EchelonBasis, row) -> bool:
    """Whether a row, dense or a mapping, reduces to zero against the
    basis, which it leaves as it is."""
    return reduce_row(sparse(row, basis.p), basis.rows, basis.p) is None


def is_independent(M: ExplicitMatroid, mask: int) -> bool:
    return M.rank(mask) == mask.bit_count()


def is_modular_pair(M: ExplicitMatroid, x: int, y: int) -> bool:
    return M.rank(x) + M.rank(y) == M.rank(x | y) + M.rank(x & y)


def has_nontrivial_erection(M: ExplicitMatroid) -> bool:
    _, trivial, _ = free_erection(M)
    return not trivial


def induced(F: EdgeSet, vertices) -> EdgeSet:
    """The edges of F with both ends in vertices."""
    vs = set(vertices)
    return EdgeSet.from_edges(
        F.n, (e for e in F.edges() if e[0] in vs and e[1] in vs))


def cover_upper_bound(F: EdgeSet, cover, oracle) -> int:
    """val_D of an M-degenerate cover of F, checked to bound rank(F) above."""
    if oracle.s != 2:
        raise ValueError(f"the clique-cover formula needs s = 2, got s = {oracle.s}")
    if not cover.covers(F):
        missing = F - cover.union_edges()
        raise ValueError(
            f"not a cover of F: uncovered edges {missing.sorted_edges()}"
        )
    ok, _ = is_M_degenerate(cover, oracle)
    if not ok:
        raise ValueError("cover is not M-degenerate for this oracle")
    value = val_D(cover)
    rank = oracle.rank(F)
    if rank > value:
        raise WitnessMismatch(
            "M-degenerate cover value fell below the oracle rank",
            detail={
                "n": F.n,
                "edges": [list(e) for e in F.sorted_edges()],
                "members": [list(m) for m in cover.members],
                "val_D": value,
                "rank": rank,
                "seeds": list(oracle.seeds),
            },
        )
    return value


def is_modular_cyclic_family(M: ExplicitMatroid, family) -> bool:
    return family_violation(M, family) is None


# -- named graphs ----------------------------------------------------------

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
