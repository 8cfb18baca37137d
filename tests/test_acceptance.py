"""Acceptance gate: twelve behavioral criteria, one test per criterion.

Each test prints a single summary line; `pytest -v` therefore yields one
pass/fail line per criterion.  Stated time limits are asserted where a
criterion carries one.
"""

import random
import time
from itertools import combinations

import pytest

from cofrig.cofactor import CofactorOracle
from cofrig.covers import (
    CliqueCover,
    dress_rank,
    find_shellable_order,
    hinge_table,
    is_M_degenerate,
    maximal_cliques,
)
from cofrig.erection import check_cyclic_flat_cover, free_elevation
from cofrig.graphs import (
    EdgeSet,
    complete_edges,
    complete_graph,
    double_banana,
)
from cofrig.matroids import ExplicitMatroid, clique_truncation_matroid
from cofrig.sequences import find_simplicial_base_vertex, min_sequence_levels
from cofrig.verify import run_suite

import rank_reference as reference
from rank_reference import (
    complete_bipartite_graph,
    cover_upper_bound,
    cycle_graph,
    path_graph,
    petersen_graph,
    shifted_union,
    star_graph,
    wheel_graph,
)


@pytest.fixture(scope="module")
def elevation_chain():
    start = time.perf_counter()
    chain = free_elevation(clique_truncation_matroid(6, 5))
    return chain, time.perf_counter() - start


@pytest.fixture(scope="module")
def random_k7_closures(oracle7):
    """110 random closed subgraphs of K_7, deduplicated by mask.

    Draws mix three densities — plain coin-flip edges, a sparser variant,
    and a random clique with sparse noise — so the closures range over
    coloop-heavy flats, clique flats and the full graph alike.
    """
    rng = random.Random(61)
    masks = []
    seen = set()
    draw = 0
    while len(masks) < 110:
        kind = draw % 4
        draw += 1
        if kind == 0:
            raw = rng.getrandbits(21)
        elif kind == 1:
            raw = rng.getrandbits(21) & rng.getrandbits(21)
        else:
            verts = rng.sample(range(7), rng.randint(5, 6))
            noise = rng.getrandbits(21) & rng.getrandbits(21) & rng.getrandbits(21)
            raw = complete_edges(7, verts).mask | noise
        G = oracle7.closure(EdgeSet(7, raw))
        if G.mask not in seen:
            seen.add(G.mask)
            masks.append(G)
    return masks


def test_criterion_01_complete_graph_ranks():
    start = time.perf_counter()
    for n in range(5, 14):
        oracle = CofactorOracle(n)
        assert oracle.rank(complete_graph(n)) == 3 * n - 6, f"K_{n}"
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    print(f"criterion 1 PASS: rank(K_n) = 3n-6 for n=5..13 in {elapsed:.2f}s")


def test_criterion_02_k5_copies_are_circuits(oracle8):
    start = time.perf_counter()
    for verts in combinations(range(8), 5):
        copy = complete_edges(8, verts)
        assert not oracle8.independent(copy), f"K_5 on {verts} not dependent"
        for u, v in copy.edges():
            assert oracle8.independent(copy.remove(u, v)), \
                f"9-subset of K_5 on {verts} not independent"
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    print(f"criterion 2 PASS: all 56 K_5 copies in K_8 are circuits "
          f"in {elapsed:.2f}s")


def test_criterion_03_exhaustive_sequence_sweep(table6):
    start = time.perf_counter()
    pool = range(6)
    levels = min_sequence_levels(6)
    for mask in range(1 << 15):
        F = EdgeSet(6, mask)
        value, _ = reference.min_sequence_value(F, vertex_pool=pool)
        assert value == table6[mask], f"mask {mask:#x}: {value} != {table6[mask]}"
        on_levels = sum(level >> mask & 1 for level in levels[1:])
        assert on_levels == value, f"mask {mask:#x}: levels give {on_levels}"
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    print(f"criterion 3 PASS: sequence minimum equals rank on all 32768 "
          f"subsets of E(K_6) in {elapsed:.2f}s")


def test_criterion_04_elevation_recovers_the_rank_table(
    elevation_chain, oracle6, table6
):
    chain, build_time = elevation_chain
    start = time.perf_counter()
    ranks = [m.rank_total for m in chain.steps]
    assert ranks == [10, 11, 12], ranks
    assert len(chain.steps) - 1 == 2  # exactly two nontrivial steps
    assert chain.final.full_table() == table6
    elapsed = build_time + time.perf_counter() - start
    assert elapsed < 300.0
    print(f"criterion 4 PASS: two-step free elevation rebuilds the rank "
          f"table on all 32768 subsets in {elapsed:.2f}s")


def test_criterion_05_cyclic_flats_are_clique_unions(elevation_chain):
    chain, _ = elevation_chain
    k5_masks = [complete_edges(6, vs).mask for vs in combinations(range(6), 5)]
    assert check_cyclic_flat_cover(chain, k5_masks)
    count = len(chain.final.cyclic_flats(include_spanning=True))
    print(f"criterion 5 PASS: all {count} cyclic flats of the elevated "
          f"matroid are unions of K_5 copies")


def test_criterion_06_cover_formula_on_random_flats(
    oracle7, random_k7_closures
):
    start = time.perf_counter()
    checked = 0
    for G in random_k7_closures:
        if checked >= 100:
            break
        value, cover, f0, order = dress_rank(G, oracle7)
        assert value == oracle7.rank(G)
        assert order is not None and len(order) == len(cover)
        _, violations = hinge_table(cover)
        assert violations == []
        checked += 1
    elapsed = time.perf_counter() - start
    assert checked >= 100
    assert elapsed < 60.0
    print(f"criterion 6 PASS: cover formula, 4-shellability and 2-thinness "
          f"verified on {checked} random closed subgraphs of K_7 "
          f"in {elapsed:.2f}s")


def test_criterion_07_degenerate_covers_bound_rank(oracle8):
    rng = random.Random(71)
    oracles = {7: CofactorOracle(7), 8: oracle8}
    verified = 0
    attempts = 0
    while verified < 200:
        attempts += 1
        assert attempts < 5000, "sampler failed to find degenerate covers"
        n = rng.choice((7, 8))
        oracle = oracles[n]
        members = set()
        for _ in range(rng.randint(1, 4)):
            size = rng.randint(5, min(7, n))
            members.add(tuple(sorted(rng.sample(range(n), size))))
        cover = CliqueCover(n, tuple(sorted(members)))
        ok, _ = is_M_degenerate(cover, oracle)
        if not ok:
            continue
        union = cover.union_edges()
        keep = [e for e in union.edges() if rng.random() < 0.7]
        F = EdgeSet.from_edges(n, keep)
        bound = cover_upper_bound(F, cover, oracle)  # raises on violation
        assert oracle.rank(F) <= bound
        verified += 1
    print(f"criterion 7 PASS: rank <= val_D on {verified} random "
          f"M-degenerate covers ({attempts} sampled)")


def test_criterion_08_dense_k13_subgraphs_stay_rigid():
    start = time.perf_counter()
    result = run_suite("connectivity", seed=13)
    elapsed = time.perf_counter() - start
    assert result.passed, result.summary()
    assert elapsed < 30.0
    print(f"criterion 8 PASS: K_13 minus 100 random 6-edge sets keeps "
          f"rank 33 in {elapsed:.2f}s")


def test_criterion_09_extensions_preserve_independence():
    result = run_suite("extensions", seed=13)
    assert result.passed, result.summary()
    counts = {c.name: c.detail for c in result.checks}
    print(f"criterion 9 PASS: 0-/1-extension and X-replacement preserve "
          f"independence over 200 rounds ({counts})")


def test_criterion_10_low_degree_oracles_match_classics():
    corpus = [
        *(complete_graph(n) for n in range(4, 11)),
        *(cycle_graph(n) for n in range(4, 11)),
        *(path_graph(n) for n in range(4, 11)),
        *(star_graph(n) for n in range(4, 11)),
        *(wheel_graph(n) for n in range(5, 11)),
        complete_bipartite_graph(3, 3),
        complete_bipartite_graph(3, 4),
        complete_bipartite_graph(4, 4),
        complete_bipartite_graph(4, 5),
        complete_bipartite_graph(5, 5),
        petersen_graph(),
        double_banana(),
        shifted_union(complete_graph(5), complete_graph(5)),
        shifted_union(cycle_graph(4), wheel_graph(6)),
    ]
    for F in corpus:
        assert F.n <= 10
        assert CofactorOracle(F.n, s=0).rank(F) == reference.graphic_rank(F), F
    rng = random.Random(101)
    compared = 0
    for n in (4, 5, 6, 7):
        cof = CofactorOracle(n, s=1)
        for _ in range(50):
            F = EdgeSet(n, rng.getrandbits(n * (n - 1) // 2))
            assert cof.rank(F) == reference.pebble_rank(F, 1), F
            compared += 1
    print(f"criterion 10 PASS: s=0 matches graphic rank on {len(corpus)} "
          f"corpus graphs; s=1 matches the (2, 3)-pebble game's 2D rigidity "
          f"rank on {compared} random graphs")


def test_criterion_11_simplicial_vertices_in_encountered_flats(
    oracle6, oracle7, table6, random_k7_closures
):
    # the K_6 flats cover everything the exhaustive and elevation criteria
    # touch; the K_7 closures are the ones the cover-formula criterion drew
    universe = []
    M6 = ExplicitMatroid(table6)
    for mask in M6.cyclic_flats(include_spanning=True):
        if mask:  # the empty flat has no vertices to inspect
            universe.append((EdgeSet(6, mask), oracle6))
    for G in random_k7_closures:
        if G and oracle7.is_cyclic(G):
            universe.append((G, oracle7))
    assert len(universe) >= 25
    for X, oracle in universe:
        v, base = find_simplicial_base_vertex(X, oracle)
        nbrs = sorted(X.neighbors(v))
        for a, b in combinations(nbrs, 2):
            assert (min(a, b), max(a, b)) in X, f"neighborhood of {v} not complete"
        assert oracle.independent(base)
        assert len(base) == oracle.rank(X)
        assert base.degree(v) == 3
    print(f"criterion 11 PASS: simplicial base vertex found in all "
          f"{len(universe)} encountered cyclic flats")


def _random_greedy_base(oracle, X, rng):
    edges = list(X.edges())
    rng.shuffle(edges)
    picked = EdgeSet.empty(X.n)
    for u, v in edges:
        trial = picked.add(u, v)
        if oracle.independent(trial):
            picked = trial
    return picked


def test_criterion_12_base_degree_bounds(oracle6, oracle7):
    rng = random.Random(121)
    oracles = {6: oracle6, 7: oracle7}
    seen = set()
    checked = 0
    while checked < 100:
        n = rng.choice((6, 7))
        oracle = oracles[n]
        X = oracle.cyc(EdgeSet(n, rng.getrandbits(n * (n - 1) // 2)))
        if not X or (n, X.mask) in seen:
            continue
        seen.add((n, X.mask))
        support = sorted(X.vertex_support())
        r = oracle.rank(X)
        # q(v) = r(X) - r(X minus the star of v) is the minimum degree any
        # base of X can have at v, and it is attained by extending a base
        # of X minus the star
        q = {v: r - oracle.rank(X - X.star(v)) for v in support}
        assert all(val >= 3 for val in q.values()), (X, q)
        v_min = min(q, key=lambda v: (q[v], v))
        assert q[v_min] <= 4, (X, q)
        seed_base = oracle.basis_of(X - X.star(v_min))
        witness = oracle.extend_basis(seed_base, X)
        assert witness.degree(v_min) == q[v_min]
        assert min(witness.degree(v) for v in support) <= 4
        for base in (
            oracle.basis_of(X),
            _random_greedy_base(oracle, X, rng),
            _random_greedy_base(oracle, X, rng),
        ):
            assert min(base.degree(v) for v in support) >= 3, (X, base)
        checked += 1
    print(f"criterion 12 PASS: {checked} cyclic sets have some base of "
          f"minimum degree <= 4 and no base of minimum degree < 3")
