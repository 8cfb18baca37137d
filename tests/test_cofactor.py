import random
from itertools import combinations

import pytest

from cofrig.cofactor import CofactorOracle, RigidityOracle
from cofrig.errors import AmbientMismatch, SeedDisagreement
from cofrig.graphs import (
    EdgeSet,
    complete_edges,
    complete_graph,
    cycle_graph,
    double_banana,
    edge_index,
    path_graph,
)


def _graphic_rank(F):
    """|support| - components(support), via union-find on the edges."""
    parent = {}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    rank = 0
    for u, v in F.edges():
        parent.setdefault(u, u)
        parent.setdefault(v, v)
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
            rank += 1
    return rank


def _laman_independent(F):
    """2D rigidity independence: |F'| <= 2|V(F')| - 3 for all sub-supports."""
    if not F.mask:
        return True
    verts = sorted(F.vertex_support())
    for k in range(2, len(verts) + 1):
        for vs in combinations(verts, k):
            inner = F.induced(vs)
            if len(inner) > 2 * k - 3:
                return False
    return True


def _laman_rank(F):
    """Greedy rank through the exact sparsity-count independence test."""
    picked = EdgeSet.empty(F.n)
    for u, v in F.sorted_edges():
        trial = picked.add(u, v)
        if _laman_independent(trial):
            picked = trial
    return len(picked)


def test_complete_graph_ranks():
    for n in range(5, 9):
        oracle = CofactorOracle(n)
        assert oracle.rank(complete_graph(n)) == 3 * n - 6
        assert oracle.is_rigid(complete_graph(n))


def test_k5_is_a_circuit(oracle6):
    clique = complete_edges(6, range(5))
    assert not oracle6.independent(clique)
    for u, v in clique.edges():
        assert oracle6.independent(clique.remove(u, v))


def test_double_banana_rank():
    oracle = CofactorOracle(8)
    banana = double_banana()
    assert oracle.rank(banana) == 17
    assert not oracle.independent(banana)
    closed = oracle.closure(banana)
    assert closed == banana.add(0, 1)
    assert oracle.is_flat(closed)
    assert not oracle.is_flat(banana)


def test_closure_is_idempotent_and_extensive(oracle7):
    rng = random.Random(11)
    for _ in range(25):
        F = EdgeSet(7, rng.getrandbits(21))
        closed = oracle7.closure(F)
        assert F.issubset(closed)
        assert oracle7.closure(closed) == closed
        assert oracle7.rank(closed) == oracle7.rank(F)


def test_rank_is_monotone_and_submodular(oracle6, table6):
    rng = random.Random(12)
    for _ in range(200):
        x = rng.getrandbits(15)
        y = rng.getrandbits(15)
        assert table6[x & y] + table6[x | y] <= table6[x] + table6[y]
        assert table6[x & y] <= table6[x] <= table6[x | y]


def test_cyc_strips_exactly_the_coloops(oracle6):
    rng = random.Random(13)
    for _ in range(40):
        F = EdgeSet(6, rng.getrandbits(15))
        core = oracle6.cyc(F)
        r = oracle6.rank(F)
        for u, v in F.edges():
            dropped = oracle6.rank(F.remove(u, v))
            if (u, v) in core:
                assert dropped == r
            else:
                assert dropped == r - 1
        assert oracle6.is_cyclic(core)


def test_basis_and_extension(oracle6):
    rng = random.Random(14)
    for _ in range(30):
        F = EdgeSet(6, rng.getrandbits(15))
        base = oracle6.basis_of(F)
        assert base.issubset(F)
        assert oracle6.independent(base)
        assert len(base) == oracle6.rank(F)
        seed = EdgeSet.from_edges(6, list(base.edges())[:2])
        again = oracle6.extend_basis(seed, F)
        assert seed.issubset(again) and len(again) == len(base)
    with pytest.raises(ValueError):
        oracle6.extend_basis(complete_edges(6, (0, 1)), EdgeSet.empty(6))


def test_fundamental_circuit(oracle6):
    B = oracle6.basis_of(complete_graph(6))
    outside = complete_graph(6) - B
    for e in outside.edges():
        circuit = oracle6.fundamental_circuit(B, e)
        assert e in circuit
        assert not oracle6.independent(circuit)
        for u, v in circuit.edges():
            assert oracle6.independent(circuit.remove(u, v))


def test_ambient_checks(oracle6):
    with pytest.raises(AmbientMismatch):
        oracle6.rank(EdgeSet(7, 1))


@pytest.mark.parametrize("modulus", [1, 4, 9, 2**31 - 19, 2**61 + 1])
def test_modulus_must_be_a_large_prime(modulus):
    with pytest.raises(ValueError, match="modulus"):
        CofactorOracle(5, modulus=modulus)


def test_closure_checks_the_seeds_it_memoizes(monkeypatch):
    # Double banana plus a vertex 8 on 2 and 3: adding 48 raises the generic
    # rank from 19 to 20, below the cap of 21, so no seed is trusted alone.
    F = double_banana().reindexed(9).add(2, 8).add(3, 8)
    e = (4, 8)
    bit = edge_index(9, *e)

    def rigged():
        oracle = CofactorOracle(9)
        real = oracle._row

        def row(b, idx):
            # two of the three seeds lose the row of e
            got = real(b, idx)
            return (0,) * len(got) if b == bit and idx < 2 else got

        monkeypatch.setattr(oracle, "_row", row)
        return oracle

    with pytest.raises(SeedDisagreement):
        rigged().rank(F.add(*e))
    oracle = rigged()
    with pytest.raises(SeedDisagreement):
        oracle.closure(F)
    with pytest.raises(SeedDisagreement):
        oracle.rank(F.add(*e))


def test_degree_zero_matches_graphic_rank():
    rng = random.Random(15)
    oracle = CofactorOracle(7, s=0)
    for _ in range(150):
        F = EdgeSet(7, rng.getrandbits(21))
        assert oracle.rank(F) == _graphic_rank(F)


def test_degree_one_matches_sparsity_rank():
    rng = random.Random(16)
    oracle = CofactorOracle(6, s=1)
    for _ in range(60):
        F = EdgeSet(6, rng.getrandbits(15))
        assert oracle.rank(F) == _laman_rank(F)


def test_degree_one_matches_rigidity_rows():
    rng = random.Random(17)
    cof = CofactorOracle(6, s=1)
    rig = RigidityOracle(6, d=2)
    for _ in range(60):
        F = EdgeSet(6, rng.getrandbits(15))
        assert cof.rank(F) == rig.rank(F)


def test_rank_table_matches_pointwise(oracle6, table6):
    rng = random.Random(18)
    fresh = CofactorOracle(6)
    for _ in range(60):
        mask = rng.getrandbits(15)
        assert table6[mask] == fresh.rank(EdgeSet(6, mask))


def test_small_graphs_behave():
    oracle = CofactorOracle(5)
    assert oracle.rank(EdgeSet.empty(5)) == 0
    assert oracle.rank(path_graph(5)) == 4
    assert oracle.rank(cycle_graph(5)) == 5
    assert oracle.independent(cycle_graph(5))


def test_seeds_change_nothing_on_generic_instances():
    a = CofactorOracle(6, seeds=(5, 6, 7))
    b = CofactorOracle(6, seeds=(1009, 2003, 3001))
    rng = random.Random(19)
    for _ in range(40):
        F = EdgeSet(6, rng.getrandbits(15))
        assert a.rank(F) == b.rank(F)
