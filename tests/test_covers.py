import random

import pytest

from cofrig.cofactor import CofactorOracle
from cofrig.covers import (
    CliqueCover,
    cover_upper_bound,
    dress_rank,
    find_shellable_order,
    hinge_table,
    is_k_degenerate,
    is_M_degenerate,
    maximal_cliques,
    val_D,
)
from cofrig.graphs import EdgeSet, complete_edges, complete_graph, double_banana


def test_cover_validation():
    with pytest.raises(ValueError, match=">= 5"):
        CliqueCover(6, ((0, 1, 2, 3),))
    with pytest.raises(ValueError, match="duplicate"):
        CliqueCover(6, ((0, 1, 2, 3, 4), (4, 3, 2, 1, 0)))
    with pytest.raises(ValueError, match="fit inside"):
        CliqueCover(5, ((0, 1, 2, 3, 5),))
    with pytest.raises(ValueError, match="permutation"):
        CliqueCover(7, ((0, 1, 2, 3, 4), (1, 2, 3, 4, 5)), shelling=(0, 0))


def test_maximal_cliques_single_block():
    cover, rest = maximal_cliques(complete_graph(6))
    assert cover.members == ((0, 1, 2, 3, 4, 5),)
    assert not rest


def test_maximal_cliques_on_banana_flat():
    oracle = CofactorOracle(8)
    flat = oracle.closure(double_banana())
    cover, rest = maximal_cliques(flat)
    assert set(cover.members) == {(0, 1, 2, 3, 4), (0, 1, 5, 6, 7)}
    assert not rest
    hinges, violations = hinge_table(cover)
    assert hinges == {(0, 1): 2}
    assert violations == []


def test_maximal_cliques_leftover_edges():
    F = complete_edges(6, range(5)).add(4, 5)
    cover, rest = maximal_cliques(F)
    assert cover.members == ((0, 1, 2, 3, 4),)
    assert sorted(rest.edges()) == [(4, 5)]


def test_hinge_violations_flag_large_overlaps():
    cover = CliqueCover(7, ((0, 1, 2, 3, 4, 5), (1, 2, 3, 4, 5, 6)))
    hinges, violations = hinge_table(cover)
    assert hinges == {}
    assert violations == [(0, 1, (1, 2, 3, 4, 5))]


def test_val_d_by_hand():
    # one 6-clique: 3*6 - 6 = 12, no hinges
    assert val_D(CliqueCover(7, ((0, 1, 2, 3, 4, 5),))) == 12
    # two 5-cliques glued on the pair {0,1}: 9 + 9 - (2 - 1) = 17
    banana = CliqueCover(8, ((0, 1, 2, 3, 4), (0, 1, 5, 6, 7)))
    assert val_D(banana) == 17


def test_shellable_order_banana():
    cover = CliqueCover(8, ((0, 1, 2, 3, 4), (0, 1, 5, 6, 7)))
    order = find_shellable_order(cover, k=4)
    assert order is not None and set(order) == {0, 1}


def test_six_cliques_of_k6_are_not_4_shellable():
    members = tuple(
        tuple(v for v in range(6) if v != skip) for skip in range(6)
    )
    cover = CliqueCover(6, members)
    assert find_shellable_order(cover, k=4) is None
    # every pair shares four vertices, so there are no hinges at all and
    # both degeneracy notions hold vacuously
    ok, order = is_k_degenerate(cover, 0)
    assert ok and order is not None
    oracle = CofactorOracle(6)
    ok, order = is_M_degenerate(cover, oracle)
    assert ok and order is not None


def test_m_degeneracy_on_disjoint_members():
    cover = CliqueCover(10, ((0, 1, 2, 3, 4), (5, 6, 7, 8, 9)))
    ok, order = is_M_degenerate(cover, CofactorOracle(10))
    assert ok
    ok3, _ = is_k_degenerate(cover, 3)
    assert ok3


def test_cover_upper_bound_values():
    oracle = CofactorOracle(8)
    banana = CliqueCover(8, ((0, 1, 2, 3, 4), (0, 1, 5, 6, 7)))
    F = double_banana()
    assert cover_upper_bound(F, banana, oracle) == 17
    coarse = CliqueCover(8, ((0, 1, 2, 3, 4, 5, 6, 7),))
    assert cover_upper_bound(F, coarse, oracle) == 18
    with pytest.raises(ValueError, match="cover"):
        cover_upper_bound(complete_graph(8), banana, oracle)


def test_dress_rank_on_cliques():
    for n in (5, 6, 7):
        oracle = CofactorOracle(n)
        value, cover, f0, order = dress_rank(complete_graph(n), oracle)
        assert value == 3 * n - 6
        assert len(cover) == 1
        assert not f0
        assert order == (0,)


def test_dress_rank_on_banana_flat():
    oracle = CofactorOracle(8)
    flat = oracle.closure(double_banana())
    value, cover, f0, order = dress_rank(flat, oracle)
    assert value == 17
    assert len(cover) == 2
    assert not f0


def test_dress_rank_requires_a_flat():
    oracle = CofactorOracle(8)
    with pytest.raises(ValueError, match="flat"):
        dress_rank(double_banana(), oracle)


def test_dress_rank_requires_s2():
    oracle = CofactorOracle(6, s=1)
    with pytest.raises(ValueError, match="s = 2"):
        dress_rank(complete_graph(6), oracle)


def test_dress_rank_random_closures(oracle7):
    rng = random.Random(41)
    seen = 0
    while seen < 10:
        F = oracle7.closure(EdgeSet(7, rng.getrandbits(21)))
        value, cover, f0, order = dress_rank(F, oracle7)
        assert value == oracle7.rank(F)
        assert len(f0) + sum(1 for _ in cover.union_edges().edges()) >= len(F)
        seen += 1
