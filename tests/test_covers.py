import random
from itertools import combinations, permutations

import pytest

from cofrig.cofactor import CofactorOracle
from cofrig.covers import (
    CliqueCover,
    dress_rank,
    find_shellable_order,
    hinge_table,
    is_M_degenerate,
    maximal_cliques,
    val_D,
)
from cofrig.graphs import EdgeSet, complete_edges, complete_graph, double_banana

from rank_reference import cover_upper_bound


def test_cover_validation():
    with pytest.raises(ValueError, match=">= 5"):
        CliqueCover(6, ((0, 1, 2, 3),))
    with pytest.raises(ValueError, match="duplicate"):
        CliqueCover(6, ((0, 1, 2, 3, 4), (4, 3, 2, 1, 0)))
    with pytest.raises(ValueError, match="fit inside"):
        CliqueCover(5, ((0, 1, 2, 3, 5),))


def test_covers_compare_by_their_fields_only():
    members = ((0, 1, 2, 3, 4, 5), (6, 5, 4, 3, 2))
    cover = CliqueCover(7, members)
    assert cover.members == ((0, 1, 2, 3, 4, 5), (2, 3, 4, 5, 6))
    assert cover.meets == {(0, 1): (2, 3, 4, 5)}
    assert "meets" in vars(cover)
    fresh = CliqueCover(7, members)
    assert cover == fresh and hash(cover) == hash(fresh)
    assert "meets" not in vars(fresh)
    assert cover != CliqueCover(8, members)
    assert repr(cover) == ("CliqueCover(n=7, members=((0, 1, 2, 3, 4, 5), "
                           "(2, 3, 4, 5, 6)))")
    with pytest.raises(AttributeError):
        cover.members = ()


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
    order = find_shellable_order(cover)
    assert order is not None and set(order) == {0, 1}


def _shells(members, order) -> bool:
    """Each member meets the union of the members before it in ≤ 4 vertices."""
    seen = set()
    for i in order:
        if len(seen & set(members[i])) > 4:
            return False
        seen |= set(members[i])
    return True


def test_shellable_orders_match_every_permutation():
    rng = random.Random(30)
    found = refused = 0
    for _ in range(300):
        want = rng.randint(1, 5)
        members = set()
        while len(members) < want:
            members.add(tuple(sorted(rng.sample(range(8), rng.randint(5, 6)))))
        cover = CliqueCover(8, sorted(members))
        shells = [p for p in permutations(range(want)) if _shells(cover.members, p)]
        order = find_shellable_order(cover)
        if order is None:
            refused += 1
            assert not shells
        else:
            found += 1
            assert sorted(order) == list(range(want))
            assert _shells(cover.members, order)
    assert found > 50 and refused > 50


def test_six_cliques_of_k6_are_not_4_shellable():
    members = tuple(
        tuple(v for v in range(6) if v != skip) for skip in range(6)
    )
    cover = CliqueCover(6, members)
    assert find_shellable_order(cover) is None
    # every pair shares four vertices, so there are no hinges at all and
    # M-degeneracy holds vacuously
    oracle = CofactorOracle(6)
    ok, order = is_M_degenerate(cover, oracle)
    assert ok and order is not None


def test_m_degeneracy_on_disjoint_members():
    cover = CliqueCover(10, ((0, 1, 2, 3, 4), (5, 6, 7, 8, 9)))
    ok, order = is_M_degenerate(cover, CofactorOracle(10))
    assert ok


class _AtMost:
    """The uniform matroid U(k, E(K_n)) as an oracle: k edges or fewer are
    independent.  At k = 1 two hinges in one member already refuse a step."""

    def __init__(self, n: int, k: int):
        self.n, self.k = n, k

    def rank(self, F):
        return min(len(F), self.k)

    def independent(self, F):
        return len(F) <= self.k


def _steps_independent(members, order, oracle) -> bool:
    """Each placed member's hinges (two placed members meeting in exactly two
    of its vertices) are independent, by pairwise intersection and rank."""
    placed = []
    for i in order:
        placed.append(i)
        hinges = set()
        for a, b in combinations(placed, 2):
            shared = set(members[a]) & set(members[b])
            if len(shared) == 2 and shared <= set(members[i]):
                hinges.add(tuple(sorted(shared)))
        E = EdgeSet.from_edges(oracle.n, hinges)
        if oracle.rank(E) != len(E):
            return False
    return True


def test_hinged_covers_match_brute_force(oracle8):
    rng = random.Random(29)
    cofactor = {8: oracle8, 9: CofactorOracle(9)}
    hinged = refused = 0
    for _ in range(60):
        n = rng.choice((8, 9))
        want = rng.randint(2, 4)
        members = set()
        while len(members) < want:
            members.add(tuple(sorted(rng.sample(range(n), rng.randint(5, 6)))))
        cover = CliqueCover(n, sorted(members))
        members = cover.members
        shared = {(i, j): set(members[i]) & set(members[j])
                  for i, j in combinations(range(len(members)), 2)}
        pairs = sorted({tuple(sorted(s)) for s in shared.values() if len(s) == 2})
        degrees = {p: sum(1 for m in members if set(p) <= set(m)) for p in pairs}
        violations = [(i, j, tuple(sorted(s))) for (i, j), s in shared.items()
                      if len(s) >= 3]
        hinges, found = hinge_table(cover)
        assert list(hinges.items()) == list(degrees.items())
        assert found == violations
        assert val_D(cover) == (sum(3 * len(m) - 6 for m in members)
                                - sum(deg - 1 for deg in degrees.values()))
        hinged += bool(degrees)
        for oracle in (cofactor[n], _AtMost(n, 1)):
            ok, order = is_M_degenerate(cover, oracle)
            if ok:
                assert sorted(order) == list(range(len(members)))
                assert _steps_independent(members, order, oracle)
            else:
                refused += 1
                assert order is None
                assert not any(_steps_independent(members, p, oracle)
                               for p in permutations(range(len(members))))
    assert hinged > 10 and refused > 0


def test_cover_upper_bound_values():
    oracle = CofactorOracle(8)
    banana = CliqueCover(8, ((0, 1, 2, 3, 4), (0, 1, 5, 6, 7)))
    F = double_banana()
    assert cover_upper_bound(F, banana, oracle) == 17
    coarse = CliqueCover(8, ((0, 1, 2, 3, 4, 5, 6, 7),))
    assert cover_upper_bound(F, coarse, oracle) == 18
    with pytest.raises(ValueError, match="cover"):
        cover_upper_bound(complete_graph(8), banana, oracle)


@pytest.mark.parametrize("s", [0, 1, 3])
def test_cover_upper_bound_needs_s_2(s):
    cover = CliqueCover(5, ((0, 1, 2, 3, 4),))
    with pytest.raises(ValueError, match="s = 2"):
        cover_upper_bound(complete_graph(5), cover, CofactorOracle(5, s=s))


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
