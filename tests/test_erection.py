import pytest

from cofrig.cofactor import CofactorOracle
from cofrig.erection import (
    check_cyclic_flat_cover,
    family_violation,
    free_elevation,
    free_erection,
)
from cofrig.matroids import clique_truncation_matroid, uniform_matroid

from rank_reference import cyc, cyclic_sets, has_nontrivial_erection, is_modular_cyclic_family


def test_u24_elevation_reaches_the_free_matroid():
    chain = free_elevation(uniform_matroid(4, 2))
    assert [m.rank_total for m in chain.steps] == [2, 3, 4]
    assert chain.final.full_table() == uniform_matroid(4, 4).full_table()


def test_k5_truncation_needs_no_elevation():
    # on five vertices the clique truncation already has the single
    # ten-edge circuit, which is the whole cofactor matroid there
    trunc = clique_truncation_matroid(5, 5)
    assert trunc.full_table() == CofactorOracle(5).rank_table()
    # its free elevation legitimately overshoots to the free matroid
    chain = free_elevation(trunc)
    assert [m.rank_total for m in chain.steps] == [9, 10]
    assert chain.final.full_table() == uniform_matroid(10, 10).full_table()


def test_degree_one_analogue_recovers_graphic_k5():
    trunc = clique_truncation_matroid(5, 3)
    chain = free_elevation(trunc)
    graphic = CofactorOracle(5, s=0).rank_table()
    assert chain.final.full_table() == graphic
    assert chain.final.rank_total == 4


def test_free_erection_triviality_flag():
    M = uniform_matroid(4, 4)  # the free matroid cannot gain rank
    N, trivial, family = free_erection(M)
    assert trivial
    assert N.full_table() == M.full_table()
    assert has_nontrivial_erection(uniform_matroid(4, 2))
    assert not has_nontrivial_erection(M)


def test_erection_truncates_back():
    M = uniform_matroid(5, 3)
    N, trivial, _ = free_erection(M)
    assert not trivial
    assert N.truncate(3).full_table() == M.full_table()


def test_family_checks():
    M = uniform_matroid(4, 2)
    cyclic = cyclic_sets(M)
    assert is_modular_cyclic_family(M, [0])
    assert is_modular_cyclic_family(M, cyclic)
    # including the full set but not the three-element cyclic sets below it
    # breaks down-closure
    violation = family_violation(M, [0, 0b1111])
    assert violation is not None and "down-closed" in violation
    # a member outside the ground set is no cyclic set of M
    assert family_violation(M, [0, 1 << 4]) == "contains a non-cyclic set"


def test_cyclic_flat_cover_checks_both_ends():
    chain = free_elevation(clique_truncation_matroid(5, 5))
    full = (1 << 10) - 1
    assert check_cyclic_flat_cover(chain, [full])
    with pytest.raises(ValueError):
        check_cyclic_flat_cover(chain, [0b11])


@pytest.mark.parametrize("n, t", [(5, 3), (6, 4)], ids=["K5-3", "K6-4"])
def test_erections_follow_the_cyc_definition(n, t):
    # r_N(X) = r_M(X) + [cyc_M(X) not in family], cyc_M from the table alone
    chain = free_elevation(clique_truncation_matroid(n, t))
    for M, N, family in zip(chain.steps, chain.steps[1:], chain.families):
        expected = bytes(r + (cyc(M.rank, x) not in family)
                         for x, r in enumerate(M.full_table()))
        assert N.full_table() == expected
