import random
from itertools import combinations

import pytest

from cofrig import matroids
from cofrig.errors import CapExceeded
from cofrig.graphs import EdgeSet, bits
from cofrig.matroids import (
    ExplicitMatroid,
    clique_truncation_matroid,
    uniform_matroid,
    verify_rank_axioms,
)


def test_uniform_matroid_basics():
    M = uniform_matroid(4, 2)
    verify_rank_axioms(M)
    assert M.rank_total == 2
    assert M.rank(0b0111) == 2
    assert M.is_independent(0b0101)
    assert not M.is_independent(0b0111)
    assert sorted(M.circuits()) == [0b0111, 0b1011, 0b1101, 0b1110]


def test_truncation():
    M = uniform_matroid(5, 4).truncate(2)
    assert M.full_table() == uniform_matroid(5, 2).full_table()
    verify_rank_axioms(M)


def test_clique_truncation_r5_is_uniform():
    R5 = clique_truncation_matroid(5, 5)
    assert R5.full_table() == uniform_matroid(10, 9).full_table()


def test_clique_truncation_r6():
    R6 = clique_truncation_matroid(6, 5)
    verify_rank_axioms(R6)
    assert R6.rank_total == 10
    # a full 5-clique is dependent even though it has only ten edges
    k5 = 0
    for i, pair in enumerate(combinations(range(6), 2)):
        if max(pair) <= 4:
            k5 |= 1 << i
    assert k5.bit_count() == 10
    assert not R6.is_independent(k5)


@pytest.mark.parametrize("make, args", [
    (uniform_matroid, (4, 2)),
    (clique_truncation_matroid, (6, 4)),
], ids=["U24", "K6-truncation-4"])
def test_flats_and_cyclic_sets(make, args):
    M = make(*args)
    rank, masks = M.rank, range(1 << M.m)
    # definitions over every mask, through the rank table alone
    flats = [x for x in masks if matroids.closure(rank, x, M.full_mask) == x]
    cyclic = [x for x in masks if matroids.cyc(rank, x) == x]
    cyclic_flats = sorted(set(cyclic) & set(flats))
    circuits = [x for x in masks if not M.is_independent(x)
                and all(M.is_independent(x & ~(1 << b)) for b in bits(x))]
    assert [M.cyc(x) for x in masks] == [matroids.cyc(rank, x) for x in masks]
    assert [x for x in masks if M.is_flat(x)] == flats
    assert M.flats() == flats
    assert M.cyclic_sets() == cyclic
    assert M.cyclic_flats(include_spanning=True) == cyclic_flats
    assert M.cyclic_flats() == [x for x in cyclic_flats if rank(x) < M.rank_total]
    assert M.circuits() == circuits
    if make is uniform_matroid:
        assert M.flats() == [0, 0b0001, 0b0010, 0b0100, 0b1000, 0b1111]
        assert 0 in M.cyclic_sets()
        assert M.cyclic_flats(include_spanning=True) == [0, 0b1111]
        assert M.cyclic_flats() == [0]


def test_closure_cyc_roundtrip(oracle6, table6):
    M = ExplicitMatroid.from_table(table6)
    rng = random.Random(22)
    for _ in range(50):
        x = rng.getrandbits(15)
        assert M.closure(x) == oracle6.closure(EdgeSet(6, x)).mask
        assert M.cyc(x) == oracle6.cyc(EdgeSet(6, x)).mask


def test_bases_and_text_roundtrip():
    M = uniform_matroid(5, 3)
    text = M.to_text()
    back = ExplicitMatroid.from_text(text)
    assert back.full_table() == M.full_table()
    assert len(M.bases()) == 10


def test_from_text_rejects_rank_mismatch():
    M = uniform_matroid(4, 2)
    text = M.to_text().replace("rank=2", "rank=3")
    with pytest.raises(ValueError):
        ExplicitMatroid.from_text(text)


def test_enumeration_cap():
    with pytest.raises(CapExceeded):
        ExplicitMatroid.from_independence(17, lambda x: True)
    with pytest.raises(CapExceeded):
        clique_truncation_matroid(7, 5)


def test_rank_table_cap_is_checked_on_construction():
    with pytest.raises(CapExceeded):
        ExplicitMatroid.from_table([0] * (1 << 17))


def test_modular_pairs_in_uniform():
    M = uniform_matroid(4, 2)
    assert M.is_modular_pair(0b0001, 0b0010)
    assert not M.is_modular_pair(0b0011, 0b0110)


def test_rank_axioms_catch_violations():
    bad = ExplicitMatroid.from_function(3, lambda x: 2 * x.bit_count())
    with pytest.raises(AssertionError):
        verify_rank_axioms(bad)


def test_fundamental_circuit_rejects_an_element_of_the_base():
    M = uniform_matroid(4, 2)
    with pytest.raises(ValueError, match="already in the base"):
        M.fundamental_circuit(0b0011, 0)
