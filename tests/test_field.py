import random

from cofrig.field import (
    MERSENNE61,
    EchelonBasis,
    is_prime,
    matrix_rank,
    subset_rank_table,
)


def test_modulus_is_the_mersenne_prime():
    assert MERSENNE61 == 2**61 - 1
    assert pow(2, MERSENNE61 - 1, MERSENNE61) == 1  # Fermat sanity check


def test_is_prime_matches_trial_division():
    small = [n for n in range(2, 3000) if all(n % k for k in range(2, int(n**0.5) + 1))]
    assert [n for n in range(3000) if is_prime(n)] == small
    assert is_prime(2**61 - 1) and is_prime(2**31 - 1)
    assert not is_prime(3215031751)  # strong pseudoprime to bases 2, 3, 5, 7
    assert not is_prime((2**32 + 15) * (2**31 - 1))


def test_matrix_rank_small_cases():
    assert matrix_rank([]) == 0
    assert matrix_rank([[0, 0, 0]]) == 0
    assert matrix_rank([[1, 2], [2, 4]]) == 1
    assert matrix_rank([[1, 0], [0, 1], [1, 1]]) == 2
    p = 7
    assert matrix_rank([[3, 4], [10, 11]], p=p) == 1  # second row = first mod 7


def test_echelon_basis_incremental_matches_batch():
    rng = random.Random(9)
    p = 101
    rows = [[rng.randrange(p) for _ in range(5)] for _ in range(12)]
    basis = EchelonBasis(p=p)
    for i, row in enumerate(rows, 1):
        basis.insert(row)
        assert basis.rank == matrix_rank(rows[:i], p=p)


def test_echelon_basis_copy_is_independent():
    basis = EchelonBasis(p=13)
    basis.insert([1, 0, 0])
    clone = basis.copy()
    clone.insert([0, 1, 0])
    assert basis.rank == 1 and clone.rank == 2


def test_echelon_reduce_detects_dependence():
    basis = EchelonBasis(p=13)
    basis.insert([1, 2, 3])
    basis.insert([0, 1, 1])
    assert basis.reduce([1, 3, 4]) is None  # sum of the two basis rows
    left = basis.reduce([0, 0, 5])
    assert left is not None and any(left)


def test_subset_rank_table_agrees_with_direct_ranks():
    rng = random.Random(4)
    p = 997
    rows = [[rng.randrange(p) for _ in range(4)] for _ in range(6)]
    table = subset_rank_table(rows, p=p)
    assert len(table) == 1 << 6
    for mask in range(1 << 6):
        chosen = [rows[i] for i in range(6) if mask >> i & 1]
        assert table[mask] == matrix_rank(chosen, p=p)
