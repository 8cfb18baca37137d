import random
import re
from functools import cached_property
from itertools import combinations

import pytest

from cofrig.cofactor import CofactorOracle
from cofrig.erection import free_elevation
from cofrig.errors import CapExceeded
from cofrig.graphs import EdgeSet, bits
from cofrig.matroids import (
    ENUM_CAP,
    ExplicitMatroid,
    clique_truncation_matroid,
    element_bits,
    size_bits,
    subset_sizes,
    uniform_matroid,
    verify_rank_axioms,
)

from rank_reference import (
    clique_truncation_independent,
    closure,
    cyc,
    cyclic_sets,
    from_independence,
    is_independent,
    is_modular_pair,
    per_rank_axiom_check,
    rank_axioms_hold,
)


def test_uniform_matroid_basics():
    M = uniform_matroid(4, 2)
    verify_rank_axioms(M)
    assert M.rank_total == 2
    assert M.rank(0b0111) == 2
    assert is_independent(M, 0b0101)
    assert not is_independent(M, 0b0111)
    assert sorted(M.circuits()) == [0b0111, 0b1011, 0b1101, 0b1110]


def test_byte_built_tables_match_their_closed_forms():
    for m in range(ENUM_CAP + 1):
        sizes = [x.bit_count() for x in range(1 << m)]
        for r in {0, m // 2, m, m + 1}:
            closed = bytes(min(size, r) for size in sizes)
            assert uniform_matroid(m, r).full_table() == closed
            assert uniform_matroid(m, m).truncate(r).full_table() == closed
    for n in range(3, 7):
        for t in range(3, n + 1):
            cap, copies = t * (t - 1) // 2, [
                EdgeSet.complete(n, vs).mask for vs in combinations(range(n), t)]
            closed = bytes(min(x.bit_count(), cap) - (x in copies)
                           for x in range(1 << n * (n - 1) // 2))
            assert clique_truncation_matroid(n, t).full_table() == closed
    K6 = ExplicitMatroid(CofactorOracle(6).rank_table())
    assert K6.truncate(10).full_table() == bytes(min(r, 10) for r in K6.full_table())


def test_subset_builders_match_their_definitions():
    for m in range(11):
        subsets = range(1 << m)
        assert element_bits(m) == tuple(
            sum(1 << x for x in subsets if x >> e & 1) for e in range(m))
        assert size_bits(m) == tuple(
            sum(1 << x for x in subsets if x.bit_count() == k) for k in range(m + 1))
        assert subset_sizes(m) == bytes(x.bit_count() for x in subsets)


def test_every_rank_table_is_bytes(oracle6, table6):
    r6 = clique_truncation_matroid(6, 5)
    built = [uniform_matroid(5, 3), uniform_matroid(5, 5).truncate(2), r6,
             ExplicitMatroid.from_bases(3, [0b011, 0b101]), *free_elevation(r6).steps]
    assert all(type(M.full_table()) is bytes for M in built)
    assert type(table6) is bytes
    # the oracle's matroid wraps its proven table, and a bytes table is kept
    assert oracle6.explicit_matroid().full_table() is oracle6.rank_table()
    ranks = bytes([0, 1, 1, 2])
    assert ExplicitMatroid(ranks).full_table() is ranks


@pytest.mark.parametrize("n, s", [(5, 0), (6, 1), (6, 2)])
def test_circuit_bits_are_the_minimal_dependent_sets(table6, n, s):
    table = table6 if (n, s) == (6, 2) else CofactorOracle(n, s=s).rank_table()
    # x is a circuit when x is dependent and each x - b is independent
    circuits = [x for x, r in enumerate(table) if r == x.bit_count() - 1
                and all(table[x & ~(1 << b)] == r for b in bits(x))]
    M = ExplicitMatroid(table)
    assert M.circuit_bits == sum(1 << x for x in circuits)
    assert M.circuits() == circuits and circuits


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
    assert not is_independent(R6, k5)


@pytest.mark.parametrize("n, t", [(6, 5), (6, 4), (5, 3)])
def test_clique_truncation_closed_form_matches_the_independence_table(n, t):
    m = n * (n - 1) // 2
    by_independence = from_independence(m, clique_truncation_independent(n, t))
    assert clique_truncation_matroid(n, t).full_table() == by_independence.full_table()


def test_clique_truncation_needs_a_triangle_or_larger():
    # for t = 2 every edge is a circuit, which the closed form does not give
    with pytest.raises(ValueError, match="t >= 3"):
        clique_truncation_matroid(5, 2)


@pytest.mark.parametrize("build", ["U24", "K6-truncation-4", "K6-oracle-s2"])
def test_flats_and_cyclic_sets(build, request):
    M = {"U24": lambda: uniform_matroid(4, 2),
         "K6-truncation-4": lambda: clique_truncation_matroid(6, 4),
         "K6-oracle-s2": lambda: ExplicitMatroid(request.getfixturevalue("table6")),
         }[build]()
    rank, masks = M.rank, range(1 << M.m)
    # definitions over every mask, through the rank table alone
    flats = [x for x in masks if closure(rank, x, M.full_mask) == x]
    cyclic = [x for x in masks if cyc(rank, x) == x]
    cyclic_flats = sorted(set(cyclic) & set(flats))
    circuits = [x for x in masks if not is_independent(M, x)
                and all(is_independent(M, x & ~(1 << b)) for b in bits(x))]
    assert M.cyclic_bits.bit_length() - 1 == cyc(rank, M.full_mask)
    assert M.flats() == flats
    assert cyclic_sets(M) == cyclic
    assert M.cyclic_flats(include_spanning=True) == cyclic_flats
    assert M.cyclic_flats() == [x for x in cyclic_flats if rank(x) < M.rank_total]
    assert M.circuits() == circuits
    if build == "U24":
        assert M.flats() == [0, 0b0001, 0b0010, 0b0100, 0b1000, 0b1111]
        assert 0 in cyclic_sets(M)
        assert M.cyclic_flats(include_spanning=True) == [0, 0b1111]
        assert M.cyclic_flats() == [0]


def test_levels_hold_the_subsets_of_each_rank():
    M = uniform_matroid(3, 2)
    # bit x of levels[k] is set when rank(x) >= k
    assert M.levels == [0b11111111, 0b11111110, 0b11101000]
    assert ExplicitMatroid([0]).levels == [1]


def test_built_levels_match_the_parsed_table(monkeypatch):
    # uniform matroids and clique truncations build their levels from the
    # subset sizes, and each erection from the levels before it: none of
    # them parses its table, and each gets the levels the parse would
    parsed = []
    real = ExplicitMatroid.levels
    counting = cached_property(lambda M: parsed.append(M) or real.func(M))
    counting.__set_name__(ExplicitMatroid, "levels")
    monkeypatch.setattr(ExplicitMatroid, "levels", counting)
    built = [uniform_matroid(m, r) for m in range(16) for r in range(m + 2)]
    built += [clique_truncation_matroid(n, t) for n in range(3, 7) for t in range(3, n + 1)]
    for n, t in [(5, 3), (5, 4), (5, 5), (6, 4), (6, 5)]:
        steps = free_elevation(clique_truncation_matroid(n, t)).steps
        assert len(steps) > 1
        built += steps
    assert parsed == []
    for M in built:
        assert M.levels == ExplicitMatroid(M.full_table()).levels
    assert len(parsed) == len(built)


def test_closure_cyc_roundtrip(oracle6, table6):
    M = ExplicitMatroid(table6)
    rng = random.Random(22)
    for _ in range(50):
        x = rng.getrandbits(15)
        assert closure(M.rank, x, M.full_mask) == oracle6.closure(EdgeSet(6, x)).mask
        assert cyc(M.rank, x) == oracle6.cyc(EdgeSet(6, x)).mask


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


@pytest.mark.parametrize("text, message", [
    ("ground_size=-1\nbases\n0\n", "negative ground_size -1"),
    ("ground_size=2\nground_size=3\nbases\n1\n", "repeated header key 'ground_size'"),
    ("rank=1\nground_size=3\nrank=2\nbases\n1\n", "repeated header key 'rank'"),
], ids=["negative-ground-size", "repeated-ground-size", "repeated-rank"])
def test_from_text_rejects_bad_headers(text, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        ExplicitMatroid.from_text(text)


def test_enumeration_cap():
    with pytest.raises(CapExceeded):
        ExplicitMatroid.from_bases(17, [0])
    with pytest.raises(CapExceeded):
        clique_truncation_matroid(7, 5)
    # K7's 21 edges are over the cap, which is checked before any row
    oracle = CofactorOracle(7)
    with pytest.raises(CapExceeded):
        oracle.rank_table()
    assert oracle._configs == [None] * len(oracle.seeds)


def test_rank_table_cap_is_checked_on_construction():
    with pytest.raises(CapExceeded):
        ExplicitMatroid([0] * (1 << 17))


def test_modular_pairs_in_uniform():
    M = uniform_matroid(4, 2)
    assert is_modular_pair(M, 0b0001, 0b0010)
    assert not is_modular_pair(M, 0b0011, 0b0110)


def test_rank_axioms_catch_violations():
    # doubled ranks leave 0..m, which construction refuses; capped at m they
    # break unit increase
    with pytest.raises(ValueError, match=r"^rank 4 of 0x3 is outside 0\.\.3$"):
        ExplicitMatroid([2 * x.bit_count() for x in range(1 << 3)])
    bad = ExplicitMatroid([min(2 * x.bit_count(), 3) for x in range(1 << 3)])
    with pytest.raises(AssertionError, match=r"^unit increase fails at 0x0\+0$"):
        verify_rank_axioms(bad)


def _verdict(table):
    """Whether the table is a matroid's: construction refuses a rank outside
    0..m, and verify_rank_axioms checks the rest."""
    try:
        verify_rank_axioms(ExplicitMatroid(table))
    except (ValueError, AssertionError):
        return False
    return True


def test_rank_axioms_match_the_reference_on_small_tables():
    u24 = uniform_matroid(4, 2).full_table()
    tables = [[0], [0, 0], [0, 1], [0, 2], [1, 1], [0, -1],
              [0, 1, 1, -1], [0, 1, 1, 1, 1, 1, 1, 3]]
    for x in range(len(u24)):
        for delta in (-1, 1):
            bad = list(u24)
            bad[x] += delta
            tables.append(bad)
    negative = list(u24)
    negative[0b1100] = -1
    tables.append(negative)
    verdicts = [_verdict(t) for t in tables]
    assert verdicts == [rank_axioms_hold(t) for t in tables]
    # a pair of U(2,4) made parallel is a matroid again
    assert verdicts[:5] == [True, True, True, False, False] and 0 < sum(verdicts[5:]) < 40


def test_rank_axioms_match_the_reference_on_k6_corruptions():
    table = clique_truncation_matroid(6, 5).full_table()
    assert rank_axioms_hold(table) and _verdict(table)
    rng = random.Random(11)
    verdicts = []
    for _ in range(200):
        x, delta = rng.randrange(1, 1 << 15), rng.choice((-1, 1))
        bad = list(table)
        bad[x] += delta
        # table passes every instance, so only those reading x can fail
        verdicts.append(_verdict(bad))
        assert verdicts[-1] == rank_axioms_hold(bad, touching=x)
    assert 0 < sum(verdicts) < 200  # some corruptions are matroids again


def _failure(check, table):
    try:
        check(ExplicitMatroid(table))
    except AssertionError as exc:
        return str(exc)
    return None


def test_rank_axioms_name_what_the_per_rank_check_names():
    rng = random.Random(37)
    kinds = set()
    for table in (CofactorOracle(6, s=1).rank_table(),
                  CofactorOracle(6, s=2).rank_table(),
                  uniform_matroid(11, 6).full_table()):
        for _ in range(40):
            x, delta = rng.randrange(1, len(table)), rng.choice((-1, 1))
            bad = list(table)
            bad[x] += delta
            got = _failure(verify_rank_axioms, bad)
            assert got == _failure(per_rank_axiom_check, bad)
            kinds.add(got and got.split(" fails")[0])
    # each kind of failure shows up, and some corruptions are matroids again
    assert kinds == {"unit increase", "local submodularity", None}


@pytest.mark.parametrize("table, error, message", [
    ([1, 1], AssertionError, "rank of the empty set is not 0"),
    # construction refuses a rank outside 0..m, with the same message
    ([0, 1, 1, -1], ValueError, "rank -1 of 0x3 is outside 0..2"),
    ([0, 1, 1, 3], ValueError, "rank 3 of 0x3 is outside 0..2"),
    (bytes([0, 1, 1, 3]), ValueError, "rank 3 of 0x3 is outside 0..2"),
    ([0, 1, 300, -1], ValueError, "rank 300 of 0x2 is outside 0..2"),
    ([1, 1, 1, 1, 1, 1, 1, 4], ValueError, "rank 4 of 0x7 is outside 0..3"),
    ([0, 2, 1, 1], AssertionError, "unit increase fails at 0x0+0"),
    ([0, 1, 1, 3, 1, 2, 2, 3], AssertionError, "unit increase fails at 0x1+1"),
    ([0, 1, 1, 0], AssertionError, "unit increase fails at 0x1+1"),
    ([0, 0, 0, 1], AssertionError, "local submodularity fails at 0x0+0,1"),
    # fails at 0x4+0,1 and 0x2+0,2 too
    ([0, 0, 0, 0, 0, 0, 0, 1], AssertionError,
     "local submodularity fails at 0x1+1,2"),
], ids=["empty", "negative", "above-m", "above-m-bytes", "lowest-of-two",
         "above-m-first", "jump", "jump-high", "drop", "square", "lowest-square"])
def test_rank_axiom_failures_name_the_lowest_subset(table, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        verify_rank_axioms(ExplicitMatroid(table))
