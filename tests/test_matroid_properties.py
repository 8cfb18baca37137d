"""Property tests: the level-bitset construction of an explicit matroid from
its bases against the per-mask independence table of ``rank_reference``,
on random families of equal-size sets, most of them not a matroid."""

from itertools import combinations

import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from cofrig.matroids import ExplicitMatroid, verify_rank_axioms  # noqa: E402

from rank_reference import from_independence  # noqa: E402

# Fixed examples and no example database: the same cases on every run.
CASES = settings(max_examples=80, deadline=None, derandomize=True, database=None)


@st.composite
def base_families(draw):
    """(m, bases): a nonempty family of r-subsets of {0..m-1}, m <= 7."""
    m = draw(st.integers(0, 7))
    r = draw(st.integers(0, m))
    sets = [sum(1 << e for e in c) for c in combinations(range(m), r)]
    return m, draw(st.sets(st.sampled_from(sets), min_size=1))


def axiom_failure(M):
    try:
        verify_rank_axioms(M)
    except AssertionError as exc:
        return str(exc)
    return None


@CASES
@given(base_families())
@example((0, {0}))  # empty ground set
@example((3, {0}))  # rank 0
@example((4, {0b1111}))  # rank m
@example((4, {0b0011, 0b1100}))  # two disjoint pairs: no basis exchange
def test_from_bases_matches_the_independence_table(family):
    m, bases = family
    got = ExplicitMatroid.from_bases(m, bases)
    want = from_independence(m, lambda x: any(x & ~b == 0 for b in bases))
    assert got.full_table() == want.full_table()
    assert got.levels == want.levels
    assert got.bases() == want.bases() == sorted(bases)
    # from_text reports the same axiom failure, byte for byte
    assert axiom_failure(got) == axiom_failure(want)
