"""Property tests: the seed walks behind the oracle's rank, greedy base and
cyc against the pebble game, an exact, seed-free reference for the s = 0
(graphic) and s = 1 (plane rigidity) cofactor matroids, on G(n, p) draws
from sparse forests to dense rigid graphs."""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from cofrig.cofactor import CofactorOracle  # noqa: E402
from cofrig.graphs import EdgeSet  # noqa: E402

import rank_reference as reference  # noqa: E402

# Fixed examples and no example database: the same cases on every run.
CASES = settings(max_examples=40, deadline=None, derandomize=True, database=None)


def draws(max_n):
    """(s, n, degree, seed): the order s <= 1 and a G(n, p) draw with mean
    degree about degree, below and above the 2n - 3 edges of a rigid
    graph."""
    return st.tuples(st.sampled_from([0, 1]), st.integers(6, max_n),
                     st.integers(1, 8), st.integers(0, 1 << 16))


def graph(n, degree, seed):
    return reference.gnp(n, min(1.0, degree / (n - 1)), seed)


@CASES
@given(draws(150))
@example((1, 150, 4, 0))
@example((0, 150, 2, 0))
def test_rank_is_the_pebble_rank(case):
    s, n, degree, seed = case
    F = graph(n, degree, seed)
    assert CofactorOracle(n, s=s).rank(F) == reference.pebble_rank(F, s)


@CASES
@given(draws(60))
@example((1, 60, 5, 1))
def test_greedy_base_is_the_pebble_games_base(case):
    # the pebble game takes F's edges in edge order, as basis_of does
    s, n, degree, seed = case
    F = graph(n, degree, seed)
    assert (CofactorOracle(n, s=s).basis_of(F).mask
            == reference.pebble_base(F, *reference.PEBBLE_KL[s]))


@CASES
@given(draws(30))
@example((1, 30, 5, 2))
def test_cyc_is_the_pebble_games_cyc(case):
    # an edge is in cyc(F) exactly when deleting it keeps the rank
    s, n, degree, seed = case
    F = graph(n, degree, seed)
    assert CofactorOracle(n, s=s).cyc(F).mask == reference.cyc(
        lambda mask: reference.pebble_rank(EdgeSet(n, mask), s), F.mask)
