"""Property tests: the seed walks behind the oracle's rank, greedy base,
cyc, closure and fundamental circuits, and the rank certificate, against
the pebble game, an exact, seed-free reference for the s = 0 (graphic) and
s = 1 (plane rigidity) cofactor matroids, on G(n, p) draws from sparse
forests to dense rigid graphs."""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from cofrig.cofactor import CofactorOracle  # noqa: E402
from cofrig.graphs import EdgeSet, bits, edge_at, edge_count  # noqa: E402
from cofrig.sequences import rank_certificate, seq_value  # noqa: E402

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


def pebble_rank(n, s):
    return lambda mask: reference.pebble_rank(EdgeSet(n, mask), s)


@CASES
@given(draws(30))
@example((1, 30, 5, 3))
def test_closure_is_the_pebble_games_closure(case):
    # a non-edge e joins cl(F) exactly when adding it keeps the rank; F and
    # its pebble base B have one closure, so the reference adds e to B
    s, n, degree, seed = case
    F = graph(n, degree, seed)
    B = reference.pebble_base(F, *reference.PEBBLE_KL[s])
    assert CofactorOracle(n, s=s).closure(F).mask == reference.closure(
        pebble_rank(n, s), B, (1 << edge_count(n)) - 1)


@CASES
@given(draws(30), st.integers(0, 1 << 16))
@example((1, 30, 5, 4), 0)
def test_fundamental_circuit_is_the_pebble_games_circuit(case, pick):
    # B, the pebble game's base of F, spans every other edge of F; the
    # circuit in B + e is what greedy removal from B + e leaves dependent
    s, n, degree, seed = case
    F = graph(n, degree, seed)
    B = reference.pebble_base(F, *reference.PEBBLE_KL[s])
    rest = [*bits(F.mask & ~B)]
    if rest:
        b = rest[pick % len(rest)]
        assert (CofactorOracle(n, s=s).fundamental_circuit(EdgeSet(n, B), edge_at(n, b)).mask
                == reference.fundamental_circuit(pebble_rank(n, s), B, b))


@CASES
@given(draws(30))
@example((1, 30, 5, 5))
@example((0, 30, 3, 5))
def test_certificate_rank_is_the_pebble_rank(case):
    # the certified rank is exact, and the certificate's sequence values F
    # at it: the upper bound meets the seed's base
    s, n, degree, seed = case
    F = graph(n, degree, seed)
    cert = rank_certificate(F, CofactorOracle(n, s=s))
    assert cert.rank == seq_value(F, cert.sequence) == reference.pebble_rank(F, s)
