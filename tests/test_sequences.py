import json
import random

import pytest

from cofrig.cofactor import CofactorOracle
from cofrig.errors import CapExceeded
from cofrig.graphs import EdgeSet, complete_edges, complete_graph, double_banana
from cofrig.sequences import (
    CircuitSequence,
    covering_sequence,
    find_simplicial_base_vertex,
    min_sequence_value,
    proper_order,
    rank_certificate,
    seq_value,
)


def test_member_validation():
    with pytest.raises(ValueError):
        CircuitSequence(6, ((0, 1, 2, 3),))  # too few vertices for d=3
    with pytest.raises(ValueError):
        CircuitSequence(6, ((0, 1, 2, 3, 3),))  # repeated vertex
    with pytest.raises(ValueError):
        CircuitSequence(5, ((0, 1, 2, 3, 5),))  # outside the ambient graph
    CircuitSequence(6, ((4, 0, 1, 3, 2),))  # any order is accepted, sorted


def test_improper_sequence_detected():
    seq = CircuitSequence(6, ((0, 1, 2, 3, 4), (0, 1, 2, 3, 4)))
    assert seq.improper_index() == 1
    assert not seq.is_proper
    with pytest.raises(ValueError, match="member 1"):
        seq_value(EdgeSet.empty(6), seq)


def test_covering_sequence_hits_the_generic_bound():
    for n in range(5, 9):
        seq = covering_sequence(n)
        assert seq.is_proper
        assert seq.union_edges() == complete_graph(n)
        assert seq_value(EdgeSet.empty(n), seq) == 3 * n - 6
    assert seq_value(EdgeSet.empty(6), covering_sequence(6, d=2)) == 2 * 6 - 3
    assert seq_value(EdgeSet.empty(7), covering_sequence(7, d=1)) == 7 - 1


def test_single_clique_value():
    F = complete_graph(5)
    value, seq = min_sequence_value(F)
    assert value == 9
    assert seq.members == ((0, 1, 2, 3, 4),)


def test_independent_set_needs_no_cliques():
    F = complete_graph(5).remove(0, 1)
    value, seq = min_sequence_value(F)
    assert value == 9
    assert len(seq) == 0


def test_k6_minimum():
    value, seq = min_sequence_value(complete_graph(6))
    assert value == 12
    assert len(seq) == 3


def test_double_banana_with_explicit_candidates():
    F = double_banana()
    bananas = [(0, 1, 2, 3, 4), (0, 1, 5, 6, 7)]
    value, seq = min_sequence_value(F, candidates=bananas)
    assert value == 17
    assert set(seq.members) == set(bananas)


def test_pool_cap():
    F = complete_graph(10)
    with pytest.raises(CapExceeded):
        min_sequence_value(F, vertex_pool=range(10))
    # force lifts the cap; a tiny pool keeps the forced search fast
    value, _ = min_sequence_value(
        complete_graph(5), vertex_pool=range(5), cap_n=4, force=True
    )
    assert value == 9


def test_values_dominate_ranks(table6):
    rng = random.Random(31)
    for _ in range(200):
        F = EdgeSet(6, rng.getrandbits(15))
        value, seq = min_sequence_value(F, vertex_pool=range(6))
        assert value == table6[F.mask]
        assert seq_value(F, seq) == value


def test_stop_at_matches_blind_search(table6):
    rng = random.Random(32)
    for _ in range(40):
        F = EdgeSet(6, rng.getrandbits(15))
        blind, _ = min_sequence_value(F, vertex_pool=range(6))
        stopped, seq = min_sequence_value(
            F, vertex_pool=range(6), stop_at=table6[F.mask]
        )
        assert blind == stopped
        if len(seq):
            assert seq_value(F, seq) == stopped


def test_proper_order_reorders_or_reports():
    assert proper_order(6, [(0, 1, 2, 3, 4), (1, 2, 3, 4, 5)]) is not None
    assert proper_order(6, [(0, 1, 2, 3, 4), (0, 1, 2, 3, 4)]) is None


def test_rank_certificate_payload():
    oracle = CofactorOracle(8)
    cert = rank_certificate(double_banana(), oracle)
    assert cert.rank == 17
    payload = json.loads(cert.to_json())
    assert set(payload) == {
        "n", "s", "edges", "rank", "independent_set", "k5_sequence", "seeds",
    }
    assert payload["rank"] == 17
    assert len(payload["independent_set"]) == 17
    assert len(payload["k5_sequence"]) == 2


def test_certificate_on_spanning_clique():
    oracle = CofactorOracle(8)
    cert = rank_certificate(complete_graph(8), oracle)
    assert cert.rank == 18
    assert seq_value(complete_graph(8), cert.sequence) == 18


def test_simplicial_base_vertex_on_cliques():
    for n in (5, 6, 7):
        oracle = CofactorOracle(n)
        v, base = find_simplicial_base_vertex(complete_graph(n), oracle)
        assert oracle.independent(base)
        assert len(base) == 3 * n - 6
        assert base.degree(v) == 3


def test_simplicial_base_vertex_on_banana_flat():
    oracle = CofactorOracle(8)
    flat = oracle.closure(double_banana())
    v, base = find_simplicial_base_vertex(flat, oracle)
    assert base.issubset(flat)
    assert len(base) == 17
    assert base.degree(v) == 3


def test_simplicial_base_vertex_rejects_bad_inputs():
    oracle = CofactorOracle(6)
    with pytest.raises(ValueError, match="flat"):
        find_simplicial_base_vertex(complete_edges(6, range(5)).remove(0, 1), oracle)
    pendant = complete_edges(6, range(5)).add(4, 5)
    assert oracle.is_flat(pendant)
    with pytest.raises(ValueError, match="cyclic"):
        find_simplicial_base_vertex(pendant, oracle)
    with pytest.raises(ValueError, match="nonempty"):
        find_simplicial_base_vertex(EdgeSet.empty(6), oracle)


def test_simplicial_base_vertex_requires_s2():
    oracle = CofactorOracle(6, s=1)
    with pytest.raises(ValueError, match="s = 2"):
        find_simplicial_base_vertex(complete_graph(6), oracle)
