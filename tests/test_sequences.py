import json
import random
from itertools import permutations

import pytest

from cofrig.cofactor import CofactorOracle
from cofrig.errors import CapExceeded, WitnessMismatch
from cofrig.graphs import (
    EdgeSet, apply_extension, clique_mask, complete_edges, complete_graph, double_banana,
    edge_index)
from cofrig.matroids import uniform_matroid
from cofrig.sequences import (
    CircuitSequence,
    covering_sequence,
    dress_certificate,
    find_simplicial_base_vertex,
    min_sequence_levels,
    rank_certificate,
    seq_value,
)

from rank_reference import (
    gnp, graphic_rank, min_sequence_value, pebble_rank, proper_order)


def test_member_validation():
    with pytest.raises(ValueError):
        CircuitSequence(6, ((0, 1, 2, 3),))  # too few vertices for d=3
    with pytest.raises(ValueError):
        CircuitSequence(6, ((0, 1, 2, 3, 3),))  # repeated vertex
    with pytest.raises(ValueError):
        CircuitSequence(5, ((0, 1, 2, 3, 5),))  # outside the ambient graph
    CircuitSequence(6, ((4, 0, 1, 3, 2),))  # any order is accepted, sorted


def test_sequence_fields_and_defaults():
    seq = CircuitSequence(6, ((4, 0, 1, 3, 2), (5, 1, 2, 3, 4)))
    assert seq.d == 3
    assert seq.members == ((0, 1, 2, 3, 4), (1, 2, 3, 4, 5))
    same = CircuitSequence(6, seq.members, 3)
    assert seq == same and hash(seq) == hash(same)
    assert seq != CircuitSequence(7, seq.members)
    assert repr(CircuitSequence(5, ((0, 1, 2, 3),), 2)) == (
        "CircuitSequence(n=5, members=((0, 1, 2, 3),), d=2)")
    with pytest.raises(AttributeError):
        seq.d = 2


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


def test_clique_mask_cache_stays_within_its_bound():
    # The certificate of K49 has C(46, 2) = 1035 K5s, more than the cache
    # holds; each member's mask is built once, and the cache keeps at most
    # its bound of them.
    clique_mask.cache_clear()
    cert = rank_certificate(complete_graph(49), CofactorOracle(49))
    info = clique_mask.cache_info()
    assert len(cert.sequence) == 1035 > info.maxsize == 1024
    assert (info.misses, info.hits, info.currsize) == (1035, 0, 1024)


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


def test_candidates_follow_the_member_rule():
    F = double_banana()
    with pytest.raises(ValueError, match="must have 5 distinct vertices"):
        min_sequence_value(F, candidates=[(0, 1, 2, 3, 4), (0, 1, 2, 3)])
    with pytest.raises(ValueError, match="does not fit inside K_8"):
        min_sequence_value(F, candidates=[(0, 1, 2, 3, 8)])
    # repeats and vertex order collapse onto one sorted candidate each
    value, seq = min_sequence_value(
        F, candidates=[(4, 3, 2, 1, 0), (0, 1, 2, 3, 4), (7, 6, 5, 1, 0)])
    assert value == 17
    assert sorted(seq.members) == [(0, 1, 2, 3, 4), (0, 1, 5, 6, 7)]


def test_values_dominate_ranks(table6):
    rng = random.Random(31)
    for _ in range(200):
        F = EdgeSet(6, rng.getrandbits(15))
        value, seq = min_sequence_value(F, vertex_pool=range(6))
        assert value == table6[F.mask]
        assert seq_value(F, seq) == value


def test_proper_order_reorders_or_reports():
    assert proper_order(6, [(0, 1, 2, 3, 4), (1, 2, 3, 4, 5)]) is not None
    assert proper_order(6, [(0, 1, 2, 3, 4), (0, 1, 2, 3, 4)]) is None


def test_proper_order_matches_every_permutation():
    rng = random.Random(33)
    found = refused = 0
    for _ in range(300):
        cliques = [tuple(sorted(rng.sample(range(6), 5)))
                   for _ in range(rng.randint(1, 5))]
        proper = {p for p in permutations(range(len(cliques)))
                  if CircuitSequence(6, tuple(cliques[i] for i in p)).is_proper}
        order = proper_order(6, cliques)
        if order is None:
            refused += 1
            assert not proper
        else:
            found += 1
            assert order in proper
    assert found > 50 and refused > 50


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


def _certified_rank(F, s):
    """The certified rank of F, after checking that the certificate's
    sequence values F at that rank."""
    cert = rank_certificate(F, CofactorOracle(F.n, s=s))
    assert seq_value(F, cert.sequence) == cert.rank
    return cert.rank


@pytest.mark.parametrize("n, p", [(20, 0.4), (30, 0.25)])
@pytest.mark.parametrize("seed", range(4))
def test_cover_route_certifies_s2_draws(n, p, seed):
    F = gnp(n, p, seed)
    assert _certified_rank(F, 2) == CofactorOracle(n, seeds=(7, 8, 9)).rank(F)


# G(30, 0.12) draws, plus small pieces: a triangle, two K4 on one shared
# vertex and a lone edge, whose (rigid) components have 2-7 vertices
_SPARSE = [gnp(30, 0.12, seed) for seed in range(4)] + [
    EdgeSet.complete(12, range(3)) | EdgeSet.complete(12, range(3, 7))
    | EdgeSet.complete(12, range(6, 10)) | EdgeSet.from_edges(12, [(10, 11)])]
_SPARSE_IDS = ["seed0", "seed1", "seed2", "seed3", "pieces"]


@pytest.mark.parametrize("F", _SPARSE, ids=_SPARSE_IDS)
def test_cover_route_certifies_s1_draws(F):
    assert _certified_rank(F, 1) == pebble_rank(F, 1)


@pytest.mark.parametrize("F", _SPARSE, ids=_SPARSE_IDS)
def test_cover_route_certifies_s0_draws(F):
    assert _certified_rank(F, 0) == graphic_rank(F)


def test_cover_route_labels_shared_vertices_first():
    # Two K6 on the hinge {9, 10}, which sorts last in the second member:
    # labelled in sorted order, its last covering clique would add only the
    # hinge edge the first member already holds.
    F = EdgeSet.complete(11, (0, 1, 2, 3, 9, 10)) | EdgeSet.complete(11, range(5, 11))
    assert _certified_rank(F, 2) == 2 * 12 - 1


def test_cover_route_fails_loudly(monkeypatch):
    # every seed's closure adds nothing, which leaves the double banana
    # without a K5: no seed's base meets its (empty) sequence's value
    oracle = CofactorOracle(8)
    real = oracle.seed_closure
    monkeypatch.setattr(oracle, "seed_closure",
                        lambda F, idx: (real(F, idx)[0], F))
    with pytest.raises(WitnessMismatch, match="sequence value") as info:
        rank_certificate(double_banana(), oracle)
    tried = info.value.detail["per_seed"]
    assert [t["seed"] for t in tried] == list(oracle.seeds)
    for t in tried:  # no search stood in
        assert t["cliques"] == []
        assert (t["base_size"], t["sequence_value"]) == (17, 18)


def test_a_degenerate_seed_0_hands_the_certificates_to_seed_1(monkeypatch):
    # K5 plus the pendant edge 45, a coloop: seed 0 loses its row, so its
    # base falls one short of the value of its sequence and of its cover
    F = complete_edges(6, range(5)).add(4, 5)
    clean = rank_certificate(F, CofactorOracle(6))
    clean_dress = dress_certificate(F, CofactorOracle(6))
    lost, real = edge_index(6, 4, 5), CofactorOracle._row
    monkeypatch.setattr(CofactorOracle, "_row", lambda self, b, idx, at:
                        {} if (b, idx) == (lost, 0) else real(self, b, idx, at))
    oracle = CofactorOracle(6)
    cert = rank_certificate(F, oracle)
    assert (cert.rank, cert.sequence) == (clean.rank, clean.sequence)
    assert cert.rank == len(cert.independent_set) == 10
    assert (4, 5) in cert.independent_set
    assert oracle._configs[1] is not None and oracle._configs[2] is None
    oracle = CofactorOracle(6)
    closed, value, cover, f0, order = dress_certificate(F, oracle)
    assert (closed, value, cover, f0, order) == clean_dress
    assert value == 10 and closed == F
    assert oracle._configs[1] is not None and oracle._configs[2] is None


def test_a_peel_proven_independent_set_is_certified_with_no_seed(monkeypatch):
    # 0-extensions from K4 on 30 vertices, minus one edge: 83 edges, below
    # the vertex cap 84 and independent by the peel alone.  Seed 0's route
    # gives F as its base and the empty sequence; the certificate reads no
    # closure, so with every row evaluation failing it is the same one.
    rng = random.Random(31)
    F = complete_edges(30, range(4))
    for v in range(4, 30):
        F = apply_extension(F, "0ext", v, rng.sample(range(v), 3))
    F = F.remove(*rng.choice(F.sorted_edges()))
    base, _ = CofactorOracle(30).seed_closure(F, 0)
    assert (base, len(base)) == (F, 83)
    clean = rank_certificate(F, CofactorOracle(30))
    assert (clean.rank, clean.independent_set, clean.sequence.members) == (83, F, ())

    def no_row(*_):
        raise AssertionError("a row was evaluated")

    monkeypatch.setattr(CofactorOracle, "_row", no_row)
    oracle = CofactorOracle(30)
    assert rank_certificate(F, oracle) == clean
    assert oracle._configs == [None] * 3
    # dress reads the closure, so it still asks seed 0
    with pytest.raises(AssertionError, match="a row was evaluated"):
        dress_certificate(F, oracle)


def test_a_flexible_dependent_set_asks_seed_0_alone():
    # the double banana is flexible and dependent: rank 17 of its 18 edges,
    # one below its count cap, so its peel proves nothing and seed 0 does
    oracle = CofactorOracle(8)
    cert = rank_certificate(double_banana(), oracle)
    assert (cert.rank, len(cert.independent_set)) == (17, 17)
    assert oracle._configs[0] is not None and oracle._configs[1] is None


def _henneberg(rng, n):
    """A rigid independent graph on n >= 4 vertices, by 0- and 1-extensions
    from K4."""
    F = complete_edges(n, range(4))
    for v in range(4, n):
        if rng.random() < 0.5:
            u, w = rng.choice(F.sorted_edges())
            rest = rng.sample([x for x in range(v) if x not in (u, w)], 2)
            F = apply_extension(F, "1ext", v, [u, w, *rest], [(u, w)])
        else:
            F = apply_extension(F, "0ext", v, rng.sample(range(v), 3))
    return F


def _glued(rng, n, count):
    """Cliques of 5-7 vertices, each new one on a 2-vertex hinge of an
    earlier one and fresh vertices otherwise, while they fit in K_n."""
    members, used = [tuple(range(5))], 5
    for _ in range(count - 1):
        size = rng.randint(5, 7)
        if used + size - 2 > n:
            break
        members.append((*rng.sample(rng.choice(members), 2),
                        *range(used, used + size - 2)))
        used += size - 2
    F = EdgeSet.empty(n)
    for m in members:
        F |= complete_edges(n, m)
    return F


def _certify_classes(seed):
    rng = random.Random(seed)
    n = rng.randint(7, 12)
    base = _henneberg(rng, n)
    planted = complete_edges(9, rng.sample(range(9), 5))
    rest = [e for e in complete_graph(9).sorted_edges() if e not in planted]
    return {
        "sparse": EdgeSet.from_edges(n, rng.sample(base.sorted_edges(), 2 * n)),
        "henneberg": base,
        "planted-K5": planted | EdgeSet.from_edges(9, rng.sample(rest, 16)),
        "complete": complete_graph(rng.randint(5, 10)),
        "banana": double_banana(),
        "glued": _glued(rng, 13, rng.randint(2, 4)),
    }


@pytest.mark.parametrize("seed", range(3))
def test_certificates_recheck_under_other_seeds(seed):
    for name, F in _certify_classes(seed).items():
        cert = rank_certificate(F, CofactorOracle(F.n))
        B = cert.independent_set
        assert B.issubset(F), name
        # one-sided: independent at any one evaluation is independent
        assert CofactorOracle(F.n, seeds=(7,)).independent(B), name
        assert cert.sequence.is_proper, name
        assert seq_value(F, cert.sequence) == cert.rank == len(B), name
        assert cert.rank == CofactorOracle(F.n, seeds=(7, 8, 9)).rank(F), name


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


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_min_sequence_levels_match_the_search(n):
    levels = min_sequence_levels(n)
    m = n * (n - 1) // 2
    if n < 5:  # no K5: every value is |F|
        assert levels == uniform_matroid(m, m).levels
    for mask in range(1 << m):
        value, _ = min_sequence_value(EdgeSet(n, mask), vertex_pool=range(n))
        assert sum(level >> mask & 1 for level in levels[1:]) == value


def test_min_sequence_levels_respect_the_table_cap():
    with pytest.raises(CapExceeded):
        min_sequence_levels(7)  # 21 edges, over ENUM_CAP
