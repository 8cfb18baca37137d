import copy
import pickle
import random

import pytest

from cofrig.errors import AmbientMismatch
from cofrig.graphs import (
    EdgeSet,
    apply_extension,
    complete_edges,
    complete_graph,
    double_banana,
    edge_at,
    edge_count,
    edge_index,
    format_edge_text,
    parse_edge_text,
)

from rank_reference import (
    complete_bipartite_graph,
    cycle_graph,
    induced,
    path_graph,
    petersen_graph,
    shifted_union,
    star_graph,
    wheel_graph,
)


def test_edge_indexing_round_trips():
    n = 9
    for i in range(edge_count(n)):
        u, v = edge_at(n, i)
        assert edge_index(n, u, v) == i
        assert edge_index(n, v, u) == i


def test_edge_set_algebra():
    a = EdgeSet.from_edges(5, [(0, 1), (1, 2)])
    b = EdgeSet.from_edges(5, [(1, 2), (3, 4)])
    assert sorted((a | b).edges()) == [(0, 1), (1, 2), (3, 4)]
    assert sorted((a & b).edges()) == [(1, 2)]
    assert sorted((a - b).edges()) == [(0, 1)]
    assert len(a) == 2
    assert (1, 0) in a and (0, 3) not in a
    assert a.issubset(a | b)
    assert not (a | b).issubset(a)


def test_ambient_mismatch_raises():
    a = EdgeSet.from_edges(5, [(0, 1)])
    b = EdgeSet.from_edges(6, [(0, 1)])
    with pytest.raises(AmbientMismatch):
        _ = a | b
    with pytest.raises(AmbientMismatch):
        _ = a - b


def test_mask_bounds_checked():
    with pytest.raises(ValueError):
        EdgeSet(4, 1 << 6)
    with pytest.raises(ValueError):
        EdgeSet(-1, 0)


def test_edge_sets_are_immutable_values():
    F = EdgeSet(5, 0b1011)
    with pytest.raises(AttributeError):
        F.mask = 0
    with pytest.raises(AttributeError):
        F.n = 6
    with pytest.raises(AttributeError):
        del F.mask
    with pytest.raises(AttributeError):
        F.label = "new"
    assert (F.n, F.mask) == (5, 0b1011)
    assert EdgeSet(n=5, mask=0b1011) == F != EdgeSet(6, 0b1011)
    assert F != EdgeSet(5, 0b1010) and F != (5, 0b1011)
    assert hash(F) == hash(EdgeSet(5, 0b1011)) == hash((5, 0b1011))
    assert len({F, EdgeSet(5, 0b1011), EdgeSet(6, 0b1011)}) == 2
    assert repr(F) == "EdgeSet(n=5, mask=11)"
    assert repr(EdgeSet(3)) == "EdgeSet(n=3, mask=0)"
    for again in (copy.copy(F), copy.deepcopy(F), pickle.loads(pickle.dumps(F))):
        assert again == F


def test_add_remove_and_queries():
    F = complete_graph(5).remove(0, 1)
    assert len(F) == 9
    assert F.add(1, 0) == complete_graph(5)
    assert F.neighbors(0) == frozenset({2, 3, 4})
    assert F.degree(0) == 3
    assert sorted(F.star(0).edges()) == [(0, 2), (0, 3), (0, 4)]
    assert induced(F, [0, 2, 3]) == EdgeSet.from_edges(5, [(0, 2), (0, 3), (2, 3)])
    assert F.vertex_support() == frozenset(range(5))


def test_neighbors_match_an_edge_scan():
    F = double_banana()
    for v in range(-1, F.n + 2):
        scan = {u for e in F.edges() if v in e for u in e if u != v}
        assert F.neighbors(v) == frozenset(scan)
        assert F.degree(v) == len(scan)
    assert F.neighbors(F.n) == frozenset()


def test_reindexed_preserves_edges():
    F = EdgeSet.from_edges(5, [(0, 4), (1, 2)])
    G = F.reindexed(8)
    assert G.n == 8
    assert sorted(G.edges()) == sorted(F.edges())
    assert G.reindexed(5) == F


def test_complete_edges_on_subset():
    F = complete_edges(7, [1, 3, 5])
    assert sorted(F.edges()) == [(1, 3), (1, 5), (3, 5)]


def test_named_graphs_have_expected_sizes():
    assert len(complete_graph(6)) == 15
    assert len(cycle_graph(7)) == 7
    assert len(path_graph(7)) == 6
    assert len(star_graph(7)) == 6
    assert len(wheel_graph(6)) == 10
    assert len(complete_bipartite_graph(3, 3)) == 9
    banana = double_banana()
    assert banana.n == 8 and len(banana) == 18
    assert (0, 1) not in banana
    pete = petersen_graph()
    assert len(pete) == 15
    assert all(pete.degree(v) == 3 for v in range(10))


def test_shifted_union_is_disjoint():
    F = shifted_union(complete_graph(5), complete_graph(5))
    assert F.n == 10 and len(F) == 20
    assert induced(F, range(5)) == complete_graph(5).reindexed(10)


def test_edge_text_round_trip():
    rng = random.Random(3)
    for _ in range(20):
        F = EdgeSet(7, rng.getrandbits(21))
        again = parse_edge_text(format_edge_text(F))
        assert again == F


def test_edge_text_parsing_errors():
    with pytest.raises(ValueError):
        parse_edge_text("0 1 2\n")
    with pytest.raises(ValueError):
        parse_edge_text("n=3\n0 5\n")
    with pytest.raises(ValueError):
        parse_edge_text("a b\n")
    assert parse_edge_text("# only a comment\n").mask == 0


@pytest.mark.parametrize("text", ["n=-2\n", "n=3\nn=5\n0 4\n", "n=x\n0 1\n"],
                         ids=["negative", "repeated", "not-a-number"])
def test_bad_ambient_header(text):
    with pytest.raises(ValueError, match="bad ambient header"):
        parse_edge_text(text)


def test_zero_extension_adds_a_star():
    F = complete_graph(5)
    out = apply_extension(F, "0ext", 5, [0, 2, 4])
    assert out.n == 6
    assert sorted(out.star(5).edges()) == [(0, 5), (2, 5), (4, 5)]
    assert induced(out, range(5)) == F.reindexed(6)


def test_one_extension_swaps_an_edge():
    F = complete_graph(5)
    out = apply_extension(F, "1ext", 5, [0, 1, 2, 3], delete=[(0, 1)])
    assert (0, 1) not in out
    assert out.degree(5) == 4
    assert len(out) == len(F) - 1 + 4


def test_x_replacement_deletes_disjoint_pair():
    F = complete_graph(5)
    out = apply_extension(F, "xrep", 5, [0, 1, 2, 3, 4], delete=[(0, 1), (2, 3)])
    assert (0, 1) not in out and (2, 3) not in out
    assert out.degree(5) == 5


def test_v_replacement_warns():
    F = complete_graph(5)
    with pytest.warns(UserWarning):
        apply_extension(F, "xrep", 5, [0, 1, 2, 3, 4], delete=[(0, 1), (1, 2)])


def test_extension_validation():
    F = complete_graph(5)
    with pytest.raises(ValueError):
        apply_extension(F, "0ext", 5, [0, 1])  # wrong attach count
    with pytest.raises(ValueError):
        apply_extension(F, "0ext", 0, [1, 2, 3])  # vertex already present
    with pytest.raises(ValueError):
        apply_extension(F, "1ext", 5, [0, 1, 2, 3], delete=[(0, 4)])  # endpoint outside
    with pytest.raises(ValueError):
        F_sparse = EdgeSet.from_edges(5, [(0, 1)])
        apply_extension(F_sparse, "1ext", 5, [0, 2, 3, 4], delete=[(2, 3)])  # not in F
    with pytest.raises(ValueError):
        apply_extension(F, "sideways", 5, [0, 1, 2])  # unknown kind
