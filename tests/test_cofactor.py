import random
from functools import cached_property
from itertools import combinations

import pytest

from cofrig import cofactor, field, matroids
from cofrig.cofactor import CofactorOracle, cofactor_row
from cofrig.errors import AmbientMismatch, SeedDisagreement
from cofrig.field import EchelonBasis
from cofrig.graphs import (
    EdgeSet,
    bits,
    complete_edges,
    complete_graph,
    double_banana,
    edge_at,
    edge_count,
    edge_index,
)
from cofrig.sequences import rank_certificate

import rank_reference as reference
from rank_reference import (complete_bipartite_graph, cycle_graph, matrix_rank,
                            path_graph)


def _laman_independent(F):
    """2D rigidity independence: |F'| <= 2|V(F')| - 3 for all sub-supports."""
    if not F.mask:
        return True
    verts = sorted(F.vertex_support())
    for k in range(2, len(verts) + 1):
        for vs in combinations(verts, k):
            inner = reference.induced(F, vs)
            if len(inner) > 2 * k - 3:
                return False
    return True


def _laman_rank(F):
    """Greedy rank through the exact sparsity-count independence test."""
    picked = EdgeSet.empty(F.n)
    for u, v in F.sorted_edges():
        trial = picked.add(u, v)
        if _laman_independent(trial):
            picked = trial
    return len(picked)


def test_complete_graph_ranks():
    for n in range(5, 9):
        oracle = CofactorOracle(n)
        assert oracle.rank(complete_graph(n)) == 3 * n - 6
        assert oracle.is_rigid(complete_graph(n))


def test_k5_is_a_circuit(oracle6):
    clique = complete_edges(6, range(5))
    assert not oracle6.independent(clique)
    for u, v in clique.edges():
        assert oracle6.independent(clique.remove(u, v))


def test_double_banana_rank():
    oracle = CofactorOracle(8)
    banana = double_banana()
    assert oracle.rank(banana) == 17
    assert not oracle.independent(banana)
    closed = oracle.closure(banana)
    assert closed == banana.add(0, 1)
    assert oracle.is_flat(closed)
    assert not oracle.is_flat(banana)


def test_closure_is_idempotent_and_extensive(oracle7):
    rng = random.Random(11)
    for _ in range(25):
        F = EdgeSet(7, rng.getrandbits(21))
        closed = oracle7.closure(F)
        assert F.issubset(closed)
        # oracle7 remembers what its closure returned; a fresh one decides
        assert oracle7.closure(closed) == CofactorOracle(7).closure(closed) == closed
        assert oracle7.rank(closed) == oracle7.rank(F)


def test_rank_is_monotone_and_submodular(oracle6, table6):
    rng = random.Random(12)
    for _ in range(200):
        x = rng.getrandbits(15)
        y = rng.getrandbits(15)
        assert table6[x & y] + table6[x | y] <= table6[x] + table6[y]
        assert table6[x & y] <= table6[x] <= table6[x | y]


def test_cyc_strips_exactly_the_coloops(oracle6):
    rng = random.Random(13)
    for _ in range(40):
        F = EdgeSet(6, rng.getrandbits(15))
        core = oracle6.cyc(F)
        r = oracle6.rank(F)
        for u, v in F.edges():
            dropped = oracle6.rank(F.remove(u, v))
            if (u, v) in core:
                assert dropped == r
            else:
                assert dropped == r - 1
        assert oracle6.is_cyclic(core)


def test_basis_and_extension(oracle6):
    rng = random.Random(14)
    for _ in range(30):
        F = EdgeSet(6, rng.getrandbits(15))
        base = oracle6.basis_of(F)
        assert base.issubset(F)
        assert oracle6.independent(base)
        assert len(base) == oracle6.rank(F)
        seed = EdgeSet.from_edges(6, list(base.edges())[:2])
        again = oracle6.extend_basis(seed, F)
        assert seed.issubset(again) and len(again) == len(base)
    with pytest.raises(ValueError):
        oracle6.extend_basis(complete_edges(6, (0, 1)), EdgeSet.empty(6))


def test_fundamental_circuit(oracle6):
    B = oracle6.basis_of(complete_graph(6))
    outside = complete_graph(6) - B
    for e in outside.edges():
        circuit = oracle6.fundamental_circuit(B, e)
        assert e in circuit
        assert not oracle6.independent(circuit)
        for u, v in circuit.edges():
            assert oracle6.independent(circuit.remove(u, v))


def test_ambient_checks(oracle6):
    with pytest.raises(AmbientMismatch):
        oracle6.rank(EdgeSet(7, 1))


@pytest.mark.parametrize("modulus", [1, 4, 9, 2**31 - 19, 2**61 + 1])
def test_modulus_must_be_a_large_prime(modulus):
    with pytest.raises(ValueError, match="modulus"):
        CofactorOracle(5, modulus=modulus)


def _rigged_oracle(monkeypatch, n=9, lost=(4, 8)):
    """K_n oracle whose seeds 0 and 1 (not 2) lose the row of the edge lost,
    48 unless given."""
    oracle = CofactorOracle(n)
    real = oracle._row
    bit = edge_index(n, *lost)

    def row(b, idx, at):
        got = real(b, idx, at)
        return {} if b == bit and idx < 2 else got

    monkeypatch.setattr(oracle, "_row", row)
    return oracle


def _banana10():
    """The double banana in K10 with vertex 8 on 2, 3, 5 and vertex 9 on 6, 7:
    adding 48, whose ends both have degree at least 3, raises the generic
    rank from 22 to 23, below the cap of 24, so no seed is trusted alone."""
    F = double_banana().reindexed(10)
    return F.add(2, 8).add(3, 8).add(5, 8).add(6, 9).add(7, 9)


def test_closure_checks_the_seeds_it_memoizes(monkeypatch):
    # Seeds 0 and 1 lose the row of 48, so they rank F + 48 at 22, below
    # seed 2's 23 and the cap of 24: its rank splits.  Closure votes F + 48
    # under rank(F) + 1 = 23, which seed 2's lift meets, proving 48 out; the
    # closure is the generic one, and it memoizes no F + e, so the rank of
    # F + 48 still splits afterwards.
    F = _banana10()
    e = (4, 8)
    with pytest.raises(SeedDisagreement):
        _rigged_oracle(monkeypatch, 10).rank(F.add(*e))
    oracle = _rigged_oracle(monkeypatch, 10)
    assert oracle.closure(F) == CofactorOracle(10).closure(F)
    assert not oracle.closure(F).mask >> edge_index(10, *e) & 1
    with pytest.raises(SeedDisagreement):
        oracle.rank(F.add(*e))


def test_degree_zero_matches_graphic_rank():
    rng = random.Random(15)
    oracle = CofactorOracle(7, s=0)
    for _ in range(150):
        F = EdgeSet(7, rng.getrandbits(21))
        assert oracle.rank(F) == reference.graphic_rank(F)


def test_degree_one_matches_sparsity_rank():
    rng = random.Random(16)
    oracle = CofactorOracle(6, s=1)
    for _ in range(60):
        F = EdgeSet(6, rng.getrandbits(15))
        assert oracle.rank(F) == _laman_rank(F)


def test_pebble_game_matches_the_counting_references():
    # The pebble game, the exact seed-free reference at s <= 1, against the
    # two counting ones: its (2, 3) game accepts the edge-order greedy base
    # of the sparsity count, and its (1, 1) game ranks as union-find does.
    rng = random.Random(19)
    for _ in range(40):
        F = EdgeSet(6, rng.getrandbits(15))
        assert reference.pebble_base(F, 2, 3) == reference.extend_basis(
            lambda x: _laman_rank(EdgeSet(6, x)), 0, F.mask)
        G = EdgeSet(8, rng.getrandbits(28))
        assert reference.pebble_rank(G, 0) == reference.graphic_rank(G)


@pytest.mark.parametrize("s", [0, 1, 2])
def test_seed_ranks_do_not_depend_on_the_column_layout(s):
    # Each seed's basis lays the rows out by the mask's peel; laid out
    # low-vertex-first instead, vertex v's block at columns (s+1)v, the same
    # rows keep every seed's rank.
    rng = random.Random(40 + s)
    w = s + 1
    for n in range(8, 13):
        oracle = CofactorOracle(n, s=s)
        m = edge_count(n)
        for density in range(1, 5):
            mask = ~0
            for _ in range(density):
                mask &= rng.getrandbits(m)
            for idx in range(len(oracle.seeds)):
                rows = []
                for b in bits(mask):
                    row = oracle._row(b, idx, range(0, w * n, w))
                    i, j = edge_at(n, b)
                    assert set(row) <= {w * v + t for v in (i, j) for t in range(w)}
                    rows.append(row)
                assert (oracle._seed_basis(mask, idx).rank
                        == matrix_rank(rows, oracle.modulus))


def test_rank_table_matches_pointwise(oracle6, table6):
    rng = random.Random(18)
    fresh = CofactorOracle(6)
    for _ in range(60):
        mask = rng.getrandbits(15)
        assert table6[mask] == fresh.rank(EdgeSet(6, mask))


def test_small_graphs_behave():
    oracle = CofactorOracle(5)
    assert oracle.rank(EdgeSet.empty(5)) == 0
    assert oracle.rank(path_graph(5)) == 4
    assert oracle.rank(cycle_graph(5)) == 5
    assert oracle.independent(cycle_graph(5))


def test_repeated_seeds_are_rejected():
    # two equal evaluations always outvote a third, so the check would be idle
    with pytest.raises(ValueError, match="seeds must be distinct"):
        CofactorOracle(5, seeds=(1, 1, 2))


def test_seeds_change_nothing_on_generic_instances():
    a = CofactorOracle(6, seeds=(5, 6, 7))
    b = CofactorOracle(6, seeds=(1009, 2003, 3001))
    rng = random.Random(19)
    for _ in range(40):
        F = EdgeSet(6, rng.getrandbits(15))
        assert a.rank(F) == b.rank(F)


def test_fundamental_circuit_rejects_an_element_of_the_base():
    oracle = CofactorOracle(6)
    B = oracle.basis_of(complete_edges(6, range(5)))
    e = next(B.edges())
    with pytest.raises(ValueError, match="already in the base"):
        oracle.fundamental_circuit(B, e)


@pytest.mark.parametrize("B, e, message", [
    (path_graph(5).reindexed(8), (5, 6), "not in the closure of the base"),
    (complete_edges(8, range(5)), (5, 6), "B is not independent"),
    (complete_edges(8, range(5)), (0, 5), "B is not independent"),
])
def test_fundamental_circuit_rejects_a_bad_base(B, e, message):
    # B + e independent puts e outside cl(B); a K5 is dependent, and adding
    # 56 or 05 to it leaves e a coloop, outside the one circuit of B + e
    with pytest.raises(ValueError, match=message):
        CofactorOracle(8).fundamental_circuit(B, e)


def _random_graph(rng, n, m):
    edges = list(combinations(range(n), 2))
    return EdgeSet.from_edges(n, rng.sample(edges, min(m, len(edges))))


def _henneberg(rng, n):
    """A rigid independent base: K4, then 0-extensions onto 3 earlier vertices."""
    F = complete_edges(n, range(4))
    for v in range(4, n):
        for u in rng.sample(range(v), 3):
            F = F.add(u, v)
    return F


def _rigid_dense(n):
    """A Henneberg base plus random edges up to 4n: rigid and dependent."""
    rng = random.Random(24)
    F = _henneberg(rng, n)
    return F | _random_graph(rng, n, 4 * n - len(F))


def _flexible(n):
    """A Henneberg base minus 6 edges plus K6 on the last six vertices:
    dependent, below full rank, and not closed."""
    rng = random.Random(0)
    F = _henneberg(rng, n)
    for e in rng.sample(F.sorted_edges(), 6):
        F = F.remove(*e)
    return F | complete_edges(n, range(n - 6, n))


def _count_reductions(monkeypatch, zeros=None):
    """Count field.reduce_row calls from here on, in a one-item list, and
    those that leave the row zero in the list zeros, if given."""
    calls = [0]
    real = field.reduce_row

    def counting(cur, rows, p):
        calls[0] += 1
        lead = real(cur, rows, p)
        if zeros is not None and lead is None:
            zeros[0] += 1
        return lead

    monkeypatch.setattr(field, "reduce_row", counting)
    return calls


def test_cofactor_row_matches_the_power_formula():
    # the running products give the dict the pow formula gives, key order
    # included, whichever end comes first, with each vertex's block where a
    # random layout puts it; points sharing a coordinate make dx or dy zero,
    # and those entries are left out
    p = field.MERSENNE61
    rng, layouts = random.Random(5), random.Random(6)
    for s in range(7):
        for _ in range(20):
            n = rng.randrange(2, 9)
            points = [(rng.randrange(p), rng.randrange(p)) for _ in range(n)]
            points[-1] = (points[0][0], rng.choice([points[0][1], rng.randrange(p)]))
            i, j = rng.sample(range(n), 2)
            lo, hi = min(i, j), max(i, j)
            dx = (points[lo][0] - points[hi][0]) % p
            dy = (points[lo][1] - points[hi][1]) % p
            w = s + 1
            at = list(range(0, w * n, w))
            layouts.shuffle(at)
            expected = {}
            for t in range(w):
                if b := pow(dx, s - t, p) * pow(dy, t, p) % p:
                    expected[at[lo] + t] = b
                    expected[at[hi] + t] = p - b
            row = cofactor_row((i, j), points, p, s, at)
            assert row == expected and list(row) == list(expected)


@pytest.mark.parametrize("s", [0, 1, 2])
def test_a_peel_proven_basis_takes_one_inverse_per_round(monkeypatch, s):
    # The peel lays the 0-extension rows out round-major, one round per row
    # of a vertex, and each round's rows pivot in their own vertices'
    # blocks, so a round goes in with one inverse: s + 1 in all, where one
    # row at a time would take one per row.
    inverses = reference.counting_inverses(monkeypatch)
    for n in (20, 60):
        F = _rigid_dense(n)
        oracle = CofactorOracle(n, s=s)
        peel = oracle._peel(F.mask)
        assert len(peel.rounds) == s + 1 and sum(peel.rounds) == peel.first
        assert peel.first == peel.cap
        inverses[0] = 0
        assert oracle._seed_basis(F.mask, 0).rank == peel.cap
        assert inverses[0] == s + 1


def test_peel_rounds_hold_each_vertex_row_in_peel_order():
    # round t holds the (t+1)-th 0-extension row of each vertex that has
    # one, in the order the vertices leave, and no vertex's later round
    # comes before its earlier one
    for n in (12, 30):
        F = _rigid_dense(n)
        oracle = CofactorOracle(n)
        peel = oracle._peel(F.mask)
        block = {v: peel.at[v] // 3 for v in range(n)}
        leaver = [min(edge_at(n, b), key=block.get) for b in peel.order[:peel.first]]
        assert peel.rounds == sorted(peel.rounds, reverse=True)
        k = 0
        for t, size in enumerate(peel.rounds):
            batch = leaver[k:k + size]
            assert [block[v] for v in batch] == sorted({block[v] for v in batch})
            assert all(leaver[:k].count(v) == t for v in batch)
            k += size


def test_rigid_rank_reduces_no_row_to_zero(monkeypatch):
    # The peel puts each vertex's 0-extension rows first, and on these rigid
    # dependent graphs they alone reach the cap 3n - 6, so seed 0's basis
    # stops there having reduced no row to zero.  Inserted in edge order
    # instead, 15 and 59 of their rows fall in the span before the cap.
    # rank needs no basis at all: the peel proves the cap.
    for n in (20, 60):
        F = _rigid_dense(n)
        zeros = [0]
        calls = _count_reductions(monkeypatch, zeros)
        assert CofactorOracle(n).rank(F) == 3 * n - 6 < len(F)
        assert calls[0] == 0
        assert CofactorOracle(n)._seed_basis(F.mask, 0).rank == 3 * n - 6
        assert zeros[0] == 0 and calls[0] == 3 * n - 6


@pytest.mark.parametrize("s", [0, 1, 2])
def test_seed_ranks_match_the_matrix_rank(monkeypatch, s):
    # rank reads a mask's rank off its peel where the 0-extension rows reach
    # the cap, with no reduction, and has the seeds build their bases
    # otherwise; each seed's rank is the rank of the mask's rows, and it is
    # the peel's cap wherever the peel proves that.
    calls = _count_reductions(monkeypatch)
    rng = random.Random(60 + s)
    proven = voted = 0
    for n in range(6, 16):
        F = _henneberg(rng, n) if s == 2 else EdgeSet.complete(n)
        for mask in (F.mask, (F | _random_graph(rng, n, 2 * n)).mask,
                     _random_graph(rng, n, (s + 1) * n).mask):
            oracle = CofactorOracle(n, s=s)
            before = calls[0]
            decided = oracle.rank(EdgeSet(n, mask))
            peel = oracle._peel(mask)
            if peel.first == peel.cap:
                assert calls[0] == before and decided == peel.cap
                proven += 1
            else:
                assert calls[0] > before
                voted += 1
            at = reference.layout(oracle)
            for idx in range(len(oracle.seeds)):
                rows = [oracle._row(b, idx, at) for b in bits(mask)]
                rank = matrix_rank(rows, oracle.modulus)
                assert oracle._seed_basis(mask, idx).rank == rank
                assert rank == decided or peel.first < peel.cap
    assert proven and voted


@pytest.mark.parametrize("n, s", [(6, 2), (5, 0), (5, 1), (5, 3)])
def test_the_peel_bounds_every_rank(table6, n, s):
    # Read backwards, a peel's 0-extension rows build their edges by
    # 0-extensions, which keep a set independent: so they are independent in
    # the proven table, and where they number the peel's cap, which is the
    # count cap, the mask's rank is that cap.
    table = table6 if (n, s) == (6, 2) else CofactorOracle(n, s=s).rank_table()
    oracle = CofactorOracle(n, s=s)
    for mask, rank in enumerate(table):
        peel = oracle._peel(mask)
        first = sum(1 << b for b in peel.order[:peel.first])
        assert table[first] == peel.first <= rank <= peel.cap
        assert peel.cap == cofactor.generic_rank_upper_bound(EdgeSet(n, mask), s)


def test_a_peel_proven_rank_evaluates_no_row(monkeypatch):
    # The peel of these rigid dependent graphs proves the cap 3n - 6, so
    # rank, independent and is_rigid build no configuration and fetch no row.
    def refuse(*args):
        raise AssertionError("a row was fetched")

    for n in (20, 60):
        F = _rigid_dense(n)
        oracle = CofactorOracle(n)
        monkeypatch.setattr(oracle, "_row", refuse)
        assert oracle.rank(F) == 3 * n - 6 < len(F)
        assert oracle.is_rigid(F) and not oracle.independent(F)
        assert oracle._configs == [None] * len(oracle.seeds)


def test_a_lost_row_below_the_peel_falls_back_to_the_basis(monkeypatch):
    # K_(5,5) has rank 24, its count cap, but its 0-extension rows number
    # only 21, so rank asks the seeds.  Seed 0 loses the row of the first
    # 0-extension edge: it builds its basis from the same peel, whose other
    # rows still reach the cap on this dependent graph, and no later seed is
    # asked.
    F = complete_bipartite_graph(5, 5)
    n = F.n
    peel = CofactorOracle(n)._peel(F.mask)
    assert peel.first < peel.cap == 3 * n - 6
    oracle = _losing(monkeypatch, CofactorOracle(n), {0: {peel.order[0]}})
    calls = _count_reductions(monkeypatch)
    assert oracle.rank(F) == 3 * n - 6
    basis = oracle._peel(F.mask).bases[0]
    assert basis is not None and calls[0] > 0
    assert oracle._configs[1:] == [None, None]
    rows = [oracle._row(b, 0, reference.layout(oracle)) for b in bits(F.mask)]
    assert basis.rank == matrix_rank(rows, oracle.modulus) == 3 * n - 6


def test_motion_tests_add_to_their_own_seed_rank(monkeypatch):
    # F is K5 - 34 with pendant edges 05 and 06: independent, on all seven
    # vertices, and proven by its peel.  Seed 0 loses the row of 01, a
    # 0-extension row, so 34, in the generic closure of F, lifts seed 0's
    # rank of F.  Added to the proven rank 11 that lift would rank F + 34 at
    # 12; added to seed 0's own rank 10 it does not, and the later seeds
    # keep 34 in the closure.
    F = complete_edges(7, range(5)).remove(3, 4).add(0, 5).add(0, 6)
    peel = CofactorOracle(7)._peel(F.mask)
    assert peel.first == peel.cap == len(F) == 11
    lost = edge_index(7, 0, 1)
    assert lost in peel.order[:peel.first]
    clean = CofactorOracle(7).closure(F)
    assert (3, 4) in clean
    oracle = _losing(monkeypatch, CofactorOracle(7), {0: {lost}})
    assert oracle.rank(F) == 11 and oracle.closure(F) == clean
    oracle = _losing(monkeypatch, CofactorOracle(7), {0: {lost}})
    base, closed = oracle.seed_closure(F, 0)
    assert len(base) == oracle._peel(F.mask).bases[0].rank == 10
    assert (3, 4) not in closed
    cert = rank_certificate(F, _losing(monkeypatch, CofactorOracle(7), {0: {lost}}))
    assert cert.rank == len(cert.independent_set) == 11


def test_an_independent_set_has_no_circuit(monkeypatch):
    # cyc of a set the peel proves independent is empty, remembered as
    # cyclic, and needs no coloop pass
    F = _henneberg(random.Random(31), 20)
    oracle = CofactorOracle(20)
    monkeypatch.setattr(CofactorOracle, "_coloop_pass", lambda *args: 1 / 0)
    assert oracle.cyc(F) == EdgeSet.empty(20)
    assert oracle.is_cyclic(EdgeSet.empty(20)) and 0 in oracle._cyclic


def test_edge_order_basis_stays_sparse(monkeypatch):
    # basis_of inserts K13's rows in edge order, by lower endpoint, laid out
    # by K13's peel, which takes the vertices from 12 down, so each row
    # pivots in the block of its higher endpoint and each star fills in
    # little: seed 0's basis stores 260 entries, against 344 with vertex v's
    # block at columns (s+1)v.  Every stored row is scaled by field._scaled.
    stored = [0]
    real = field._scaled

    def scaled(cur, inv, p):
        row = real(cur, inv, p)
        stored[0] += len(row)
        return row

    oracle = CofactorOracle(13)
    K = EdgeSet.complete(13)
    assert oracle.rank(K) == 33
    monkeypatch.setattr(field, "_scaled", scaled)
    assert len(oracle.basis_of(K)) == 33
    assert 0 < stored[0] <= 280


def _clique_and_bipartite(s, m):
    """K_(s+4) beside K_(s+4, m), on disjoint vertices: the clique's rows
    after its 0-extension rows fall in the span, and the bipartite graph's
    come after them and partly do not."""
    k = s + 4
    edges = [*combinations(range(k), 2),
             *((k + i, 2 * k + j) for i in range(k) for j in range(m))]
    return EdgeSet.from_edges(2 * k + m, edges)


@pytest.mark.parametrize("s", [0, 1, 2])
def test_sketched_seed_ranks_match_the_matrix_rank(monkeypatch, s):
    # Below its cap, each seed's basis build tests the rows after the first
    # one to fall in the span against a random motion, and its rank must
    # still be the rank of the mask's rows.  With one value repeated at every
    # free column the motion is a translation, which every row annihilates:
    # the clique-and-bipartite masks then rank too low for s = 1 and 2 (on
    # the closures the 0-extension rows alone reach the rank).
    drawn = []
    real = EchelonBasis.motion

    def motion(basis, values):
        drawn.append(basis)
        return real(basis, values)

    monkeypatch.setattr(EchelonBasis, "motion", motion)
    masks = [(30, CofactorOracle(30, s=s).closure(reference.gnp(30, 0.2, seed)).mask)
             for seed in range(3)]
    masks += [(2 * s + 8 + m, _clique_and_bipartite(s, m).mask) for m in (6, 10)]
    for n, mask in masks:
        oracle = CofactorOracle(n, s=s)
        at = reference.layout(oracle)
        for idx in range(len(oracle.seeds)):
            drawn.clear()
            rows = [oracle._row(b, idx, at) for b in bits(mask)]
            rank = oracle._seed_basis(mask, idx).rank
            assert rank == matrix_rank(rows, oracle.modulus)
            # below the cap some row after the 0-extension rows is dependent
            assert drawn or rank == cofactor.generic_rank_upper_bound(
                EdgeSet(n, mask), s)


@pytest.mark.parametrize("s", [0, 1, 2])
def test_seed_coloops_match_the_matrix_rank(monkeypatch, s):
    # cyc takes each seed's rank and coloops from its peeled, sketched basis
    # build and one random self-stress of the rows left out; both must be
    # those of the mask's rows, a coloop being a row whose deletion lowers
    # the rank.  Below the cap the build has tested rows against a motion.
    drawn = []
    real = EchelonBasis.motion

    def motion(basis, values):
        drawn.append(basis)
        return real(basis, values)

    monkeypatch.setattr(EchelonBasis, "motion", motion)
    masks = [(16, reference.gnp(16, 0.3, seed).mask) for seed in range(3)]
    masks.append((2 * s + 14, _clique_and_bipartite(s, 6).mask))
    for n, mask in masks:
        oracle = CofactorOracle(n, s=s)
        at = reference.layout(oracle)
        for idx in range(len(oracle.seeds)):
            drawn.clear()
            rows = {b: oracle._row(b, idx, at) for b in bits(mask)}
            rank = matrix_rank(rows.values(), oracle.modulus)
            coloops = sum(1 << b for b in rows if matrix_rank(
                [row for c, row in rows.items() if c != b], oracle.modulus) < rank)
            assert oracle._coloop_pass(mask, idx) == (rank, coloops)
            assert drawn or rank == cofactor.generic_rank_upper_bound(
                EdgeSet(n, mask), s)


def test_one_pass_queries_match_the_rank_derived_ones():
    rng = random.Random(23)
    for n in range(6, 15):
        F = _random_graph(rng, n, rng.randint(2 * n, 4 * n))
        fast, slow = CofactorOracle(n), CofactorOracle(n)

        def rank(mask):
            return slow.rank(EdgeSet(n, mask))

        assert fast.cyc(F).mask == reference.cyc(rank, F.mask)
        B = fast.basis_of(F)
        assert B.mask == reference.extend_basis(rank, 0, F.mask)
        start = EdgeSet.from_edges(n, rng.sample(B.sorted_edges(), len(B) // 2))
        assert (fast.extend_basis(start, F).mask
                == reference.extend_basis(rank, start.mask, F.mask))
        outside = (F - B).sorted_edges()
        for e in rng.sample(outside, min(3, len(outside))):
            bit = edge_index(n, *e)
            assert (fast.fundamental_circuit(B, e).mask
                    == reference.fundamental_circuit(rank, B.mask, bit))


@pytest.mark.parametrize("s", [0, 1, 2])
def test_fundamental_circuits_match_the_reference(s):
    rng = random.Random(29)
    for n in range(6, 15):
        F = _random_graph(rng, n, rng.randint(2 * n, 4 * n))
        fast, slow = CofactorOracle(n, s=s), CofactorOracle(n, s=s)

        def rank(mask):
            return slow.rank(EdgeSet(n, mask))

        B = fast.basis_of(F)
        outside = (F - B).sorted_edges()
        for e in rng.sample(outside, min(4, len(outside))):
            assert (fast.fundamental_circuit(B, e).mask
                    == reference.fundamental_circuit(rank, B.mask,
                                                     edge_index(n, *e)))


def test_fundamental_circuit_survives_a_degenerate_seed(monkeypatch):
    # Seed 0 loses the row of one circuit element f of B, so B is dependent
    # there, but B + e still has rank |B| at seed 0: its one circuit there
    # is {f}, inside the generic circuit, and the other seeds give the rest.
    clean = CofactorOracle(8)
    B = clean.basis_of(EdgeSet.complete(8))

    def rank(mask):
        return clean.rank(EdgeSet(8, mask))

    cases = 0
    for e in (EdgeSet.complete(8) - B).sorted_edges():
        bit = edge_index(8, *e)
        circuit = reference.fundamental_circuit(rank, B.mask, bit)
        for f in list(bits(circuit & B.mask))[:4]:
            oracle = _losing(monkeypatch, CofactorOracle(8), {0: {f}})
            assert oracle._seed_basis(B.mask, 0).rank == len(B) - 1
            assert oracle._coloop_pass(B.mask | 1 << bit, 0)[0] == len(B)
            assert oracle.fundamental_circuit(B, e).mask == circuit
            cases += 1
    assert cases == 40


def test_fundamental_circuit_asks_later_seeds_only_within_the_cap(monkeypatch):
    # A fundamental circuit is cyc of B + e, and B + e has nullity one: seed
    # 0's non-coloops, if more than their count cap, are generically
    # dependent, so they are the circuit.  The K5 of K5 - 01 + 01, 10 edges
    # with cap 9, takes seed 0 alone.  The double banana is a circuit of 18
    # edges on 8 vertices, with cap 18: its rank 17 is below the cap, so
    # deciding it asks every seed, and each edge is voted.
    asked = []
    real = CofactorOracle._coloop_pass
    monkeypatch.setattr(CofactorOracle, "_coloop_pass", lambda oracle, mask, idx:
                        asked.append(idx) or real(oracle, mask, idx))
    k5 = complete_edges(8, range(5))
    assert CofactorOracle(8).fundamental_circuit(k5.remove(0, 1), (0, 1)) == k5
    assert asked == [0]
    asked.clear()
    banana = double_banana()
    assert CofactorOracle(8).fundamental_circuit(banana.remove(2, 3), (2, 3)) == banana
    assert asked == [0, 1, 2]


def test_one_pass_queries_check_the_seeds(monkeypatch):
    # Seeds 0 and 1 lose the row of 48 (_rigged_oracle), here in K9.
    F = double_banana().reindexed(9).add(2, 8).add(3, 8).add(4, 8)
    with pytest.raises(SeedDisagreement):
        _rigged_oracle(monkeypatch).cyc(F)
    with pytest.raises(SeedDisagreement):
        _rigged_oracle(monkeypatch).basis_of(F)
    # B is independent, since seed 2 meets its cap, but B + 67 is not
    # capped, and two of three seeds rank it below the third
    B = CofactorOracle(9).basis_of(F)
    assert (6, 7) not in B
    with pytest.raises(SeedDisagreement):
        _rigged_oracle(monkeypatch).fundamental_circuit(B, (6, 7))


@pytest.mark.parametrize("s, seed", [(2, 1), (1, 2)])
def test_greedy_base_reduces_a_row_only_to_take_it_or_draw_a_motion(monkeypatch, s, seed):
    # basis_of's walk reduces a row while it holds no motion, and otherwise
    # only a row that fails to annihilate the motion, which goes in: each
    # reduction takes a row into the base or finds it in the span and draws
    # the motion the rows after it are tested against.  On G(40, 0.2) at
    # s = 2 that is 112 rows taken and 8 motions, where reducing every row
    # until the rank is reached took 145 reductions.
    F = reference.gnp(40, 0.2, seed)
    oracle = CofactorOracle(40, s=s)
    oracle.rank(F)
    calls, drawn, real = _count_reductions(monkeypatch), [], EchelonBasis.motion
    monkeypatch.setattr(EchelonBasis, "motion", lambda basis, values:
                        drawn.append(basis) or real(basis, values))
    B = oracle.basis_of(F)
    assert len(B) < len(F) and drawn
    assert calls[0] == len(B) + len(drawn)


def test_one_pass_queries_bound_their_row_reductions(monkeypatch):
    # one pass per seed, not one rank from scratch per edge
    n = 20
    F = _rigid_dense(n)
    calls = _count_reductions(monkeypatch)
    oracle = CofactorOracle(n)
    oracle.cyc(F)
    assert calls[0] <= len(oracle.seeds) * len(F)
    calls[0] = 0
    oracle = CofactorOracle(n)
    B = oracle.basis_of(F)
    assert calls[0] <= 2 * len(F)
    # cyc of B + e: one pass of B + e, whose nullity-one rule reads the
    # circuit off seed 0 and whose rank decides independent(B) as well
    calls[0] = 0
    oracle = CofactorOracle(n)
    oracle.fundamental_circuit(B, next((F - B).edges()))
    assert calls[0] <= len(oracle.seeds) * (len(B) + 2)


def _losing(monkeypatch, oracle, lost):
    """Make seed idx of the oracle lose the rows of the edge bits lost[idx]."""
    real = oracle._row
    monkeypatch.setattr(oracle, "_row", lambda b, idx, at: {} if b in lost.get(idx, ())
                        else real(b, idx, at))
    return oracle


def test_extend_basis_raises_when_no_seed_reaches_the_rank(monkeypatch):
    # K_(5,5) has rank 24, which its peel does not prove: seed 0 loses 05,
    # which it does not need for the rank, and seed 1 loses 16 and 27, so
    # seed 0's base of F leaves out 05 and seed 1's stops at rank 23.
    F = complete_bipartite_graph(5, 5)
    oracle = _losing(monkeypatch, CofactorOracle(10, seeds=(1, 2)),
                     {0: {edge_index(10, 0, 5)},
                      1: {edge_index(10, 1, 6), edge_index(10, 2, 7)}})
    peel = oracle._peel(F.mask)
    assert peel.first < peel.cap
    assert oracle.rank(F) == 24
    with pytest.raises(SeedDisagreement) as info:
        oracle.extend_basis(EdgeSet.from_edges(10, [(0, 5)]), F)
    assert info.value.detail["ranks"] == [24, 23]


def test_basis_falls_through_to_a_seed_that_reaches_the_rank(monkeypatch):
    # seed 0 loses the row of 01, so its base of the path stops at rank 2
    F = EdgeSet.from_edges(6, [(0, 1), (1, 2), (2, 3)])
    oracle = _losing(monkeypatch, CofactorOracle(6), {0: {edge_index(6, 0, 1)}})
    fresh = CofactorOracle(6)
    assert oracle.basis_of(F).mask == reference.extend_basis(
        lambda x: fresh.rank(EdgeSet(6, x)), 0, F.mask) == F.mask
    # the path is independent, so no seed built a base of it; on K5, of
    # rank 9, seed 0 also loses 02 and stops at 8, and seed 1 builds the base
    K5 = complete_edges(6, range(5))
    oracle = _losing(monkeypatch, CofactorOracle(6),
                     {0: {edge_index(6, 0, 1), edge_index(6, 0, 2)}})
    assert oracle.rank(K5) == 9
    assert oracle.basis_of(K5).mask == reference.extend_basis(
        lambda x: fresh.rank(EdgeSet(6, x)), 0, K5.mask) == K5.remove(3, 4).mask


def test_an_independent_set_is_its_own_base(monkeypatch):
    # a Henneberg base is independent: rank proves it from the 0-extension
    # blocks, and extend_basis then returns F with no elimination
    F = _henneberg(random.Random(30), 30)
    calls = _count_reductions(monkeypatch)
    assert CofactorOracle(30).basis_of(F) == F
    assert calls[0] == 0
    slow = CofactorOracle(30)
    assert F.mask == reference.extend_basis(
        lambda x: slow.rank(EdgeSet(30, x)), 0, F.mask)


def _rigged_oracle6(monkeypatch):
    """K6 oracle whose seeds 1 and 2 (not 0) lose the row of edge bit 0."""
    oracle = CofactorOracle(6)
    real = oracle._row

    def row(b, idx, at):
        got = real(b, idx, at)
        return {} if b == 0 and idx > 0 else got

    monkeypatch.setattr(oracle, "_row", row)
    return oracle


def test_closure_and_rank_table_follow_the_rank_rule(monkeypatch):
    # Seed 0 meets the cap on {e}, so rank answers 1 without the majority
    # check; closure must decide the same way.  Every circuit of seed 0
    # exceeds its cap, which proves its table, so rank_table asks no later
    # seed and gives the clean table.  A single mask's rank has no such
    # proof: it splits where the per-mask reference splits.
    oracle = _rigged_oracle6(monkeypatch)
    assert oracle.rank(EdgeSet(6, 1)) == 1
    assert oracle.closure(EdgeSet.empty(6)) == EdgeSet.empty(6)
    assert _rigged_oracle6(monkeypatch).rank_table() == CofactorOracle(6).rank_table()
    with pytest.raises(SeedDisagreement) as info:
        reference.per_mask_rank_table(_rigged_oracle6(monkeypatch))
    mask = info.value.detail["mask"]
    with pytest.raises(SeedDisagreement):
        _rigged_oracle6(monkeypatch).rank(EdgeSet(6, mask))


def test_closure_and_rank_table_bound_their_eliminations(monkeypatch):
    # F is rigid and spans every vertex: seed 0's 0-extension rows meet the
    # cap on F, and every F + e has that cap, so closure reduces nothing.
    n = 20
    F = _rigid_dense(n)
    calls = _count_reductions(monkeypatch)
    assert CofactorOracle(n).closure(F) == EdgeSet.complete(n)
    assert calls[0] == 0


def test_flexible_closure_reduces_no_non_edge(monkeypatch):
    # Below full rank every seed is asked about every F + e; one motion of
    # each seed's basis of F answers those, so only the bases cost
    # reductions, and the F + e decisions, never asked again, are not
    # memoized.  The basis builds draw motions of their own, for their
    # sketch; closure's decisions draw one more per seed.
    n = 24
    F = _flexible(n)
    calls = _count_reductions(monkeypatch)
    drawn, building = [], [False]
    real, real_build = EchelonBasis.motion, CofactorOracle._seed_basis

    def motion(basis, values):
        if not building[0]:
            drawn.append(basis)
        return real(basis, values)

    def seed_basis(oracle, mask, idx):
        building[0] = True
        try:
            return real_build(oracle, mask, idx)
        finally:
            building[0] = False

    monkeypatch.setattr(EchelonBasis, "motion", motion)
    monkeypatch.setattr(CofactorOracle, "_seed_basis", seed_basis)
    oracle = CofactorOracle(n)
    closed = oracle.closure(F)
    assert oracle.rank(F) < 3 * n - 6 and closed != F
    assert calls[0] <= len(oracle.seeds) * len(F)
    assert 0 < len(drawn) == len(set(map(id, drawn))) <= len(oracle.seeds)
    assert set(oracle._memo) == {0, F.mask, closed.mask}


def test_second_closure_and_cyc_of_a_set_ask_nothing(monkeypatch):
    # closure and cyc remember their answer for the set asked, not only for
    # the set returned: asking about a non-closed F again builds no row,
    # peels nothing and asks no seed
    n = 24
    F = _flexible(n)
    oracle = CofactorOracle(n)
    closed, cyclic = oracle.closure(F), oracle.cyc(F)
    assert closed != F and cyclic != F

    def refuse(*args):
        raise AssertionError("a row was built or a seed asked")

    monkeypatch.setattr(oracle, "_row", refuse)
    for name in ("_peel", "_seed_basis", "_coloop_pass", "_vote", "_decide"):
        monkeypatch.setattr(CofactorOracle, name, refuse)
    assert oracle.closure(F) == closed and oracle.cyc(F) == cyclic
    assert oracle.is_flat(closed) and oracle.is_cyclic(cyclic)


def test_cyc_memoizes_no_deletion():
    # the F - e decisions, never asked again, are voted, not memoized
    F = reference.gnp(40, 0.15, 0)
    assert len(F) == 128
    oracle = CofactorOracle(40)
    oracle.cyc(F)
    assert len(oracle._memo) <= 2


def test_returned_flats_and_cyclic_sets_are_not_voted_again(monkeypatch):
    n = 24
    F = _flexible(n)
    oracle = CofactorOracle(n)
    closed = oracle.closure(F)
    cyclic = oracle.cyc(closed)
    votes = []
    real = CofactorOracle._vote

    def vote(self, *args):
        votes.append(args)
        return real(self, *args)

    monkeypatch.setattr(CofactorOracle, "_vote", vote)
    assert oracle.is_flat(closed) and oracle.is_cyclic(cyclic)
    assert votes == []
    fresh = CofactorOracle(n)
    assert fresh.is_flat(closed) and fresh.is_cyclic(cyclic)
    assert votes


def test_rank_closure_and_flat_check_eliminate_once(monkeypatch):
    n = 24
    F = _flexible(n)
    calls = _count_reductions(monkeypatch)
    CofactorOracle(n).closure(F)
    alone, calls[0] = calls[0], 0
    oracle = CofactorOracle(n)
    oracle.rank(F)
    closed = oracle.closure(F)
    assert closed != F and oracle.is_flat(closed)
    assert 0 < calls[0] <= alone


def test_closure_memoizes_the_rank_of_its_flat(monkeypatch):
    # Seed 2 loses the row of the coloop 08, so it ranks F one below the
    # decided rank.  The closure has F's rank, memoized: ranking it, or
    # cyc's rank decision on it, asks no seed.
    F = double_banana().reindexed(9).add(0, 8)
    oracle = CofactorOracle(9)
    real, bit = oracle._row, edge_index(9, 0, 8)
    monkeypatch.setattr(oracle, "_row",
                        lambda b, idx, at: {} if b == bit and idx == 2 else real(b, idx, at))
    closed = oracle.closure(F)
    assert closed == F.add(0, 1)

    def refuse(*args):
        raise AssertionError("a seed was asked")

    with monkeypatch.context() as m:
        for name in ("_seed_basis", "_coloop_pass"):
            m.setattr(CofactorOracle, name, refuse)
        assert oracle.rank(closed) == oracle.rank(F) == 18
    decided, real_decide = [], CofactorOracle._decide
    monkeypatch.setattr(CofactorOracle, "_decide", lambda self, mask, seed_rank:
                        decided.append(mask) or real_decide(self, mask, refuse))
    oracle.cyc(closed)
    assert decided == [closed.mask]


def _counting_peels(monkeypatch):
    """Record the mask of every peel record built from here on."""
    peeled, real = [], cofactor._Peel
    monkeypatch.setattr(cofactor, "_Peel", lambda mask, *rest:
                        peeled.append(mask) or real(mask, *rest))
    return peeled


def _held_in(value):
    """value and every object held in it, through lists, tuples, sets and
    dict values."""
    if isinstance(value, dict):
        inner = value.values()
    elif isinstance(value, (list, tuple, set)):
        inner = value
    else:
        inner = ()
    return [value, *(x for item in inner for x in _held_in(item))]


def test_the_oracle_keeps_one_peel(monkeypatch):
    # every flexible rank or closure query builds the seed bases of its
    # mask; only the last mask peeled keeps them, in its record, and no
    # evaluated row outlives the query that built it
    n = 24
    F = _flexible(n)
    peeled = _counting_peels(monkeypatch)
    built, real = [], cofactor.cofactor_row
    monkeypatch.setattr(cofactor, "cofactor_row",
                        lambda *args: built.append(real(*args)) or built[-1])
    oracle = CofactorOracle(n)
    for k, e in enumerate(F.sorted_edges()[:6]):
        G = F.remove(*e)
        assert oracle.rank(G) < 3 * n - 6
        if k % 2:
            oracle.closure(G)
        assert oracle._last_peel.mask == peeled[-1] == G.mask
        assert None not in oracle._last_peel.bases
        others = _held_in([value for name, value in vars(oracle).items()
                           if name != "_last_peel"])
        assert not [x for x in others if isinstance(x, EchelonBasis)]
        rows = {id(row) for row in built}
        assert built and not [x for x in others if id(x) in rows]


def test_each_query_peels_its_mask_once(monkeypatch):
    peeled = _counting_peels(monkeypatch)
    rigid, flexible = _rigid_dense(20), _flexible(24)
    for F, query in [(rigid, "closure"), (flexible, "closure"), (flexible, "cyc")]:
        peeled.clear()
        getattr(CofactorOracle(F.n), query)(F)
        assert peeled == [F.mask]
    # seed 0 loses the row of the coloop 45, so the certificate asks seed 1
    F = complete_edges(6, range(5)).add(4, 5)
    oracle = _losing(monkeypatch, CofactorOracle(6), {0: {edge_index(6, 4, 5)}})
    peeled.clear()
    assert rank_certificate(F, oracle).rank == 10
    assert oracle._configs[1] is not None and peeled == [F.mask]
    # the banana's fundamental circuit asks every seed
    banana = double_banana()
    peeled.clear()
    assert CofactorOracle(8).fundamental_circuit(banana.remove(2, 3), (2, 3)) == banana
    assert peeled == [banana.mask]


# every table sweeps the dual: of rank 6, 3 and 1 on K6 with s = 1, 2 and 3,
# and of rank 6 and 10 on K5 and K6 with s = 0
REFERENCE_TABLES = [(6, 2), (6, 1), (5, 0), (6, 0), (6, 3)]
# every table with at most 15 edges and s <= 6
TRACTABLE_TABLES = [(n, s) for n in range(1, 7) for s in range(7)]


@pytest.mark.parametrize("n, s", REFERENCE_TABLES)
def test_rank_table_matches_the_per_mask_reference(table6, n, s):
    got = table6 if (n, s) == (6, 2) else CofactorOracle(n, s=s).rank_table()
    assert got == bytes(reference.per_mask_rank_table(CofactorOracle(n, s=s)))


@pytest.mark.parametrize("n, s", TRACTABLE_TABLES)
def test_proven_rank_tables_evaluate_seed_0_alone(monkeypatch, n, s):
    # every circuit of seed 0 exceeds its cap, which proves its table; K1
    # has no edge and so no row to ask for
    oracle = CofactorOracle(n, s=s)
    asked = set()
    real = oracle._row
    monkeypatch.setattr(oracle, "_row", lambda b, idx, at: asked.add(idx) or real(b, idx, at))
    oracle.rank_table()
    assert asked == ({0} if n > 1 else set())


@pytest.mark.parametrize("s", [1, 2])
def test_rank_table_writes_no_memo_entries(s):
    # the finished table answers every mask, so a memo entry is never read
    oracle = CofactorOracle(6, s=s)
    oracle.rank_table()
    assert len(oracle._memo) == 1


def test_rank_table_splits_where_the_per_mask_reference_does(monkeypatch):
    # Seed 0 loses the row of 45 and seeds 1 and 2 the row of 01: each lost
    # row is a loop, and so a circuit within its cap, so no seed's table is
    # proven and each seed's lowest such circuit is reported.  Voted mask by
    # mask, the seeds split too.
    lost = {0: {edge_index(6, 4, 5)}, 1: {edge_index(6, 0, 1)},
            2: {edge_index(6, 0, 1)}}

    def split(build):
        with pytest.raises(SeedDisagreement) as info:
            build(_losing(monkeypatch, CofactorOracle(6), lost))
        return info.value.detail

    assert split(CofactorOracle.rank_table)["circuits"] == [
        1 << edge_index(6, 4, 5), 1, 1]
    split(reference.per_mask_rank_table)


def test_a_degenerate_seed_0_asks_only_seed_1(monkeypatch):
    # seed 0's loop {45} is within its cap; seed 1's circuits prove its table
    oracle = _losing(monkeypatch, CofactorOracle(6), {0: {edge_index(6, 4, 5)}})
    asked = set()
    real = oracle._row
    monkeypatch.setattr(oracle, "_row", lambda b, idx, at: asked.add(idx) or real(b, idx, at))
    assert oracle.rank_table() == CofactorOracle(6).rank_table()
    assert asked == {0, 1}


@pytest.mark.parametrize("later_lose, kind", [((), "table"),
                                               (((0, 5), (1, 2)), "split at")])
def test_rank_table_survives_a_degenerate_seed_0(monkeypatch, later_lose, kind):
    # Seed 0 loses the rows of 01, 02, 03 and 04, so it ranks K6 10, below
    # the cap 12, and its bases are 10-sets.  Clean seeds 1 and 2 give the
    # clean table.  Where they lose the rows of 05 and 12, every seed is
    # degenerate and the table raises; the per-mask reference splits too,
    # where seeds 1 and 2 fall below seed 0 together on {01, 05, 12}.
    lost = [{edge_index(6, 0, v) for v in range(1, 5)},
            *[{edge_index(6, *e) for e in later_lose}] * 2]

    def outcome(build):
        oracle = CofactorOracle(6)
        real = oracle._row
        monkeypatch.setattr(oracle, "_row",
                            lambda b, idx, at: {} if b in lost[idx] else real(b, idx, at))
        assert matrix_rank([oracle._row(b, 0, reference.layout(oracle))
                            for b in range(15)]) == 10
        try:
            return "table", build(oracle)
        except SeedDisagreement as exc:
            return "split at", exc.detail

    got = outcome(CofactorOracle.rank_table)
    assert got[0] == outcome(reference.per_mask_rank_table)[0] == kind
    if kind == "table":
        assert got[1] == CofactorOracle(6).rank_table()


def test_rank_table_reduces_only_in_its_passes_and_sweeps_no_inverse(monkeypatch):
    # Whatever the degree, each seed asked reduces its 15 rows of K6 once,
    # with tags, for its r pivots and the dual vectors, taking one inverse
    # per pivot.  It then sweeps the minors of the dual, in its m - r = 10,
    # 6, 3 and 1 coordinates for s = 0 to 3, with no reduction and no
    # inverse.  Clean, seed 0's table is proven and no later seed is asked.
    # Where seed 0 loses the row of 45, seed 1 does the same and its table
    # is proven.  No seed builds an echelon basis of its own.
    calls, inverses = _count_reductions(monkeypatch), [0]

    def counting_pow(*args):
        inverses[0] += args[1:2] == (-1,)
        return pow(*args)

    monkeypatch.setattr(field, "pow", counting_pow, raising=False)
    handed = []

    def recording(name):
        real = getattr(cofactor, name)

        def record(rows, *args):
            before = calls[0], inverses[0]
            got = real(rows, *args)
            handed.append((name, args, calls[0] - before[0], inverses[0] - before[1]))
            return got

        monkeypatch.setattr(cofactor, name, record)

    recording("dual_rows")
    recording("bases_by_minors")
    for s, rank in [(0, 5), (1, 9), (2, 12), (3, 14)]:
        for lost, asked in [({}, 1), ({0: {edge_index(6, 4, 5)}}, 2)]:
            handed.clear()
            calls[0] = inverses[0] = 0
            _losing(monkeypatch, CofactorOracle(6, s=s), lost).rank_table()
            assert calls[0] == 15 * asked and inverses[0] == rank * asked
            assert [name for name, *_ in handed] == [
                "dual_rows", "bases_by_minors"] * asked
            for name, args, reduced, inverted in handed:
                if name == "dual_rows":
                    assert (reduced, inverted) == (15, rank)
                else:
                    assert (args[0], reduced, inverted) == (15 - rank, 0, 0)


def test_explicit_matroid_is_the_proven_matroid_with_its_levels(monkeypatch):
    # rank_table's from_bases matroid is kept: every call returns it, with
    # the levels from_bases built, so no caller recomputes them
    recomputed = []
    real = matroids.ExplicitMatroid.levels

    def levels(self):
        recomputed.append(self)
        return real.func(self)

    counting = cached_property(levels)
    counting.__set_name__(matroids.ExplicitMatroid, "levels")
    monkeypatch.setattr(matroids.ExplicitMatroid, "levels", counting)
    oracle = CofactorOracle(6)
    M = oracle.explicit_matroid()
    assert oracle.explicit_matroid() is M and M.full_table() is oracle.rank_table()
    assert M.levels is oracle.explicit_matroid().levels and M.circuit_bits
    assert recomputed == []
    assert matroids.ExplicitMatroid(M.full_table()).levels == M.levels
    assert len(recomputed) == 1


def test_motion_closure_matches_the_reduction_closure():
    rng = random.Random(25)
    for _ in range(30):
        n = rng.randint(6, 20)
        F = _random_graph(rng, n, rng.randint(n, 4 * n))
        got = CofactorOracle(n).closure(F).mask
        assert got == reference.reduction_closure(CofactorOracle(n), F.mask)


def test_motion_closure_matches_the_reduction_closure_on_rigged_seeds(monkeypatch):
    # Losing the row of 48 at seeds 0 and 1 leaves the generic closure of
    # the first two graphs, where seed 2's lift proves rank(F + 48) =
    # rank(F) + 1, and of K10 - 48, whose seed 0 meets the cap on K10.  In
    # K8, F = K5 - 01 + 05 + 15 has rank 11, which its peel proves; where
    # seeds 0 and 1 lose the row of 05, they rank F + 01 at 10, below seed
    # 2's 11 and the bound 12, and both closures split there.
    F = _banana10()
    K8 = complete_edges(8, range(5)).remove(0, 1).add(0, 5).add(1, 5)
    cases = [(F, (4, 8)), (F.remove(6, 9), (4, 8)),
             (complete_graph(10).remove(4, 8), (4, 8)), (K8, (0, 5))]

    def outcome(closure, G, lost):
        try:
            return "closure", closure(_rigged_oracle(monkeypatch, G.n, lost), G.mask)
        except SeedDisagreement as exc:
            return "split at", exc.detail["mask"]

    def motion(oracle, mask):
        return oracle.closure(EdgeSet(oracle.n, mask)).mask

    got = [outcome(motion, G, lost) for G, lost in cases]
    assert got == [*[("closure", CofactorOracle(10).closure(G).mask) for G, _ in cases[:3]],
                   ("split at", K8.add(0, 1).mask)]
    assert got == [outcome(reference.reduction_closure, G, lost) for G, lost in cases]


def _low_degree_graph(rng, n, s):
    """A random graph on a random dense part of K_n, plus each other vertex
    joined to at most s + 2 random vertices: isolated, pendant and other
    low-degree vertices, on both sides of degree s + 1."""
    dense = rng.sample(range(n), rng.randint(2, n))
    F = EdgeSet(n, sum(1 << edge_index(n, u, v) for u, v in combinations(sorted(dense), 2)
                       if rng.random() < 0.7))
    for v in set(range(n)) - set(dense):
        for u in rng.sample([u for u in range(n) if u != v], rng.randint(0, min(s + 2, n - 1))):
            F = F.add(u, v)
    return F


@pytest.mark.parametrize("s", [0, 1, 2, 3])
def test_low_degree_vertices_keep_closure_and_cyc(s):
    # closure leaves out every non-edge at a vertex of degree at most s, and
    # cyc every edge outside the (s+2)-core, with no seed asked: the answers
    # stay those of the per-edge reference.
    rng = random.Random(70 + s)
    for n in range(5, 11):
        for _ in range(10):
            F = _low_degree_graph(rng, n, s)
            assert (CofactorOracle(n, s=s).closure(F).mask
                    == reference.reduction_closure(CofactorOracle(n, s=s), F.mask))
            slow = CofactorOracle(n, s=s)
            assert CofactorOracle(n, s=s).cyc(F).mask == reference.cyc(
                lambda mask: slow.rank(EdgeSet(n, mask)), F.mask)


@pytest.mark.parametrize("s", [0, 1, 2, 3])
def test_peel_shells_give_the_cores(s):
    # Deleting the vertices of degree below k until none is left leaves the
    # k-core: it must be the vertices whose shell in the peel is at least k.
    rng = random.Random(90 + s)
    for n in range(5, 11):
        oracle = CofactorOracle(n, s=s)
        for _ in range(10):
            for F in (_random_graph(rng, n, rng.randint(0, edge_count(n))),
                      _low_degree_graph(rng, n, s)):
                shells = oracle._peel(F.mask).shells
                for k in range(max(shells) + 2):
                    left = set(range(n))
                    while low := [v for v in left if len(F.neighbors(v) & left) < k]:
                        left -= set(low)
                    assert left == {v for v in range(n) if shells[v] >= k}


def _closure_calls(monkeypatch, F):
    """The closure of F in a fresh oracle, and its _vote and _lifts calls,
    each with the mask it was asked about."""
    calls = []
    for name in ("_vote", "_lifts"):
        real = getattr(CofactorOracle, name)
        monkeypatch.setattr(CofactorOracle, name, lambda self, G, *args, name=name, real=real:
                            calls.append((name, getattr(G, "mask", G)))
                            or real(self, G, *args))
    return CofactorOracle(F.n).closure(F), calls


def _seeds_asked(monkeypatch):
    """Per _vote call of any oracle, the mask voted on and the seeds it
    asked, in order; the list fills as the votes run."""
    votes = []
    real = CofactorOracle._vote

    def vote(self, mask, seed_rank, cap):
        asked = []
        votes.append((mask, asked))
        return real(self, mask, lambda idx: asked.append(idx) or seed_rank(idx), cap)

    monkeypatch.setattr(CofactorOracle, "_vote", vote)
    return votes


def test_closure_settles_non_edges_at_low_degree_vertices_with_no_seed(monkeypatch):
    # Every non-edge of K5 in K8 has an end of degree 0, so it is a coloop of
    # K5 + e, and the peel proves K5's rank: closure votes on nothing and
    # draws no motion.
    K5 = complete_edges(8, range(5))
    assert _closure_calls(monkeypatch, K5) == (K5, [])


def test_closure_settles_non_edges_outside_the_core_with_no_seed(monkeypatch):
    # K5 + 05 + 56 + 57 in K8: vertex 5 has degree 3 but lies outside the
    # 3-core, which is the K5, so every non-edge has an end outside it and
    # is a coloop of F + e.  Closure votes on F alone and draws no motion.
    F = complete_edges(8, range(5)).add(0, 5).add(5, 6).add(5, 7)
    assert _closure_calls(monkeypatch, F) == (F, [("_vote", F.mask)])


def test_closure_ends_a_vote_at_a_seed_that_lifts_the_rank(monkeypatch):
    # _banana10 has rank 22, below the cap of 24 on its support, so each of
    # its 15 non-edges in the 3-core is voted.  The 14 that lift rank(F)
    # stop at seed 0: its motion test ranks F + e at 23 = rank(F) + 1, the
    # bound, which proves it.  Only 48, which joins, asks all three seeds.
    F = _banana10()
    votes = _seeds_asked(monkeypatch)
    closed = CofactorOracle(10).closure(F)
    per_edge = [(mask & ~F.mask, asked) for mask, asked in votes if mask != F.mask]
    assert len(per_edge) == 15
    assert [e for e, asked in per_edge if asked == [0, 1, 2]] == [closed.mask & ~F.mask]
    assert [asked for e, asked in per_edge if e & closed.mask == 0] == [[0]] * 14


def test_cyc_votes_only_on_the_core(monkeypatch):
    # K6 plus vertex 6 on 0, 1, 2 in K7: the edges at 6 lie outside the
    # 4-core, so they are coloops with no vote, and dropping any K6 edge
    # meets the cap at seed 0, so only seed 0 runs a coloop pass.
    asked = []
    real = CofactorOracle._coloop_pass
    monkeypatch.setattr(CofactorOracle, "_coloop_pass", lambda oracle, mask, idx:
                        asked.append(idx) or real(oracle, mask, idx))
    K6 = complete_edges(7, range(6))
    assert CofactorOracle(7).cyc(K6.add(0, 6).add(1, 6).add(2, 6)) == K6
    assert asked == [0]


def test_cyc_votes_stop_at_the_decided_rank(monkeypatch):
    # Two disjoint K5s in K10: rank 18 of 20 edges, so dropping an edge
    # keeps rank 18, below |F| - 1 = 19.  Deleting never raises the rank,
    # so seed 0 ranking F - e at 18 proves e in a circuit: each per-edge
    # vote asks seed 0 alone.
    F = complete_edges(10, range(5)) | complete_edges(10, range(5, 10))
    slow = CofactorOracle(10)
    expected = reference.cyc(lambda mask: slow.rank(EdgeSet(10, mask)), F.mask)
    votes = _seeds_asked(monkeypatch)
    assert CofactorOracle(10).cyc(F).mask == expected == F.mask
    per_edge = [asked for mask, asked in votes if (F.mask & ~mask).bit_count() == 1]
    assert len(per_edge) == 20
    assert all(asked == [0] for asked in per_edge)


def test_cyc_reads_a_nullity_one_circuit_off_seed_0(monkeypatch):
    # A Henneberg base B on 10 vertices (the bench oracle corpus at seed 22)
    # and the non-edge 26: B + e has nullity one, and its circuit, 13 edges
    # on 6 vertices with cap 12, leaves coloops in the 4-core.  Seed 0's
    # non-coloops exceed their cap, so they are the circuit, and no edge is
    # voted: only seed 0 runs a coloop pass.
    B = EdgeSet.from_edges(10, [
        (0, 3), (0, 5), (0, 6), (0, 9), (1, 3), (1, 4), (1, 5), (1, 6),
        (1, 7), (1, 8), (2, 4), (2, 7), (2, 8), (2, 9), (3, 5), (3, 9),
        (4, 6), (4, 7), (4, 8), (5, 6), (5, 7), (6, 8), (7, 8), (8, 9)])
    F = B.add(2, 6)
    oracle = CofactorOracle(10)
    core = F.mask & ~oracle._off_core(F.mask, 4)
    asked = []
    real = CofactorOracle._coloop_pass
    monkeypatch.setattr(CofactorOracle, "_coloop_pass", lambda oracle, mask, idx:
                        asked.append(idx) or real(oracle, mask, idx))
    slow = CofactorOracle(10)
    circuit = oracle.cyc(F)
    assert circuit.mask == reference.cyc(lambda mask: slow.rank(EdgeSet(10, mask)), F.mask)
    assert len(circuit) == 13 and core & ~circuit.mask
    assert asked == [0]
    assert CofactorOracle(10).fundamental_circuit(B, (2, 6)) == circuit
