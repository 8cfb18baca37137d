"""Property tests: the sparse echelon kernel against a dense Gaussian
elimination written here, on small matrices with zero and repeated rows and
on rows with tag columns, batch absorption and absorption up to a tag width
against absorbing the same rows one at a time, the minor sweep on both
sides of a matroid against the full subset table, and the motion
back-substitution against the span that ``reduce_row`` tests."""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from cofrig.field import (  # noqa: E402
    MERSENNE61,
    EchelonBasis,
    bases_by_minors,
    dual_rows,
    reduce_row,
)

from rank_reference import (  # noqa: E402
    counting_inverses, in_span, insert, sparse, subset_rank_table)

# Fixed examples and no example database: the same cases on every run.
CASES = settings(max_examples=60, deadline=None, derandomize=True, database=None)


def dense_rank(rows, p):
    """Rank by textbook row reduction of a dense copy."""
    rows = [[x % p for x in r] for r in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        at = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if at is None:
            continue
        rows[rank], rows[at] = rows[at], rows[rank]
        inv = pow(rows[rank][col], -1, p)
        rows[rank] = [x * inv % p for x in rows[rank]]
        for i in range(len(rows)):
            c = rows[i][col]
            if i != rank and c:
                rows[i] = [(a - c * b) % p for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


@st.composite
def matrices(draw, max_rows):
    """(p, rows): up to max_rows rows drawn from a few distinct ones and the
    zero row, so repeats and zero rows are common; a small p makes chance
    dependences common too."""
    p = draw(st.sampled_from([2, 13, MERSENNE61]))
    width = draw(st.integers(1, 7))
    entry = st.integers(-p, 2 * p)
    pool = draw(st.lists(st.lists(entry, min_size=width, max_size=width),
                         min_size=1, max_size=6))
    pool.append([0] * width)
    rows = draw(st.lists(st.sampled_from(pool), max_size=max_rows))
    return p, rows


def check_rows(basis):
    """Each stored row is 1 at its pivot, has no key left of it and no zero
    entry."""
    for piv, row in basis.rows.items():
        assert row[piv] == 1
        assert min(row) == piv
        assert all(0 < x < basis.p for x in row.values())


@CASES
@given(matrices(max_rows=12), st.booleans())
def test_echelon_ranks_match_dense_elimination(case, as_mapping):
    p, rows = case
    basis = EchelonBasis(p)
    for i, row in enumerate(rows, 1):
        grew = insert(basis, dict(enumerate(row)) if as_mapping else row)
        assert grew == (dense_rank(rows[:i], p) > dense_rank(rows[:i - 1], p))
        assert basis.rank == dense_rank(rows[:i], p)
        check_rows(basis)
    for row in rows:
        assert in_span(basis, row)


@settings(CASES, max_examples=25)
@given(matrices(max_rows=10))
def test_subset_rank_table_matches_dense_elimination(case):
    p, rows = case
    table = subset_rank_table(rows, p)
    assert len(table) == 1 << len(rows)
    for mask, got in enumerate(table):
        chosen = [r for i, r in enumerate(rows) if mask >> i & 1]
        assert got == dense_rank(chosen, p)


def on_pivots(rows, pivots):
    """Each row restricted to the pivot columns, as coordinates 0..r-1."""
    return [{k: row[c] for k, c in enumerate(pivots) if row[c]} for row in rows]


@settings(CASES, max_examples=40)
@given(matrices(max_rows=9))
@example((13, []))
@example((13, [[0, 0, 0]] * 3))
@example((MERSENNE61, [[0, 0, 0], [1, 0, 0]]))
@example((13, [[1, 2, 0], [0, 1, 5], [3, 0, 1]]))
@example((2, [[1, 1], [1, 1], [1, 0], [0, 0]]))
def test_minor_sweep_lists_the_bases_of_the_rows_and_of_their_dual(case):
    # rank 0, full rank, and zero and repeated rows among the fixed examples.
    # The rows on dual_rows' pivots keep their rank table; the sweep lists
    # the r-subsets of rank r there, and the (m - r)-subsets of rank m - r
    # of the dual vectors, the complements of the rows' bases.
    p, rows = case
    m, full = len(rows), (1 << len(rows)) - 1
    width = len(rows[0]) if rows else 0
    vectors, pivots = dual_rows([sparse(row, p) for row in rows], width, p)
    r, table = len(pivots), subset_rank_table(rows, p)
    primal = on_pivots(rows, pivots)
    assert subset_rank_table(primal, p) == table
    dual = subset_rank_table(vectors, p)
    for side, k, ranks in [(primal, r, table), (vectors, m - r, dual)]:
        got = bases_by_minors(side, k, p)
        assert len(got) == len(set(got))
        assert sorted(got) == [x for x, rank in enumerate(ranks)
                               if x.bit_count() == k == rank]
    assert sorted(full & ~x for x in bases_by_minors(vectors, m - r, p)) == sorted(
        bases_by_minors(primal, r, p))


@settings(CASES, max_examples=40)
@given(matrices(max_rows=8))
@example((13, []))
@example((13, [[0, 0, 0]] * 3))
@example((MERSENNE61, [[0, 0, 0], [1, 0, 0]]))
@example((13, [[1, 2, 0], [0, 1, 5], [3, 0, 1]]))
@example((2, [[1, 1], [1, 1], [1, 0], [0, 0]]))
def test_dual_rows_rank_every_set_through_its_complement(case):
    # rank 0, full rank, and zero and repeated rows among the fixed examples
    p, rows = case
    m, full = len(rows), (1 << len(rows)) - 1
    width = len(rows[0]) if rows else 0
    vectors, pivots = dual_rows([sparse(row, p) for row in rows], width, p)
    r = len(pivots)
    assert r == dense_rank(rows, p) and len(vectors) == m
    assert pivots == sorted(set(pivots)) and all(0 <= c < width for c in pivots)
    dual = subset_rank_table(vectors, p)
    assert dual[full] == m - r
    for x in range(1 << m):
        chosen = [row for i, row in enumerate(rows) if x >> i & 1]
        assert x.bit_count() + dual[full & ~x] - (m - r) == dense_rank(chosen, p)


@st.composite
def sparse_rows(draw, max_rows):
    """(p, width, rows, probes): sparse {column: entry} rows with at most
    three nonzeros over a small prime or MERSENNE61, and probe rows to test
    for membership, half of them sums of two drawn rows."""
    p = draw(st.sampled_from([13, MERSENNE61]))
    width = draw(st.integers(1, 8))
    row = st.dictionaries(st.integers(0, width - 1), st.integers(1, p - 1),
                          max_size=3)
    rows = draw(st.lists(row, max_size=max_rows))
    probes = draw(st.lists(row, min_size=1, max_size=4))
    for a, b in zip(rows, reversed(rows)):
        probes.append({j: (a.get(j, 0) + b.get(j, 0)) % p for j in {*a, *b}})
    return p, width, rows, probes


def dense(row, width):
    return [row.get(j, 0) for j in range(width)]


@CASES
@given(sparse_rows(max_rows=10))
def test_reduce_row_matches_dense_elimination_on_tagged_rows(case):
    # Row t carries the unit tag column width + t.  reduce_row stops at the
    # first nonzero key that is no pivot: a real column exactly when dense
    # elimination says the row grows the rank, and otherwise a tag, with the
    # real part cleared and the tag part a combination of row t and the
    # inserted rows that vanishes on the real columns.
    p, width, rows, probes = case
    basis, kept = EchelonBasis(p), []
    for t, row in enumerate(rows):
        cur = {**row, width + t: 1}
        lead = reduce_row(cur, basis.rows, p)
        assert min(cur) == lead and 0 < cur[lead] < p
        grew = dense_rank([dense(r, width) for r in [*kept, row]], p) > len(kept)
        assert (lead < width) == grew
        if grew:
            assert basis.absorb([{**row, width + t: 1}], width) == [0]
            kept.append(row)
            continue
        coef = {j - width: x % p for j, x in cur.items() if x % p}
        assert coef[t] == 1 and all(rows[i] in kept for i in coef if i != t)
        for col in range(width):
            assert sum(c * rows[i].get(col, 0) for i, c in coef.items()) % p == 0
    for probe in probes:
        # an untagged row in the span is left with the tags of its combination
        in_span = dense_rank([dense(r, width) for r in [*kept, probe]], p) == len(kept)
        lead = reduce_row(dict(probe), basis.rows, p)
        assert (lead is None or lead >= width) == in_span




@st.composite
def rounds(draw):
    """(p, width, before, rows, tagged, values): rows to absorb into a basis
    that already holds the rows before, as sparse rows over few columns, so
    that leads collide often, with zero rows and sums of two drawn rows
    among them, whether row k carries the unit tag width + k, and free
    values for a motion, one per column."""
    p = draw(st.sampled_from([13, MERSENNE61]))
    width = draw(st.integers(1, 5))
    row = st.dictionaries(st.integers(0, width - 1), st.integers(1, p - 1),
                          max_size=3)
    before = draw(st.lists(row, max_size=3))
    rows = draw(st.lists(row, max_size=8))
    for a, b in draw(st.lists(st.tuples(st.sampled_from(rows), st.sampled_from(rows)),
                              max_size=3) if rows else st.just([])):
        rows.append({j: x for j in {*a, *b} if (x := (a.get(j, 0) + b.get(j, 0)) % p)})
    rows.append({})
    rows = draw(st.permutations(rows))
    tagged = draw(st.booleans())
    columns = width + len(rows) if tagged else width
    values = draw(st.lists(st.integers(0, p - 1), min_size=columns, max_size=columns))
    return p, width, before, rows, tagged, values


def one_at_a_time(basis, rows, width):
    """absorb's reference: reduce a copy of each row in turn against the
    basis and insert it, scaled to 1 at its pivot, where it pivots left of
    width."""
    grown, p = [], basis.p
    for k, row in enumerate(rows):
        cur = dict(row)
        lead = reduce_row(cur, basis.rows, p)
        if lead is not None and (width is None or lead < width):
            inv = pow(cur[lead], -1, p)
            basis.rows[lead] = {j: y for j, x in cur.items() if (y := x * inv % p)}
            grown.append(k)
    return grown


@CASES
@given(rounds())
@example((13, 2, [], [{0: 1, 1: 2}, {0: 3}, {1: 1}, {}], False, [3, 5]))
@example((13, 2, [{0: 1}], [{0: 2, 1: 1}, {1: 5}, {0: 1}], True, [1, 2, 3, 4, 5]))
def test_absorb_matches_absorbing_one_row_at_a_time(case):
    # A lead that repeats one taken in its pass, a zero row and a relation
    # at a tag column change nothing: the pivots, the stored rows, the
    # indices that grew and the motions are those of one row at a time,
    # whether the rows go in as one batch or as one-row batches with the
    # same width.
    p, width, before, rows, tagged, values = case
    limit = width if tagged else None
    if tagged:
        rows = [{**row, width + k: 1} for k, row in enumerate(rows)]
    batched, single, absorbed = EchelonBasis(p), EchelonBasis(p), EchelonBasis(p)
    for row in before:
        for basis in (batched, single, absorbed):
            basis.absorb([dict(row)])
    grown = one_at_a_time(single, rows, limit)
    assert batched.absorb([dict(row) for row in rows], limit) == grown
    assert [k for k, row in enumerate(rows) if absorbed.absorb([dict(row)], limit)] == grown
    for basis in (batched, absorbed):
        assert basis.rows == single.rows
        check_rows(basis)
        assert basis.motion(values) == single.motion(values)


def test_absorb_takes_one_inverse_per_pass(monkeypatch):
    # Distinct leads go in on one pass with one inverse.  A lead that
    # repeats one taken in its pass sends its row and the rows after it to
    # a second pass, with a second inverse; a batch that grows nothing
    # takes none.
    p, inverses = 13, counting_inverses(monkeypatch)
    basis = EchelonBasis(p)
    assert basis.absorb([{0: 2, 3: 1}, {1: 5}, {2: 7, 3: 4}]) == [0, 1, 2]
    assert inverses[0] == 1
    basis, inverses[0] = EchelonBasis(p), 0
    assert basis.absorb([{0: 2}, {1: 3}, {0: 4, 2: 1}, {3: 1}]) == [0, 1, 2, 3]
    assert inverses[0] == 2 and sorted(basis.rows) == [0, 1, 2, 3]
    inverses[0] = 0
    assert basis.absorb([{0: 1}, {}, {1: 2, 3: 5}]) == []
    assert inverses[0] == 0


def annihilates(m, row, p):
    return sum(c * m[j] for j, c in row.items()) % p == 0


def free_columns(basis, width):
    return sorted(set(range(width)) - set(basis.rows))


def unit_motions(basis, width):
    """The kernel basis rebuilt from motions: one per free column f, from
    the values 1 at f and 0 at every other column."""
    return [basis.motion([int(g == f) for g in range(width)])
            for f in free_columns(basis, width)]


def check_kernel(basis, width, rows, probes):
    p = basis.p
    motions = unit_motions(basis, width)
    free = free_columns(basis, width)
    assert len(motions) == width - basis.rank
    for f, m in zip(free, motions):
        assert len(m) == width and all(0 <= x < p for x in m)
        assert [m[g] for g in free] == [int(g == f) for g in free]
    for row in rows:
        assert all(annihilates(m, row, p) for m in motions)
    for row in probes:
        assert all(annihilates(m, row, p) for m in motions) == in_span(basis, row)


@CASES
@given(sparse_rows(max_rows=10))
def test_kernel_is_the_annihilator_of_the_span(case):
    p, width, rows, probes = case
    basis = EchelonBasis(p)
    for row in rows:
        insert(basis, row)
    check_kernel(basis, width, rows, probes)


@pytest.mark.parametrize("p", [13, MERSENNE61])
def test_kernel_of_an_empty_and_of_a_full_rank_basis(p):
    width = 5
    probes = [{j: 1} for j in range(width)] + [{0: 3, 4: p - 1}]
    empty = EchelonBasis(p)
    assert unit_motions(empty, width) == [[int(i == j) for i in range(width)]
                                          for j in range(width)]
    check_kernel(empty, width, [], probes)
    full = EchelonBasis(p)
    rows = [{j: j + 1, (j + 1) % width: 2} for j in range(width)]
    for row in rows:
        insert(full, row)
    assert full.rank == width and unit_motions(full, width) == []
    assert full.motion(range(1, width + 1)) == [0] * width
    check_kernel(full, width, rows, probes)


@CASES
@given(sparse_rows(max_rows=10), st.data())
def test_motion_annihilates_the_rows_and_keeps_the_free_values(case, data):
    p, width, rows, _ = case
    basis = EchelonBasis(p)
    for row in rows:
        insert(basis, row)
    values = data.draw(st.lists(st.integers(0, p - 1), min_size=width,
                                max_size=width))
    m = basis.motion(values)
    assert len(m) == width and all(0 <= x < p for x in m)
    assert all(m[f] == values[f] for f in free_columns(basis, width))
    assert all(annihilates(m, row, p) for row in rows)
