import random
from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from flagflux._linalg import echelon, nullspace, rank

from conftest import coefficients, nullspace_oracle, rref_oracle

entries = st.one_of(
    st.just(0),
    st.integers(min_value=-3, max_value=3),
    st.fractions(min_value=-2, max_value=2, max_denominator=4),
)


@st.composite
def blocks(draw):
    """A small dense block; some rows are combinations of earlier ones."""
    ncols = draw(st.integers(min_value=1, max_value=4))
    rows = []
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        if rows and draw(st.booleans()):
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            s, t = draw(entries), draw(entries)
            rows.append([s * x + t * y for x, y in zip(a, b)])
        else:
            rows.append(draw(st.lists(entries, min_size=ncols, max_size=ncols)))
    return rows, ncols


@st.composite
def block_matrices(draw):
    """Block-diagonal exact matrices with shuffled rows and columns: many components."""
    parts = draw(st.lists(blocks(), min_size=1, max_size=5))
    ncols = sum(c for _rows, c in parts)
    rows = []
    offset = 0
    for part_rows, c in parts:
        for part_row in part_rows:
            row = [0] * ncols
            row[offset:offset + c] = part_row
            rows.append(row)
        offset += c
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32)))
    order = list(range(ncols))
    rng.shuffle(order)
    rows = [[row[c] for c in order] for row in rows]
    rng.shuffle(rows)
    return rows, ncols


class TestSparseElimination:
    @given(block_matrices())
    @settings(max_examples=150, deadline=None)
    def test_rank_and_nullspace_match_oracle(self, matrix):
        rows, ncols = matrix
        sparse = [dict(enumerate(row)) for row in rows]  # zero entries included
        _mat, pivots = rref_oracle(rows, ncols)
        assert rank(sparse) == len(pivots)
        basis = nullspace(sparse, range(ncols))
        for vec in basis:
            assert list(vec) == sorted(vec) and all(vec.values())
            for row in rows:
                assert sum(row[c] * v for c, v in vec.items()) == 0
        dense = [[vec.get(c, 0) for c in range(ncols)] for vec in basis]
        assert dense == nullspace_oracle(rows, ncols)

    @given(block_matrices())
    @settings(max_examples=50, deadline=None)
    def test_echelon_rows_lead_at_their_pivot(self, matrix):
        rows, _ncols = matrix
        for col, row in echelon(dict(enumerate(r)) for r in rows).items():
            assert min(row) == col and row[col] == 1
            assert all(row.values())

    def test_tuple_columns(self):
        rows = [{(1, 2): 1, (1, 3): Fraction(1, 2)}, {(1, 3): 1}, {(1, 2): 2, (1, 3): 1}]
        assert rank(rows) == 2

    def test_empty(self):
        assert rank([]) == 0
        assert rank([{}, {3: 0}]) == 0
        assert nullspace([], range(2)) == [{0: 1}, {1: 1}]
        assert nullspace([{(1, 2): 1, (1, 3): 2}], [(1, 2), (1, 3)]) == [{(1, 2): -2, (1, 3): 1}]


integral_fractions = st.integers(min_value=-5, max_value=5).filter(bool).map(Fraction)


@settings(max_examples=100)
@given(
    st.lists(
        st.dictionaries(
            st.integers(0, 5), st.one_of(coefficients, integral_fractions), max_size=4
        ),
        max_size=6,
    )
)
@example([{0: Fraction(1), 1: Fraction(2)}])
def test_echelon_rows_hold_no_integral_fraction(rows):
    # rows that may hold integral Fractions, as dense bracket vectors do,
    # give pivot rows of ints and non-integral Fractions only
    for row in echelon(rows).values():
        for c in row.values():
            assert type(c) is int or (type(c) is Fraction and c.denominator != 1), row
