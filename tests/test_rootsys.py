import re
from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from flagflux import (
    FlagSpec,
    Root,
    RootSystem,
    UnsupportedSeriesError,
    build_root_system,
    complementary_positive_roots,
    flag_dimension,
    isotropy_summands,
    pretty_name,
    three_summand_dims,
)

from flagflux.rootsys import theta_of_blocks

from conftest import mask_dim_oracle, nilradical_oracle, positive_root_vectors_oracle


def sympy_positive_root_vectors(rank):
    """Positive roots of A_rank as orthonormal-basis vectors, via sympy."""
    from sympy.liealgebras.root_system import RootSystem as SympyRS

    rs = SympyRS("A" + str(rank))
    out = set()
    for root in rs.all_roots().values():
        vec = tuple(int(v) for v in root)
        if next(v for v in vec if v) > 0:
            out.add(vec)
    return out


def unit_vector(root, rank):
    """e_row - e_col in the orthonormal basis of R^(rank+1)."""
    return tuple(
        1 if k == root.row else -1 if k == root.col else 0 for k in range(1, rank + 2)
    )


class TestBuildRootSystem:
    @pytest.mark.parametrize("rank", [True, 2.0, "2"])
    def test_rejects_non_int_rank(self, rank):
        with pytest.raises(TypeError):
            build_root_system("A", rank)

    def test_a2_order(self):
        rs = build_root_system("A", 2)
        assert [r.coeffs for r in rs.positive_roots] == [(1, 0), (0, 1), (1, 1)]

    def test_a3_order(self):
        rs = build_root_system("A", 3)
        assert [r.coeffs for r in rs.positive_roots] == [
            (1, 0, 0),
            (0, 1, 0),
            (0, 0, 1),
            (1, 1, 0),
            (0, 1, 1),
            (1, 1, 1),
        ]

    @pytest.mark.parametrize("rank", range(1, 13))
    def test_counts(self, rank):
        rs = build_root_system("A", rank)
        assert len(rs.positive_roots) == rank * (rank + 1) // 2

    @pytest.mark.parametrize("rank", [1, 2, 3, 4])
    def test_matches_sympy(self, rank):
        rs = build_root_system("A", rank)
        ours = {unit_vector(r, rank) for r in rs.positive_roots}
        assert ours == sympy_positive_root_vectors(rank)

    @pytest.mark.parametrize("rank", range(1, 13))
    def test_matches_coefficient_vector_order(self, rank):
        # by height, then lexicographically largest coefficient vector first
        rs = build_root_system("A", rank)
        assert [r.coeffs for r in rs.positive_roots] == positive_root_vectors_oracle(rank)

    def test_heights_weakly_increase(self):
        rs = build_root_system("A", 6)
        heights = [r.height for r in rs.positive_roots]
        assert heights == sorted(heights)

    def test_unsupported_series(self):
        with pytest.raises(UnsupportedSeriesError):
            build_root_system("B", 2)

    def test_bad_rank(self):
        with pytest.raises(ValueError):
            build_root_system("A", 0)

    def test_root_system_checks_its_series_and_rank(self):
        assert build_root_system("A", 2) == RootSystem("A", 2)
        with pytest.raises(UnsupportedSeriesError):
            RootSystem("B", 0.5)
        with pytest.raises(TypeError, match="rank must be an integer"):
            RootSystem("A", True)

    def test_summands_build_no_positive_roots(self, monkeypatch):
        # the summands of A_5 theta {1,3,5} hold 12 of the 15 positive roots,
        # and only those 12 are built
        built = []
        real = Root.__post_init__
        monkeypatch.setattr(Root, "__post_init__", lambda r: built.append(r) or real(r))
        summands = isotropy_summands(build_root_system("A", 5), (1, 3, 5))
        assert built == [r for s in summands for r in s.roots]
        assert len(built) == 12


class TestRoot:
    def test_matrix_unit(self):
        assert Root(1, 3, 3).matrix_unit() == (1, 3)
        assert Root(3, 4, 3).matrix_unit() == (3, 4)

    @pytest.mark.parametrize(
        "row,col,coeffs",
        [
            (1, 2, (1, 0, 0)),
            (3, 4, (0, 0, 1)),
            (1, 3, (1, 1, 0)),
            (2, 4, (0, 1, 1)),
            (1, 4, (1, 1, 1)),
        ],
    )
    def test_coeffs_and_height(self, row, col, coeffs):
        root = Root(row, col, 3)
        assert root.coeffs == coeffs
        assert root.height == sum(coeffs) == col - row
        assert root.matrix_unit() == (row, col)

    @pytest.mark.parametrize(
        "row,col,rank",
        [(2, 2, 3), (3, 2, 3), (0, 2, 3), (-1, 2, 3), (1, 5, 3), (4, 5, 3), (1, 2, 0)],
        ids=["row=col", "row>col", "row=0", "row<0", "col>rank+1", "row=rank+1", "rank=0"],
    )
    def test_invalid_unit_rejected(self, row, col, rank):
        with pytest.raises(ValueError, match="not a positive root"):
            Root(row, col, rank)

    @pytest.mark.parametrize(
        "row,col,rank", [(True, 2, 3), (1, 2, 3.5), (1, "2", 3), (1, 2, False), (1.0, 2, 3)]
    )
    def test_non_int_row_col_or_rank_rejected(self, row, col, rank):
        with pytest.raises(TypeError, match="must be integers"):
            Root(row, col, rank)


class TestFlagSpec:
    def test_theta_sorted_and_deduped(self):
        assert FlagSpec("A", 4, (3, 1, 3)).theta == (1, 3)

    def test_theta_out_of_range(self):
        with pytest.raises(ValueError):
            FlagSpec("A", 2, (3,))

    @pytest.mark.parametrize("rank", [0, -2])
    def test_rank_below_one_rejected(self, rank):
        with pytest.raises(ValueError, match="rank must be >= 1"):
            FlagSpec("A", rank)

    def test_json_round_trip(self):
        spec = FlagSpec("A", 5, (1, 3, 5))
        assert FlagSpec.from_json(spec.to_json()) == spec

    @pytest.mark.parametrize(
        "make",
        [
            lambda: FlagSpec("A", 2.5),
            lambda: FlagSpec("A", True),
            lambda: FlagSpec("A", "3"),
            lambda: FlagSpec("A", 3, (1.0,)),
            lambda: FlagSpec("A", 3, (True,)),
            lambda: FlagSpec.from_json({"series": "A", "rank": "3"}),
            lambda: FlagSpec.from_json({"series": "A", "rank": 3.9}),
            lambda: FlagSpec.from_json({"series": "A", "rank": 3, "theta": ["1"]}),
        ],
    )
    def test_rank_and_theta_must_be_integers(self, make):
        with pytest.raises(TypeError):
            make()

    @pytest.mark.parametrize("theta", [5, {2: 0}, "2"])
    def test_theta_must_be_an_iterable_of_integers(self, theta):
        # a bare int once failed in tuple unpacking, and a mapping was read
        # as its keys
        with pytest.raises(TypeError, match="^theta must be integers"):
            FlagSpec("A", 3, theta)

    def test_unsupported_series_wins_over_bad_rank(self):
        with pytest.raises(UnsupportedSeriesError):
            FlagSpec("B", 2.5)


class TestThetaReaders:
    """Every public reader of a theta checks it through FlagSpec, so each
    raises what FlagSpec raises, with its message."""

    READERS = {
        "isotropy_summands": lambda theta: isotropy_summands(build_root_system("A", 3), theta),
        "complementary_positive_roots": lambda theta: complementary_positive_roots(
            build_root_system("A", 3), theta
        ),
        "pretty_name": lambda theta: pretty_name(3, theta),
    }

    @pytest.mark.parametrize(
        "theta,error",
        [((True, 9), TypeError), ((2.0,), TypeError), ((9,), ValueError), ((0,), ValueError)],
    )
    @pytest.mark.parametrize("reader", sorted(READERS))
    def test_rejects_what_flagspec_rejects(self, reader, theta, error):
        with pytest.raises(error) as want:
            FlagSpec("A", 3, theta)
        with pytest.raises(error, match="^%s$" % re.escape(str(want.value))):
            self.READERS[reader](theta)


class TestThetaOfBlocks:
    def test_inverts_block_sizes(self):
        for rank in range(1, 11):
            for mask in range(1 << rank):
                theta = tuple(k + 1 for k in range(rank) if mask >> k & 1)
                blocks = FlagSpec("A", rank, theta).blocks
                assert theta_of_blocks(blocks) == theta
                assert FlagSpec("A", rank, theta_of_blocks(blocks)).blocks == blocks


class TestSummands:
    def test_maximal_flag_all_roots(self):
        rs = build_root_system("A", 3)
        assert len(complementary_positive_roots(rs, ())) == 6

    def test_full_theta_empty(self):
        rs = build_root_system("A", 3)
        assert complementary_positive_roots(rs, (1, 2, 3)) == []

    def test_three_summand_signatures(self):
        rs = build_root_system("A", 5)
        summands = isotropy_summands(rs, (1, 3, 5))
        assert [s.signature for s in summands] == [(1, 0), (0, 1), (1, 1)]
        assert [s.dim for s in summands] == [4, 4, 4]

    def test_projective_space_single_summand(self):
        rs = build_root_system("A", 3)
        summands = isotropy_summands(rs, (1, 2))
        assert len(summands) == 1 and summands[0].dim == 3

    @given(st.integers(1, 6), st.data())
    def test_partition_is_exact(self, rank, data):
        theta = tuple(
            data.draw(st.sets(st.integers(1, rank), max_size=rank))
        )
        rs = build_root_system("A", rank)
        complement = complementary_positive_roots(rs, theta)
        summands = isotropy_summands(rs, theta)
        collected = [r for s in summands for r in s.roots]
        assert sorted(r.coeffs for r in collected) == sorted(
            r.coeffs for r in complement
        )
        assert sum(s.dim for s in summands) == len(complement)

    @given(st.integers(1, 6), st.data())
    def test_signatures_are_distinct_and_nonzero(self, rank, data):
        theta = tuple(data.draw(st.sets(st.integers(1, rank), max_size=rank)))
        rs = build_root_system("A", rank)
        summands = isotropy_summands(rs, theta)
        sigs = [s.signature for s in summands]
        assert len(set(sigs)) == len(sigs)
        assert all(any(sig) for sig in sigs)


class TestThreeSummandDims:
    @pytest.mark.parametrize(
        "l,m,n", [(1, 1, 1), (2, 1, 1), (1, 2, 1), (2, 2, 2), (3, 2, 1)]
    )
    def test_product_formula(self, l, m, n):
        assert three_summand_dims(l, m, n) == (l * m, m * n, l * n)

    def test_exhaustive_small(self):
        # against the summands of the whole root system
        for l, m, n in product(range(1, 11), repeat=3):
            if l + m + n > 12:
                continue
            rank = l + m + n - 1
            theta = tuple(k for k in range(1, rank + 1) if k not in (l, l + m))
            _p, _legend, summands, _complement = nilradical_oracle(FlagSpec("A", rank, theta))
            assert three_summand_dims(l, m, n) == tuple(len(roots) for _sig, roots in summands)

    def test_rejects_zero_block(self):
        with pytest.raises(ValueError):
            three_summand_dims(0, 1, 1)

    @pytest.mark.parametrize("sizes", [(2.0, 1, 1), (1, True, 1), (1, 1, None)])
    def test_rejects_non_int_block(self, sizes):
        with pytest.raises(TypeError):
            three_summand_dims(*sizes)


class TestFlagDimension:
    def test_projective_spaces(self):
        for rank in range(1, 8):
            theta = tuple(range(1, rank))
            assert flag_dimension(FlagSpec("A", rank, theta)) == rank

    def test_matches_complement_count_exhaustively(self):
        for rank in range(1, 8):
            rs = build_root_system("A", rank)
            for mask in range(1 << rank):
                theta = tuple(k + 1 for k in range(rank) if mask >> k & 1)
                spec = FlagSpec("A", rank, theta)
                assert flag_dimension(spec) == len(
                    complementary_positive_roots(rs, theta)
                ) == mask_dim_oracle(rank, mask)
