from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flagflux import (
    FlagSpec,
    Form,
    MalcevPresentation,
    build_root_system,
    complementary_positive_roots,
    isotropy_summands,
    jacobi_check,
    legend_to_json,
    nilradical_presentation,
    parse_form,
    parse_malcev,
    print_malcev,
)
from flagflux import tduality
from flagflux.nilradical import parabolic_fields
from flagflux.rootsys import block_sizes
from flagflux.tduality import BasisChange

from conftest import (
    assert_well_formed,
    jacobi_oracle,
    nilradical_oracle,
    parabolic_fields_oracle,
    weyl_bracket_oracle,
)


def unit_matrix(size, i, j):
    return tuple(
        tuple(1 if (r, c) == (i, j) else 0 for c in range(1, size + 1))
        for r in range(1, size + 1)
    )


def mat_commutator(a, b):
    n = len(a)
    def mul(x, y):
        return tuple(
            tuple(sum(x[r][t] * y[t][c] for t in range(n)) for c in range(n))
            for r in range(n)
        )
    ab, ba = mul(a, b), mul(b, a)
    return tuple(tuple(ab[r][c] - ba[r][c] for c in range(n)) for r in range(n))


def constants_by_matrices(spec):
    """Structure constants recomputed from literal matrix products."""
    _, legend = nilradical_presentation(spec)
    size = spec.rank + 1
    units = [r.matrix_unit() for r in legend]
    mats = [unit_matrix(size, i, j) for i, j in units]
    slot = {u: k for k, u in enumerate(units, start=1)}
    consts = {}
    for a in range(len(units)):
        for b in range(a + 1, len(units)):
            comm = mat_commutator(mats[a], mats[b])
            for r in range(size):
                for c in range(size):
                    if comm[r][c]:
                        k = slot[(r + 1, c + 1)]
                        consts[(a + 1, b + 1, k)] = comm[r][c]
    return consts


class TestGoldens:
    def test_heisenberg(self):
        p, legend = nilradical_presentation(FlagSpec("A", 2))
        assert print_malcev(p) == "(0,0,-e^{12})"
        assert [r.coeffs for r in legend] == [(1, 0), (0, 1), (1, 1)]

    def test_a3_maximal(self):
        p, _ = nilradical_presentation(FlagSpec("A", 3))
        assert print_malcev(p) == "(0,0,0,-e^{12},-e^{23},-e^{15}+e^{34})"

    def test_su6_partial(self):
        p, legend = nilradical_presentation(FlagSpec("A", 5, (1, 3, 5)))
        assert print_malcev(p) == (
            "(0,0,0,0,0,0,0,0,-e^{16}-e^{35},-e^{26}-e^{45},"
            "-e^{18}-e^{37},-e^{28}-e^{47})"
        )
        assert [r.matrix_unit() for r in legend[:4]] == [
            (2, 3), (1, 3), (2, 4), (1, 4),
        ]

    def test_projective_space_abelian(self):
        p, _ = nilradical_presentation(FlagSpec("A", 3, (1, 2)))
        assert p.dim == 3 and p.is_abelian()


class TestVariantTuple:
    """The same-shape six-dimensional tuple with -e^{14}+e^{35} on top.

    Same invariant fingerprint as the A_3 maximal nilradical, but no
    basis reorder with signs maps one onto the other, so it is a
    genuinely different presentation that the generator can never emit.
    """

    variant = "(0,0,0,-e^{12},-e^{23},-e^{14}+e^{35})"

    def test_not_generated(self):
        p, _ = nilradical_presentation(FlagSpec("A", 3))
        assert print_malcev(p) != self.variant

    def test_no_signed_diagonal_equivalence(self):
        ours, _ = nilradical_presentation(FlagSpec("A", 3))
        target = parse_malcev(self.variant)
        identity = (1, 2, 3, 4, 5, 6)
        hits = [
            signs
            for signs in product((1, -1), repeat=6)
            if BasisChange(identity, signs).apply(ours) == target
        ]
        assert hits == []

    def test_no_signed_monomial_witness(self):
        from flagflux import iso_small

        ours, _ = nilradical_presentation(FlagSpec("A", 3))
        target = parse_malcev(self.variant)
        result = iso_small(ours, target)
        assert result.witness is None
        assert "exhausted" in result.reason

    def test_variant_still_satisfies_jacobi(self):
        target = parse_malcev(self.variant)
        assert jacobi_check(target).ok
        assert jacobi_oracle(target)


class TestMatrixUnitOracle:
    @pytest.mark.parametrize(
        "spec",
        [
            FlagSpec("A", 2),
            FlagSpec("A", 3),
            FlagSpec("A", 4, (2,)),
            FlagSpec("A", 5, (1, 3, 5)),
        ],
    )
    def test_structure_constants_match_matrices(self, spec):
        p, _ = nilradical_presentation(spec)
        assert p.structure_constants() == constants_by_matrices(spec)


def assert_matches_oracle(spec):
    """Presentation (term order included), legend, summands and complement."""
    p, legend = nilradical_presentation(spec)
    want_p, want_legend, want_summands, want_complement = nilradical_oracle(spec)
    terms = [list(f.terms.items()) for f in p.differentials]
    assert terms == [list(f.terms.items()) for f in want_p.differentials], spec
    assert legend == want_legend, spec
    rs = build_root_system(spec.series, spec.rank)
    summands = [(s.signature, s.roots) for s in isotropy_summands(rs, spec.theta)]
    assert summands == want_summands, spec
    assert complementary_positive_roots(rs, spec.theta) == want_complement, spec


class TestWholeRootSystemOracle:
    def test_every_flag_up_to_rank_nine(self):
        for rank in range(1, 10):
            for mask in range(1 << rank):
                theta = tuple(k + 1 for k in range(rank) if mask >> k & 1)
                assert_matches_oracle(FlagSpec("A", rank, theta))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(10, 16), st.data())
    def test_random_flags_of_higher_rank(self, rank, data):
        theta = data.draw(st.sets(st.integers(1, rank)))
        assert_matches_oracle(FlagSpec("A", rank, tuple(theta)))


class TestAdoptedPresentation:
    """nilradical_presentation stores its forms and presentation without
    the input checks; rebuilt through them, nothing changes."""

    def test_every_flag_up_to_rank_seven(self):
        for rank in range(1, 8):
            for mask in range(1 << rank):
                theta = tuple(k + 1 for k in range(rank) if mask >> k & 1)
                p, _ = nilradical_presentation(FlagSpec("A", rank, theta))
                assert MalcevPresentation(list(p.differentials)) == p
                for f in p.differentials:
                    assert_well_formed(f)


def flags(max_rank):
    """Every (rank, theta) of A_1..A_max_rank with two or more Levi blocks."""
    for rank in range(1, max_rank + 1):
        for mask in range((1 << rank) - 1):
            yield rank, tuple(k + 1 for k in range(rank) if mask >> k & 1)


class TestParabolicFields:
    """The fingerprint fields read off the Levi blocks, which decide the
    target search's candidates before any is built."""

    def test_every_flag_up_to_rank_five_against_the_fingerprint(self):
        # the cheap fields first, then the two bracket series
        names = ["dim", "abelian", "d1_rank", "center_dim", "lcs_dims", "derived_dims"]
        computes = dict(tduality._FIELDS)
        assert set(names) == set(computes) - {"d2_rank"}
        for rank, theta in flags(5):
            blocks = block_sizes(rank, theta)
            p, _legend = nilradical_presentation(FlagSpec("A", rank, theta))
            fields = list(parabolic_fields(blocks))
            assert [name for name, _ in fields] == names[: 2 if len(blocks) == 2 else 6]
            for name, value in fields:
                assert computes[name](p) == value, (rank, theta, name)
            if len(blocks) == 2:
                # the early stop relies on this: one zero presentation per dim
                assert p == MalcevPresentation([Form(2)] * p.dim)

    def test_every_flag_up_to_rank_nine_against_unit_closure(self):
        for rank, theta in flags(9):
            want = parabolic_fields_oracle(FlagSpec("A", rank, theta))
            fields = dict(parabolic_fields(block_sizes(rank, theta)))
            assert fields == {name: want[name] for name in fields}, (rank, theta)
            assert len(fields) == (2 if want["abelian"] else 6), (rank, theta)


class TestWeylBracketOracle:
    def test_antisymmetric(self):
        units = [(i, j) for i in range(1, 5) for j in range(i + 1, 5)]
        for a in units:
            for b in units:
                ab = sorted(weyl_bracket_oracle(a, b))
                ba = sorted((u, -c) for u, c in weyl_bracket_oracle(b, a))
                assert ab == ba

    def test_classic_bracket(self):
        assert weyl_bracket_oracle((1, 2), (2, 3)) == [((1, 3), 1)]
        assert weyl_bracket_oracle((2, 3), (1, 2)) == [((1, 3), -1)]
        assert weyl_bracket_oracle((1, 2), (1, 3)) == []


class TestJacobiSweep:
    def test_all_flags_up_to_rank_five(self):
        for rank in range(1, 6):
            for mask in range(1 << rank):
                theta = tuple(k + 1 for k in range(rank) if mask >> k & 1)
                p, legend = nilradical_presentation(FlagSpec("A", rank, theta))
                assert jacobi_check(p).ok, (rank, theta)
                assert p.dim == len(legend)

    def test_oracle_agrees_on_samples(self):
        for spec in [FlagSpec("A", 3), FlagSpec("A", 4, (1, 3)), FlagSpec("A", 5, (1, 3, 5))]:
            p, _ = nilradical_presentation(spec)
            assert jacobi_oracle(p)

    def test_abelian_iff_at_most_one_cut(self):
        for rank in range(1, 6):
            for mask in range(1 << rank):
                theta = tuple(k + 1 for k in range(rank) if mask >> k & 1)
                p, _ = nilradical_presentation(FlagSpec("A", rank, theta))
                cuts = rank - len(theta)
                assert p.is_abelian() == (cuts <= 1), (rank, theta)


class TestMinimalJacobiFailure:
    def test_dimension_four_never_fails(self):
        keys4 = [(1, 2), (1, 3), (2, 3)]
        for c3 in (-1, 0, 1):
            de3 = Form(2, {(1, 2): c3} if c3 else {})
            for coeffs in product((-1, 0, 1), repeat=3):
                de4 = Form(2, {k: c for k, c in zip(keys4, coeffs) if c})
                p = MalcevPresentation([Form(2), Form(2), de3, de4])
                assert jacobi_check(p).ok

    def test_dimension_five_witness(self):
        p = parse_malcev("(0,0,0,-e^{12},-e^{34})")
        report = jacobi_check(p)
        assert not report.ok
        assert report.failing_index == 5
        assert report.residual == parse_form("-e^{123}")
        assert not jacobi_oracle(p)


class TestLegend:
    def test_json_shape(self):
        _, legend = nilradical_presentation(FlagSpec("A", 2))
        assert legend_to_json(legend) == [
            {"slot": 1, "root": [1, 0], "matrix_unit": [1, 2]},
            {"slot": 2, "root": [0, 1], "matrix_unit": [2, 3]},
            {"slot": 3, "root": [1, 1], "matrix_unit": [1, 3]},
        ]

    def test_legend_covers_complement(self):
        from flagflux import build_root_system, complementary_positive_roots

        spec = FlagSpec("A", 4, (2, 3))
        _, legend = nilradical_presentation(spec)
        rs = build_root_system("A", 4)
        assert sorted(r.coeffs for r in legend) == sorted(
            r.coeffs for r in complementary_positive_roots(rs, spec.theta)
        )
