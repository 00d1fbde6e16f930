from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flagflux import (
    Form,
    MalcevPresentation,
    MalcevSyntaxError,
    MalcevValueError,
    ce_diff,
    interior,
    parse_form,
    parse_malcev,
    print_form,
    print_malcev,
    wedge,
)

from conftest import (
    assert_well_formed,
    coefficients,
    filtered_presentations,
    forms,
    interior_oracle,
    permutation_sign,
    wedge_oracle,
)


class TestForm:
    def test_zero_and_basis(self):
        assert Form.zero(3).is_zero()
        assert Form.basis(1, 2).terms == {(1, 2): 1}

    def test_basis_normalizes_order(self):
        assert Form.basis(2, 1) == -Form.basis(1, 2)
        assert Form.basis(1, 1).is_zero()

    def test_rejects_floats(self):
        with pytest.raises(TypeError):
            Form(1, {(1,): 0.5})

    def test_rejects_bad_keys(self):
        with pytest.raises(ValueError):
            Form(2, {(2, 1): 1})
        with pytest.raises(ValueError):
            Form(2, {(0, 1): 1})

    def test_drops_zero_coefficients(self):
        f = Form(2, {(1, 2): Fraction(0)})
        assert f.is_zero()

    def test_fraction_normalized_to_int(self):
        f = Form(1, {(1,): Fraction(4, 2)})
        assert f.terms[(1,)] == 2
        assert isinstance(f.terms[(1,)], int)

    @given(forms(2), forms(2))
    def test_addition_commutes(self, f, g):
        assert f + g == g + f

    @given(forms(2))
    def test_negation_cancels(self, f):
        assert (f + (-f)).is_zero()

    @given(forms(3), st.integers(-4, 4))
    def test_scalar_distributes(self, f, c):
        assert (f * c) + (f * (-c)) == Form.zero(3)

    @pytest.mark.parametrize(
        "degree, terms",
        [
            (2, {(1.5, 2): 1}),
            (2, {(True, 2): 1}),
            (2, {(1, Fraction(2)): 1}),
            (1, {(1,): True}),
            (1, {(1,): False}),
        ],
    )
    def test_rejects_non_int_indices_and_bool_coefficients(self, degree, terms):
        with pytest.raises(TypeError):
            Form(degree, terms)
        with pytest.raises(TypeError):
            Form.from_terms(degree, terms.items())

    def test_rejects_bool_scalar(self):
        with pytest.raises(TypeError):
            Form.basis(1, 2) * True

    @given(st.lists(st.integers(1, 6), min_size=0, max_size=5), coefficients)
    def test_from_terms_sorts_with_the_permutation_sign(self, idx, c):
        f = Form.from_terms(len(idx), [(idx, c)])
        if len(set(idx)) < len(idx):
            assert f.is_zero()
        else:
            assert f == Form(len(idx), {tuple(sorted(idx)): permutation_sign(idx) * c})


class TestAdoptedResults:
    """Form arithmetic stores the kernel's term maps without the input
    check; each result must still be what the check would store, in a dict
    of its own."""

    @settings(max_examples=150)
    @given(
        filtered_presentations(),
        st.data(),
        st.integers(-4, 4),
        st.fractions(-3, 3, max_denominator=6).filter(lambda c: c.denominator != 1),
    )
    def test_results_are_well_formed_and_unshared(self, p, data, k, r):
        n = p.dim
        degree = data.draw(st.integers(0, min(n, 3)))
        f = data.draw(forms(degree, max_index=n))
        g = data.draw(forms(degree, max_index=n))
        h = data.draw(forms(1, max_index=n, max_terms=3))
        x = data.draw(st.integers(1, n))
        results = [
            (f + g, (f, g)),
            (f - g, (f, g)),
            (-f, (f,)),
            (f * k, (f,)),
            (r * f, (f,)),
            (f * Fraction(4, 2), (f,)),
            (wedge(f, h), (f, h)),
            (interior(x, f), (f,)),
            (ce_diff(p, f), (f,)),
        ]
        for result, operands in results:
            assert_well_formed(result)
            assert all(result.terms is not o.terms for o in operands)


class TestWedge:
    def test_square_of_mixed_two_form(self):
        f = parse_form("-e^{14}+e^{35}")
        assert wedge(f, f) == parse_form("2e^{1345}")
        assert wedge(f, f) == wedge_oracle(f, f)

    def test_basis_anticommute(self):
        e1, e2 = Form.basis(1), Form.basis(2)
        assert wedge(e1, e2) == -wedge(e2, e1)
        assert wedge(e1, e1).is_zero()

    @given(forms(1, max_terms=3), forms(2, max_terms=3))
    def test_matches_oracle(self, f, g):
        assert wedge(f, g) == wedge_oracle(f, g)

    def test_degree_beyond_64(self):
        # Index merging keeps no fixed-size buffer, so there is no degree cap.
        odd = Form.basis(*range(1, 80, 2))
        even = Form.basis(*range(2, 81, 2))
        top = wedge(odd, even)
        assert top == wedge_oracle(odd, even) == Form.basis(*range(1, 81))
        lower = Form.basis(*range(1, 80))
        assert interior(80, top) == interior_oracle(80, top) == -lower
        e80 = Form.basis(80)
        assert wedge(e80, lower) == wedge_oracle(e80, lower) == -top

    @given(forms(1), forms(1), forms(1))
    def test_associative(self, f, g, h):
        assert wedge(wedge(f, g), h) == wedge(f, wedge(g, h))

    @given(forms(1, max_terms=3), forms(2, max_terms=3))
    def test_graded_commutativity(self, f, g):
        sign = (-1) ** (f.degree * g.degree)
        assert wedge(f, g) == sign * wedge(g, f)

    @given(forms(2), forms(2), forms(1))
    def test_left_distributive(self, f, g, h):
        assert wedge(f + g, h) == wedge(f, h) + wedge(g, h)


class TestInterior:
    def test_on_dual_flux_shape(self):
        f = parse_form("-e^{146}+e^{356}")
        assert interior(6, f) == parse_form("-e^{14}+e^{35}")
        assert interior(6, f) == interior_oracle(6, f)

    def test_position_sign(self):
        f = Form.basis(1, 2, 3)
        assert interior(1, f) == Form.basis(2, 3)
        assert interior(2, f) == -Form.basis(1, 3)
        assert interior(3, f) == Form.basis(1, 2)

    def test_absent_index_gives_zero(self):
        assert interior(5, Form.basis(1, 2)).is_zero()

    @given(st.integers(1, 6), forms(3, max_terms=3))
    def test_matches_oracle(self, x, f):
        assert interior(x, f) == interior_oracle(x, f)

    @given(st.integers(1, 6), forms(3, max_terms=3))
    def test_squares_to_zero(self, x, f):
        assert interior(x, interior(x, f)).is_zero()

    @given(st.integers(1, 6), forms(1, max_terms=2), forms(2, max_terms=2))
    def test_antiderivation(self, x, f, g):
        lhs = interior(x, wedge(f, g))
        rhs = wedge(interior(x, f), g) + (-1) ** f.degree * wedge(f, interior(x, g))
        assert lhs == rhs


class TestCeDiff:
    def test_heisenberg(self):
        p = parse_malcev("(0,0,-e^{12})")
        assert ce_diff(p, Form.basis(3)) == parse_form("-e^{12}")
        assert ce_diff(p, Form.basis(1)).is_zero()

    def test_d_squared_zero_on_jacobi_algebra(self):
        p = parse_malcev("(0,0,-e^{12},-e^{13})")
        for k in range(1, 5):
            assert ce_diff(p, ce_diff(p, Form.basis(k))).is_zero()

    def test_d_squared_detects_non_jacobi(self):
        p = parse_malcev("(0,0,0,-e^{12},-e^{34})")
        residual = ce_diff(p, ce_diff(p, Form.basis(5)))
        assert residual == parse_form("-e^{123}")

    def test_constant_is_closed(self):
        p = parse_malcev("(0,0,-e^{12})")
        assert ce_diff(p, Form(0, {(): 3})) == Form.zero(1)

    def test_rejects_out_of_range_form(self):
        p = parse_malcev("(0,0,-e^{12})")
        with pytest.raises(MalcevValueError):
            ce_diff(p, Form.basis(4))

    @given(filtered_presentations(), st.data())
    @settings(max_examples=60)
    def test_leibniz(self, p, data):
        n = p.dim
        f = data.draw(forms(1, max_index=n, max_terms=2))
        g = data.draw(forms(1, max_index=n, max_terms=2))
        lhs = ce_diff(p, wedge(f, g))
        rhs = wedge(ce_diff(p, f), g) + (-1) ** f.degree * wedge(f, ce_diff(p, g))
        assert lhs == rhs

    @given(filtered_presentations())
    def test_extends_differentials(self, p):
        for k in range(1, p.dim + 1):
            assert ce_diff(p, Form.basis(k)) == p.differentials[k - 1]


class TestMalcevPresentation:
    def test_filtration_enforced(self):
        with pytest.raises(MalcevValueError, match="only indices below"):
            parse_malcev("(0,0,-e^{12},-e^{34})")

    def test_forward_reference_rejected(self):
        with pytest.raises(MalcevValueError):
            MalcevPresentation([Form(2, {(2, 3): 1}), Form(2), Form(2)])

    def test_structure_constants_sign(self):
        p = parse_malcev("(0,0,-e^{12})")
        assert p.structure_constants() == {(1, 2, 3): 1}

    def test_abelian(self):
        assert parse_malcev("(0,0,0)").is_abelian()
        assert not parse_malcev("(0,0,-e^{12})").is_abelian()


class TestParser:
    def test_bare_zero_entries(self):
        p = parse_malcev("(0,0,0)")
        assert p.dim == 3 and p.is_abelian()

    def test_unicode_minus(self):
        assert parse_form("−e^{12}", 2) == parse_form("-e^{12}")

    def test_rational_coefficient(self):
        f = parse_form("1/2e^{12}", 2)
        assert f.terms == {(1, 2): Fraction(1, 2)}

    def test_parenthesized_indices(self):
        f = parse_form("e^{1(10)}", 2)
        assert f.terms == {(1, 10): 1}

    def test_dim_pads_leading_zeros(self):
        p = parse_malcev("(-e^{12})", dim=3)
        assert p.dim == 3
        assert p.differentials[2] == parse_form("-e^{12}")

    def test_dim_too_small_rejected(self):
        with pytest.raises(MalcevValueError):
            parse_malcev("(0,0,-e^{12})", dim=2)

    def test_zero_index_rejected(self):
        with pytest.raises(MalcevSyntaxError):
            parse_form("e^{102}", 3)

    def test_syntax_error_carries_position(self):
        with pytest.raises(MalcevSyntaxError) as err:
            parse_form("e^{12")
        assert err.value.pos == 5

    def test_trailing_input_rejected(self):
        with pytest.raises(MalcevSyntaxError):
            parse_form("e^{12} junk")

    def test_mixed_degrees_rejected(self):
        with pytest.raises(MalcevValueError):
            parse_form("e^{12}+e^{123}")

    def test_degree_mismatch_rejected(self):
        with pytest.raises(MalcevValueError):
            parse_form("e^{12}", 3)

    def test_non_two_form_entry_rejected(self):
        with pytest.raises(MalcevValueError):
            parse_malcev("(0,0,e^{1})")

    def test_junk_after_zero_entry_rejected(self):
        with pytest.raises(MalcevSyntaxError):
            parse_form("0garbage", 2)


class TestPrinter:
    def test_unit_coefficients(self):
        assert print_form(parse_form("e^{12}-e^{13}", 2)) == "e^{12}-e^{13}"

    def test_zero(self):
        assert print_form(Form.zero(3)) == "0"

    def test_large_indices_parenthesized(self):
        f = Form.basis(4, 8, 12)
        assert print_form(f) == "e^{48(12)}"

    def test_fraction(self):
        assert print_form(Form(2, {(1, 2): Fraction(-1, 2)})) == "-1/2e^{12}"

    def test_malcev_tuple(self):
        assert print_malcev(parse_malcev("(0,0,-e^{12})")) == "(0,0,-e^{12})"

    @pytest.mark.parametrize(
        "c, text", [(3, "3"), (1, "1"), (-1, "-1"), (Fraction(-1, 2), "-1/2")]
    )
    def test_zero_form_is_its_coefficient(self, c, text):
        assert print_form(Form(0, {(): c})) == text
        assert parse_form(text, 0) == Form(0, {(): c})

    def test_zero_parses_at_degree_zero(self):
        assert parse_form("0", 0) == Form.zero(0)

    @pytest.mark.parametrize("degree", [None, 1, 3])
    def test_lone_rational_needs_degree_zero(self, degree):
        with pytest.raises(MalcevSyntaxError):
            parse_form("3", degree)

    @given(st.integers(0, 3).flatmap(lambda d: forms(d, max_index=14, max_terms=4)))
    def test_form_round_trip(self, f):
        assert parse_form(print_form(f), f.degree) == f

    @given(filtered_presentations())
    def test_malcev_round_trip(self, p):
        assert parse_malcev(print_malcev(p)) == p
