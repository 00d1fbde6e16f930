import collections
import gc
import itertools
import random
import tracemalloc
from dataclasses import replace
from fractions import Fraction
from math import comb

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from flagflux import (
    AdmissibleTriple,
    DualityError,
    FlagSpec,
    Form,
    MalcevPresentation,
    MalcevValueError,
    check_admissible,
    compare_fingerprints,
    duality_certificate,
    dualize,
    find_targets,
    fingerprint,
    interior,
    iso_small,
    jacobi_check,
    nilradical_presentation,
    parse_form,
    parse_malcev,
    print_form,
    print_malcev,
    random_admissible_triple,
    wedge,
)
from flagflux import tduality
from flagflux.nilradical import _nilradical
from flagflux.tduality import BasisChange, IsoResult

from conftest import (
    _arrangements,
    admissibility_oracle,
    assert_well_formed,
    bracket_series_oracle,
    center_dim_oracle,
    filtered_presentations,
    forms,
    interior_oracle,
    iso_oracle,
    jacobi_oracle,
    kostant_oracle,
    mahonian_oracle,
    non_central_triples,
    permutation_sign,
    signed_relabellings,
    unitriangular_copies,
    wedge_oracle,
)

HEISENBERG = "(0,0,-e^{12})"
DIM6 = "(0,0,0,-e^{12},-e^{23},-e^{14}+e^{35})"
# The A3 nilradical with a closed, degenerate flux that ideal slot 4 moves:
# L_{e_4} H != 0, so dualizing it would give d(dz) != 0.
A3 = "(0,0,0,-e^{12},-e^{23},-e^{15}+e^{34})"
NON_INVARIANT = (A3, (4, 6), "e^{126}+e^{145}")
# Non-central ideal {1, 4} (de^4 = -e^{13}) that leaves H invariant.
INVARIANT_NON_CENTRAL = ("(0,0,0,-e^{13},-e^{23})", (1, 4), "e^{123}")


def triple(algebra, ideal, flux="0"):
    p = parse_malcev(algebra)
    return AdmissibleTriple(p, ideal, parse_form(flux, 3))


class TestAdmissibility:
    def test_heisenberg_center(self):
        report = check_admissible(triple(HEISENBERG, (3,)))
        assert report.ok
        assert report.central

    def test_quotient_leak_rejected(self):
        report = check_admissible(triple(HEISENBERG, (1, 2)))
        assert not report.ok
        assert "ideal" in report.failed_flags()
        assert "quotient differential contains ideal legs" in report.details["ideal"]

    def test_non_central_ideal_still_admissible(self):
        report = check_admissible(triple(HEISENBERG, (2, 3)))
        assert report.ok
        assert not report.central

    def test_non_abelian_ideal_rejected(self):
        report = check_admissible(triple(DIM6, (1, 4, 6)))
        assert "abelian" in report.failed_flags()

    def test_unclosed_flux_rejected(self):
        p, _ = nilradical_presentation(FlagSpec("A", 3))
        flux = parse_form("e^{156}-e^{346}")
        report = check_admissible(AdmissibleTriple(p, (6,), flux))
        assert report.failed_flags() == ["closed"]
        assert report.details["closed"] == "dH = 2e^{1345}"

    def test_two_ideal_legs_rejected(self):
        report = check_admissible(triple("(0,0,0)", (2, 3), "e^{123}"))
        assert "degenerate" in report.failed_flags()

    def test_non_invariant_flux_rejected(self):
        report = check_admissible(triple(*NON_INVARIANT))
        assert report.failed_flags() == ["invariant"]
        assert not report.invariant
        assert report.details["invariant"] == "L_{e_4} H = -e^{123}"

    def test_invariant_flux_on_non_central_ideal_admissible(self):
        report = check_admissible(triple(*INVARIANT_NON_CENTRAL))
        assert report.ok
        assert report.invariant and not report.central
        assert report.to_json()["invariant"] is True

    def test_flux_degree_enforced(self):
        p = parse_malcev(HEISENBERG)
        with pytest.raises(ValueError):
            AdmissibleTriple(p, (3,), Form.basis(1, 2))

    def test_ideal_slots_validated(self):
        p = parse_malcev(HEISENBERG)
        with pytest.raises(ValueError):
            AdmissibleTriple(p, (0,), Form.zero(3))
        with pytest.raises(ValueError):
            AdmissibleTriple(p, (4,), Form.zero(3))

    def test_out_of_range_ideal_is_named_as_read(self):
        # the slots as read, before sorting: a generator is spent by then
        p = parse_malcev(HEISENBERG)
        with pytest.raises(ValueError, match=r"^ideal \(9,\) outside 1\.\.3$"):
            AdmissibleTriple(p, (k for k in [9]), Form.zero(3))
        with pytest.raises(ValueError, match=r"^ideal \(9,\) outside 1\.\.3$"):
            AdmissibleTriple(p, [9], Form.zero(3))

    @pytest.mark.parametrize("ideal", [(3.0,), ("3",), (True,), (2, False), (Fraction(3),)])
    def test_ideal_slots_must_be_ints(self, ideal):
        # a float or bool slot would pass the range check and reach the
        # slot map; a str one would fail in the sort with no message
        p = parse_malcev(HEISENBERG)
        with pytest.raises(TypeError, match="slots must be integers"):
            AdmissibleTriple(p, ideal, Form.zero(3))


@st.composite
def triple_inputs(draw):
    """(algebra, ideal, flux): a Lie algebra from filtered_presentations, a
    nonempty set of its slots and a 3-form that need not be closed or
    degenerate."""
    p = draw(filtered_presentations().filter(lambda p: jacobi_check(p).ok))
    ideal = tuple(sorted(draw(st.sets(st.integers(1, p.dim), min_size=1))))
    flux = draw(forms(3, max_index=p.dim, max_terms=3)) if p.dim >= 3 else Form(3)
    return p, ideal, flux


def relabel_by_hand(f, new_of):
    """f with each index i moved to new_of[i], resorted with brute-force signs."""
    moved = {tuple(new_of[i] for i in key): c for key, c in f.terms.items()}
    return Form(f.degree, {tuple(sorted(k)): permutation_sign(k) * c for k, c in moved.items()})


def slots_by_hand(p, ideal):
    """{old slot: dual slot}: the quotient slots in order, then the ideal's."""
    quotient = [k for k in range(1, p.dim + 1) if k not in ideal]
    return {old: new for new, old in enumerate(quotient + list(ideal), start=1)}


def dual_by_hand(p, ideal, flux):
    """The dual algebra: the quotient slots, in order, keep their
    differentials and each ideal slot x follows with differential i_x H."""
    new_of = slots_by_hand(p, ideal)
    diffs = [relabel_by_hand(p.differentials[k - 1], new_of) for k in new_of if k not in ideal]
    diffs += [relabel_by_hand(interior_oracle(x, flux), new_of) for x in ideal]
    return MalcevPresentation(diffs)


def dual_flux_by_hand(p, ideal, flux):
    """The dual flux: the terms of H with no ideal leg, plus e^x wedge de^x
    for each ideal slot x, on the dual's slots."""
    new_of = slots_by_hand(p, ideal)
    out = Form(3, {key: c for key, c in flux.terms.items() if not set(key) & set(ideal)})
    for x in ideal:
        out = out + wedge_oracle(Form(1, {(x,): 1}), p.differentials[x - 1])
    return relabel_by_hand(out, new_of)


def parsed(algebra, ideal, flux):
    return parse_malcev(algebra), ideal, parse_form(flux, 3)


def nonempty_subsets(n):
    for size in range(1, n + 1):
        yield from itertools.combinations(range(1, n + 1), size)


class TestAdmissibilityOracle:
    """check_admissible against one loop per flag, and invariance against the
    Jacobi identity of the dual built by hand.  Drawn triples almost never
    pair a non-central ideal with a closed, degenerate flux that it moves,
    so the second test sweeps the small flags for those."""

    @settings(max_examples=300, deadline=None)
    @given(triple_inputs())
    @example(parsed(*NON_INVARIANT))
    @example(parsed(*INVARIANT_NON_CENTRAL))
    @example(parsed(DIM6, (4, 5, 6), "0"))
    def test_one_scan_matches_one_loop_per_flag(self, inputs):
        t = AdmissibleTriple(*inputs)
        report = check_admissible(t)
        flags, details = admissibility_oracle(t)
        assert {name: getattr(report, name) for name in flags} == flags
        assert {k: v for k, v in report.details.items() if k != "invariant"} == details
        required = [flags[k] for k in flags if k != "central"] + [report.invariant]
        assert report.ok == all(required)
        if report.ideal and report.abelian and report.closed and report.degenerate:
            dual = dual_by_hand(t.algebra, t.ideal, t.flux)
            assert report.invariant == jacobi_check(dual).ok

    def test_invariance_is_the_dual_jacobi_identity_on_flags(self):
        # every non-central abelian ideal of every flag of A2..A4, each basis
        # vector of its closed 3-forms with at most one ideal leg as the flux
        failing = 0
        for l in (2, 3, 4):
            for size in range(l):
                for theta in itertools.combinations(range(1, l + 1), size):
                    p, _ = nilradical_presentation(FlagSpec("A", l, theta))
                    for ideal in nonempty_subsets(p.dim):
                        flags, _ = admissibility_oracle(AdmissibleTriple(p, ideal, Form(3)))
                        if flags["central"] or not (flags["ideal"] and flags["abelian"]):
                            continue
                        keys = [
                            key
                            for key in itertools.combinations(range(1, p.dim + 1), 3)
                            if sum(i in ideal for i in key) <= 1
                        ]
                        for flux in tduality._closed_forms(p, keys):
                            t = AdmissibleTriple(p, ideal, flux)
                            invariant = jacobi_check(dual_by_hand(p, ideal, flux)).ok
                            assert check_admissible(t).ok == invariant
                            if not invariant:
                                failing += 1
                                with pytest.raises(DualityError):
                                    dualize(t)
        assert failing == 364


class TestReorderOracle:
    """dualize on admissible triples, non-trailing ideals included, against
    the dual written down slot by slot with its own relabelling."""

    @settings(max_examples=100, deadline=None)
    @given(triple_inputs())
    @example(parsed(*INVARIANT_NON_CENTRAL))
    @example(parsed(DIM6, (4, 6), "0"))
    @example(parsed(DIM6, (4, 5, 6), "0"))  # golden job 10: a non-central ideal
    def test_dual_matches_the_hand_relabelling(self, inputs):
        t = AdmissibleTriple(*inputs)
        assume(check_admissible(t).ok)
        result = dualize(t)
        assert result.dual.algebra == dual_by_hand(t.algebra, t.ideal, t.flux)
        assert result.dual.flux == dual_flux_by_hand(t.algebra, t.ideal, t.flux)


NON_JACOBI = "(0,0,e^{12},e^{13},e^{34})"  # d(de^5) = d(e^{34}) = e^{124}
JACOBI_MESSAGE = "algebra fails the Jacobi identity: d(de^5) = e^{124}"
FLUX_MESSAGE = "flux references index 5 beyond dimension 3"


class TestTripleInput:
    """A triple is an explicit Lie algebra with a flux on its own basis; the
    constructor rejects anything else, so dualize and check_admissible,
    which take a triple, never see it."""

    def test_non_jacobi_algebra_rejected(self):
        with pytest.raises(MalcevValueError) as err:
            triple(NON_JACOBI, (5,))
        assert str(err.value) == JACOBI_MESSAGE

    def test_flux_beyond_dimension_rejected(self):
        with pytest.raises(MalcevValueError) as err:
            triple(HEISENBERG, (3,), "e^{145}")
        assert str(err.value) == FLUX_MESSAGE

    def test_jacobi_reported_before_flux_range_and_ideal(self):
        with pytest.raises(MalcevValueError) as err:
            triple(NON_JACOBI, (9,), "e^{129}")
        assert str(err.value) == JACOBI_MESSAGE
        with pytest.raises(MalcevValueError) as err:
            triple(HEISENBERG, (9,), "e^{145}")
        assert str(err.value) == FLUX_MESSAGE

    def test_public_copy_of_a_marked_algebra_is_checked(self, monkeypatch):
        # a flag nilradical is marked Lie where it is built; an equal copy
        # made by the public constructor is not, so its triple checks it
        checked = []
        real = tduality.jacobi_check
        monkeypatch.setattr(tduality, "jacobi_check", lambda p: checked.append(p) or real(p))
        p, _legend = nilradical_presentation(FlagSpec("A", 3, (2,)))
        AdmissibleTriple(p, (5,), Form.zero(3))
        assert checked == []
        copy = MalcevPresentation(p.differentials)
        assert copy == p
        AdmissibleTriple(copy, (5,), Form.zero(3))
        assert len(checked) == 1 and checked[0] is copy


class TestDualize:
    def test_keeps_the_admissibility_report(self):
        t = triple(DIM6, (4, 6))
        assert dualize(t).admissibility == check_admissible(t)

    def test_heisenberg_no_flux(self):
        result = dualize(triple(HEISENBERG, (3,)))
        assert print_malcev(result.dual.algebra) == "(0,0,0)"
        assert print_form(result.dual.flux) == "-e^{123}"
        assert result.dual.ideal == (3,)
        assert result.slot_map.identity

    def test_heisenberg_unit_flux(self):
        result = dualize(triple(HEISENBERG, (3,), "e^{123}"))
        assert print_malcev(result.dual.algebra) == "(0,0,e^{12})"
        assert print_form(result.dual.flux) == "-e^{123}"

    def test_dim6_top_slot(self):
        result = dualize(triple(DIM6, (6,)))
        assert print_malcev(result.dual.algebra) == "(0,0,0,-e^{12},-e^{23},0)"
        assert print_form(result.dual.flux) == "-e^{146}+e^{356}"

    def test_dim6_three_slot(self):
        result = dualize(triple(DIM6, (4, 5, 6)))
        assert result.dual.algebra.is_abelian()
        assert result.dual.flux == parse_form("-e^{124}-e^{235}-e^{146}+e^{356}")

    def test_non_trailing_ideal_reordered(self):
        result = dualize(triple(DIM6, (4, 6)))
        assert print_malcev(result.dual.algebra) == "(0,0,0,-e^{23},0,0)"
        assert print_form(result.dual.flux) == "-e^{125}-e^{156}+e^{346}"
        assert result.slot_map.to_json() == {
            "permutation": [1, 2, 3, 5, 4, 6],
            "identity": False,
            "quotient_slots": [1, 2, 3, 4],
            "z_slots": [5, 6],
        }

    def test_delta_survives(self):
        # flux term living entirely on the quotient passes through as delta
        p = parse_malcev("(0,0,0,0,-e^{12})")
        result = dualize(AdmissibleTriple(p, (5,), parse_form("e^{234}")))
        assert result.delta == parse_form("e^{234}")
        assert parse_form("e^{234}") + wedge(Form.basis(5), parse_form("-e^{12}")) == result.dual.flux

    def test_inadmissible_raises(self):
        with pytest.raises(DualityError) as err:
            dualize(triple(HEISENBERG, (1, 2)))
        assert err.value.report is not None
        assert not err.value.report.ok

    def test_non_invariant_raises(self):
        with pytest.raises(DualityError) as err:
            dualize(triple(*NON_INVARIANT))
        assert str(err.value) == "triple is not admissible: invariant failed"
        assert err.value.report.details["invariant"] == "L_{e_4} H = -e^{123}"

    def test_jacobi_checked_for_input_and_dual_only(self, monkeypatch):
        # the relabelled copies of a non-trailing ideal are not rechecked
        checked = []
        real = tduality.jacobi_check
        monkeypatch.setattr(tduality, "jacobi_check", lambda p: checked.append(p) or real(p))
        t = triple(A3, (4, 6))
        result = dualize(t)
        assert not result.slot_map.identity
        duality_certificate(t, result)
        assert checked == [t.algebra]

    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=40, deadline=None)
    def test_adopted_dual_is_a_lie_algebra(self, seed):
        # dualize adopts the dual unchecked; rebuild it through the checking
        # constructor and check Jacobi densely
        dual = dualize(random_admissible_triple(random.Random(seed))).dual.algebra
        assert MalcevPresentation(dual.differentials) == dual
        assert jacobi_oracle(dual)

    def test_decomposition_identity(self):
        # H = delta + sum over ideal slots of e^k wedge (interior of x_k in H)
        t = triple(DIM6, (4, 5, 6), "0")
        result = dualize(t)
        rebuilt = result.delta
        for k in t.ideal:
            rebuilt = rebuilt + wedge(Form.basis(k), interior(k, t.flux))
        assert rebuilt == t.flux


class TestCertificate:
    @pytest.mark.parametrize(
        "algebra,ideal,flux",
        [
            (HEISENBERG, (3,), "0"),
            (HEISENBERG, (3,), "e^{123}"),
            (DIM6, (6,), "0"),
            ("(0,0,0)", (1, 2, 3), "0"),
        ],
    )
    def test_passes_on_central_runs(self, algebra, ideal, flux):
        t = triple(algebra, ideal, flux)
        cert = duality_certificate(t, dualize(t))
        assert cert.ok
        assert cert.residual.is_zero()

    def test_su6_run_passes(self):
        p, _ = nilradical_presentation(FlagSpec("A", 5, (1, 3, 5)))
        t = AdmissibleTriple(p, tuple(range(9, 13)), Form.zero(3))
        cert = duality_certificate(t, dualize(t))
        assert cert.ok
        assert cert.correspondence_dim == 16

    def test_fails_on_non_central_three_slot(self):
        t = triple(DIM6, (4, 5, 6))
        cert = duality_certificate(t, dualize(t))
        assert not cert.ok
        assert print_form(cert.residual) == "-e^{149}+e^{179}+e^{359}-e^{389}"
        assert print_form(cert.F) == "-e^{47}-e^{58}-e^{69}"
        # terms with two z-legs (slots 7,8,9) cannot come from dF, whose
        # summands carry at most one z covector
        assert (1, 7, 9) in cert.residual.terms
        assert (3, 8, 9) in cert.residual.terms

    def test_fails_on_a_dual_with_another_quotient(self):
        # negating de^4 of the dual keeps it a Lie algebra, and the residual
        # never reads the dual's quotient, but the projection to it is no longer a
        # homomorphism
        t = triple(DIM6, (6,))
        result = dualize(t)
        diffs = list(result.dual.algebra.differentials)
        diffs[3] = -diffs[3]
        dual = AdmissibleTriple(MalcevPresentation(diffs), result.dual.ideal, result.dual.flux)
        cert = duality_certificate(t, replace(result, dual=dual))
        assert cert.residual.is_zero()
        assert not cert.ok

    def test_fails_on_non_central_heisenberg(self):
        t = triple(HEISENBERG, (2, 3))
        cert = duality_certificate(t, dualize(t))
        assert not cert.ok
        assert print_form(cert.residual) == "-e^{125}+e^{145}"

    @pytest.mark.parametrize(
        "source,other,message",
        [
            ((DIM6, (4, 5, 6)), (HEISENBERG, (3,)),
             "dual of dimension 3 with ideal size 1 for a source of dimension 6 "
             "with ideal size 3"),
            ((HEISENBERG, (3,)), (DIM6, (4, 5, 6)),
             "dual of dimension 6 with ideal size 3 for a source of dimension 3 "
             "with ideal size 1"),
            ((DIM6, (6,)), (DIM6, (4, 5, 6)),
             "dual of dimension 6 with ideal size 3 for a source of dimension 6 "
             "with ideal size 1"),
        ],
    )
    def test_refuses_a_dual_of_another_shape(self, source, other, message):
        # no correspondence algebra joins the two, so no form is built
        with pytest.raises(ValueError, match=message):
            duality_certificate(triple(*source), dualize(triple(*other)))


class TestInvolution:
    @pytest.mark.parametrize(
        "algebra,ideal,flux",
        [
            (HEISENBERG, (3,), "0"),
            (HEISENBERG, (3,), "e^{123}"),
            (DIM6, (6,), "0"),
            ("(0,0,0,0)", (3, 4), "e^{123}+e^{124}"),
        ],
    )
    def test_double_dual_is_identity_for_central(self, algebra, ideal, flux):
        t = triple(algebra, ideal, flux)
        once = dualize(t)
        twice = dualize(once.dual)
        assert twice.dual.algebra == t.algebra
        assert twice.dual.flux == t.flux
        assert twice.dual.ideal == t.ideal

    def test_three_slot_dual_breaks_degeneracy(self):
        # H_dual picks up two ideal legs, so the dual cannot be dualized back
        once = dualize(triple(DIM6, (4, 5, 6)))
        report = check_admissible(once.dual)
        assert "degenerate" in report.failed_flags()
        with pytest.raises(DualityError):
            dualize(once.dual)


class TestRandomTriples:
    def test_deterministic_generation(self):
        a = random_admissible_triple(random.Random(7))
        b = random_admissible_triple(random.Random(7))
        assert a.algebra == b.algebra and a.flux == b.flux and a.ideal == b.ideal

    @pytest.mark.parametrize(
        "seed, algebra, ideal, flux",
        [
            (2, "(0,0,-e^{12})", (3,), "-2e^{123}"),
            (8, "(0,0,0,2e^{12}-e^{13}+e^{23})", (4,), "-2e^{234}"),
            (98, "(0,0,e^{12},2e^{12},-e^{23})", (5,), "-e^{123}+e^{235}"),
            (9, "(0,0,0,2e^{12}+e^{13}+e^{23},e^{12},-2e^{14}+2e^{15}+2e^{35})", (6,),
             "-e^{124}-e^{125}-2e^{134}"),
            (74, "(0,0,-e^{12},-e^{12},e^{12},e^{14}+e^{23},e^{12})", (6, 7),
             "e^{146}-e^{236}"),
            (20, "(0,0,0,-e^{23},-e^{12}+e^{13},-e^{12}+e^{13}-e^{23},2e^{24},2e^{13}+e^{24})",
             (7, 8), "-e^{125}+2e^{147}-e^{234}-2e^{267}"),
        ],
    )
    def test_pinned_outputs(self, seed, algebra, ideal, flux):
        # one seed per dimension 3..8, three-layer algebras from 5 on; the
        # benchmark's corpus of triples depends on these exact outputs
        t = random_admissible_triple(random.Random(seed))
        assert (print_malcev(t.algebra), t.ideal, print_form(t.flux)) == (algebra, ideal, flux)

    def test_sampled_triples_admissible_and_dualizable(self):
        rng = random.Random(20240817)
        for _ in range(60):
            t = random_admissible_triple(rng)
            report = check_admissible(t)
            assert report.ok, report.failed_flags()
            result = dualize(t)
            cert = duality_certificate(t, result)
            assert cert.ok, print_form(cert.residual)
            back = dualize(result.dual)
            assert back.dual.algebra == t.algebra
            assert back.dual.flux == t.flux


class TestFingerprint:
    def test_heisenberg_values(self):
        assert fingerprint(parse_malcev(HEISENBERG)) == (
            3, False, (1, 0), (1, 0), 1, 1, 0,
        )

    def test_filiform_values(self):
        """The lower central and derived series part at the second step."""
        assert fingerprint(parse_malcev("(0,0,-e^{12},-e^{13})")) == (
            4, False, (2, 1, 0), (2, 0), 1, 2, 2,
        )

    def test_abelian_values(self):
        assert fingerprint(parse_malcev("(0,0,0)")) == (
            3, True, (0,), (0,), 3, 0, 0,
        )

    def test_distinguishes_dim(self):
        equal, field = compare_fingerprints(
            parse_malcev("(0,0)"), parse_malcev("(0,0,0)")
        )
        assert not equal and field == "dim"

    def test_distinguishes_abelian(self):
        equal, field = compare_fingerprints(
            parse_malcev(HEISENBERG), parse_malcev("(0,0,0)")
        )
        assert not equal and field == "abelian"

    def test_invariant_under_signed_relabeling(self):
        p = parse_malcev(DIM6)
        moved = BasisChange((2, 1, 3, 5, 4, 6), (1, -1, 1, 1, -1, 1)).apply(p)
        assert fingerprint(moved) == fingerprint(p)

    @pytest.mark.parametrize("rank", range(3, 8))
    def test_kostant_maximal_flags(self, rank):
        """dim H^k(n) = C(n,k) - r_k - r_(k-1) counts the permutations of
        S_(rank+1) with k inversions (Kostant); r_0 = 0."""
        p, _legend = nilradical_presentation(FlagSpec("A", rank))
        fp = fingerprint(p)
        n, r1, r2 = p.dim, fp[5], fp[6]
        inversions = mahonian_oracle(rank + 1)
        assert n - r1 == inversions[1]
        assert comb(n, 2) - r2 - r1 == inversions[2]

    @pytest.mark.parametrize("rank", range(1, 7))
    def test_kostant_every_flag(self, rank):
        """dim H^1 = n - r_1 and dim H^2 = C(n,2) - r_2 - r_1 on every flag of
        A_rank with two or more blocks, against kostant_oracle.  The two rank
        fields come from the fingerprint's own field table; the bracket
        fields, not under test here, would take about 50 times as long."""
        fields = {row.name: row.built for row in tduality._FIELDS}
        for mask in range((1 << rank) - 1):
            theta = tuple(i + 1 for i in range(rank) if mask >> i & 1)
            cuts = [0] + [k for k in range(1, rank + 1) if k not in theta] + [rank + 1]
            h = kostant_oracle([b - a for a, b in zip(cuts, cuts[1:])])
            p, _legend = nilradical_presentation(FlagSpec("A", rank, theta))
            n, r1, r2 = p.dim, fields["d1_rank"](p), fields["d2_rank"](p)
            assert (n - r1, comb(n, 2) - r2 - r1) == (h.get(1, 0), h.get(2, 0)), theta

    @given(filtered_presentations())
    @settings(max_examples=100, deadline=None)
    def test_d1_rank_is_dim_of_derived_algebra(self, p):
        """de^k = -sum c^k_ij e^ij, so the rank of d on 1-forms is the rank
        of the structure constants, dim [g, g]; Jacobi is not needed.  The
        target search reads d1_rank off the Levi blocks this way."""
        fields = {row.name: row.built for row in tduality._FIELDS}
        assert fields["d1_rank"](p) == fields["lcs_dims"](p)[0]

    def test_index_contract(self):
        """fingerprint() indices 0-6 keep their meaning: perfbench's Kostant
        check reads fp[5] as d1_rank and fp[6] as d2_rank."""
        assert tuple(row.name for row in tduality._FIELDS) == NAMES

    def test_comparison_order_is_cheapest_first(self):
        assert tuple(row.name for row in tduality._ORDER) == COST_ORDER


NAMES = ("dim", "abelian", "lcs_dims", "derived_dims", "center_dim", "d1_rank", "d2_rank")
# The order every comparison walks: the cost column, ties in fingerprint order.
COST_ORDER = ("dim", "abelian", "d1_rank", "center_dim", "lcs_dims", "derived_dims", "d2_rank")


def refuse_d2_rank(monkeypatch):
    """Let ``_diff_rank`` rank d on 1-forms, the d1_rank field, and fail the
    test if it is asked for d on 2-forms, the costliest field."""
    real = tduality._diff_rank

    def diff_rank(p, degree):
        if degree != 1:
            raise AssertionError("d2_rank computed for a rejected pair")
        return real(p, degree)

    monkeypatch.setattr(tduality, "_diff_rank", diff_rank)


def fresh(p):
    """A copy of p with none of its invariants computed yet."""
    return MalcevPresentation(p.differentials)


class TestCenterDim:
    """The center read off the structure constants against every bracket of
    two basis vectors."""

    # one de^k pairing e_1, e_2, e_3 cyclically: the ad rows are then an
    # antisymmetric 3 x 3 block, and a sign slip makes it invertible
    @given(filtered_presentations())
    @example(parse_malcev("(0,0,0,e^{12}+e^{13}+e^{23})"))
    @settings(max_examples=200, deadline=None)
    def test_matches_dense_ad_matrix(self, p):
        assert tduality._center_dim(p) == center_dim_oracle(p)

    def test_every_flag_up_to_rank_six(self):
        for rank in range(1, 7):
            for mask in range(1 << rank):
                theta = tuple(k + 1 for k in range(rank) if mask >> k & 1)
                p, _legend = nilradical_presentation(FlagSpec("A", rank, theta))
                assert tduality._center_dim(p) == center_dim_oracle(p), (rank, theta)


class TestBracketSeries:
    """The echelon-form bracket series against dense brackets of dense
    spanning vectors."""

    # [g, g] holds 3e_3 - 4e_4 but neither slot alone, and [e_3, e_4] != 0:
    # a bracket that is not antisymmetric gives that vector a nonzero
    # square, and a second derived term
    @given(filtered_presentations())
    @example(parse_malcev("(0,0,0,e^{12}+e^{13}+e^{23})"))
    @example(parse_malcev("(0,0,1/2e^{12},-2/3e^{12},3/4e^{34})"))
    @settings(max_examples=200, deadline=None)
    def test_matches_dense_oracle(self, p):
        for lower in (True, False):
            assert tduality._bracket_series(p, lower) == bracket_series_oracle(p, lower)


class TestStagedComparison:
    @given(filtered_presentations(max_dim=5), filtered_presentations(max_dim=5))
    @settings(max_examples=150, deadline=None)
    def test_first_differing_field_of_full_tuples(self, p, q):
        """The staged walk names the cheapest field on which the full
        fingerprints differ."""
        staged = compare_fingerprints(fresh(p), fresh(q))
        full_p = dict(zip(NAMES, fingerprint(fresh(p))))
        full_q = dict(zip(NAMES, fingerprint(fresh(q))))
        first = next((name for name in COST_ORDER if full_p[name] != full_q[name]), None)
        assert staged == (first is None, first)
        assert compare_fingerprints(p, p) == (True, None)

    def test_lcs_rejection_never_ranks_d(self, monkeypatch):
        refuse_d2_rank(monkeypatch)
        # filiform(4) + line and a free 2-step algebra on three generators
        # (one bracket dropped) agree on dim, [g, g] and the center
        filiform_plus_line = parse_malcev("(0,0,-e^{12},-e^{13},0)")
        two_step = parse_malcev("(0,0,0,-e^{12},-e^{13})")
        assert compare_fingerprints(filiform_plus_line, two_step) == (False, "lcs_dims")
        assert list(two_step._invariants) == list(COST_ORDER[:5])

    def test_d1_rank_rejection_spares_the_series(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a costlier field computed for a rejected pair")

        monkeypatch.setattr(tduality, "_bracket_series", refuse)
        refuse_d2_rank(monkeypatch)
        heisenberg_plus_line = parse_malcev("(0,0,-e^{12},0)")
        filiform = parse_malcev("(0,0,-e^{12},-e^{13})")
        assert compare_fingerprints(heisenberg_plus_line, filiform) == (False, "d1_rank")
        assert list(filiform._invariants) == ["dim", "abelian", "d1_rank"]

    def test_abelian_pair_stops_after_abelian(self):
        # two abelian presentations of one dimension are equal: compare a
        # distinct object with the walk itself
        p, q = parse_malcev("(0,0,0)"), parse_malcev("(0,0,0)")
        assert tduality._first_difference(lambda row: tduality._field(p, row), q) is None
        assert list(q._invariants) == ["dim", "abelian"]

    def test_equal_presentations_compute_nothing(self):
        p, q = parse_malcev(DIM6), parse_malcev(DIM6)
        assert compare_fingerprints(p, q) == (True, None)
        assert p._invariants == {} and q._invariants == {}

    def test_dual_fields_computed_once_per_search(self, monkeypatch):
        """find_targets compares every candidate against one dual; each of
        the dual's fields is computed at most once, however many candidates
        ask for it."""
        p, _legend = nilradical_presentation(FlagSpec("A", 4, (1,)))
        dual = dualize(AdmissibleTriple(p, (8, 9), Form.zero(3))).dual.algebra
        requested, computed = [], []

        def field(q, row):
            if q is dual:
                requested.append(row.name)
                if row.name not in q._invariants:
                    computed.append(row.name)
            return real_field(q, row)

        real_field = tduality._field
        monkeypatch.setattr(tduality, "_field", field)
        assert find_targets(dual)[0] == []
        # four candidates reach the first field past "abelian"; every one
        # differs there, so the dual never computes a bracket series
        assert requested.count("d1_rank") == 4
        assert "lcs_dims" not in requested and "derived_dims" not in requested
        assert sorted(computed) == sorted(set(requested))

    def test_no_memory_retained(self):
        """Fingerprinting keeps nothing once the presentations are gone."""
        fingerprint(random_admissible_triple(random.Random(0), 8).algebra)
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.take_snapshot()
            for seed in range(150):
                fingerprint(random_admissible_triple(random.Random(seed), 8).algebra)
            gc.collect()
            after = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
        ours = [tracemalloc.Filter(True, "*flagflux*")]
        grown = after.filter_traces(ours).compare_to(before.filter_traces(ours), "filename")
        assert sum(stat.size_diff for stat in grown) <= 0


class TestIsoSmall:
    def test_identical(self):
        p = parse_malcev(HEISENBERG)
        result = iso_small(p, parse_malcev(HEISENBERG))
        assert result.witness is not None
        assert result.witness.perm == (1, 2, 3)
        assert result.witness.signs == (1, 1, 1)

    def test_sign_flip_witness(self):
        p = parse_malcev(HEISENBERG)
        q = parse_malcev("(0,0,e^{12})")
        result = iso_small(p, q)
        assert result.witness is not None
        assert result.witness.apply(p) == q

    def test_signed_diagonal_witness_pinned(self):
        result = iso_small(parse_malcev("(0,0,e^{12})"), parse_malcev("(0,0,-e^{12})"))
        assert result.witness == BasisChange((1, 2, 3), (-1, 1, 1))

    def test_named_sign_vector_also_certifies(self):
        p = parse_malcev(HEISENBERG)
        q = parse_malcev("(0,0,e^{12})")
        flip_last = BasisChange((1, 2, 3), (1, 1, -1))
        assert flip_last.apply(p) == q

    def test_permutation_witness(self):
        p = parse_malcev(DIM6)
        change = BasisChange((2, 1, 3, 4, 5, 6), (1, 1, -1, 1, 1, 1))
        q = change.apply(p)
        result = iso_small(p, q)
        assert result.witness is not None
        assert result.witness.apply(p) == q

    def test_fingerprint_mismatch_proves_distinct(self):
        result = iso_small(parse_malcev(HEISENBERG), parse_malcev("(0,0,0)"))
        assert result.witness is None
        assert result.proved_distinct
        assert "abelian" in result.reason

    def test_dimension_mismatch_is_the_fingerprint_dim_field(self):
        result = iso_small(parse_malcev(HEISENBERG), parse_malcev("(0,0,0,0)"))
        assert result == IsoResult(None, True, "fingerprint differs: dim")

    def test_unequal_layer_profiles_end_at_the_root(self):
        # isomorphic (e_4 -> e_4 - e_3 on the second), but no signed
        # relabelling joins them: refinement fails at its first round
        p = parse_malcev("(0,0,e^{12},0)")
        q = parse_malcev("(0,0,e^{12},e^{12})")
        assert sorted(tduality._weight_layers(p).values()) != sorted(
            tduality._weight_layers(q).values()
        )
        result = iso_small(p, q)
        assert result == IsoResult(None, False, "search space exhausted without witness")

    def test_exhausted_budget_is_inconclusive(self, monkeypatch):
        # two Heisenberg blocks: the blocks, then the pair inside the second,
        # are each one individualisation
        p = parse_malcev("(0,0,0,0,e^{12},e^{34})")
        q = BasisChange((3, 4, 1, 2, 6, 5), (1, 1, -1, 1, 1, 1)).apply(p)
        with monkeypatch.context() as m:
            m.setattr(tduality, "ISO_BUDGET", 1)
            result = iso_small(p, q)
        assert result.witness is None
        assert not result.proved_distinct
        assert result.reason == "budget exhausted after 1 candidates"
        assert iso_small(p, q).witness.apply(p) == q

    @pytest.mark.parametrize("rank", [5, 6, 7])
    def test_maximal_flag_against_a_signed_relabelling(self, rank):
        # relabel inside each root height, with random signs; A5 and A6 used
        # to exhaust the budget of the arrangement walk
        p, units = _nilradical((1,) * (rank + 1))
        heights = [j - i for i, j in units]
        rng = random.Random(5)
        perm = []
        for h in sorted(set(heights)):
            run = [k for k, g in enumerate(heights, start=1) if g == h]
            rng.shuffle(run)
            perm += run
        q = BasisChange(tuple(perm), tuple(rng.choice((1, -1)) for _ in perm)).apply(p)
        result = iso_small(p, q)
        assert result.reason == "signed monomial"
        assert result.witness.apply(p) == q

    def test_arrangements_in_product_order(self):
        layers = [[1, 2, 3], [4], [5, 6]]
        assert list(_arrangements(layers)) == list(
            itertools.product(*[itertools.permutations(v) for v in layers])
        )

    def test_exhausted_search_is_inconclusive(self):
        ours, _ = nilradical_presentation(FlagSpec("A", 3))
        result = iso_small(ours, parse_malcev(DIM6))
        assert result.witness is None
        assert not result.proved_distinct


def _relabelled_copy(data, p, perturb):
    """A signed relabelling of p; with perturb, one of its constants is
    doubled, so that most such copies are no relabelling of p."""
    q = data.draw(signed_relabellings(p)).apply(p)
    if perturb:
        keys = [(k, key) for k, f in enumerate(q.differentials) for key in f.terms]
        assume(keys)
        k, key = data.draw(st.sampled_from(keys))
        diffs = list(q.differentials)
        diffs[k] = diffs[k] + Form(2, {key: diffs[k].terms[key]})
        q = MalcevPresentation(diffs)
    return q


def _presentations_up_to_dim_8():
    return st.one_of(
        filtered_presentations(max_dim=8),
        st.integers(0, 10**6).map(lambda s: random_admissible_triple(random.Random(s)).algebra),
    )


class TestIsoSearchOracle:
    """iso_small against the walk over every arrangement of each layer."""

    def test_every_relabelling_of_two_heisenberg_blocks(self):
        # the search individualises twice here, and most first witnesses
        # are not the identity
        p = parse_malcev("(0,0,0,0,e^{12},e^{34})")
        rng = random.Random(0)
        for perm in itertools.permutations(range(1, 5)):
            for top in ((5, 6), (6, 5)):
                signs = tuple(rng.choice((1, -1)) for _ in range(6))
                q = BasisChange(perm + top, signs).apply(p)
                got = iso_small(p, q)
                assert got == iso_oracle(p, q)
                assert got.witness.apply(p) == q

    @given(_presentations_up_to_dim_8(), st.booleans(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_same_witness_and_reason(self, p, perturb, data):
        q = _relabelled_copy(data, p, perturb)
        want = iso_oracle(p, q, budget=2000)
        assume(not want.reason.startswith("budget"))
        got = iso_small(p, q)
        assert got == want
        if got.witness is not None:
            assert got.witness.apply(p) == q

    @given(_presentations_up_to_dim_8(), st.booleans(), st.data())
    @settings(max_examples=100, deadline=None)
    def test_term_order_does_not_matter(self, p, perturb, data):
        q = _relabelled_copy(data, p, perturb)

        def shuffled(r):
            diffs = []
            for f in r.differentials:
                items = data.draw(st.permutations(list(f.terms.items())))
                diffs.append(Form(2, dict(items)))
            return MalcevPresentation(diffs)

        assert iso_small(shuffled(p), shuffled(q)) == iso_small(p, q)


class TestUnitriangularCopies:
    """Isomorphic copies beyond signed relabellings: a lower-unitriangular
    change of coframe moves slots across weight layers."""

    @given(_presentations_up_to_dim_8(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_never_proved_distinct(self, p, data):
        q = data.draw(unitriangular_copies(p))
        assert compare_fingerprints(p, q) == (True, None)
        result = iso_small(p, q)
        assert not result.proved_distinct
        if result.witness is not None:
            assert result.witness.apply(p) == q
        layers = [sorted(tduality._weight_layers(r).values()) for r in (p, q)]
        if layers[0] != layers[1]:
            assert result.reason == "search space exhausted without witness"
        want = iso_oracle(p, q, budget=2000)
        if not want.reason.startswith("budget"):
            assert result == want


class TestBasisChange:
    @given(
        st.permutations(range(1, 7)),
        st.lists(st.sampled_from([1, -1]), min_size=6, max_size=6),
        forms(3),
    )
    def test_push_and_pull_invert_each_other(self, perm, signs, f):
        change = BasisChange(tuple(perm), tuple(signs))
        assert change.pull_form(change.push_form(f)) == f
        assert change.push_form(change.pull_form(f)) == f

    @pytest.mark.parametrize(
        "perm, signs",
        [
            ((1, 1, 3), (1, 1, 1)),
            ((1, 2, 4), (1, 1, 1)),
            ((1, 2, 3), (1, 1)),
            ((1, 2, 3), (1, 0, 1)),
            ((1, 2, 3), (1, 2, 1)),
        ],
    )
    def test_rejects_what_is_not_a_signed_permutation(self, perm, signs):
        # apply adopts the forms it builds, so a zero sign must not get
        # that far
        with pytest.raises(ValueError):
            BasisChange(perm, signs)

    @pytest.mark.parametrize("perm", [(True, 2, 3), (1, 2, 3.0), ("1", 2, 3), (Fraction(1), 2, 3)])
    def test_rejects_non_int_perm_entries(self, perm):
        # a bool, float or integral Fraction entry equals its int, so the
        # permutation check alone would pass it; a str one fails the sort
        with pytest.raises(TypeError, match="entries must be integers"):
            BasisChange(perm, (1, 1, 1))

    @pytest.mark.parametrize("signs", [(1, True, 1), (1, 1.0, 1), (1, "1", 1), (Fraction(1), 1, 1)])
    def test_rejects_non_int_signs(self, signs):
        # a bool, float or integral Fraction sign equals 1, so the +-1 check
        # alone would pass it
        with pytest.raises(TypeError, match="signs must be integers"):
            BasisChange((1, 2, 3), signs)

    @pytest.mark.parametrize(
        "rewrite, sizes",
        [
            (lambda c: c.apply(parse_malcev("(0,0,-e^{12})")), "size 2 .* dimension 3"),
            (lambda c: c.apply(parse_malcev("(0)")), "size 2 .* dimension 1"),
            (lambda c: c.pull_form(parse_form("e^{3}")), "size 2 .* index 3"),
            (lambda c: c.push_form(parse_form("e^{3}")), "size 2 .* index 3"),
        ],
    )
    def test_rejects_a_basis_of_another_size(self, rewrite, sizes):
        with pytest.raises(ValueError, match=sizes):
            rewrite(BasisChange((2, 1), (1, 1)))

    @given(filtered_presentations(), st.data())
    def test_applied_forms_are_well_formed(self, p, data):
        perm = data.draw(st.permutations(range(1, p.dim + 1)))
        signs = data.draw(st.lists(st.sampled_from([1, -1]), min_size=p.dim, max_size=p.dim))
        try:
            moved = BasisChange(tuple(perm), tuple(signs)).apply(p)
        except MalcevValueError:
            return  # the permutation broke the filtration, which apply checks
        for f in moved.differentials:
            assert_well_formed(f)


@st.composite
def central_triples(draw):
    seed = draw(st.integers(min_value=0, max_value=10**6))
    return random_admissible_triple(random.Random(seed), max_dim=6)


class TestCertificateProperty:
    @given(st.one_of(central_triples(), non_central_triples()))
    @settings(max_examples=60, deadline=None)
    def test_certificate_decides_centrality(self, t):
        # duality_certificate's docstring proves this for any flux
        assert duality_certificate(t, dualize(t)).ok == check_admissible(t).central

    def test_certificate_decides_centrality_on_flags(self):
        # zero flux, every admissible ideal of every flag of A2..A4
        table = {}
        for l in (2, 3, 4):
            seen = table[l] = collections.Counter()
            for size in range(l):
                for theta in itertools.combinations(range(1, l + 1), size):
                    p, _ = nilradical_presentation(FlagSpec("A", l, theta))
                    for ideal in nonempty_subsets(p.dim):
                        t = AdmissibleTriple(p, ideal, Form(3))
                        report = check_admissible(t)
                        if report.ok:
                            seen[report.central, duality_certificate(t, dualize(t)).ok] += 1
        assert table == {
            2: {(True, True): 7, (False, False): 2},
            3: {(True, True): 37, (False, False): 26},
            4: {(True, True): 201, (False, False): 234},
        }

    @given(central_triples())
    @settings(max_examples=40, deadline=None)
    def test_certificate_and_involution(self, t):
        result = dualize(t)
        assert duality_certificate(t, result).ok
        back = dualize(result.dual)
        assert back.dual.algebra == t.algebra
        assert back.dual.flux == t.flux

    @given(central_triples(), st.integers(min_value=0, max_value=7))
    @settings(max_examples=40, deadline=None)
    def test_rejects_a_dual_with_one_z_differential_negated(self, t, pick):
        result = dualize(t)
        q = t.algebra.dim - len(t.ideal)
        diffs = list(result.dual.algebra.differentials)
        nonzero = [k for k in range(q, len(diffs)) if not diffs[k].is_zero()]
        assume(nonzero)
        k = nonzero[pick % len(nonzero)]
        diffs[k] = -diffs[k]
        # the z slots are central in the dual, so it stays a Lie algebra
        dual = AdmissibleTriple(MalcevPresentation(diffs), result.dual.ideal, result.dual.flux)
        assert not duality_certificate(t, replace(result, dual=dual)).ok
