import gc
import itertools
import random
import tracemalloc
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flagflux import (
    AdmissibleTriple,
    DualityError,
    FlagSpec,
    Form,
    MalcevPresentation,
    check_admissible,
    compare_fingerprints,
    duality_certificate,
    dualize,
    find_targets,
    fingerprint,
    interior,
    iso_small,
    nilradical_presentation,
    parse_form,
    parse_malcev,
    print_form,
    print_malcev,
    random_admissible_triple,
    wedge,
)
from flagflux import tduality
from flagflux.tduality import BasisChange, _arrangements

from conftest import filtered_presentations, kostant_oracle, mahonian_oracle

HEISENBERG = "(0,0,-e^{12})"
DIM6 = "(0,0,0,-e^{12},-e^{23},-e^{14}+e^{35})"


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


class TestDualize:
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

    def test_fails_on_non_central_heisenberg(self):
        t = triple(HEISENBERG, (2, 3))
        cert = duality_certificate(t, dualize(t))
        assert not cert.ok
        assert print_form(cert.residual) == "-e^{125}+e^{145}"


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
        fields = dict(tduality._FIELDS)
        for mask in range((1 << rank) - 1):
            theta = tuple(i + 1 for i in range(rank) if mask >> i & 1)
            cuts = [0] + [k for k in range(1, rank + 1) if k not in theta] + [rank + 1]
            h = kostant_oracle([b - a for a, b in zip(cuts, cuts[1:])])
            p, _legend = nilradical_presentation(FlagSpec("A", rank, theta))
            n, r1, r2 = p.dim, fields["d1_rank"](p), fields["d2_rank"](p)
            assert (n - r1, comb(n, 2) - r2 - r1) == (h.get(1, 0), h.get(2, 0)), theta


NAMES = ("dim", "abelian", "lcs_dims", "derived_dims", "center_dim", "d1_rank", "d2_rank")


def fresh(p):
    """A copy of p with none of its invariants computed yet."""
    return MalcevPresentation(p.differentials)


class TestStagedComparison:
    @given(filtered_presentations(max_dim=5), filtered_presentations(max_dim=5))
    @settings(max_examples=150, deadline=None)
    def test_first_differing_field_of_full_tuples(self, p, q):
        staged = compare_fingerprints(fresh(p), fresh(q))
        full = zip(NAMES, fingerprint(fresh(p)), fingerprint(fresh(q)))
        first = next((name for name, a, b in full if a != b), None)
        assert staged == (first is None, first)
        assert compare_fingerprints(p, p) == (True, None)

    def test_lcs_rejection_never_ranks_d(self, monkeypatch):
        def refuse(p, degree):
            raise AssertionError("_diff_rank called for a rejected candidate")

        monkeypatch.setattr(tduality, "_diff_rank", refuse)
        heisenberg_plus_line = parse_malcev("(0,0,-e^{12},0)")
        filiform = parse_malcev("(0,0,-e^{12},-e^{13})")
        assert compare_fingerprints(heisenberg_plus_line, filiform) == (False, "lcs_dims")
        assert list(filiform._invariants) == ["dim", "abelian", "lcs_dims"]

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

        def counted(name, compute):
            def field(q):
                if q is dual:
                    computed.append(name)
                return compute(q)

            return field

        def field(q, name, compute):
            if q is dual:
                requested.append(name)
            return real_field(q, name, compute)

        real_field = tduality._field
        monkeypatch.setattr(tduality, "_field", field)
        monkeypatch.setattr(
            tduality, "_FIELDS", tuple((name, counted(name, f)) for name, f in tduality._FIELDS)
        )
        assert find_targets(dual)[0] == []
        assert requested.count("lcs_dims") == 4
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

    def test_exhausted_budget_is_inconclusive(self):
        p, _ = nilradical_presentation(FlagSpec("A", 3))
        q = BasisChange((2, 1, 3, 5, 4, 6), (1,) * 6).apply(p)
        result = iso_small(p, q, budget=1)
        assert result.witness is None
        assert not result.proved_distinct
        assert result.reason == "budget exhausted after 1 candidates"
        assert iso_small(p, q).witness.apply(p) == q

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


@st.composite
def central_triples(draw):
    seed = draw(st.integers(min_value=0, max_value=10**6))
    return random_admissible_triple(random.Random(seed), max_dim=6)


class TestCertificateProperty:
    @given(central_triples())
    @settings(max_examples=40, deadline=None)
    def test_certificate_and_involution(self, t):
        result = dualize(t)
        assert duality_certificate(t, result).ok
        back = dualize(result.dual)
        assert back.dual.algebra == t.algebra
        assert back.dual.flux == t.flux
