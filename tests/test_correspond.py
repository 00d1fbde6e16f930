import importlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flagflux import (
    FlagSpec,
    FlowingFlag,
    Form,
    build_root_system,
    complementary_positive_roots,
    correspond,
    correspond_presentation,
    dimension_obstruction_scan,
    find_targets,
    nilradical_presentation,
    parse_form,
    parse_malcev,
    pretty_name,
    print_form,
    selfdual_flux,
    three_summand_correspond,
    three_summand_dims,
)

from conftest import mask_dim_oracle, theta_dim_oracle

C = importlib.import_module("flagflux.correspond")

HEISENBERG = "(0,0,-e^{12})"
DIM6 = "(0,0,0,-e^{12},-e^{23},-e^{14}+e^{35})"


class TestThetaDimTable:
    def test_mask_dim_matches_root_count(self):
        # the oracle's run-length formula vs direct complement enumeration
        for l in range(1, 6):
            rs = build_root_system("A", l)
            for dim, thetas in theta_dim_oracle(l).items():
                for theta in thetas:
                    assert dim == len(complementary_positive_roots(rs, theta))

    def test_table_groups_by_dimension(self):
        # the oracle vs the block-size formula dim = ((l+1)^2 - sum b^2) / 2
        table = theta_dim_oracle(4)
        assert sum(len(v) for v in table.values()) == 16
        for dim, thetas in table.items():
            for theta in thetas:
                assert 25 - sum(b * b for b in C._blocks(4, theta)) == 2 * dim

    def test_enumerator_matches_oracle(self):
        # content and order, with one memo shared as in find_targets
        feasible = {}
        for l in range(1, 15):
            table = theta_dim_oracle(l)
            for dim in range(l * (l + 1) // 2 + 2):
                assert C._thetas_of_dim(l, dim, feasible) == table.get(dim, []), (l, dim)

    def test_no_theta_above_dim(self):
        feasible = {}
        for dim in range(1, 30):
            for l in range(dim + 1, 2 * dim + 10):
                assert C._thetas_of_dim(l, dim, feasible) == [], (l, dim)

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=5))
    def test_enumerator_finds_every_composition(self, blocks):
        l = sum(blocks) - 1
        theta = []
        start = 1
        for b in blocks:
            theta.extend(range(start, start + b - 1))
            start += b
        mask = sum(1 << (t - 1) for t in theta)
        found = C._thetas_of_dim(l, mask_dim_oracle(l, mask), {})
        assert tuple(theta) in found
        masks = [sum(1 << (t - 1) for t in th) for th in found]
        assert masks == sorted(set(masks))


class TestCanonicalTheta:
    def test_prefers_larger_block(self):
        assert C._canonical_theta(3, (1,)) == (1,)
        assert C._canonical_theta(3, (3,)) == (1,)
        assert C._canonical_theta(3, (2, 3)) == (1, 2)
        assert C._canonical_theta(3, (1, 2)) == (1, 2)

    def test_symmetric_theta_fixed(self):
        assert C._canonical_theta(3, (2,)) == (2,)
        assert C._canonical_theta(5, (1, 3, 5)) == (1, 3, 5)


class TestPrettyName:
    def test_full_theta(self):
        assert pretty_name(3, (1, 2, 3)) == "SU(4)/S(U(4))"

    def test_projective_alias(self):
        assert pretty_name(4, (1, 2, 3)) == "SU(5)/S(U(4)×U(1)) ≅ CP^4"
        assert pretty_name(2, (1,)) == "SU(3)/S(U(2)×U(1)) ≅ CP^2"

    def test_two_block(self):
        assert pretty_name(4, (1, 2, 4)) == "SU(5)/S(U(3)×U(2))"

    def test_empty_theta(self):
        assert pretty_name(2, ()) == "SU(3)/S(U(1)×U(1)×U(1))"


class TestTargets:
    def test_heisenberg_dual_matches_cp3_only(self):
        result = correspond_presentation(
            parse_malcev(HEISENBERG), (3,), parse_form("0")
        )
        assert [t.pretty_name for t in result.targets] == [
            "SU(4)/S(U(3)×U(1)) ≅ CP^3"
        ]
        assert result.targets[0].spec == FlagSpec("A", 3, (1, 2))
        assert result.targets[0].witness is not None
        assert result.search_reason is None
        assert result.rank_bound is None

    def test_dim6_top_slot_empty_with_reason(self):
        result = correspond_presentation(
            parse_malcev(DIM6), (6,), parse_form("0"), rank_bound=7
        )
        assert result.targets == []
        assert result.search_reason == (
            "no parabolic nilradical within rank bound 7 is isomorphic to "
            "the dual: 3 candidates of dimension 6, 3 rejected by invariant "
            "fingerprint, 0 unconfirmed within search budget"
        )

    def test_dim6_three_slot_two_targets(self):
        result = correspond_presentation(
            parse_malcev(DIM6), (4, 5, 6), parse_form("0"), rank_bound=7
        )
        assert [(t.spec.rank, t.spec.theta) for t in result.targets] == [
            (4, (1, 2, 4)),
            (6, (1, 2, 3, 4, 5)),
        ]
        assert [t.pretty_name for t in result.targets] == [
            "SU(5)/S(U(3)×U(2))",
            "SU(7)/S(U(6)×U(1)) ≅ CP^6",
        ]
        # non-central ideal: the pointwise certificate is expected to fail
        assert not result.certificate.ok

    def test_su6_three_targets(self):
        flag = FlowingFlag(FlagSpec("A", 5, (1, 3, 5)), Form.zero(3))
        result = correspond(flag, tuple(range(9, 13)), rank_bound=13)
        assert [(t.spec.rank, t.spec.theta) for t in result.targets] == [
            (6, (1, 2, 3, 5, 6)),
            (7, (1, 2, 3, 4, 5, 7)),
            (12, tuple(range(1, 12))),
        ]
        assert print_form(result.dualization.dual.flux) == (
            "-e^{169}-e^{18(11)}-e^{26(10)}-e^{28(12)}"
            "-e^{359}-e^{37(11)}-e^{45(10)}-e^{47(12)}"
        )
        assert result.certificate.ok
        assert result.certificate.correspondence_dim == 16
        assert result.source_spec == FlagSpec("A", 5, (1, 3, 5))
        assert len(result.legend) == 12

    def test_witnesses_actually_map(self):
        result = correspond_presentation(
            parse_malcev(DIM6), (4, 5, 6), parse_form("0"), rank_bound=7
        )
        dual = result.dualization.dual.algebra
        for t in result.targets:
            candidate, _ = nilradical_presentation(t.spec)
            assert t.witness.apply(dual) == candidate

    def test_deterministic(self):
        a = correspond_presentation(parse_malcev(DIM6), (4, 5, 6), parse_form("0"), rank_bound=7)
        b = correspond_presentation(parse_malcev(DIM6), (4, 5, 6), parse_form("0"), rank_bound=7)
        assert [t.spec for t in a.targets] == [t.spec for t in b.targets]
        assert a.search_reason == b.search_reason

    def test_find_targets_rejects_bad_bound(self):
        with pytest.raises(ValueError):
            find_targets(parse_malcev("(0,0,0)"), 0)


class TestRankCap:
    @pytest.fixture(scope="class")
    def duals(self):
        su6 = correspond(
            FlowingFlag(FlagSpec("A", 5, (1, 3, 5)), Form.zero(3)), tuple(range(9, 13))
        )
        dim6 = correspond_presentation(parse_malcev(DIM6), (4, 5, 6), parse_form("0"))
        return [r.dualization.dual.algebra for r in (su6, dim6)]

    def test_uncapped_equals_cap_at_dim(self, duals):
        for dual in duals:
            free, _ = find_targets(dual)
            capped, _ = find_targets(dual, dual.dim)
            assert [(t.spec, t.witness) for t in free] == [
                (t.spec, t.witness) for t in capped
            ]
            assert free

    def test_cap_keeps_low_rank_targets(self, duals):
        for dual in duals:
            free, _ = find_targets(dual)
            for cap in range(1, dual.dim + 3):
                capped, reason = find_targets(dual, cap)
                kept = [t.spec for t in free if t.spec.rank <= cap]
                assert [t.spec for t in capped] == kept
                assert (reason is None) == bool(kept)

    def test_uncapped_reason_names_every_rank(self):
        result = correspond_presentation(parse_malcev(DIM6), (6,), parse_form("0"))
        assert result.targets == []
        assert result.rank_bound is None
        assert result.search_reason == (
            "no parabolic nilradical, every rank searched, is isomorphic to "
            "the dual: 3 candidates of dimension 6, 3 rejected by invariant "
            "fingerprint, 0 unconfirmed within search budget"
        )


class TestSelfDual:
    def test_rank_one_trivially_selfdual(self):
        report = selfdual_flux(FlagSpec("A", 1))
        assert report.selfdual is True
        assert report.flux.is_zero()
        assert report.flux_matches is True

    def test_rank_two_selfdual_with_sign_witness(self):
        report = selfdual_flux(FlagSpec("A", 2))
        assert print_form(report.flux) == "e^{123}"
        assert report.selfdual is True
        assert report.witness.perm == (1, 2, 3)
        assert report.witness.signs == (-1, 1, 1)
        assert report.flux_matches is True

    def test_rank_three_flux_not_closed(self):
        report = selfdual_flux(FlagSpec("A", 3))
        assert print_form(report.flux) == "e^{156}-e^{346}"
        assert report.selfdual is None
        assert not report.admissibility.ok
        assert report.admissibility.failed_flags() == ["closed"]
        assert report.admissibility.details["closed"] == "dH = 2e^{1345}"
        assert report.dualization is None

    def test_partial_theta_rejected(self):
        with pytest.raises(ValueError):
            selfdual_flux(FlagSpec("A", 3, (1, 2)))


class TestThreeSummand:
    def test_exhaustive_small(self):
        # reaches (3,3,3) -> CP^27 and (1,4,4) -> CP^24
        count = 0
        for l in range(1, 9):
            for m in range(1, 9):
                for n in range(1, 9):
                    if l + m + n > 10:
                        continue
                    report = three_summand_correspond(l, m, n)
                    assert report.ok, (l, m, n, report.notes)
                    assert report.dims == (l * m, m * n, l * n)
                    assert report.dims == three_summand_dims(l, m, n)
                    total = l * m + m * n + l * n
                    assert report.cp_target.pretty_name.endswith("CP^%d" % total)
                    assert report.spec.theta == tuple(
                        k for k in range(1, l + m + n) if k not in (l, l + m)
                    )
                    count += 1
        assert count == 120

    def test_dual_is_abelian_with_flux(self):
        report = three_summand_correspond(2, 2, 2)
        dual = report.result.dualization.dual
        assert dual.algebra.is_abelian()
        assert not dual.flux.is_zero()

    def test_explicit_bound_matches_default(self):
        a = three_summand_correspond(1, 2, 2)
        b = three_summand_correspond(1, 2, 2, rank_bound=8)
        assert [t.spec for t in a.result.targets] == [t.spec for t in b.result.targets]


class TestObstructionScan:
    def test_no_solutions_small(self):
        report = dimension_obstruction_scan(2000)
        assert report.dl_solutions == []
        assert report.scanned_to == 2000
        assert report.e6_dims == (24, 16)
        assert report.e6_check is True

    def test_against_factor_pair_oracle(self):
        # independent check: brute-force l instead of isqrt inversion
        found = []
        for n in range(4, 400):
            target = n * n + n - 2
            l = 2
            while l * (l - 1) < target:
                l += 1
            if l * (l - 1) == target:
                found.append((n, l))
        assert found == dimension_obstruction_scan(400).dl_solutions

    def test_bound_validated(self):
        with pytest.raises(ValueError):
            dimension_obstruction_scan(3)
