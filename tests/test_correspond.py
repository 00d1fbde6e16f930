import importlib
import json
from importlib import resources

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flagflux import (
    AdmissibleTriple,
    FlagSpec,
    FlowingFlag,
    Form,
    MalcevValueError,
    build_root_system,
    complementary_positive_roots,
    correspond,
    correspond_presentation,
    dimension_obstruction_scan,
    dualize,
    find_targets,
    isotropy_summands,
    nilradical_presentation,
    parse_form,
    parse_malcev,
    pretty_name,
    print_form,
    selfdual_flux,
    three_summand_correspond,
    three_summand_dims,
)

from flagflux import tduality
from flagflux.rootsys import block_sizes, theta_of_blocks

from conftest import (
    canonical_theta_oracle,
    find_targets_oracle,
    mask_dim_oracle,
    theta_dim_oracle,
)

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
                assert 25 - sum(b * b for b in block_sizes(4, theta)) == 2 * dim

    def test_enumerator_matches_oracle(self):
        # content and order, with one memo shared as in find_targets: the
        # oracle's thetas with a flip of the same flag kept once, by the
        # oracle's own rule; each theta comes with the block sizes the walk
        # composed it from
        feasible = {}
        for l in range(1, 15):
            table = theta_dim_oracle(l)
            for dim in range(l * (l + 1) // 2 + 2):
                want = [t for t in table.get(dim, []) if canonical_theta_oracle(l, t) == t]
                found = C._thetas_of_dim(l, dim, feasible)
                assert [theta for theta, _ in found] == want, (l, dim)
                assert all(blocks == block_sizes(l, theta) for theta, blocks in found)

    def test_no_theta_above_dim(self):
        feasible = {}
        for dim in range(1, 30):
            for l in range(dim + 1, 2 * dim + 10):
                assert C._thetas_of_dim(l, dim, feasible) == [], (l, dim)

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=5))
    def test_enumerator_finds_every_composition(self, blocks):
        # the larger of the two orientations is found, and a reverse that
        # differs from it is not
        blocks = tuple(blocks)
        larger, smaller = max(blocks, blocks[::-1]), min(blocks, blocks[::-1])
        l = sum(blocks) - 1
        found = C._thetas_of_dim(l, mask_dim_oracle(l, theta_mask(theta_of_blocks(blocks))), {})
        assert (theta_of_blocks(larger), larger) in found
        if smaller != larger:
            assert all(b != smaller for _, b in found)
        masks = [theta_mask(th) for th, _ in found]
        assert masks == sorted(set(masks))


def theta_mask(theta):
    return sum(1 << (t - 1) for t in theta)


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

    def test_dim6_top_slot_empty_with_reason(self):
        result = correspond_presentation(parse_malcev(DIM6), (6,), parse_form("0"))
        assert result.targets == []
        assert result.search_reason == (
            "no parabolic nilradical, every rank searched, is isomorphic to "
            "the dual: 3 candidates of dimension 6, 3 rejected by invariant "
            "fingerprint, 0 unconfirmed within search budget"
        )

    def test_dim6_three_slot_two_targets(self):
        result = correspond_presentation(parse_malcev(DIM6), (4, 5, 6), parse_form("0"))
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
        result = correspond(flag, tuple(range(9, 13)))
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
        result = correspond_presentation(parse_malcev(DIM6), (4, 5, 6), parse_form("0"))
        dual = result.dualization.dual.algebra
        for t in result.targets:
            candidate, _ = nilradical_presentation(t.spec)
            assert t.witness.apply(dual) == candidate

    def test_deterministic(self):
        a = correspond_presentation(parse_malcev(DIM6), (4, 5, 6), parse_form("0"))
        b = correspond_presentation(parse_malcev(DIM6), (4, 5, 6), parse_form("0"))
        assert [t.spec for t in a.targets] == [t.spec for t in b.targets]
        assert a.search_reason == b.search_reason


class TestPresentationInput:
    def test_non_jacobi_algebra_rejected(self):
        with pytest.raises(MalcevValueError) as err:
            correspond_presentation(
                parse_malcev("(0,0,e^{12},e^{13},e^{34})"), (5,), parse_form("0")
            )
        assert str(err.value) == "algebra fails the Jacobi identity: d(de^5) = e^{124}"

    def test_flux_beyond_dimension_rejected(self):
        with pytest.raises(MalcevValueError) as err:
            correspond_presentation(parse_malcev(HEISENBERG), (3,), parse_form("e^{145}"))
        assert str(err.value) == "flux references index 5 beyond dimension 3"

    def test_checks_admissibility_once(self, monkeypatch):
        calls = []
        real = tduality.check_admissible
        monkeypatch.setattr(tduality, "check_admissible", lambda t: calls.append(t) or real(t))
        result = correspond_presentation(parse_malcev(DIM6), (4, 5, 6), parse_form("0"))
        assert len(calls) == 1
        assert result.admissibility is result.dualization.admissibility


class TestBuildsOnlySurvivors:
    """find_targets rejects a candidate from its Levi blocks before building
    it; only candidates whose block fields all agree with the dual's are
    built."""

    @pytest.fixture()
    def built(self, monkeypatch):
        specs = []
        real = C.nilradical_presentation

        def counted(spec):
            specs.append(spec)
            return real(spec)

        monkeypatch.setattr(C, "nilradical_presentation", counted)
        return specs

    def test_three_summand_builds_source_and_targets(self, built):
        report = three_summand_correspond(2, 3, 3)
        assert report.ok
        assert built == [report.spec] + [t.spec for t in report.result.targets]

    def test_job_09_builds_nothing_and_keeps_its_reason(self, built):
        jobs = resources.files("flagflux").joinpath("jobs")
        job = json.loads(jobs.joinpath("09-correspond-dim6-top.json").read_text())
        expected = json.loads(jobs.joinpath("expected", "09-correspond-dim6-top.json").read_text())
        cfg = job["config"]
        result = correspond_presentation(
            parse_malcev(cfg["algebra"]), cfg["ideal"], parse_form(cfg["flux"])
        )
        assert result.search_reason == expected["search_reason"]
        assert built == []


def flags_with_blocks(rank):
    """Every theta of A_rank with two or more Levi blocks (theta != Sigma)."""
    for mask in range((1 << rank) - 1):
        yield tuple(i + 1 for i in range(rank) if mask >> i & 1)


def last_summand_flag(rank, theta):
    """(flowing flag with zero flux, ideal of its last isotropy summand); the
    last summand is central, so the triple is admissible."""
    summands = isotropy_summands(build_root_system("A", rank), theta)
    dim = sum(s.dim for s in summands)
    ideal = tuple(range(dim - summands[-1].dim + 1, dim + 1))
    return FlowingFlag(FlagSpec("A", rank, theta), Form.zero(3)), ideal


def assert_matches_oracle(dual):
    targets, reason = find_targets(dual)
    want_targets, want_reason = find_targets_oracle(dual)
    assert [(t.spec, t.witness) for t in targets] == want_targets
    assert reason == want_reason


class TestFindTargetsOracle:
    """The block check against building every candidate of the dual's
    dimension and comparing full fingerprints."""

    @pytest.mark.parametrize("rank", [2, 3, 4, 5])
    def test_duals_of_every_flag(self, rank):
        for theta in flags_with_blocks(rank):
            flag, ideal = last_summand_flag(rank, theta)
            p, _legend = nilradical_presentation(flag.spec)
            assert_matches_oracle(dualize(AdmissibleTriple(p, ideal, flag.flux)).dual.algebra)

    @pytest.mark.parametrize(
        "job",
        [
            "08-correspond-heisenberg",
            "09-correspond-dim6-top",
            "10-correspond-dim6-triple",
            "11-correspond-su6",
        ],
    )
    def test_golden_duals(self, job):
        cfg = json.loads(
            resources.files("flagflux").joinpath("jobs", job + ".json").read_text()
        )["config"]
        if "algebra" in cfg:
            p = parse_malcev(cfg["algebra"])
        else:
            p, _legend = nilradical_presentation(
                FlagSpec(cfg["series"], cfg["rank"], tuple(cfg["theta"]))
            )
        triple = AdmissibleTriple(p, tuple(cfg["ideal"]), parse_form(cfg["flux"], 3))
        assert_matches_oracle(dualize(triple).dual.algebra)

    def test_no_bracket_series_up_to_rank_six(self, monkeypatch):
        """Every candidate differs from these duals in a field cheaper than
        the bracket series, or is an abelian survivor of an abelian dual."""

        def refuse(p, lower):
            raise AssertionError("bracket series computed")

        monkeypatch.setattr(tduality, "_bracket_series", refuse)
        for rank in range(2, 7):
            for theta in flags_with_blocks(rank):
                correspond(*last_summand_flag(rank, theta))


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

    @pytest.mark.parametrize("size,total", [(4, 48), (5, 75)])
    def test_equal_blocks_reach_projective_space(self, size, total):
        report = three_summand_correspond(size, size, size)
        assert report.ok, report.notes
        assert report.cp_target.spec == FlagSpec("A", total, tuple(range(1, total)))

    def test_dual_is_abelian_with_flux(self):
        report = three_summand_correspond(2, 2, 2)
        dual = report.result.dualization.dual
        assert dual.algebra.is_abelian()
        assert not dual.flux.is_zero()


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
