import importlib
import itertools
import json
from dataclasses import replace
from importlib import resources

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flagflux import (
    AdmissibleTriple,
    FlagSpec,
    FlowingFlag,
    Form,
    MalcevPresentation,
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
from flagflux.nilradical import _nilradical
from flagflux.rootsys import theta_of_blocks

from conftest import (
    blocks_of_dim_oracle,
    canonical_theta_oracle,
    find_targets_oracle,
    fingerprint_tie_dual,
    jacobi_oracle,
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
                assert 25 - sum(b * b for b in FlagSpec("A", 4, theta).blocks) == 2 * dim

    def test_enumerator_matches_oracle(self):
        # content and order: the oracle's thetas with a flip of the same flag
        # kept once, by the oracle's own rule; the walk yields block sizes,
        # and each maps to its theta and back
        for l in range(1, 15):
            table = theta_dim_oracle(l)
            for dim in range(l * (l + 1) // 2 + 2):
                want = [t for t in table.get(dim, []) if canonical_theta_oracle(l, t) == t]
                found = C._blocks_of_dim(l, dim)
                assert [theta_of_blocks(blocks) for blocks in found] == want, (l, dim)
                assert all(
                    blocks == FlagSpec("A", l, theta_of_blocks(blocks)).blocks for blocks in found
                )

    def test_enumerator_matches_memo_walk(self):
        # content and order at every rank the search walks, past the reach of
        # the 2**l theta table: a rank-l flag of dimension dim has l <= dim
        # unless it is a point, and two ranks beyond that must come up empty
        for dim in range(61):
            for l in range(1, dim + 3):
                assert C._blocks_of_dim(l, dim) == blocks_of_dim_oracle(l, dim), (l, dim)

    def test_no_theta_above_dim(self):
        for dim in range(1, 30):
            for l in range(dim + 1, 2 * dim + 10):
                assert C._blocks_of_dim(l, dim) == [], (l, dim)

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=5))
    def test_enumerator_finds_every_composition(self, blocks):
        # the larger of the two orientations is found, and a reverse that
        # differs from it is not
        blocks = tuple(blocks)
        larger, smaller = max(blocks, blocks[::-1]), min(blocks, blocks[::-1])
        l = sum(blocks) - 1
        found = C._blocks_of_dim(l, mask_dim_oracle(l, theta_mask(theta_of_blocks(blocks))))
        assert larger in found
        if smaller != larger:
            assert smaller not in found
        masks = [theta_mask(theta_of_blocks(b)) for b in found]
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

    def test_undecided_candidate_is_reported_beside_a_target(self):
        dual = fingerprint_tie_dual()
        result = correspond_presentation(dual.algebra, dual.ideal, dual.flux)
        assert [t.spec for t in result.targets] == [FlagSpec("A", 8, (1, 3, 4, 5, 6, 8))]
        assert result.search_reason is None
        tied = FlagSpec("A", 8, theta_of_blocks((4, 4, 1)))
        assert result.unconfirmed == [(tied, "search space exhausted without witness")]

    def test_tied_candidate_stays_unconfirmed_from_the_nilradical(self):
        p, _legend = nilradical_presentation(FlagSpec("A", 8, theta_of_blocks((2, 5, 2))))
        targets, reason, unconfirmed = find_targets(p)
        assert [t.spec for t in targets] == [FlagSpec("A", 8, theta_of_blocks((2, 5, 2)))]
        assert reason is None
        tied = FlagSpec("A", 8, theta_of_blocks((4, 4, 1)))
        assert unconfirmed == [(tied, "search space exhausted without witness")]

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
    it, and decides a survivor with at most two blocks unbuilt; only a
    survivor with three or more blocks is built."""

    @pytest.fixture()
    def built(self, monkeypatch):
        """The flag of every nilradical the correspond module builds, through
        either function it builds one with: by spec, with a legend, or by blocks."""
        specs = []
        by_spec = C.nilradical_presentation
        by_blocks = C._nilradical

        def counted_spec(spec):
            specs.append(spec)
            return by_spec(spec)

        def counted_blocks(blocks):
            specs.append(FlagSpec("A", sum(blocks) - 1, theta_of_blocks(blocks)))
            return by_blocks(blocks)

        monkeypatch.setattr(C, "nilradical_presentation", counted_spec)
        monkeypatch.setattr(C, "_nilradical", counted_blocks)
        return specs

    def test_three_summand_builds_only_the_source(self, built):
        # every target of an abelian dual has two blocks
        report = three_summand_correspond(2, 3, 3)
        assert report.ok
        assert [t.spec.rank for t in report.result.targets] == [9, 21]
        assert built == [report.spec]

    def test_survivor_with_three_blocks_is_built(self, built):
        # CP^5 with this flux dualizes along [1, 2] to the nilradical of
        # SU(4)/S(U(2)xU(1)xU(1)), found by building it
        result = correspond_presentation(
            parse_malcev("(0,0,0,0,0)"), (1, 2), parse_form("-e^{145}-e^{235}")
        )
        assert [t.spec for t in result.targets] == [FlagSpec("A", 3, (1,))]
        assert built == [FlagSpec("A", 3, (1,))]

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
    targets, reason, unconfirmed = find_targets(dual)
    want_targets, want_reason, want_unconfirmed = find_targets_oracle(dual)
    assert [(t.spec, t.witness) for t in targets] == want_targets
    assert reason == want_reason
    assert unconfirmed == want_unconfirmed


class TestAdoptedAlgebras:
    @pytest.mark.parametrize("rank", range(1, 7))
    def test_dual_of_every_flag_is_a_lie_algebra(self, rank):
        # correspond adopts the nilradical and dualize the dual, neither
        # through jacobi_check; rebuild the dual checked and check it densely
        for theta in flags_with_blocks(rank):
            flag, ideal = last_summand_flag(rank, theta)
            dual = correspond(flag, ideal).dualization.dual.algebra
            assert MalcevPresentation(dual.differentials) == dual
            assert jacobi_oracle(dual)

    @pytest.mark.parametrize("rank", range(1, 8))
    def test_every_flag_nilradical_is_a_marked_lie_algebra(self, rank):
        # the Levi blocks of every theta of A_rank are every composition of
        # rank + 1: each nilradical carries the Lie mark, and the Jacobi
        # oracle agrees that it is one
        for mask in range(1 << rank):
            theta = [k for k in range(1, rank + 1) if mask >> (k - 1) & 1]
            blocks = FlagSpec("A", rank, theta).blocks
            p, _units = _nilradical(blocks)
            assert p._invariants["lie"] is True, blocks
            assert jacobi_oracle(p), blocks


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

    def test_three_summand_duals(self):
        # the benchmark's splits: l+m+n <= 8 and dimension at most 17; every
        # dual is abelian, so every target is a two-block flag decided
        # unbuilt, while the oracle builds each candidate and runs iso_small
        splits = [
            s for s in itertools.product(range(1, 7), repeat=3)
            if sum(s) <= 8 and s[0] * s[1] + s[1] * s[2] + s[2] * s[0] <= 17
        ]
        assert len(splits) == 44
        for split in splits:
            dual = three_summand_correspond(*split).result.dualization.dual.algebra
            assert dual.is_abelian(), split
            assert_matches_oracle(dual)

    def test_unbuilt_witnesses_map_the_built_candidate(self):
        # each two-block target's witness is the identity, and carries the
        # candidate built from its flag onto the dual
        for split in [(1, 1, 1), (2, 3, 3), (1, 2, 5), (3, 3, 3)]:
            result = three_summand_correspond(*split).result
            dual = result.dualization.dual.algebra
            assert result.targets, split
            for t in result.targets:
                assert len(t.spec.blocks) == 2
                assert t.witness == tduality.BasisChange(
                    tuple(range(1, dual.dim + 1)), (1,) * dual.dim
                )
                candidate, _legend = nilradical_presentation(t.spec)
                assert t.witness.apply(candidate) == dual

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

    @pytest.mark.parametrize("sizes", [(True, 1, 1), (1, 1.0, 1), (1, 1, "2")])
    def test_non_int_block_sizes_rejected(self, sizes):
        with pytest.raises(TypeError):
            three_summand_correspond(*sizes)

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
        # the report states a theorem, so no loop runs to the bound
        assert dimension_obstruction_scan(10**18) == replace(report, scanned_to=10**18)

    def test_against_factor_pair_oracle(self):
        # independent check: brute-force l for each n, no theorem used
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

    @pytest.mark.parametrize("bound", [True, 10.0, "10"])
    def test_non_int_bound_rejected(self, bound):
        with pytest.raises(TypeError, match="bound must be an integer"):
            dimension_obstruction_scan(bound)
