"""Release gate: one test per go/no-go criterion, everything exact.

Each test prints a single "criterion N: PASS" line on success (visible
with -s); under pytest -v the test id itself is the per-criterion line.
No tolerances anywhere: every comparison is on exact rationals or
strings.
"""

import math
import random
from fractions import Fraction

import pytest

from flagflux import (
    AdmissibleTriple,
    FlagSpec,
    Form,
    build_root_system,
    classify_block,
    complementary_positive_roots,
    correspond_presentation,
    dimension_obstruction_scan,
    duality_certificate,
    dualize,
    integrability_necessary,
    iso_small,
    isotropy_summands,
    jacobi_check,
    make_block,
    nilradical_presentation,
    parse_form,
    parse_malcev,
    phi_conjugate,
    phi_matrix,
    print_form,
    print_malcev,
    random_admissible_triple,
    selfdual_flux,
    three_summand_correspond,
)
from flagflux.gcs import identity_matrix, mat_mul
from flagflux.tduality import BasisChange

HEISENBERG = "(0,0,-e^{12})"
SL4_VARIANT = "(0,0,0,-e^{12},-e^{23},-e^{14}+e^{35})"

# recorded signed relabeling fixing the su(6) basis convention
SU6_PERM = (1, 2, 3, 4, 6, 5, 8, 7, 9, 11, 10, 12)
SU6_SIGNS = (-1, 1, 1, -1, 1, 1, 1, 1, 1, 1, 1, 1)
SU6_RECORDED_FLUX = (
    "e^{159}-e^{369}+e^{17(10)}-e^{38(10)}"
    "+e^{46(11)}-e^{25(11)}+e^{48(12)}-e^{27(12)}"
)


def triple(algebra, ideal, flux="0"):
    return AdmissibleTriple(parse_malcev(algebra), ideal, parse_form(flux, 3))


def su6_triple():
    p, _ = nilradical_presentation(FlagSpec("A", 5, (1, 3, 5)))
    return AdmissibleTriple(p, tuple(range(9, 13)), Form.zero(3))


def central_example_runs():
    return [
        triple(HEISENBERG, (3,), "0"),
        triple(HEISENBERG, (3,), "e^{123}"),
        triple(SL4_VARIANT, (6,), "0"),
        su6_triple(),
    ]


@pytest.fixture(scope="module")
def random_runs():
    # 200 admissible triples of dimension <= 8, shared by criteria 5 and 6
    rng = random.Random(31415926)
    runs = []
    for _ in range(200):
        t = random_admissible_triple(rng, max_dim=8)
        runs.append((t, dualize(t)))
    return runs


def test_c01_first_example_and_projective_target(capsys):
    t = triple(HEISENBERG, (3,), "0")
    result = dualize(t)
    assert print_malcev(result.dual.algebra) == "(0,0,0)"
    assert print_form(result.dual.flux) == "-e^{123}"
    pipeline = correspond_presentation(t.algebra, t.ideal, t.flux)
    assert "CP^3" in [n.split()[-1] for n in (c.pretty_name for c in pipeline.targets)]
    assert [c.pretty_name for c in pipeline.targets] == ["SU(4)/S(U(3)×U(1)) ≅ CP^3"]
    with capsys.disabled():
        print("criterion 1: PASS: dual (0,0,0) with -e^{123}, target CP^3")


def test_c02_fixed_point_with_sign_witness(capsys):
    t = triple(HEISENBERG, (3,), "e^{123}")
    result = dualize(t)
    assert print_malcev(result.dual.algebra) == "(0,0,e^{12})"
    assert print_form(result.dual.flux) == "-e^{123}"
    found = iso_small(result.dual.algebra, t.algebra)
    assert found.witness is not None
    flip_last = BasisChange((1, 2, 3), (1, 1, -1))
    assert flip_last.apply(result.dual.algebra) == t.algebra
    assert flip_last.push_form(result.dual.flux) == t.flux
    with capsys.disabled():
        print("criterion 2: PASS: self-dual under e3 -> -e3")


def test_c03_rank_three_runs(capsys):
    top = correspond_presentation(parse_malcev(SL4_VARIANT), (6,), parse_form("0"))
    assert print_form(top.dualization.dual.flux) == "-e^{146}+e^{356}"
    assert top.targets == []
    assert top.search_reason is not None

    three = correspond_presentation(parse_malcev(SL4_VARIANT), (4, 5, 6), parse_form("0"))
    assert three.dualization.dual.flux == parse_form("-e^{124}-e^{235}-e^{146}+e^{356}")
    assert len(three.dualization.dual.flux.terms) == 4
    assert sorted(t.pretty_name for t in three.targets) == [
        "SU(5)/S(U(3)×U(2))",
        "SU(7)/S(U(6)×U(1)) ≅ CP^6",
    ]
    with capsys.disabled():
        print("criterion 3: PASS: top slot empty at every rank, three-slot gives both targets")


def test_c04_partial_flag_dual(capsys):
    summands = isotropy_summands(build_root_system("A", 5), (1, 3, 5))
    assert [s.dim for s in summands] == [4, 4, 4]

    t = su6_triple()
    result = dualize(t)
    assert result.dual.algebra.is_abelian()
    assert result.dual.algebra.dim == 12

    witness = BasisChange(SU6_PERM, SU6_SIGNS)
    assert witness.push_form(result.dual.flux) == parse_form(SU6_RECORDED_FLUX)

    pipeline = correspond_presentation(t.algebra, t.ideal, t.flux)
    assert any(c.pretty_name.endswith("CP^12") for c in pipeline.targets)
    with capsys.disabled():
        print("criterion 4: PASS: dims (4,4,4), abelian dim 12, recorded-convention flux, CP^12")


def test_c05_certificate(random_runs, capsys):
    # the four central example runs; the three-slot run leaves the class
    # covered by a pointwise F, since its dual flux keeps two ideal legs
    for t in central_example_runs():
        cert = duality_certificate(t, dualize(t))
        assert cert.ok, print_form(cert.residual)
    for t, result in random_runs:
        cert = duality_certificate(t, result)
        assert cert.ok, print_form(cert.residual)
    with capsys.disabled():
        print("criterion 5: PASS: exact certificate on 4 example + 200 random runs")


def test_c06_involution(random_runs, capsys):
    for t in central_example_runs():
        back = dualize(dualize(t).dual)
        assert back.dual.algebra == t.algebra
        assert back.dual.flux == t.flux
        assert back.dual.ideal == t.ideal
        assert iso_small(back.dual.algebra, t.algebra).witness is not None
    for t, result in random_runs:
        back = dualize(result.dual)
        assert back.dual.algebra == t.algebra
        assert back.dual.flux == t.flux
    with capsys.disabled():
        print("criterion 6: PASS: double dual restores 4 example + 200 random runs")


def test_c07_jacobi_sweep(capsys):
    checked = 0
    for rank in range(1, 7):
        rs = build_root_system("A", rank)
        for mask in range(1 << rank):
            theta = tuple(k + 1 for k in range(rank) if mask >> k & 1)
            presentation, legend = nilradical_presentation(FlagSpec("A", rank, theta))
            assert jacobi_check(presentation).ok
            summands = isotropy_summands(rs, theta)
            assert sum(s.dim for s in summands) == len(
                complementary_positive_roots(rs, theta)
            )
            assert presentation.dim == len(legend)
            checked += 1
    assert checked == 126
    with capsys.disabled():
        print("criterion 7: PASS: d2=0 and summand dims on all 126 flags to rank 6")


def test_c08_three_summand_duality(capsys):
    count = 0
    for l in range(1, 6):
        for m in range(1, 6):
            for n in range(1, 6):
                if l + m + n > 7:
                    continue
                report = three_summand_correspond(l, m, n)
                assert report.ok, (l, m, n, report.notes)
                dual = report.result.dualization.dual
                assert dual.algebra.is_abelian()
                assert not dual.flux.is_zero()
                total = l * m + m * n + l * n
                assert report.cp_target.pretty_name.endswith("CP^%d" % total)
                count += 1
    assert count == 35
    with capsys.disabled():
        print("criterion 8: PASS: all 35 three-summand splits dualize onto CP^total")


def test_c09_dimension_obstruction(capsys):
    report = dimension_obstruction_scan(10**5)
    assert report.dl_solutions == []
    assert report.scanned_to == 10**5

    # factor-pair oracle: with u=2l-1, v=2n+1 the equation n**2+n-2 =
    # l**2-l becomes (v-u)(v+u) = 8, so both factors are even: v=3, n=1
    oracle = []
    for d in range(1, 9):
        if 8 % d:
            continue
        e = 8 // d
        if (d + e) % 2:
            continue
        v = (d + e) // 2
        u = (e - d) // 2
        if u >= 1 and v >= 1 and u % 2 == 1 and v % 2 == 1:
            n = (v - 1) // 2
            l = (u + 1) // 2
            if n >= 4:
                oracle.append((n, l))
    assert oracle == report.dl_solutions == []

    assert report.e6_dims == (24, 16)
    assert report.e6_check is True
    assert report.e6_dims[0] != report.e6_dims[1]
    with capsys.disabled():
        print("criterion 9: PASS: no coincidence to 10^5, oracle agrees, 24 != 16")


def test_c10_block_transport(capsys):
    for t in range(0, 5):
        for m in range(0, 5):
            if t + m == 0:
                continue
            phi = phi_matrix(t, m)
            assert mat_mul(phi, phi) == identity_matrix(2 * (t + m))

    moved = phi_conjugate(make_block("complex", sign=1))
    assert list(map(list, moved.matrix)) == [
        [0, 0, 0, 1],
        [0, 0, -1, 0],
        [0, 1, 0, 0],
        [-1, 0, 0, 0],
    ]
    assert moved.classification == "symplectic"

    import sympy

    a, x, y = sympy.symbols("a x y")
    j = [[a, 0, 0, -x], [0, a, x, 0], [0, -y, -a, 0], [y, 0, 0, -a]]
    phi = phi_matrix(1, 1)
    got = mat_mul(phi, mat_mul(j, phi))
    want = [[a, x, 0, 0], [-y, -a, 0, 0], [0, 0, -a, y], [0, 0, -x, a]]
    for grow, wrow in zip(got, want):
        for g, w in zip(grow, wrow):
            assert sympy.simplify(g - w) == 0

    rng = random.Random(2718281)
    for _ in range(500):
        a0 = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        x0 = Fraction(rng.choice([v for v in range(-9, 10) if v]), rng.randint(1, 9))
        y0 = (a0 * a0 + 1) / x0
        block = make_block("noncomplex", a=a0, x=x0, y=y0)
        assert classify_block([list(r) for r in block.matrix]) == (
            "symplectic" if a0 == 0 else "B-symplectic"
        )
        out = phi_conjugate(block)
        assert out.classification == "complex"
        m = out.matrix
        assert m[0][0] ** 2 - m[0][1] * (-m[1][0]) == -1
        assert phi_conjugate(out).matrix == block.matrix
    back = phi_conjugate(phi_conjugate(make_block("complex", sign=-1)))
    assert back.classification == "complex"
    with capsys.disabled():
        print("criterion 10: PASS: phi involutive, both transports exact, 500 samples")


def test_c11_integrability_exchange(capsys):
    blocks = [
        make_block("noncomplex", a=0, x=1, y=1),
        make_block("complex", sign=1),
        make_block("complex", sign=1),
    ]
    full_flag = isotropy_summands(build_root_system("A", 2), ())
    before = integrability_necessary(blocks, full_flag)
    assert before.ok
    assert before.component_types == [["symplectic"], ["complex"], ["complex"]]

    moved = [phi_conjugate(b) for b in blocks]
    one_component = isotropy_summands(build_root_system("A", 3), (1, 2))
    after = integrability_necessary(moved, one_component)
    assert not after.ok
    assert after.mixed_components == [0]
    assert after.component_types == [["complex", "symplectic", "symplectic"]]
    with capsys.disabled():
        print("criterion 11: PASS: uniform on the full flag, mixed after transport")


def test_c12_top_root_selfduality(capsys):
    rank2 = selfdual_flux(FlagSpec("A", 2))
    assert print_form(rank2.flux) == "e^{123}"
    assert rank2.admissibility.ok
    assert rank2.admissibility.failed_flags() == []
    assert rank2.selfdual is True

    rank3 = selfdual_flux(FlagSpec("A", 3))
    assert rank3.selfdual is None
    assert not rank3.admissibility.ok
    assert rank3.admissibility.details["closed"] == "dH = 2e^{1345}"
    with capsys.disabled():
        print("criterion 12: PASS: rank 2 self-dual, rank 3 reports dH != 0")
