import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given

from flagflux import (
    build_root_system,
    classify_block,
    complex_matrix,
    integrability_necessary,
    isotropy_summands,
    make_block,
    noncomplex_matrix,
    phi_conjugate,
    phi_matrix,
    split_pairing,
)
from flagflux.gcs import block_from_json, identity_matrix, mat_mul, mat_neg

from conftest import b_transform, block_rationals, classify_block_oracle, gcs_blocks

F = Fraction


def transpose(m):
    return [list(col) for col in zip(*m)]


class TestBlockMatrices:
    def test_complex_plus(self):
        assert complex_matrix(1) == (
            (0, -1, 0, 0),
            (1, 0, 0, 0),
            (0, 0, 0, -1),
            (0, 0, 1, 0),
        )

    def test_complex_minus_is_negation(self):
        assert complex_matrix(-1) == mat_neg(complex_matrix(1))

    def test_complex_sign_validated(self):
        with pytest.raises(ValueError):
            complex_matrix(2)

    def test_noncomplex_layout(self):
        a, x, y = F(2), F(1), F(5)
        assert noncomplex_matrix(a, x, y) == (
            (a, 0, 0, -x),
            (0, a, x, 0),
            (0, -y, -a, 0),
            (y, 0, 0, -a),
        )

    def test_symplectic_point(self):
        # a=0, x=y=1 swaps each direction with its dual
        assert noncomplex_matrix(0, 1, 1) == (
            (0, 0, 0, -1),
            (0, 0, 1, 0),
            (0, -1, 0, 0),
            (1, 0, 0, 0),
        )

    def test_squares_to_minus_one_on_locus(self):
        for a, x in [(0, 1), (2, 1), (F(1, 2), F(5, 3)), (-3, F(2, 7))]:
            y = (F(a) ** 2 + 1) / F(x)
            m = noncomplex_matrix(a, x, y)
            assert mat_mul(m, m) == mat_neg(identity_matrix(4))


class TestPhi:
    def test_four_by_four(self):
        assert phi_matrix(1, 1) == (
            (1, 0, 0, 0),
            (0, 0, 0, -1),
            (0, 0, 1, 0),
            (0, -1, 0, 0),
        )

    @pytest.mark.parametrize("t", range(0, 7))
    @pytest.mark.parametrize("m", range(0, 7))
    def test_involution_and_orthogonality(self, t, m):
        if t + m == 0:
            with pytest.raises(ValueError):
                phi_matrix(t, m)
            return
        phi = phi_matrix(t, m)
        n = 2 * (t + m)
        assert mat_mul(phi, phi) == identity_matrix(n)
        # the two sign flips cancel against each other in the pairing
        g = split_pairing(t + m)
        assert mat_mul(transpose(phi), mat_mul(g, phi)) == g

    def test_negative_sizes_rejected(self):
        with pytest.raises(ValueError):
            phi_matrix(-1, 2)
        with pytest.raises(ValueError):
            split_pairing(-1)

    def test_pairing_shape(self):
        assert split_pairing(2) == (
            (0, 0, F(1, 2), 0),
            (0, 0, 0, F(1, 2)),
            (F(1, 2), 0, 0, 0),
            (0, F(1, 2), 0, 0),
        )


# every matrix gcs builds or returns, from its raw ingredients
MATRICES = [
    ("identity_matrix", lambda: identity_matrix(3)),
    ("complex_matrix", lambda: complex_matrix(-1)),
    ("noncomplex_matrix", lambda: noncomplex_matrix(F(1, 2), 1, F(5, 4))),
    ("phi_matrix", lambda: phi_matrix(2, 1)),
    ("split_pairing", lambda: split_pairing(2)),
    ("mat_mul", lambda: mat_mul(phi_matrix(1, 1), complex_matrix(1))),
    ("mat_neg", lambda: mat_neg(noncomplex_matrix(0, 1, 1))),
    ("make_block", lambda: make_block("noncomplex", a=2, x=1, y=5).matrix),
    ("phi_conjugate", lambda: phi_conjugate(make_block("complex", sign=1)).matrix),
    ("phi_conjugate of lists", lambda: phi_conjugate(list(map(list, complex_matrix(1)))).matrix),
]


@pytest.mark.parametrize(
    "build", [row[1] for row in MATRICES], ids=[row[0] for row in MATRICES]
)
def test_every_matrix_is_a_tuple_of_tuples(build):
    # one immutable type, so == compares any two and a matrix can be hashed
    m = build()
    assert type(m) is tuple and all(type(row) is tuple for row in m)
    hash(m)


class TestMakeBlock:
    def test_complex_kinds(self):
        b = make_block("complex", sign=-1)
        assert b.kind == "complex"
        assert b.matrix == complex_matrix(-1)

    def test_noncomplex_locus_enforced(self):
        make_block("noncomplex", a=0, x=1, y=1)
        with pytest.raises(ValueError):
            make_block("noncomplex", a=2, x=1, y=-5)

    def test_missing_noncomplex_parameter_is_named(self):
        with pytest.raises(TypeError, match="needs 'y'"):
            make_block("noncomplex", a=0, x=1)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            make_block("weird")

    def test_json_round_trip(self):
        blocks = [
            make_block("complex", sign=1),
            make_block("complex", sign=-1),
            make_block("noncomplex", a="2", x="1/2", y="10"),
            make_block("noncomplex", a=0, x=1, y=1),
        ]
        for b in blocks:
            assert block_from_json(b.to_json()) == b


class TestClassify:
    def test_complex(self):
        assert classify_block(complex_matrix(1)) == "complex"
        assert classify_block(complex_matrix(-1)) == "complex"

    def test_symplectic(self):
        assert classify_block(noncomplex_matrix(0, 1, 1)) == "symplectic"
        assert classify_block(noncomplex_matrix(0, F(1, 3), 3)) == "symplectic"

    def test_b_symplectic(self):
        assert classify_block(noncomplex_matrix(2, 1, 5)) == "B-symplectic"
        assert classify_block(noncomplex_matrix(F(1, 2), 1, F(5, 4))) == "B-symplectic"

    def test_other(self):
        # two opposite rotation blocks: squares to -1 but fits no pattern
        m = [[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]]
        assert classify_block(m) == "other"

    def test_wrong_shape_rejected(self):
        with pytest.raises(ValueError):
            classify_block([[1, 0], [0, 1]])

    def test_non_square_root_rejected(self):
        with pytest.raises(ValueError):
            classify_block(identity_matrix(4))


# Gualtieri's type of each name a block of the families can take
TYPE = {"complex": 1, "symplectic": 0, "B-symplectic": 0}


class TestTypeRule:
    @given(gcs_blocks())
    def test_matches_the_pattern_table(self, m):
        assert classify_block(m) == classify_block_oracle(m)

    def test_non_orthogonal_block_is_other(self):
        # squares to -1 with A = D = 0, but P = [[1, 1], [0, 1]] is not skew
        m = [[0, 0, 1, 1], [0, 0, 0, 1], [-1, 1, 0, 0], [0, -1, 0, 0]]
        assert mat_mul(m, m) == mat_neg(identity_matrix(4))
        assert classify_block(m) == "other"

    @given(gcs_blocks(), block_rationals)
    def test_b_transform_keeps_the_type(self, m, b):
        assert TYPE[classify_block(b_transform(m, b))] == TYPE[classify_block(m)]

    @given(gcs_blocks())
    def test_phi_takes_type_k_to_one_minus_k(self, m):
        assert TYPE[phi_conjugate(m).classification] == 1 - TYPE[classify_block(m)]


class TestTransport:
    def test_complex_goes_symplectic(self):
        moved = phi_conjugate(make_block("complex", sign=1))
        assert moved.classification == "symplectic"
        assert list(map(list, moved.matrix)) == [
            [0, 0, 0, 1],
            [0, 0, -1, 0],
            [0, 1, 0, 0],
            [-1, 0, 0, 0],
        ]

    def test_complex_minus_goes_symplectic(self):
        moved = phi_conjugate(make_block("complex", sign=-1))
        assert moved.classification == "symplectic"

    def test_symplectic_point_goes_complex(self):
        moved = phi_conjugate(make_block("noncomplex", a=0, x=1, y=1))
        assert moved.classification == "complex"

    def test_general_noncomplex_goes_complex(self):
        moved = phi_conjugate(make_block("noncomplex", a=2, x=1, y=5))
        assert moved.classification == "complex"
        assert list(map(list, moved.matrix)) == [
            [2, 1, 0, 0],
            [-5, -2, 0, 0],
            [0, 0, -2, 5],
            [0, 0, -1, 2],
        ]

    def test_transport_twice_restores(self):
        for b in (
            make_block("complex", sign=1),
            make_block("noncomplex", a=2, x=1, y=5),
        ):
            once = phi_conjugate(b)
            twice = phi_conjugate(once)
            assert twice.matrix == b.matrix

    def test_random_locus_sample(self):
        rng = random.Random(404)
        for _ in range(100):
            a = F(rng.randint(-9, 9), rng.randint(1, 9))
            x = F(rng.choice([n for n in range(-9, 10) if n]), rng.randint(1, 9))
            y = (a * a + 1) / x
            moved = phi_conjugate(make_block("noncomplex", a=a, x=x, y=y))
            assert moved.classification == "complex"
            assert phi_conjugate(moved).matrix == make_block(
                "noncomplex", a=a, x=x, y=y
            ).matrix


class TestSymbolicTransport:
    def test_conjugation_pattern(self):
        # mat_mul is duck typed, so sympy entries ride through unchanged
        a, x, y = sympy.symbols("a x y")
        j = [[a, 0, 0, -x], [0, a, x, 0], [0, -y, -a, 0], [y, 0, 0, -a]]
        phi = phi_matrix(1, 1)
        moved = mat_mul(phi, mat_mul(j, phi))
        expected = [
            [a, x, 0, 0],
            [-y, -a, 0, 0],
            [0, 0, -a, y],
            [0, 0, -x, a],
        ]
        for got_row, want_row in zip(moved, expected):
            for got, want in zip(got_row, want_row):
                assert sympy.simplify(got - want) == 0

    def test_square_on_constraint_surface(self):
        a, x, y = sympy.symbols("a x y")
        j = [[a, 0, 0, -x], [0, a, x, 0], [0, -y, -a, 0], [y, 0, 0, -a]]
        phi = phi_matrix(1, 1)
        moved = mat_mul(phi, mat_mul(j, phi))
        sq = mat_mul(moved, moved)
        for i, row in enumerate(sq):
            for k, v in enumerate(row):
                pinned = sympy.simplify(
                    sympy.expand(v).subs(y, (a**2 + 1) / x)
                )
                assert pinned == (-1 if i == k else 0)


class TestIntegrability:
    def test_full_flag_passes(self):
        summands = isotropy_summands(build_root_system("A", 2), ())
        blocks = [
            make_block("noncomplex", a=0, x=1, y=1),
            make_block("complex", sign=1),
            make_block("complex", sign=-1),
        ]
        report = integrability_necessary(blocks, summands)
        assert report.ok
        assert report.component_types == [["symplectic"], ["complex"], ["complex"]]
        assert report.mixed_components == []
        assert report.to_json()["ok"] is True

    def test_transported_blocks_mix_on_projective_space(self):
        blocks = [
            make_block("noncomplex", a=0, x=1, y=1),
            make_block("complex", sign=1),
            make_block("complex", sign=-1),
        ]
        moved = [phi_conjugate(b) for b in blocks]
        summands = isotropy_summands(build_root_system("A", 3), (1, 2))
        report = integrability_necessary(moved, summands)
        assert not report.ok
        assert report.component_types == [["complex", "symplectic", "symplectic"]]
        assert report.mixed_components == [0]

    def test_b_field_twist_folds_into_symplectic(self):
        # one dim-2 summand; B-symplectic and symplectic agree after folding
        summands = isotropy_summands(build_root_system("A", 2), (1,))
        assert [s.dim for s in summands] == [2]
        blocks = [
            make_block("noncomplex", a=2, x=1, y=5),
            make_block("noncomplex", a=0, x=1, y=1),
        ]
        report = integrability_necessary(blocks, summands)
        assert report.ok
        assert report.component_types == [["symplectic", "symplectic"]]

    def test_size_mismatch_rejected(self):
        summands = isotropy_summands(build_root_system("A", 2), ())
        with pytest.raises(ValueError):
            integrability_necessary([make_block("complex", sign=1)], summands)

    def test_accepts_raw_and_transported(self):
        summands = isotropy_summands(build_root_system("A", 2), (1,))
        blocks = [
            phi_conjugate(make_block("noncomplex", a=0, x=1, y=1)),
            make_block("complex", sign=1),
        ]
        report = integrability_necessary(blocks, summands)
        assert report.component_types == [["complex", "complex"]]
