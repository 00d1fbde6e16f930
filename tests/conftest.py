"""Shared strategies and independent oracles for the test suite.

The oracles reimplement the hot-path operations the slow, obvious way
(brute-force permutation signs, triple-bracket Jacobi sums) so the
kernel is checked against code that shares none of its shortcuts.
"""

import itertools
from fractions import Fraction

from hypothesis import strategies as st

from flagflux import Form, MalcevPresentation

coefficients = st.one_of(
    st.integers(min_value=-5, max_value=5),
    st.fractions(min_value=-3, max_value=3, max_denominator=6),
).filter(lambda c: c != 0)


@st.composite
def forms(draw, degree=2, max_index=6, max_terms=4):
    items = []
    for _ in range(draw(st.integers(min_value=0, max_value=max_terms))):
        idx = draw(
            st.lists(
                st.integers(min_value=1, max_value=max_index),
                min_size=degree,
                max_size=degree,
                unique=True,
            )
        )
        items.append((tuple(idx), draw(coefficients)))
    return Form.from_terms(degree, items)


@st.composite
def filtered_presentations(draw, max_dim=6):
    """Random strictly filtered tuples; Jacobi not imposed."""
    dim = draw(st.integers(min_value=1, max_value=max_dim))
    diffs = []
    for k in range(1, dim + 1):
        if k < 3:
            diffs.append(Form(2))
        else:
            diffs.append(draw(forms(2, max_index=k - 1, max_terms=2)))
    return MalcevPresentation(diffs)


def permutation_sign(seq):
    """Brute-force inversion count; 0 on a repeated entry."""
    sign = 1
    for i in range(len(seq)):
        for j in range(i + 1, len(seq)):
            if seq[i] == seq[j]:
                return 0
            if seq[i] > seq[j]:
                sign = -sign
    return sign


def wedge_oracle(f, g):
    out = []
    for a, ca in f.terms.items():
        for b, cb in g.terms.items():
            merged = a + b
            s = permutation_sign(merged)
            if s:
                out.append((tuple(sorted(merged)), s * ca * cb))
    return Form.from_terms(f.degree + g.degree, out)


def interior_oracle(x, f):
    out = []
    for key, c in f.terms.items():
        if x in key:
            p = key.index(x)
            out.append((key[:p] + key[p + 1 :], (-1) ** p * c))
    return Form.from_terms(f.degree - 1, out)


def bracket_oracle(p, i, j):
    """[e_i, e_j] as a coefficient vector, from the structure constants."""
    n = p.dim
    vec = [Fraction(0)] * (n + 1)
    if i == j:
        return vec
    consts = p.structure_constants()
    lo, hi, flip = (i, j, 1) if i < j else (j, i, -1)
    for (a, b, k), c in consts.items():
        if (a, b) == (lo, hi):
            vec[k] += flip * c
    return vec


def jacobi_oracle(p):
    """Triple-bracket Jacobi sums over all basis index triples."""
    n = p.dim
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            for k in range(j + 1, n + 1):
                total = [Fraction(0)] * (n + 1)
                for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
                    inner = bracket_oracle(p, a, b)
                    for m in range(1, n + 1):
                        if inner[m]:
                            outer = bracket_oracle(p, m, c)
                            for t in range(1, n + 1):
                                total[t] += inner[m] * outer[t]
                if any(total):
                    return False
    return True


def mask_dim_oracle(l, mask):
    """Flag dimension of the rank-l theta with this bit mask, by run lengths.

    A run of r consecutive theta entries is one block of r+1 and removes
    r(r+1)/2 of the l(l+1)/2 positive roots.
    """
    total = l * (l + 1) // 2
    run = 0
    for i in range(l):
        if (mask >> i) & 1:
            run += 1
        else:
            total -= run * (run + 1) // 2
            run = 0
    total -= run * (run + 1) // 2
    return total


def theta_dim_oracle(l):
    """{flag dimension: [theta tuples]} over all 2**l subsets, by ascending mask."""
    table = {}
    for mask in range(1 << l):
        theta = tuple(i + 1 for i in range(l) if (mask >> i) & 1)
        table.setdefault(mask_dim_oracle(l, mask), []).append(theta)
    return table


def rref_oracle(rows, ncols):
    """Dense reduced row echelon form; returns (new rows, pivot column list)."""
    mat = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = None
        for i in range(r, len(mat)):
            if mat[i][c]:
                pivot = i
                break
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        inv = 1 / mat[r][c]
        mat[r] = [x * inv for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c]:
                f = mat[i][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return mat, pivots


def nullspace_oracle(rows, ncols):
    """Right-kernel basis read off rref_oracle, one vector per free column."""
    mat, pivots = rref_oracle(rows, ncols)
    basis = []
    for free in range(ncols):
        if free in pivots:
            continue
        vec = [Fraction(0)] * ncols
        vec[free] = Fraction(1)
        for r, c in enumerate(pivots):
            vec[c] = -mat[r][free]
        basis.append(vec)
    return basis


def mahonian_oracle(m):
    """{k: number of permutations of m letters with k inversions}, by enumeration."""
    counts = {}
    for perm in itertools.permutations(range(m)):
        k = sum(a > b for a, b in itertools.combinations(perm, 2))
        counts[k] = counts.get(k, 0) + 1
    return counts


def kostant_oracle(blocks):
    """{k: dim H^k(n)} for the nilradical n of the type-A parabolic with these
    block sizes, by Kostant's theorem: H^k(n) is the sum of the Levi modules
    of highest weight w(rho) - rho over the w in W^P of length k.

    With rho = (m, ..., 1), W^P is the set of rearrangements mu = w(rho) that
    decrease strictly inside each block; the length of w is the number of
    pairs i < j with mu_i < mu_j, and Weyl's dimension formula on each
    GL-block gives the product of (mu_i - mu_j) / (rho_i - rho_j) over the
    pairs i < j of one block.
    """
    m = sum(blocks)
    rho = tuple(range(m, 0, -1))
    block_of = [b for b, size in enumerate(blocks) for _ in range(size)]
    same_block = [
        (i, j) for i, j in itertools.combinations(range(m), 2) if block_of[i] == block_of[j]
    ]
    dims = {}
    for mu in itertools.permutations(rho):
        if any(mu[i] < mu[j] for i, j in same_block):
            continue
        length = sum(a < b for a, b in itertools.combinations(mu, 2))
        dim = Fraction(1)
        for i, j in same_block:
            dim *= Fraction(mu[i] - mu[j], rho[i] - rho[j])
        dims[length] = dims.get(length, 0) + dim
    return dims
