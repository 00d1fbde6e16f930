"""Shared strategies and independent oracles for the test suite.

The oracles reimplement the hot-path operations the slow, obvious way
(brute-force permutation signs, triple-bracket Jacobi sums, whole root
systems) so the kernel is checked against code that shares none of its
shortcuts.
"""

import functools
import itertools
from fractions import Fraction

from hypothesis import strategies as st

from flagflux import FlagSpec, Form, MalcevPresentation, Root
from flagflux import ce_diff, fingerprint, iso_small, nilradical_presentation, print_form

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
def cyclic_forms(draw, max_index):
    """e^{ab} +- e^{ac} +- e^{bc} for some a < b < c <= max_index."""
    a, b, c = sorted(
        draw(
            st.lists(
                st.integers(min_value=1, max_value=max_index),
                min_size=3,
                max_size=3,
                unique=True,
            )
        )
    )
    s, t = draw(st.sampled_from([(1, 1), (1, -1), (-1, 1), (-1, -1)]))
    return Form(2, {(a, b): 1, (a, c): s, (b, c): t})


@st.composite
def filtered_presentations(draw, max_dim=6):
    """Random strictly filtered tuples; Jacobi not imposed.

    From de^4 on, an entry is sometimes a cyclic three-term form on three
    earlier slots (``cyclic_forms``): its ad rows make an antisymmetric
    block that a sign slip turns invertible, so a rank computed with the
    wrong sign differs.  Other entries have at most two terms.
    """
    dim = draw(st.integers(min_value=1, max_value=max_dim))
    diffs = []
    for k in range(1, dim + 1):
        if k < 3:
            diffs.append(Form(2))
        elif k > 3 and draw(st.booleans()):
            diffs.append(draw(cyclic_forms(k - 1)))
        else:
            diffs.append(draw(forms(2, max_index=k - 1, max_terms=2)))
    return MalcevPresentation(diffs)


def revalidated(f):
    """f rebuilt through the checking constructor, for results that were
    adopted without the check."""
    return Form(f.degree, dict(f.terms))


def assert_well_formed(f):
    """f holds what the checking constructor would store: it equals
    ``revalidated(f)``, each key has ``degree`` int indices strictly
    increasing from 1, and each coefficient is a nonzero int or a
    non-integral Fraction (equality alone misses Fraction(2, 1) for 2)."""
    assert f == revalidated(f)
    for key, c in f.terms.items():
        assert len(key) == f.degree, key
        assert all(type(i) is int for i in key), key
        assert all(a < b for a, b in zip((0,) + key, key)), key
        if type(c) is Fraction:
            assert c.denominator != 1, (key, c)
        else:
            assert type(c) is int and c != 0, (key, c)


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


def bracket_series_oracle(p, lower):
    """Dimensions of the lower central series [g, g_i] (lower=True) or of the
    derived series [g_i, g_i], down to 0, with dense vectors throughout.

    [u, v] = sum_ij u_i v_j [e_i, e_j] with each [e_i, e_j] from
    ``bracket_oracle``; a term is spanned by the brackets of every pair of
    its spanning vectors, and ``rref_oracle`` reduces those to a basis.
    """
    n = p.dim
    units = {
        (i - 1, j - 1): bracket_oracle(p, i, j)[1:]
        for i in range(1, n + 1)
        for j in range(1, n + 1)
    }

    def bracket(u, v):
        out = [Fraction(0)] * n
        for (i, j), unit in units.items():
            if u[i] and v[j]:
                for k in range(n):
                    out[k] += u[i] * v[j] * unit[k]
        return out

    whole = [[Fraction(int(i == k)) for i in range(n)] for k in range(n)]
    term, dims = whole, []
    while not dims or dims[-1]:
        rows = [bracket(u, v) for u in (whole if lower else term) for v in term]
        mat, pivots = rref_oracle(rows, n)
        term = mat[: len(pivots)]
        dims.append(len(pivots))
    return tuple(dims)


def center_dim_oracle(p):
    """Dimension of the center, from every bracket of two basis vectors.

    z = sum z_i e_i is central iff [z, e_j] = 0 for every j, so the center
    is the kernel of the dense n^2 x n matrix whose row (j, k) holds, in
    column i, the e_k coefficient of [e_i, e_j].
    """
    n = p.dim
    brackets = {
        (i, j): bracket_oracle(p, i, j) for i in range(1, n + 1) for j in range(1, n + 1)
    }
    rows = [
        [brackets[i, j][k] for i in range(1, n + 1)]
        for j in range(1, n + 1)
        for k in range(1, n + 1)
    ]
    _mat, pivots = rref_oracle(rows, n)
    return n - len(pivots)


def admissibility_oracle(t):
    """(flags, details) of every admissibility flag but invariant, one loop
    per flag, each stopping at its first failure."""
    ideal = set(t.ideal)
    details = {}

    ideal_ok = True
    for k, f in enumerate(t.algebra.differentials, start=1):
        if k in ideal:
            continue
        for key in f.terms:
            if any(i in ideal for i in key):
                ideal_ok = False
                details["ideal"] = (
                    "quotient differential contains ideal legs (de^%d)" % k
                )
                break
        if not ideal_ok:
            break

    abelian_ok = True
    for k in t.ideal:
        for key in t.algebra.differentials[k - 1].terms:
            if key[0] in ideal and key[1] in ideal:
                abelian_ok = False
                details["abelian"] = (
                    "de^%d has a term with both legs in the ideal" % k
                )
                break
        if not abelian_ok:
            break

    central_ok = True
    for k, f in enumerate(t.algebra.differentials, start=1):
        for key in f.terms:
            if any(i in ideal for i in key):
                central_ok = False
                details["central"] = "de^%d touches the ideal" % k
                break
        if not central_ok:
            break

    closure = ce_diff(t.algebra, t.flux)
    closed_ok = closure.is_zero()
    if not closed_ok:
        details["closed"] = "dH = %s" % print_form(closure)

    degenerate_ok = True
    for key in t.flux.terms:
        if sum(1 for i in key if i in ideal) > 1:
            degenerate_ok = False
            details["degenerate"] = "H term %s has two ideal legs" % print_form(
                Form(3, {key: 1})
            )
            break

    flags = {
        "ideal": ideal_ok,
        "abelian": abelian_ok,
        "central": central_ok,
        "closed": closed_ok,
        "degenerate": degenerate_ok,
    }
    return flags, details


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


@functools.lru_cache(maxsize=None)
def _theta_table(l):
    return {dim: tuple(thetas) for dim, thetas in theta_dim_oracle(l).items()}


def _blocks_oracle(l, theta):
    """Levi block sizes of the rank-l theta: a run of r theta entries joins
    r + 1 of the l + 1 cells into one block."""
    blocks = [1]
    for i in range(1, l + 1):
        if i in theta:
            blocks[-1] += 1
        else:
            blocks.append(1)
    return tuple(blocks)


def canonical_theta_oracle(l, theta):
    """Theta or its diagram flip, whichever has the larger block sequence;
    a flag and its flip are one manifold."""
    flipped = tuple(sorted(l + 1 - t for t in theta))
    blocks = _blocks_oracle(l, theta)
    return flipped if blocks[::-1] > blocks else theta


def find_targets_oracle(dual):
    """(targets, reason) of the target search, by brute force: ``targets`` is
    a list of (FlagSpec, witness) pairs.

    Every theta of every rank 1..dim is tried, from the 2**l masks of
    ``theta_dim_oracle``; a flag and its diagram flip count once, as the
    theta with the larger block sequence (``canonical_theta_oracle``).  Each
    candidate is built and its full fingerprint compared with a fresh copy
    of the dual's, and iso_small runs on the candidates whose fingerprints
    agree.
    """
    dim = dual.dim
    dual_fp = fingerprint(MalcevPresentation(dual.differentials))
    seen, targets = set(), []
    rejected = unconfirmed = 0
    for l in range(1, dim + 1):
        for theta in _theta_table(l).get(dim, ()):
            canon = canonical_theta_oracle(l, theta)
            if (l, canon) in seen:
                continue
            seen.add((l, canon))
            spec = FlagSpec("A", l, canon)
            cand, _legend = nilradical_presentation(spec)
            if fingerprint(cand) != dual_fp:
                rejected += 1
                continue
            iso = iso_small(cand, dual)
            if iso.witness is None:
                unconfirmed += 1
            else:
                targets.append((spec, iso.witness))
    if targets:
        return targets, None
    return targets, (
        "no parabolic nilradical, every rank searched, is isomorphic to the dual: "
        "%d candidates of dimension %d, %d rejected by invariant fingerprint, "
        "%d unconfirmed within search budget" % (len(seen), dim, rejected, unconfirmed)
    )


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


def positive_root_vectors_oracle(rank):
    """Coefficient vectors of the positive roots of A_rank, in root order.

    Every contiguous run of ones is a positive root; the vectors are sorted
    by height, then lexicographically largest first.
    """
    vectors = [
        tuple(1 if i <= k <= j else 0 for k in range(1, rank + 1))
        for i in range(1, rank + 1)
        for j in range(i, rank + 1)
    ]
    return sorted(vectors, key=lambda v: (sum(v), tuple(-c for c in v)))


def unit_of_vector_oracle(coeffs):
    """(row, col) of the matrix unit of alpha_i + ... + alpha_j: (i, j + 1)."""
    ones = [k for k, c in enumerate(coeffs, start=1) if c]
    assert ones == list(range(ones[0], ones[-1] + 1)), coeffs
    assert all(coeffs[k - 1] == 1 for k in ones), coeffs
    return ones[0], ones[-1] + 1


def weyl_bracket_oracle(a, b):
    """[E_a, E_b] on matrix units as a list of ((i, j), coefficient) pairs.

    [E_ij, E_kl] = delta_jk E_il - delta_li E_kj.
    """
    (i, j), (k, l) = a, b
    out = []
    if j == k:
        out.append(((i, l), 1))
    if l == i:
        out.append(((k, j), -1))
    return out


def nilradical_oracle(spec):
    """(presentation, legend, summands, complement) from the whole root system.

    Every positive root vector of A_rank is kept when its coefficients
    outside theta (its signature) are not all zero, the kept roots are
    grouped by signature in the summand order of ``isotropy_summands``, each
    vector is scanned into its matrix unit, and every pair of slots is
    bracketed.  Summands are (signature, roots) pairs.
    """
    free = [k for k in range(1, spec.rank + 1) if k not in spec.theta]
    by_sig, units = {}, {}
    for coeffs in positive_root_vectors_oracle(spec.rank):
        sig = tuple(coeffs[k - 1] for k in free)
        if any(sig):
            by_sig.setdefault(sig, []).append(coeffs)
            units[coeffs] = unit_of_vector_oracle(coeffs)

    def root(coeffs):
        return Root(*units[coeffs], spec.rank)

    complement = [root(c) for c in units]
    order = sorted(by_sig, key=lambda sig: (sum(sig), tuple(-c for c in sig)))
    summands = [(sig, [root(c) for c in by_sig[sig]]) for sig in order]
    legend_units = [units[c] for sig in order for c in by_sig[sig]]
    slot_of = {u: k for k, u in enumerate(legend_units, start=1)}
    constants = {}
    for a in range(1, len(legend_units) + 1):
        for b in range(a + 1, len(legend_units) + 1):
            for unit, c in weyl_bracket_oracle(legend_units[a - 1], legend_units[b - 1]):
                k = slot_of[unit]
                constants[(a, b, k)] = constants.get((a, b, k), 0) + c
    diffs = [dict() for _ in legend_units]
    for (a, b, k), c in constants.items():
        if c:
            diffs[k - 1][(a, b)] = -c
    legend = [r for _sig, roots in summands for r in roots]
    return MalcevPresentation([Form(2, d) for d in diffs]), legend, summands, complement


def parabolic_fields_oracle(spec):
    """Fingerprint fields but d2_rank of a type-A flag's nilradical, by
    closing sets of matrix units under the bracket.

    The nilradical is spanned by the units E_ij, i < j, whose rows i and j
    lie in different Levi blocks.  The bracket of two units is a signed unit
    or 0 (``weyl_bracket_oracle``), so the bracket of two spans of units is
    the span of the units their pairs bracket to, and every term of both
    series is a set of units.  The center is torus-stable, hence the set of
    units that bracket to nothing, and the rank of d on 1-forms is
    dim [n, n].
    """
    units = {
        (i, j)
        for i in range(1, spec.rank + 2)
        for j in range(i + 1, spec.rank + 2)
        if any(k not in spec.theta for k in range(i, j))
    }

    def bracket(left, right):
        return {u for a in left for b in right for u, _c in weyl_bracket_oracle(a, b)}

    def series(lower):
        dims, term = [], units
        while not dims or dims[-1]:
            term = bracket(units if lower else term, term)
            dims.append(len(term))
        return tuple(dims)

    lcs = series(lower=True)
    return {
        "dim": len(units),
        "abelian": lcs[0] == 0,
        "lcs_dims": lcs,
        "derived_dims": series(lower=False),
        "center_dim": sum(1 for u in units if not bracket({u}, units)),
        "d1_rank": lcs[0],
    }
