"""Shared strategies and independent oracles for the test suite.

The oracles reimplement the hot-path operations the slow, obvious way
(brute-force permutation signs, triple-bracket Jacobi sums, whole root
systems) so the kernel is checked against code that shares none of its
shortcuts.
"""

import collections
import functools
import itertools
from fractions import Fraction

from hypothesis import assume
from hypothesis import strategies as st

from flagflux import AdmissibleTriple, BasisChange, FlagSpec, Form, IsoResult, MalcevPresentation
from flagflux import Root, ce_diff, check_admissible, compare_fingerprints, dualize, fingerprint
from flagflux import iso_small, jacobi_check, wedge
from flagflux import make_block, nilradical_presentation, phi_conjugate, print_form, tduality
from flagflux.gcs import identity_matrix, mat_mul, mat_neg

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


def _touched_abelian_ideals(p):
    """Every set of slots of p that is an abelian ideal some ideal
    differential touches: no quotient differential has a leg in it, no term
    of an ideal differential has two, and some has one."""
    found = []
    for size in range(1, p.dim + 1):
        for ideal in itertools.combinations(range(1, p.dim + 1), size):
            legs = [
                (k in ideal, sum(i in ideal for i in key))
                for k, f in enumerate(p.differentials, start=1)
                for key in f.terms
            ]
            if all(n <= own for own, n in legs) and any(own and n for own, n in legs):
                found.append(ideal)
    return found


@st.composite
def non_central_triples(draw):
    """An admissible triple whose abelian ideal an ideal differential
    touches, on a flag nilradical of A2..A4 or a Lie algebra from
    ``filtered_presentations``; the flux is a sum of up to two closed
    3-forms with at most one ideal leg per term
    (``tduality._closed_forms``)."""
    if draw(st.booleans()):
        l = draw(st.integers(min_value=2, max_value=4))
        theta = draw(st.sets(st.integers(min_value=1, max_value=l), max_size=l - 1))
        p, _ = nilradical_presentation(FlagSpec("A", l, tuple(sorted(theta))))
    else:
        p = draw(filtered_presentations().filter(lambda p: jacobi_check(p).ok))
    ideals = _touched_abelian_ideals(p)
    assume(ideals)
    ideal = draw(st.sampled_from(ideals))
    keys = [
        key
        for key in itertools.combinations(range(1, p.dim + 1), 3)
        if sum(i in ideal for i in key) <= 1
    ]
    closed = tduality._closed_forms(p, keys) if keys else []
    flux = Form(3)
    if closed:
        for f in draw(st.lists(st.sampled_from(closed), max_size=2)):
            flux = flux + draw(coefficients) * f
    t = AdmissibleTriple(p, ideal, flux)
    assume(check_admissible(t).ok)
    return t


def settle_oracle(pairs):
    """The settled sum of (key, value) pairs: summed in a defaultdict of
    Fractions, zero sums dropped, integral sums as ints."""
    sums = collections.defaultdict(Fraction)
    for key, c in pairs:
        sums[key] += c
    return {key: int(c) if c.denominator == 1 else c for key, c in sums.items() if c}


def assert_well_formed(f):
    """f holds what the checking constructor would store: rebuilt through it,
    nothing changes, each key has ``degree`` int indices strictly increasing
    from 1, and each coefficient is a nonzero int or a non-integral Fraction
    (equality alone misses Fraction(2, 1) for 2)."""
    assert f == Form(f.degree, dict(f.terms))
    for key, c in f.terms.items():
        assert len(key) == f.degree, key
        assert all(type(i) is int for i in key), key
        assert all(a < b for a, b in zip((0,) + key, key)), key
        if type(c) is Fraction:
            assert c.denominator != 1, (key, c)
        else:
            assert type(c) is int and c != 0, (key, c)


def d_columns_oracle(p, keys):
    """The matrix of d on the basis forms e^key through the public forms:
    ``ce_diff`` of each checked basis form, read back as its term map."""
    return [ce_diff(p, Form(len(key), {key: 1})).terms for key in keys]


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
    """Triple-bracket Jacobi sums over all basis index triples, from a table
    of the nonzero entries of every [e_a, e_b] (``bracket_oracle``)."""
    n = p.dim
    table = {
        (a, b): {t: v for t, v in enumerate(bracket_oracle(p, a, b)) if v}
        for a in range(1, n + 1)
        for b in range(1, n + 1)
    }
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            for k in range(j + 1, n + 1):
                total = {}
                for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
                    for m, x in table[a, b].items():
                        for t, y in table[m, c].items():
                            total[t] = total.get(t, 0) + x * y
                if any(total.values()):
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


@functools.lru_cache(maxsize=None)
def _completes_oracle(cells, squares):
    """Whether a composition of ``cells`` has block squares summing to ``squares``."""
    if not cells <= squares <= cells * cells:
        return False
    return cells == 0 or any(
        _completes_oracle(cells - b, squares - b * b) for b in range(1, cells + 1)
    )


def blocks_of_dim_oracle(l, dim):
    """Block sizes of the rank-l flags of dimension dim, in the order the
    target search lists a rank's flags, by a walk that enters only states
    known to complete.

    Each (cells, squares) state is decided by recursion over every block
    that could come next, memoized, so the walk never enters a dead state;
    the output order is the search's (last block first, smallest first), and
    a flag is kept in its larger orientation.
    """
    found = []

    def walk(cells, squares, blocks):
        if not cells:
            if blocks >= blocks[::-1]:
                found.append(blocks)
            return
        for b in range(1, cells + 1):
            if _completes_oracle(cells - b, squares - b * b):
                walk(cells - b, squares - b * b, (b,) + blocks)

    walk(l + 1, (l + 1) ** 2 - 2 * dim, ())
    return found


def find_targets_oracle(dual):
    """(targets, reason, unconfirmed) of the target search, by brute force:
    ``targets`` is a list of (FlagSpec, witness) pairs and ``unconfirmed``
    one of (FlagSpec, iso_small reason) pairs.

    Every theta of every rank 1..dim is tried, from the 2**l masks of
    ``theta_dim_oracle``; a flag and its diagram flip count once, as the
    theta with the larger block sequence (``canonical_theta_oracle``).  Each
    candidate is built and its full fingerprint compared with a fresh copy
    of the dual's, and iso_small runs on the candidates whose fingerprints
    agree.
    """
    dim = dual.dim
    dual_fp = fingerprint(MalcevPresentation(dual.differentials))
    seen, targets, unconfirmed = set(), [], []
    rejected = 0
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
                unconfirmed.append((spec, iso.reason))
            else:
                targets.append((spec, iso.witness))
    if targets:
        return targets, None, unconfirmed
    return targets, (
        "no parabolic nilradical, every rank searched, is isomorphic to the dual: "
        "%d candidates of dimension %d, %d rejected by invariant fingerprint, "
        "%d unconfirmed within search budget" % (len(seen), dim, rejected, len(unconfirmed))
    ), unconfirmed


def weight_layers_oracle(p):
    """Lower-central-style weight of each slot, from the differentials: 1
    for a closed slot, else 1 + the largest min(w_i, w_j) of its terms."""
    weights = {}
    for k in range(1, p.dim + 1):
        f = p.differentials[k - 1]
        if f.is_zero():
            weights[k] = 1
        else:
            weights[k] = 1 + max(min(weights[i], weights[j]) for i, j in f.terms)
    return weights


def iso_oracle(p, q, budget=tduality.ISO_BUDGET):
    """iso_small's answer by plain backtracking over weight-keeping perms.

    The fingerprint first, as in iso_small.  Then q's slots in slot order,
    each trying p's unused slots of its weight (``weight_layers_oracle``) in
    ascending order, so the leaves come in lexicographic perm order; at each
    leaf ``_solve_signs`` looks for signs that transport p's constants onto
    q's, and more than ``budget`` leaves is inconclusive.  Layers of unequal
    sizes leave no leaf, so the search ends without a witness, as
    iso_small's refinement does at the root.
    """
    equal, field = compare_fingerprints(p, q)
    if not equal:
        return IsoResult(None, True, "fingerprint differs: %s" % field)
    n = p.dim
    wp, wq = weight_layers_oracle(p), weight_layers_oracle(q)
    perm = [0] * n

    def leaves(slot_q):
        if slot_q > n:
            yield
            return
        for slot_p in range(1, n + 1):
            if wp[slot_p] == wq[slot_q] and slot_p not in perm[: slot_q - 1]:
                perm[slot_q - 1] = slot_p
                yield from leaves(slot_q + 1)

    source = p.structure_constants()
    target = q.structure_constants()
    for tried, _ in enumerate(leaves(1), start=1):
        if tried > budget:
            return IsoResult(None, False, "budget exhausted after %d candidates" % budget)
        moved = tduality._transported_constants(source, perm, (1,) * n)
        signs = tduality._solve_signs(n, moved, target)
        if signs is not None:
            return IsoResult(BasisChange(tuple(perm), signs), False, "signed monomial")
    return IsoResult(None, False, "search space exhausted without witness")


@st.composite
def signed_relabellings(draw, p):
    """A signed relabelling of p's slots that keeps the Malcev filtration:
    the new order places each slot after every slot its differential names."""
    needs = {k: {i for key in f.terms for i in key} for k, f in enumerate(p.differentials, 1)}
    perm = []
    while len(perm) < p.dim:
        ready = [k for k in sorted(needs) if needs[k] <= set(perm)]
        k = draw(st.sampled_from(ready))
        perm.append(k)
        del needs[k]
    signs = draw(st.lists(st.sampled_from([1, -1]), min_size=p.dim, max_size=p.dim))
    return BasisChange(tuple(perm), tuple(signs))


@st.composite
def unitriangular_copies(draw, p):
    """p in the coframe eps^k = e^k + sum_{m<k} a_km e^m, with small int
    a_km: an isomorphic copy that is in general no signed relabelling of p.

    d eps^k = de^k + sum_{m<k} a_km de^m names e slots below k only, and
    each e^i is eps^i minus the a_im e^m below it, so rewritten in eps it
    still names slots below k: the checked constructor's filtration holds.
    """
    n = p.dim
    a = {(k, m): draw(st.integers(min_value=-2, max_value=2)) for k in range(1, n + 1)
         for m in range(1, k)}
    e = []  # e^i in the eps coframe
    for i in range(1, n + 1):
        f = Form.basis(i)
        for m in range(1, i):
            f = f - a[i, m] * e[m - 1]
        e.append(f)
    diffs = []
    for k in range(1, n + 1):
        d = p.differentials[k - 1]
        for m in range(1, k):
            d = d + a[k, m] * p.differentials[m - 1]
        eps = Form(2)
        for (i, j), c in d.terms.items():
            eps = eps + c * wedge(e[i - 1], e[j - 1])
        diffs.append(eps)
    return MalcevPresentation(diffs)


def fingerprint_tie_dual():
    """The dual triple of n(2,5,2) along its corner block, with H = 0.

    Correspond on it dualizes back to n(2,5,2), whose fingerprint ties with
    that of n(4,4,1), a different algebra (dim Der 112 against 152) that
    iso_small cannot decide: no signed monomial map joins them, and that
    proves nothing about other isomorphisms.
    """
    p, _legend = nilradical_presentation(FlagSpec("A", 8, (1, 3, 4, 5, 6, 8)))
    return dualize(AdmissibleTriple(p, (21, 22, 23, 24), Form.zero(3))).dual


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


def _is_zero_block(m, rows, cols):
    return all(m[i][j] == 0 for i in rows for j in cols)


def classify_block_oracle(matrix):
    """Name the type of a 4x4 block squaring to -1.

    complex:      [[A, 0], [0, -A^T]] in the 2+2 split
    symplectic:   block-antidiagonal [[0, B], [C, 0]]
    B-symplectic: symplectic twisted by a B-field, the a*I diagonal family
    other:        anything else

    The zero-pattern table ``gcs.classify_block`` used before the type rule.
    It never checks that the block is orthogonal for the split pairing, so
    it agrees with the rule only on blocks that are.
    """
    m = [list(row) for row in matrix]
    if len(m) != 4 or any(len(row) != 4 for row in m):
        raise ValueError("expected a 4x4 matrix")
    if mat_mul(m, m) != mat_neg(identity_matrix(4)):
        raise ValueError("block does not square to -1")
    top = range(2)
    bot = range(2, 4)
    b_zero = _is_zero_block(m, top, bot)
    c_zero = _is_zero_block(m, bot, top)
    if b_zero and c_zero:
        a = [[m[i][j] for j in range(2)] for i in range(2)]
        d = [[m[i][j] for j in range(2, 4)] for i in range(2, 4)]
        neg_at = [[-a[j][i] for j in range(2)] for i in range(2)]
        if d == neg_at:
            return "complex"
        return "other"
    a_zero = _is_zero_block(m, top, top)
    d_zero = _is_zero_block(m, bot, bot)
    if a_zero and d_zero:
        return "symplectic"
    a00 = m[0][0]
    diag_a = (
        m[0][1] == 0
        and m[1][0] == 0
        and m[1][1] == a00
        and m[2][2] == -a00
        and m[2][3] == 0
        and m[3][2] == 0
        and m[3][3] == -a00
        and a00 != 0
    )
    if diag_a:
        anti_b = m[0][2] == 0 and m[1][3] == 0 and m[0][3] == -m[1][2]
        anti_c = m[2][0] == 0 and m[3][1] == 0 and m[2][1] == -m[3][0]
        if anti_b and anti_c:
            return "B-symplectic"
    return "other"


def b_transform(m, b):
    """e^B m e^{-B} for the B-field b * [[0, 1], [-1, 0]] on (V, V*)."""

    def exp(c):
        return [[1, 0, 0, 0], [0, 1, 0, 0], [0, c, 1, 0], [-c, 0, 0, 1]]

    return mat_mul(exp(b), mat_mul(m, exp(-b)))


block_rationals = st.fractions(min_value=-3, max_value=3, max_denominator=6)


@st.composite
def gcs_blocks(draw):
    """A per-root block as a matrix: a complex block of either sign, or a
    noncomplex one with rational a and x != 0 (y = (a**2 + 1) / x); then,
    each half the time, its phi-conjugate and its B-transform."""
    if draw(st.booleans()):
        block = make_block("complex", sign=draw(st.sampled_from([1, -1])))
    else:
        a = draw(block_rationals)
        x = draw(block_rationals.filter(bool))
        block = make_block("noncomplex", a=a, x=x, y=(a * a + 1) / x)
    if draw(st.booleans()):
        block = phi_conjugate(block)
    m = block.matrix
    if draw(st.booleans()):
        m = b_transform(m, draw(block_rationals))
    return m
