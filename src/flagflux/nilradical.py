"""Nilradical Malcev presentations from matrix-unit structure constants.

The nilradical of a type-A parabolic is the span of the complementary
positive root spaces, realized concretely as strictly upper-triangular
matrix units E_ij.  Basis order is summand-then-root order, which makes
every bracket land in a strictly later slot.

The slots come from the Levi blocks of theta (``isotropy_summands``), and
each slot's Root is its matrix unit.  [E_ij, E_kl] = delta_jk E_il -
delta_li E_kj is nonzero only when j == k or l == i, so a slot is bracketed
only with the slots whose unit starts at its column or ends at its row:
each pair tried gives one structure constant, and the cost follows the
size of the presentation, not the square of its dimension.

Most of the fingerprint of n = sum_{p<q} Hom(V_q, V_p) follows from the
block sizes b_1..b_k alone (``parabolic_fields``).  The product of the full
blocks n_pq and n_qr spans the whole block n_pr, so the bracket of the
blocks of gap >= g with those of gap >= h is the sum of the blocks of gap
>= g + h.  With a(g) = sum_{q-p >= g} b_p b_q:

    dim = a(1), abelian iff k <= 2,
    d1_rank = dim [n, n] = a(2), center_dim = b_1 b_k,
    lcs_dims = (a(2), a(3), ...) and derived_dims = (a(2), a(4), a(8), ...),
    each down to its first 0.

The center is spanned by root vectors, and a unit of n_pq brackets a unit
of n_(p-1)p or of n_q(q+1) to a nonzero one unless p = 1 and q = k, so the
center is the corner block n_1k.  The rank of d on 1-forms is the rank of
the structure constants, which is dim [n, n].

``parabolic_fields`` yields the fields in the order above, not in
fingerprint order: d1_rank and center_dim cost the other side of a
comparison one sparse rank each, while the two series cost it a round of
brackets per entry, so a candidate that differs from the dual in a cheap
field never makes the dual compute a series.
"""

from collections import namedtuple

from .exterior import Form, MalcevPresentation, ce_diff
from .rootsys import _summands

__all__ = [
    "JacobiReport",
    "nilradical_presentation",
    "jacobi_check",
    "legend_to_json",
]

JacobiReport = namedtuple("JacobiReport", ["ok", "failing_index", "residual"])


def nilradical_presentation(spec):
    """Malcev presentation of the nilradical plus its basis legend.

    Returns (presentation, legend) with legend[k-1] the Root spanned by
    the k-th basis vector.

    Examples::

        >>> from .rootsys import FlagSpec
        >>> from .exterior import print_malcev
        >>> p, _ = nilradical_presentation(FlagSpec("A", 2))
        >>> print_malcev(p)
        '(0,0,-e^{12})'
    """
    legend = [r for s in _summands(spec.rank, spec.theta) for r in s.roots]
    slot_of = {(r.row, r.col): k for k, r in enumerate(legend, start=1)}
    starting_at, ending_at = {}, {}
    for k, r in enumerate(legend, start=1):
        starting_at.setdefault(r.row, []).append((k, r.col))
        ending_at.setdefault(r.col, []).append((k, r.row))
    diffs = [dict() for _ in legend]
    # d e^k = -sum c^k_ab e^ab.  The partners of one slot a land in distinct
    # slots, so ascending a puts each differential's terms in pair order,
    # which _solve_signs reads; sums of complementary roots stay complementary
    for a, r in enumerate(legend, start=1):
        i, j = r.row, r.col
        for b, l in starting_at.get(j, ()):
            if b > a:  # [E_ij, E_jl] = E_il
                diffs[slot_of[i, l] - 1][(a, b)] = -1
        for b, k in ending_at.get(i, ()):
            if b > a:  # [E_ij, E_ki] = -E_kj
                diffs[slot_of[k, j] - 1][(a, b)] = 1
    # each key (a, b) has a < b and a +-1 value, and each bracket lands in a
    # later slot, so the forms and their filtration hold by construction
    return MalcevPresentation._adopt([Form._adopt(2, d) for d in diffs]), legend


def parabolic_fields(blocks):
    """(name, value) fingerprint fields of the nilradical with these Levi
    block sizes, read off the blocks alone (see the module docstring).

    Yields dim, abelian, d1_rank, center_dim, lcs_dims and derived_dims, in
    that order, cheapest first for the other side of a comparison.  Never
    yields d2_rank, and stops after "abelian" when there are at most two
    blocks: two abelian algebras of one dimension are equal presentations,
    so no further field can tell them apart.

    Examples::

        >>> dict(parabolic_fields((1, 1, 1)))["lcs_dims"]
        (1, 0)
    """
    k = len(blocks)

    def a(gap):
        return sum(blocks[p] * blocks[q] for p in range(k) for q in range(p + gap, k))

    def series(step):
        dims, gap = [], 2
        while not dims or dims[-1]:
            dims.append(a(gap))
            gap = step(gap)
        return tuple(dims)

    yield "dim", a(1)
    yield "abelian", k <= 2
    if k <= 2:
        return
    yield "d1_rank", a(2)
    yield "center_dim", blocks[0] * blocks[-1]
    yield "lcs_dims", series(lambda gap: gap + 1)
    yield "derived_dims", series(lambda gap: 2 * gap)


def jacobi_check(p):
    """d after d on every basis covector; reports the first failure."""
    for k in range(1, p.dim + 1):
        residual = ce_diff(p, p.differentials[k - 1])
        if not residual.is_zero():
            return JacobiReport(False, k, residual)
    return JacobiReport(True, None, None)


def legend_to_json(legend):
    return [
        {"slot": k, "root": list(r.coeffs), "matrix_unit": list(r.matrix_unit())}
        for k, r in enumerate(legend, start=1)
    ]
