"""Nilradical Malcev presentations from matrix-unit structure constants.

The nilradical of a type-A parabolic is the span of the complementary
positive root spaces, realized concretely as strictly upper-triangular
matrix units E_ij.  Basis order is summand-then-root order, which makes
every bracket land in a strictly later slot.

The slots are the matrix units of the Levi blocks of theta, read off the
block sizes alone (``rootsys._summand_units``, which also orders the
isotropy summands).  ``nilradical_presentation`` makes a Root for each
slot only for the legend it returns; the target search builds a candidate
from its blocks with ``_nilradical``, which makes no Root and no legend.

[E_ij, E_kl] = delta_jk E_il - delta_li E_kj is nonzero only when j == k
or l == i, so a slot is bracketed only with the slots whose unit starts at
its column or ends at its row: each pair tried gives one structure
constant, and the cost follows the size of the presentation, not the
square of its dimension.

Most of the fingerprint of n = sum_{p<q} Hom(V_q, V_p) follows from the
block sizes b_1..b_k alone; the ``blocks`` column of ``tduality._FIELDS``
reads it off with these formulas (``rootsys._gap_dim``, ``_block_series``).
The product of the full blocks n_pq and n_qr spans the whole block n_pr,
so the bracket of the blocks of gap >= g with those of gap >= h is the sum
of the blocks of gap >= g + h.  With a(g) = sum_{q-p >= g} b_p b_q:

    dim = a(1), abelian iff k <= 2,
    d1_rank = dim [n, n] = a(2), center_dim = b_1 b_k,
    lcs_dims = (a(2), a(3), ...) and derived_dims = (a(2), a(4), a(8), ...),
    each down to its first 0.

The center is spanned by root vectors, and a unit of n_pq brackets a unit
of n_(p-1)p or of n_q(q+1) to a nonzero one unless p = 1 and q = k, so the
center is the corner block n_1k.  The rank of d on 1-forms is the rank of
the structure constants, which is dim [n, n].
"""

from collections import namedtuple

from ._kernel import ce_terms
from .exterior import Form, MalcevPresentation
from .rootsys import Root, _summand_units

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
    p, units = _nilradical(spec.blocks)
    return p, [Root(i, j, spec.rank) for i, j in units]


def _nilradical(blocks):
    """(presentation, units) of the nilradical with these Levi blocks, where
    units[k-1] is the matrix unit (row, col) of slot k, in summand-then-root
    order (``rootsys._summand_units``).  The presentation is marked Lie
    (``_invariants["lie"]``), so AdmissibleTriple does not recheck it."""
    units = [u for _p, _q, summand in _summand_units(blocks) for u in summand]
    slot_of = {u: k for k, u in enumerate(units, start=1)}
    starting_at, ending_at = {}, {}
    for k, (i, j) in enumerate(units, start=1):
        starting_at.setdefault(i, []).append((k, j))
        ending_at.setdefault(j, []).append((k, i))
    diffs = [dict() for _ in units]
    # d e^k = -sum c^k_ab e^ab.  The partners of one slot a land in distinct
    # slots, so ascending a puts each differential's terms in pair order,
    # which _solve_signs reads; sums of complementary roots stay complementary
    for a, (i, j) in enumerate(units, start=1):
        for b, l in starting_at.get(j, ()):
            if b > a:  # [E_ij, E_jl] = E_il
                diffs[slot_of[i, l] - 1][(a, b)] = -1
        for b, k in ending_at.get(i, ()):
            if b > a:  # [E_ij, E_ki] = -E_kj
                diffs[slot_of[k, j] - 1][(a, b)] = 1
    p = MalcevPresentation([Form(2, d) for d in diffs])
    p._invariants["lie"] = True  # the brackets are matrix commutators
    return p, units


def jacobi_check(p):
    """d(de^k) for k = 1..dim, on the kernel's term maps; reports the first
    nonzero one, as a 3-form, the only form this builds."""
    for k, dterms in enumerate(p._dterms, start=1):
        residual = ce_terms(p._dterms, dterms)
        if residual:
            return JacobiReport(False, k, Form(3, residual))
    return JacobiReport(True, None, None)


def legend_to_json(legend):
    return [
        {"slot": k, "root": list(r.coeffs), "matrix_unit": list(r.matrix_unit())}
        for k, r in enumerate(legend, start=1)
    ]
