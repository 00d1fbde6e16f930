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
"""

from collections import namedtuple

from .exterior import Form, MalcevPresentation, ce_diff
from .rootsys import UnsupportedSeriesError, _summands

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
    if spec.series != "A":
        raise UnsupportedSeriesError("only series A is supported, got %r" % spec.series)
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
    return MalcevPresentation([Form(2, d) for d in diffs]), legend


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
