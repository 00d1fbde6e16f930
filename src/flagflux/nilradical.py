"""Nilradical Malcev presentations from matrix-unit structure constants.

The nilradical of a type-A parabolic is the span of the complementary
positive root spaces, realized concretely as strictly upper-triangular
matrix units E_ij.  Basis order is summand-then-root order, which makes
every bracket land in a strictly later slot.

The slots come from the Levi blocks of theta (``isotropy_summands``).
[E_ij, E_kl] is nonzero only when j == k or l == i, so a slot is bracketed
only with the slots whose unit starts at its column or ends at its row:
each pair tried gives one structure constant, and the cost follows the
size of the presentation, not the square of its dimension.
"""

from collections import namedtuple

from .exterior import Form, MalcevPresentation, ce_diff
from .rootsys import UnsupportedSeriesError, _summands

__all__ = [
    "WeylConstants",
    "JacobiReport",
    "nilradical_presentation",
    "jacobi_check",
    "legend_to_json",
]

JacobiReport = namedtuple("JacobiReport", ["ok", "failing_index", "residual"])


class WeylConstants:
    """Bracket table on the matrix units E_ij, i < j <= rank+1.

    [E_ij, E_kl] = delta_jk E_il - delta_li E_kj; for strictly
    upper-triangular arguments at most one delta can fire.
    """

    def __init__(self, rank):
        self.rank = rank
        self.size = rank + 1

    def units(self):
        return [
            (i, j)
            for i in range(1, self.size + 1)
            for j in range(i + 1, self.size + 1)
        ]

    def bracket(self, a, b):
        """[E_a, E_b] as a list of ((i, j), coefficient) pairs."""
        (i, j), (k, l) = a, b
        out = []
        if j == k:
            out.append(((i, l), 1))
        if l == i:
            out.append(((k, j), -1))
        return out


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
    units = [r.matrix_unit() for r in legend]
    slot_of = {u: k for k, u in enumerate(units, start=1)}
    starting_at, ending_at = {}, {}
    for k, (i, j) in enumerate(units, start=1):
        starting_at.setdefault(i, []).append(k)
        ending_at.setdefault(j, []).append(k)
    weyl = WeylConstants(spec.rank)
    diffs = [dict() for _ in legend]
    # the partners of one slot a land in distinct slots, so ascending a
    # puts each differential's terms in pair order, which _solve_signs reads
    for a, (i, j) in enumerate(units, start=1):
        for b in starting_at.get(j, []) + ending_at.get(i, []):
            if b > a:
                for unit, c in weyl.bracket((i, j), units[b - 1]):
                    # sums of complementary roots stay complementary
                    diffs[slot_of[unit] - 1][(a, b)] = -c
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
