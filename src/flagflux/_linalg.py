"""Sparse exact linear algebra over the rationals.

A row is a dict {column: int or Fraction}, zero entries ignored; columns are
any mutually comparable keys (slot indices, or the index tuples of form
terms).  One elimination, ``echelon``, serves rank and nullspace.  Each
incoming row is reduced only against the pivots of the columns it holds, so
blocks of a matrix that share no column never meet and fill-in stays inside
a block, in the spirit of structured Gaussian elimination (LaMacchia &
Odlyzko 1990).
"""

from fractions import Fraction

from ._kernel import _norm, settle


def _subtract(row, f, other):
    """row -= f * other, in place, dropping the entries that cancel."""
    for k, v in other.items():
        s = row.get(k, 0) - f * v
        if s:
            row[k] = _norm(s)
        else:
            del row[k]


def echelon(rows):
    """{pivot column: row} of an echelon form of the span of ``rows``.

    Each pivot row has its leading (smallest) column at its pivot, with
    coefficient 1; no two rows share a leading column.  Entries are ints and
    non-integral Fractions: an incoming integral Fraction is stored as its
    int.
    """
    pivots = {}
    for row in rows:
        row = settle(row)
        while row:
            col = min(row)
            pivot = pivots.get(col)
            if pivot is None:
                lead = row[col]
                if lead != 1:
                    row = {k: _norm(Fraction(v) / lead) for k, v in row.items()}
                pivots[col] = row
                break
            _subtract(row, row[col], pivot)
    return pivots


def rank(rows):
    return len(echelon(rows))


def nullspace(rows, columns):
    """Basis of the right kernel of ``rows`` over the column keys ``columns``:
    one sparse row per free column, read off the reduced row echelon form,
    keyed in increasing order (pivots before the free column, then it)."""
    pivots = echelon(rows)
    reduced = {}
    for col in sorted(pivots, reverse=True):
        row = pivots[col]
        for c in [c for c in row if c != col and c in reduced]:
            _subtract(row, row[c], reduced[c])
        reduced[col] = row
    increasing = sorted(reduced)
    basis = []
    for free in columns:
        if free in reduced:
            continue
        vec = {col: -reduced[col][free] for col in increasing if free in reduced[col]}
        vec[free] = 1
        basis.append(vec)
    return basis
