"""Kernel for sparse exterior-form arithmetic, and the one number rule.

Term maps are plain dicts: strictly increasing tuples of 1-based basis
indices mapping to nonzero exact coefficients (int or Fraction).  Every
number from outside enters through ``exact`` or ``integers`` (``integer``
for one value): an int or Fraction subclass is stored as the plain value it
equals, and a bool, a float or any other type raises TypeError.

A sum of term maps accumulates freely, ``out[key] = out.get(key, 0) + c``,
and is settled once by ``settle``: a key whose sum is 0 leaves the map and
an integral value is stored as an int.  A key stays where it was first
written, even if its partial sum passed through 0.
"""

from collections.abc import Iterable, Mapping
from fractions import Fraction


def _norm(c):
    """c, with an integral Fraction reduced to the int it equals.

    Exact type tests: isinstance against Fraction, an ABC, costs an int
    several times the type test.  Kernel arithmetic yields only ints and
    plain Fractions (arithmetic on a Fraction subclass returns a plain
    Fraction), and ``exact`` lets no subclass value into a form.
    """
    if type(c) is int:
        return c
    if type(c) is Fraction and c.denominator == 1:
        return c.numerator
    return c


def exact(c):
    """c as a plain int when integral, else as a plain Fraction."""
    if type(c) is int:
        return c
    if type(c) is not Fraction:
        if isinstance(c, bool) or not isinstance(c, (int, Fraction)):
            raise TypeError("expected an int or Fraction, got %r (%s)" % (c, type(c).__name__))
        c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


def is_int(value):
    """Whether value is an int that is not a bool; subclasses count."""
    return type(value) is int or (isinstance(value, int) and not isinstance(value, bool))


def integer(value, what):
    if not is_int(value):
        raise TypeError("%s must be an integer, got %r" % (what, value))
    return int(value)


def integers(values, what):
    """A tuple of plain ints from an iterable that is not a mapping, read
    once: a refused iterable is named by the tuple read from it."""
    if type(values) is tuple:
        for v in values:
            if type(v) is not int:
                break
        else:
            return values
    if isinstance(values, Iterable) and not isinstance(values, Mapping):
        values = tuple(values)
        if all(map(is_int, values)):
            return tuple(map(int, values))
    raise TypeError("%s must be integers, got %r" % (what, values))


def merge_indices(left, right):
    """Merge two increasing index tuples, returning (merged, sign).

    sign is (-1)**inversions for the shuffle, or 0 on a repeated index.
    """
    merged = []
    inv = 0
    i, j = 0, 0
    ni, nj = len(left), len(right)
    while i < ni and j < nj:
        a, b = left[i], right[j]
        if a == b:
            return (), 0
        if a < b:
            merged.append(a)
            i += 1
        else:
            merged.append(b)
            inv += ni - i
            j += 1
    merged.extend(left[i:])
    merged.extend(right[j:])
    return tuple(merged), (-1 if inv & 1 else 1)


def settle(terms):
    """A new term map: ``terms`` without zeros, each value through ``_norm``."""
    return {key: _norm(c) for key, c in terms.items() if c}


def add_terms(a, b, sign=1):
    out = dict(a)
    for key, c in b.items():
        out[key] = out.get(key, 0) + sign * c
    return settle(out)


def scale_terms(a, c):
    if not c:
        return {}
    return {key: _norm(v * c) for key, v in a.items()}


def wedge_terms(a, b):
    out = {}
    for ka, ca in a.items():
        for kb, cb in b.items():
            key, sign = merge_indices(ka, kb)
            if sign:
                out[key] = out.get(key, 0) + sign * ca * cb
    return settle(out)


def interior_terms(x, a):
    out = {}
    for key, c in a.items():
        if x not in key:
            continue
        p = key.index(x)
        rest = key[:p] + key[p + 1:]
        out[rest] = out.get(rest, 0) + (-c if p & 1 else c)
    return settle(out)


def ce_terms(diffs, a):
    """Antiderivation extension of de^k = diffs[k-1] applied to a term map."""
    out = {}
    for key, c in a.items():
        for p, idx in enumerate(key):
            dterms = diffs[idx - 1]
            if not dterms:
                continue
            rest = key[:p] + key[p + 1:]
            cp = -c if p & 1 else c
            for dk, dc in dterms.items():
                merged, sign = merge_indices(dk, rest)
                if sign:
                    out[merged] = out.get(merged, 0) + sign * cp * dc
    return settle(out)
