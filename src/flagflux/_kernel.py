"""Kernel for sparse exterior-form arithmetic.

Term maps are plain dicts: strictly increasing tuples of 1-based basis
indices mapping to nonzero exact coefficients (int or Fraction).
"""

from fractions import Fraction


def _norm(c):
    if isinstance(c, Fraction) and c.denominator == 1:
        return int(c)
    return c


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


def add_terms(a, b):
    out = dict(a)
    for key, c in b.items():
        s = out.get(key, 0) + c
        if s:
            out[key] = _norm(s)
        elif key in out:
            del out[key]
    return out


def scale_terms(a, c):
    if not c:
        return {}
    return {key: _norm(v * c) for key, v in a.items()}


def wedge_terms(a, b):
    out = {}
    for ka, ca in a.items():
        for kb, cb in b.items():
            key, sign = merge_indices(ka, kb)
            if sign == 0:
                continue
            s = out.get(key, 0) + sign * ca * cb
            if s:
                out[key] = _norm(s)
            elif key in out:
                del out[key]
    return out


def interior_terms(x, a):
    out = {}
    for key, c in a.items():
        if x not in key:
            continue
        p = key.index(x)
        rest = key[:p] + key[p + 1:]
        s = out.get(rest, 0) + (-c if p & 1 else c)
        if s:
            out[rest] = _norm(s)
        elif rest in out:
            del out[rest]
    return out


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
                if sign == 0:
                    continue
                s = out.get(merged, 0) + sign * cp * dc
                if s:
                    out[merged] = _norm(s)
                elif merged in out:
                    del out[merged]
    return out
