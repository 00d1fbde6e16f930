"""Admissible triples, infinitesimal T-dualization and its certificate.

Dualizing (g, a, H) along an abelian ideal a keeps the quotient slots of
the presentation and turns each ideal slot k into a new covector z^k with
dz^k the contraction of H by x_k.  The dual flux is

    H_dual = sum_k z^k wedge (old de^k) + delta,

delta being the part of H free of ideal legs; ideal legs inside old de^k
are reread as z legs, which is what makes the bookkeeping slot stable.
The duality certificate rebuilds the correspondence algebra and verifies
pullback(H) - pullback(H_dual) = dF exactly.
"""

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from ._linalg import echelon, nullspace, rank
from .exterior import Form, MalcevPresentation, ce_diff, interior, print_form, wedge

__all__ = [
    "AdmissibleTriple",
    "AdmissibilityReport",
    "SlotMap",
    "DualizationResult",
    "DualityError",
    "BasisChange",
    "IsoResult",
    "CertificateReport",
    "check_admissible",
    "dualize",
    "duality_certificate",
    "iso_small",
    "fingerprint",
    "compare_fingerprints",
    "random_admissible_triple",
]


@dataclass(frozen=True)
class AdmissibleTriple:
    """(algebra, abelian ideal, closed flux); validity via check_admissible."""

    algebra: MalcevPresentation
    ideal: tuple
    flux: Form

    def __post_init__(self):
        ideal = tuple(sorted(set(self.ideal)))
        if any(not 1 <= k <= self.algebra.dim for k in ideal):
            raise ValueError("ideal %r outside 1..%d" % (self.ideal, self.algebra.dim))
        if self.flux.degree != 3:
            raise ValueError("flux must be a 3-form")
        object.__setattr__(self, "ideal", ideal)


@dataclass
class AdmissibilityReport:
    ideal: bool
    abelian: bool
    central: bool
    closed: bool
    degenerate: bool
    details: dict

    @property
    def ok(self):
        """Centrality is reported but not required."""
        return self.ideal and self.abelian and self.closed and self.degenerate

    def failed_flags(self):
        return [
            name
            for name in ("ideal", "abelian", "closed", "degenerate")
            if not getattr(self, name)
        ]

    def to_json(self):
        return {
            "ideal": self.ideal,
            "abelian": self.abelian,
            "central": self.central,
            "closed": self.closed,
            "degenerate": self.degenerate,
            "ok": self.ok,
            "details": dict(sorted(self.details.items())),
        }


class DualityError(ValueError):
    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


@dataclass
class SlotMap:
    """Records the ideal-to-the-end reordering and the z-slot reuse."""

    permutation: tuple  # permutation[new-1] = old slot
    quotient_slots: tuple
    z_slots: tuple

    @property
    def identity(self):
        return self.permutation == tuple(range(1, len(self.permutation) + 1))

    def to_json(self):
        return {
            "permutation": list(self.permutation),
            "identity": self.identity,
            "quotient_slots": list(self.quotient_slots),
            "z_slots": list(self.z_slots),
        }


@dataclass
class DualizationResult:
    dual: AdmissibleTriple
    ideal_dim: int
    slot_map: SlotMap
    delta: Form


@dataclass
class CertificateReport:
    ok: bool
    residual: Form
    F: Form
    correspondence_dim: int

    def to_json(self):
        return {
            "ok": self.ok,
            "residual": print_form(self.residual),
            "F": print_form(self.F),
            "correspondence_dim": self.correspondence_dim,
        }


def check_admissible(t):
    """Evaluate the ideal/abelian/central/closed/degenerate flags one by one."""
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

    return AdmissibilityReport(
        ideal_ok, abelian_ok, central_ok, closed_ok, degenerate_ok, details
    )


def _reorder_triple(t):
    """Permute so the ideal occupies the trailing slots; returns (t', map)."""
    n = t.algebra.dim
    ideal = set(t.ideal)
    quotient = [k for k in range(1, n + 1) if k not in ideal]
    perm = tuple(quotient + sorted(ideal))
    new_of = {old: new for new, old in enumerate(perm, start=1)}
    slot_map = SlotMap(
        perm,
        tuple(range(1, len(quotient) + 1)),
        tuple(range(len(quotient) + 1, n + 1)),
    )
    if slot_map.identity:
        return t, slot_map
    diffs = [None] * n
    for old, f in enumerate(t.algebra.differentials, start=1):
        diffs[new_of[old] - 1] = f.relabel(new_of)
    algebra = MalcevPresentation(diffs)
    flux = t.flux.relabel(new_of)
    return AdmissibleTriple(algebra, slot_map.z_slots, flux), slot_map


def dualize(t):
    """Dualize the triple along its abelian ideal.

    The quotient differentials survive; each ideal slot k trades its
    differential for a flux leg, so H_dual = delta + sum_k e^k ^ de^k
    in the reordered basis.
    """
    report = check_admissible(t)
    if not report.ok:
        raise DualityError(
            "triple is not admissible: %s failed" % ", ".join(report.failed_flags()),
            report,
        )
    t, slot_map = _reorder_triple(t)
    n = t.algebra.dim
    m = len(t.ideal)
    q = n - m

    diffs = list(t.algebra.differentials[:q])
    for k in range(q + 1, n + 1):
        diffs.append(interior(k, t.flux))

    delta = Form(
        3,
        {
            key: c
            for key, c in t.flux.terms.items()
            if not any(i > q for i in key)
        },
    )
    h_dual = delta
    for k in range(q + 1, n + 1):
        h_dual = h_dual + wedge(Form.basis(k), t.algebra.differentials[k - 1])

    dual = AdmissibleTriple(MalcevPresentation(diffs), t.ideal, h_dual)
    return DualizationResult(dual, m, slot_map, delta)


def duality_certificate(t, d):
    """Exact check of pullback(H) - pullback(H_dual) = dF on the
    correspondence algebra; F pairs each ideal direction with its z."""
    t, _ = _reorder_triple(t)
    n = t.algebra.dim
    m = d.ideal_dim
    q = n - m

    diffs = list(t.algebra.differentials)
    for j in range(1, m + 1):
        diffs.append(interior(q + j, t.flux))
    corr = MalcevPresentation(diffs)

    F = Form(2, {(q + j, n + j): -1 for j in range(1, m + 1)})

    pull_h = t.flux
    pull_h_dual = d.dual.flux.relabel(lambda i: i if i <= q else i + m)
    residual = (pull_h - pull_h_dual) - ce_diff(corr, F)
    return CertificateReport(residual.is_zero(), residual, F, n + m)


# --- small-dimension isomorphism search ---------------------------------


@dataclass(frozen=True)
class BasisChange:
    """f_i = signs[i-1] * e_{perm[i-1]}; apply(p) rewrites p in the f basis."""

    perm: tuple
    signs: tuple

    def apply(self, p):
        diffs = [dict() for _ in range(p.dim)]
        for (i, j, k), c in _transported_constants(p, self.perm, self.signs).items():
            diffs[k - 1][(i, j)] = -c
        return MalcevPresentation([Form(2, d) for d in diffs])

    def to_json(self):
        return {"perm": list(self.perm), "signs": list(self.signs)}

    def pull_form(self, f):
        """Rewrite a form on the f-indexed side in the e-indexed basis."""
        items = []
        for key, c in f.terms.items():
            s = 1
            for i in key:
                s *= self.signs[i - 1]
            items.append((tuple(self.perm[i - 1] for i in key), s * c))
        return Form.from_terms(f.degree, items)

    def push_form(self, f):
        """Rewrite an e-indexed form in the f basis (inverse of pull_form)."""
        inv = [0] * len(self.perm)
        for i, p in enumerate(self.perm):
            inv[p - 1] = i + 1
        items = []
        for key, c in f.terms.items():
            s = 1
            new = []
            for a in key:
                b = inv[a - 1]
                s *= self.signs[b - 1]
                new.append(b)
            items.append((tuple(new), s * c))
        return Form.from_terms(f.degree, items)


@dataclass
class IsoResult:
    witness: Optional[BasisChange]
    proved_distinct: bool
    reason: str


def _transported_constants(p, perm, signs):
    new_of = {old: new for new, old in enumerate(perm, start=1)}
    out = {}
    for (a, b, k), c in p.structure_constants().items():
        i, j, m = new_of[a], new_of[b], new_of[k]
        s = signs[i - 1] * signs[j - 1] * signs[m - 1]
        if i > j:
            i, j, s = j, i, -s
        out[(i, j, m)] = s * c
    return out


def _solve_signs(n, base, target):
    """Sign vector with s_i s_j s_k * base = target, as a GF(2) system."""
    if {k: abs(c) for k, c in base.items()} != {k: abs(c) for k, c in target.items()}:
        return None
    eqs = []
    for key, c in base.items():
        bit = 0 if target[key] == c else 1
        mask = 0
        for i in key:
            mask ^= 1 << (i - 1)
        eqs.append((mask, bit))
    # GF(2) elimination on (mask, bit) rows
    pivots = []
    for mask, bit in eqs:
        for pmask, pbit in pivots:
            low = pmask & -pmask
            if mask & low:
                mask ^= pmask
                bit ^= pbit
        if mask:
            pivots.append((mask, bit))
        elif bit:
            return None
    signs = [0] * n
    for pmask, pbit in sorted(pivots, key=lambda r: -(r[0] & -r[0])):
        low_index = (pmask & -pmask).bit_length() - 1
        acc = pbit
        for i in range(n):
            if i != low_index and (pmask >> i) & 1:
                acc ^= signs[i]
        signs[low_index] = acc
    return tuple(1 if s == 0 else -1 for s in signs)


def _weight_layers(p):
    """Lower-central-style weight of each slot, from the differentials."""
    weights = {}
    for k in range(1, p.dim + 1):
        f = p.differentials[k - 1]
        if f.is_zero():
            weights[k] = 1
        else:
            weights[k] = 1 + max(
                min(weights[i], weights[j]) for i, j in f.terms
            )
    return weights


def _arrangements(layers):
    """One ordering of each layer at a time, in itertools.product order.

    Lazy, unlike itertools.product, which stores every permutation of each
    layer before it yields: a layer of 12 slots has 12! orderings, and the
    search budget stops long before that.
    """
    if not layers:
        yield ()
        return
    for first in itertools.permutations(layers[0]):
        for rest in _arrangements(layers[1:]):
            yield (first,) + rest


def iso_small(p, q, budget=20000):
    """Search for a signed, filtration-friendly basis change taking p to q.

    Exhausting the budget is inconclusive; only a fingerprint mismatch
    proves the two presentations non-isomorphic.
    """
    if p.dim != q.dim:
        return IsoResult(None, True, "dimension mismatch")
    n = p.dim
    equal, field = compare_fingerprints(p, q)
    if not equal:
        return IsoResult(None, True, "fingerprint differs: %s" % field)

    wp = _weight_layers(p)
    wq = _weight_layers(q)
    layers_p = {}
    layers_q = {}
    for k in range(1, n + 1):
        layers_p.setdefault(wp[k], []).append(k)
        layers_q.setdefault(wq[k], []).append(k)
    if {w: len(v) for w, v in layers_p.items()} != {
        w: len(v) for w, v in layers_q.items()
    }:
        # signed monomial maps preserve the layer profile, so the search
        # cannot succeed; this is inconclusive for general isomorphism
        return IsoResult(None, False, "no signed monomial witness: layer profiles differ")

    # each layer's slots first pair up in order: the identity when p and q
    # share their layers, so a signed diagonal witness is found first
    weights = sorted(layers_p)
    target = q.structure_constants()
    tried = 0
    for combo in _arrangements([layers_p[w] for w in weights]):
        tried += 1
        if tried > budget:
            return IsoResult(None, False, "budget exhausted after %d candidates" % budget)
        perm = [0] * n
        for w, arrangement in zip(weights, combo):
            for slot_q, slot_p in zip(layers_q[w], arrangement):
                perm[slot_q - 1] = slot_p
        perm = tuple(perm)
        moved = _transported_constants(p, perm, (1,) * n)
        signs = _solve_signs(n, moved, target)
        if signs is not None:
            return IsoResult(BasisChange(perm, signs), False, "signed monomial")
    return IsoResult(None, False, "search space exhausted without witness")


# --- invariants ----------------------------------------------------------


def _bracket_vec(consts, n, u, v):
    out = [Fraction(0)] * n
    for (i, j, k), c in consts.items():
        t = u[i - 1] * v[j - 1] - u[j - 1] * v[i - 1]
        if t:
            out[k - 1] += c * t
    return out


def _span_brackets(consts, n, left, right):
    """Dense rows spanning [left, right], read off a sparse echelon form."""
    rows = (_bracket_vec(consts, n, u, v) for u in left for v in right)
    pivots = echelon(dict(enumerate(r)) for r in rows if any(r))
    return [[row.get(k, 0) for k in range(n)] for row in pivots.values()]


def _unit_basis(n):
    return [[Fraction(int(i == k)) for i in range(n)] for k in range(n)]


def _bracket_series(p, lower):
    """Dimensions of the lower central series [g, g_i] (lower=True) or of the
    derived series [g_i, g_i], one bracket round per entry, down to 0."""
    n = p.dim
    consts = p.structure_constants()
    basis = _unit_basis(n)
    current = basis
    dims = []
    while not dims or dims[-1]:
        current = _span_brackets(consts, n, basis if lower else current, current)
        dims.append(len(current))
    return tuple(dims)


def _center_dim(p):
    n = p.dim
    consts = p.structure_constants()
    basis = _unit_basis(n)
    ad_rows = []
    for j in range(n):
        for row in zip(*[_bracket_vec(consts, n, basis[i], basis[j]) for i in range(n)]):
            if any(row):
                ad_rows.append(dict(enumerate(row)))
    return n - rank(ad_rows)


def _diff_rank(p, degree):
    keys = itertools.combinations(range(1, p.dim + 1), degree)
    return rank([ce_diff(p, Form(degree, {key: 1})).terms for key in keys])


# The fingerprint's fields, in the order compare_fingerprints tests them.
_FIELDS = (
    ("dim", lambda p: p.dim),
    ("abelian", MalcevPresentation.is_abelian),
    ("lcs_dims", lambda p: _bracket_series(p, lower=True)),
    ("derived_dims", lambda p: _bracket_series(p, lower=False)),
    ("center_dim", _center_dim),
    ("d1_rank", lambda p: _diff_rank(p, 1)),
    ("d2_rank", lambda p: _diff_rank(p, 2)),
)


def _field(p, name, compute):
    """One field of p's fingerprint, computed on first use and kept on p."""
    memo = p._invariants
    if name not in memo:
        memo[name] = compute(p)
    return memo[name]


def fingerprint(p):
    """Basis-independent invariants: dims of the lower central and derived
    series, center dimension and the per-degree ranks of d.

    Each field is memoized on the presentation itself, so it is computed at
    most once per presentation and freed with it; nothing is kept
    process-wide.
    """
    return tuple(_field(p, name, compute) for name, compute in _FIELDS)


def compare_fingerprints(p, q):
    """(equal, first differing field name); a field of the two fingerprints
    is computed only when every field before it agreed.

    Equal presentations compare equal without computing any field; any other
    pair computes (or reuses) the fields memoized on each presentation.
    """
    if p == q:
        return True, None
    for name, compute in _FIELDS:
        if _field(p, name, compute) != _field(q, name, compute):
            return False, name
    return True, None


# --- random admissible triples for property suites -----------------------


def _closed_forms(p, keys):
    """Basis of the closed forms spanned by the basis forms ``keys``."""
    rows_by_target = {}
    for col, key in enumerate(keys):
        img = ce_diff(p, Form(len(key), {key: 1}))
        for tkey, c in img.terms.items():
            rows_by_target.setdefault(tkey, {})[col] = c
    return nullspace(list(rows_by_target.values()), len(keys))


def random_admissible_triple(rng, max_dim=8):
    """A random central-ideal admissible triple for property tests.

    The presentation is graded (two or three layers, so Jacobi holds by
    construction or by solving the closedness condition exactly), the
    ideal is the top layer and H is drawn from the closed 3-forms with at
    most one ideal leg per term.
    """
    n = rng.randint(3, max_dim)
    layers = rng.choice([2, 2, 3])
    if layers == 3 and n < 5:
        layers = 2
    if layers == 2:
        n1 = rng.randint(2, n - 1)
        sizes = [n1, n - n1]
    else:
        n1 = rng.randint(2, n - 3)
        n2 = rng.randint(1, n - n1 - 1)
        sizes = [n1, n2, n - n1 - n2]

    diffs = [Form(2) for _ in range(sizes[0])]
    pairs1 = list(itertools.combinations(range(1, sizes[0] + 1), 2))
    for _ in range(sizes[1]):
        terms = {}
        for key in pairs1:
            if rng.random() < 0.6:
                c = rng.choice([-2, -1, -1, 1, 1, 2])
                terms[key] = c
        diffs.append(Form(2, terms))

    if layers == 3:
        keys = list(itertools.combinations(range(1, sizes[0] + sizes[1] + 1), 2))
        closed = _closed_forms(MalcevPresentation(list(diffs)), keys)
        for _ in range(sizes[2]):
            terms = {}
            if closed:
                for _ in range(rng.randint(1, 2)):
                    vec = closed[rng.randrange(len(closed))]
                    c = rng.choice([-1, 1, 2])
                    for key, v in zip(keys, vec):
                        if v:
                            terms[key] = terms.get(key, 0) + c * v
            f = Form(2, {k: v for k, v in terms.items() if v})
            diffs.append(f)

    algebra = MalcevPresentation(diffs)
    ideal = tuple(range(n - sizes[-1] + 1, n + 1))

    ideal_set = set(ideal)
    keys3 = [
        key
        for key in itertools.combinations(range(1, n + 1), 3)
        if sum(1 for i in key if i in ideal_set) <= 1
    ]
    closed3 = _closed_forms(algebra, keys3)
    terms = {}
    if closed3:
        for _ in range(rng.randint(0, 3)):
            vec = closed3[rng.randrange(len(closed3))]
            c = rng.choice([-2, -1, 1, 2])
            for key, v in zip(keys3, vec):
                if v:
                    terms[key] = terms.get(key, 0) + c * v
    flux = Form(3, {k: v for k, v in terms.items() if v})
    return AdmissibleTriple(algebra, ideal, flux)
