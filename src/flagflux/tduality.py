"""Admissible triples, infinitesimal T-dualization and its certificate.

Dualizing (g, a, H) along an abelian ideal a keeps the quotient slots of
the presentation and turns each ideal slot k into a new covector z^k with
dz^k the contraction of H by x_k.  The dual flux is

    H_dual = sum_k z^k wedge (old de^k) + delta,

delta being the part of H free of ideal legs; ideal legs inside old de^k
are reread as z legs, which is what makes the bookkeeping slot stable.
A non-trailing ideal is first moved to the trailing slots by a unit-sign
BasisChange, the same relabelling iso_small's witnesses use.
Only an admissible triple is dualized: a is an abelian ideal and H is
closed, has at most one ideal leg per term and is a-invariant (L_x H = 0
for x in a), which makes d(dz^k) = 0, so the dual is a Lie algebra; a
central a is reported but not required.  The duality certificate builds
the correspondence algebra from the source and the dual it is handed, and
verifies pullback(H) - pullback(H_dual) = dF exactly, so it certifies the
dual's algebra and flux rather than recomputing them.
"""

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from ._linalg import echelon, nullspace, rank
from .exterior import (
    Form,
    MalcevPresentation,
    MalcevValueError,
    ce_diff,
    interior,
    print_form,
)
from .nilradical import jacobi_check

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
    """(Lie algebra, ideal slots, 3-form flux) on the algebra's basis.

    Construction rejects what is not such a triple, first failure first: an
    algebra that fails the Jacobi identity (naming the first de^k with
    d(de^k) != 0), a flux index beyond the dimension, an ideal slot outside
    1..dim, a flux that is not a 3-form.  Whether the ideal is abelian, the
    flux closed and so on is check_admissible's report, not a construction
    error.
    """

    algebra: MalcevPresentation
    ideal: tuple
    flux: Form

    def __post_init__(self):
        jacobi = jacobi_check(self.algebra)
        if not jacobi.ok:
            raise MalcevValueError(
                "algebra fails the Jacobi identity: d(de^%d) = %s"
                % (jacobi.failing_index, print_form(jacobi.residual))
            )
        if self.flux.max_index() > self.algebra.dim:
            raise MalcevValueError(
                "flux references index %d beyond dimension %d"
                % (self.flux.max_index(), self.algebra.dim)
            )
        ideal = tuple(sorted(set(self.ideal)))
        if any(not 1 <= k <= self.algebra.dim for k in ideal):
            raise ValueError("ideal %r outside 1..%d" % (self.ideal, self.algebra.dim))
        if self.flux.degree != 3:
            raise ValueError("flux must be a 3-form")
        object.__setattr__(self, "ideal", ideal)


# The admissibility flags in report order, and whether ``ok`` requires each.
_FLAGS = (
    ("ideal", True),
    ("abelian", True),
    ("central", False),
    ("closed", True),
    ("degenerate", True),
    ("invariant", True),
)


@dataclass
class AdmissibilityReport:
    """``details`` maps each failing flag to why it fails; a flag holds when
    it has no detail, and ``report.<flag>`` reads it.

    ``ok`` requires every flag but ``central``, and guarantees that the dual
    is a Lie algebra: its new differentials are the i_x H, and with H closed
    d(i_x H) = L_x H, which ``invariant`` asks to vanish.
    """

    details: dict

    def __getattr__(self, name):
        if name not in dict(_FLAGS):
            raise AttributeError(name)
        return name not in self.details

    @property
    def ok(self):
        return not self.failed_flags()

    def failed_flags(self):
        return [name for name, required in _FLAGS if required and name in self.details]

    def to_json(self):
        out = {name: name not in self.details for name, _required in _FLAGS}
        out["ok"] = self.ok
        out["details"] = dict(sorted(self.details.items()))
        return out


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
    slot_map: SlotMap
    delta: Form
    admissibility: AdmissibilityReport  # of the triple that was dualized


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
    """Every admissibility flag of the triple, with the first failure of each.

    One pass over the differentials settles ideal, abelian and central from
    the terms with an ideal leg; closed and degenerate read the flux.  Then
    invariant asks L_x H = d(i_x H) + i_x dH = 0 for each ideal slot x that
    some differential touches; an untouched slot is central, where L_x = 0.
    """
    ideal = set(t.ideal)
    details = {}
    touched = set()
    for k, f in enumerate(t.algebra.differentials, start=1):
        for key in f.terms:
            legs = [i for i in key if i in ideal]
            if not legs:
                continue
            touched.update(legs)
            details.setdefault("central", "de^%d touches the ideal" % k)
            if k not in ideal:
                details.setdefault(
                    "ideal", "quotient differential contains ideal legs (de^%d)" % k
                )
            elif len(legs) == 2:
                details.setdefault(
                    "abelian", "de^%d has a term with both legs in the ideal" % k
                )

    closure = ce_diff(t.algebra, t.flux)
    if not closure.is_zero():
        details["closed"] = "dH = %s" % print_form(closure)

    for key in t.flux.terms:
        if sum(1 for i in key if i in ideal) > 1:
            details["degenerate"] = "H term %s has two ideal legs" % print_form(
                Form(3, {key: 1})
            )
            break

    if not t.flux.is_zero():
        for x in sorted(touched):
            lie = ce_diff(t.algebra, interior(x, t.flux)) + interior(x, closure)
            if not lie.is_zero():
                details["invariant"] = "L_{e_%d} H = %s" % (x, print_form(lie))
                break

    return AdmissibilityReport(details)


def _reorder_triple(t):
    """(algebra, flux, slot map) rewritten so the ideal occupies the trailing
    slots, by the unit-sign BasisChange along the slot map's permutation; a
    rewritten Lie algebra is one, so nothing is rechecked."""
    n = t.algebra.dim
    quotient = [k for k in range(1, n + 1) if k not in t.ideal]
    slot_map = SlotMap(
        tuple(quotient) + t.ideal,
        tuple(range(1, len(quotient) + 1)),
        tuple(range(len(quotient) + 1, n + 1)),
    )
    if slot_map.identity:
        return t.algebra, t.flux, slot_map
    change = BasisChange(slot_map.permutation, (1,) * n)
    return change.apply(t.algebra), change.push_form(t.flux), slot_map


def dualize(t):
    """Dualize the triple along its abelian ideal.

    The quotient differentials survive; each ideal slot k trades its
    differential for a flux leg, so H_dual = delta + sum_k e^k ^ de^k
    in the reordered basis.  Only an ok triple is dualized, so the dual is
    a Lie algebra; building it as an AdmissibleTriple checks that again.
    The admissibility report is kept on the result, so a caller that
    reports it need not check again.
    """
    report = check_admissible(t)
    if not report.ok:
        raise DualityError(
            "triple is not admissible: %s failed" % ", ".join(report.failed_flags()),
            report,
        )
    algebra, flux, slot_map = _reorder_triple(t)
    n = algebra.dim
    m = len(t.ideal)
    q = n - m

    diffs = list(algebra.differentials[:q])
    for k in range(q + 1, n + 1):
        diffs.append(interior(k, flux))

    # e^k ^ de^k = sum c e^{ijk} over the terms c e^{ij} of de^k, i < j < k:
    # keys ending past q, so they never meet delta's
    delta_terms = {key: c for key, c in flux.terms.items() if key[-1] <= q}
    h_terms = dict(delta_terms)
    for k in range(q + 1, n + 1):
        for (i, j), c in algebra.differentials[k - 1].terms.items():
            h_terms[i, j, k] = c
    delta = Form._adopt(3, delta_terms)
    h_dual = Form._adopt(3, h_terms)

    dual = AdmissibleTriple(MalcevPresentation(diffs), slot_map.z_slots, h_dual)
    return DualizationResult(dual, slot_map, delta, report)


def duality_certificate(t, d):
    """Exact check of pullback(H) - pullback(H_dual) = dF on the
    correspondence algebra of t and the dual d hands over.

    The correspondence slots are the reordered source's (quotient, then the
    ideal's x) followed by the dual's z, with the source's differentials and
    the dual's dz.  The dual's forms move there by the monotone map i -> i
    on the quotient and i -> i + m on z, which needs no sort and no sign.
    F pairs each ideal direction with its z.  So the certificate checks the
    dual's algebra and flux as given: ``ok`` also needs the dual's quotient
    differentials to be the source's, which makes the projection to the
    dual a homomorphism.  The source is relabelled here from t, not read
    from a relabelled copy on d, although dualize built one: the
    certificate must not trust the dual it checks, and a source taken from
    d would let a wrong dualization certify itself.
    """
    algebra, flux, _ = _reorder_triple(t)
    n = algebra.dim
    m = len(d.dual.ideal)
    q = n - m

    def lift(f):
        terms = {tuple(i if i <= q else i + m for i in key): c for key, c in f.terms.items()}
        return Form._adopt(f.degree, terms)

    dual_diffs = d.dual.algebra.differentials
    # both parts are checked presentations and the lift keeps index order,
    # so every dz^k still references only slots below its own
    corr = MalcevPresentation._adopt(algebra.differentials + tuple(map(lift, dual_diffs[q:])))
    F = Form(2, {(q + j, n + j): -1 for j in range(1, m + 1)})
    residual = (flux - lift(d.dual.flux)) - ce_diff(corr, F)
    ok = residual.is_zero() and dual_diffs[:q] == algebra.differentials[:q]
    return CertificateReport(ok, residual, F, n + m)


# --- small-dimension isomorphism search ---------------------------------


@dataclass(frozen=True)
class BasisChange:
    """f_i = signs[i-1] * e_{perm[i-1]}; apply(p) rewrites p in the f basis.

    This is the one relabelling of slots: iso_small's witnesses are signed
    changes, and dualization moves a non-trailing ideal to the trailing
    slots by the unit-sign change along its slot map's permutation.
    Construction rejects a perm that is not a permutation of 1..n and signs
    that are not n values of 1 or -1, so ``apply`` moves each nonzero
    constant to a distinct key with its sign and adopts the forms it
    builds; their filtration is still checked, since a permutation can
    break it.  A change of size n rewrites a presentation of dimension n
    and forms with indices up to n, and raises ValueError on any other.
    """

    perm: tuple
    signs: tuple

    def __post_init__(self):
        n = len(self.perm)
        if sorted(self.perm) != list(range(1, n + 1)):
            raise ValueError("perm %r is not a permutation of 1..%d" % (self.perm, n))
        if len(self.signs) != n or not all(type(s) is int and s in (1, -1) for s in self.signs):
            raise ValueError("signs %r must be %d values of 1 or -1" % (self.signs, n))

    def apply(self, p):
        if p.dim != len(self.perm):
            raise ValueError("basis change of size %d on dimension %d" % (len(self.perm), p.dim))
        diffs = [dict() for _ in range(p.dim)]
        moved = _transported_constants(p.structure_constants(), self.perm, self.signs)
        for (i, j, k), c in moved.items():
            diffs[k - 1][(i, j)] = -c
        return MalcevPresentation([Form._adopt(2, d) for d in diffs])

    def to_json(self):
        return {"perm": list(self.perm), "signs": list(self.signs)}

    def pull_form(self, f):
        """Rewrite a form on the f-indexed side in the e-indexed basis."""
        if f.max_index() > len(self.perm):
            raise ValueError(
                "basis change of size %d on index %d" % (len(self.perm), f.max_index())
            )
        items = []
        for key, c in f.terms.items():
            s = 1
            for i in key:
                s *= self.signs[i - 1]
            items.append((tuple(self.perm[i - 1] for i in key), s * c))
        return Form.from_terms(f.degree, items)

    def push_form(self, f):
        """Rewrite an e-indexed form in the f basis: pull_form of the inverse."""
        return self.inverse().pull_form(f)

    def inverse(self):
        """The change back: e_j = signs[i-1] * f_i where perm[i-1] = j."""
        perm = [0] * len(self.perm)
        signs = [0] * len(self.perm)
        for i, (j, s) in enumerate(zip(self.perm, self.signs), start=1):
            perm[j - 1] = i
            signs[j - 1] = s
        return BasisChange(tuple(perm), tuple(signs))


@dataclass
class IsoResult:
    witness: Optional[BasisChange]
    proved_distinct: bool
    reason: str


def _transported_constants(consts, perm, signs):
    """The structure constants ``consts`` rewritten in the basis
    f_i = signs[i-1] * e_{perm[i-1]}."""
    new_of = {old: new for new, old in enumerate(perm, start=1)}
    out = {}
    for (a, b, k), c in consts.items():
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


ISO_BUDGET = 20000


def iso_small(p, q):
    """Search for a signed, filtration-friendly basis change taking p to q.

    Exhausting ISO_BUDGET arrangements is inconclusive; only a fingerprint
    mismatch proves the two presentations non-isomorphic.
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
    source = p.structure_constants()
    target = q.structure_constants()
    tried = 0
    for combo in _arrangements([layers_p[w] for w in weights]):
        tried += 1
        if tried > ISO_BUDGET:
            return IsoResult(None, False, "budget exhausted after %d candidates" % ISO_BUDGET)
        perm = [0] * n
        for w, arrangement in zip(weights, combo):
            for slot_q, slot_p in zip(layers_q[w], arrangement):
                perm[slot_q - 1] = slot_p
        perm = tuple(perm)
        moved = _transported_constants(source, perm, (1,) * n)
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
    """n minus the rank of the map z -> ([z, e_j])_j, with no bracket built.

    Row (j, k) of that map holds the coefficient of e_k in [z, e_j], so a
    constant [e_i, e_j] = c e_k (i < j) puts c in column i of row (j, k)
    and -c in column j of row (i, k); every other entry is 0.
    """
    rows = {}
    for (i, j, k), c in p.structure_constants().items():
        rows.setdefault((j, k), {})[i] = c
        rows.setdefault((i, k), {})[j] = -c
    return p.dim - rank(rows.values())


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
    ("d1_rank", lambda p: rank(f.terms for f in p.differentials)),
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


def _first_difference(fields, q):
    """Name of the first of ``fields``, (name, value) pairs in whatever
    order they come, whose value differs from q's; None when all agree.

    q's field is computed (or reused) only when the pair is reached, so a
    lazy ``fields`` that stops early spares q the fields after it, and a
    stream that puts cheap fields first (``parabolic_fields``) spares q its
    costly ones whenever a cheap one differs.
    """
    computes = dict(_FIELDS)
    for name, value in fields:
        if value != _field(q, name, computes[name]):
            return name
    return None


def compare_fingerprints(p, q):
    """(equal, first differing field name); a field of the two fingerprints
    is computed only when every field before it agreed.

    Equal presentations compare equal without computing any field; any other
    pair computes (or reuses) the fields memoized on each presentation.
    """
    if p == q:
        return True, None
    differs = _first_difference(
        ((name, _field(p, name, compute)) for name, compute in _FIELDS), q
    )
    return differs is None, differs


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
