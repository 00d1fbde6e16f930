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
from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from ._kernel import ce_terms, integer, integers
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
from .rootsys import _block_series, _gap_dim

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
    d(de^k) != 0), a flux index beyond the dimension, ideal slots that
    ``_kernel.integers`` rejects (TypeError), an ideal slot outside 1..dim, a
    flux that is not a 3-form.  Whether the ideal is abelian, the
    flux closed and so on is check_admissible's report, not a construction
    error.  The Jacobi check is skipped only for an algebra marked Lie
    (``_invariants["lie"]``) where the library built it: a flag nilradical
    and a dual.  An equal presentation made by a public constructor carries
    no mark and is checked.
    """

    algebra: MalcevPresentation
    ideal: tuple
    flux: Form

    def __post_init__(self):
        if not self.algebra._invariants.get("lie"):
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
        slots = integers(self.ideal, "ideal slots")
        if any(not 1 <= k <= self.algebra.dim for k in slots):
            raise ValueError("ideal %r outside 1..%d" % (slots, self.algebra.dim))
        if self.flux.degree != 3:
            raise ValueError("flux must be a 3-form")
        object.__setattr__(self, "ideal", tuple(sorted(set(slots))))


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
    a Lie algebra: it is marked so, and its triple skips the Jacobi check.
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
    delta = Form(3, delta_terms)
    h_dual = Form(3, h_terms)

    dual_algebra = MalcevPresentation(diffs)
    dual_algebra._invariants["lie"] = True
    dual = AdmissibleTriple(dual_algebra, slot_map.z_slots, h_dual)
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

    On d = dualize(t), ``ok`` equals ``check_admissible(t).central`` for
    any flux.  In H - lift(H_dual) - dF only dF has terms with one x leg
    and one z leg: up to sign, the sum over j of (the ideal-leg terms of
    de^{x_j}) ^ e^{z_j}.  An abelian ideal gives each one ideal leg and each
    j has its own z_j, so they cannot cancel; they vanish exactly when no
    ideal differential touches the ideal, and quotient ones never do.  On a
    central ideal the rest cancels, and dualize keeps the quotient
    differentials.  A dual of another dimension or ideal size is a ValueError.
    """
    algebra, flux, _ = _reorder_triple(t)
    n, m = algebra.dim, len(t.ideal)
    if (d.dual.algebra.dim, len(d.dual.ideal)) != (n, m):
        raise ValueError(
            "dual of dimension %d with ideal size %d for a source of dimension %d "
            "with ideal size %d" % (d.dual.algebra.dim, len(d.dual.ideal), n, m)
        )
    q = n - m

    def lift(f):
        terms = {tuple(i if i <= q else i + m for i in key): c for key, c in f.terms.items()}
        return Form(f.degree, terms)

    dual_diffs = d.dual.algebra.differentials
    corr = MalcevPresentation(algebra.differentials + tuple(map(lift, dual_diffs[q:])))
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
    Construction rejects perm or sign entries that are not ints (TypeError),
    a perm that is not a permutation of 1..n and signs that are not n values
    of 1 or -1 (ValueError), and stores both as plain ints.  A change of
    size n rewrites a presentation of dimension n and forms with indices up
    to n, and raises ValueError on any other; ``apply`` raises
    MalcevValueError when the relabelled presentation breaks the filtration.
    """

    perm: tuple
    signs: tuple

    def __post_init__(self):
        perm = integers(self.perm, "perm entries")
        n = len(perm)
        if sorted(perm) != list(range(1, n + 1)):
            raise ValueError("perm %r is not a permutation of 1..%d" % (perm, n))
        signs = integers(self.signs, "signs")
        if len(signs) != n or not all(s in (1, -1) for s in signs):
            raise ValueError("signs %r must be %d values of 1 or -1" % (signs, n))
        vars(self).update(perm=perm, signs=signs)

    def apply(self, p):
        if p.dim != len(self.perm):
            raise ValueError("basis change of size %d on dimension %d" % (len(self.perm), p.dim))
        diffs = [dict() for _ in range(p.dim)]
        moved = _transported_constants(p.structure_constants(), self.perm, self.signs)
        for (i, j, k), c in moved.items():
            diffs[k - 1][(i, j)] = -c
        return MalcevPresentation([Form(2, d) for d in diffs])

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


def _slot_edges(p, q):
    """Per slot of p, then of q, its (role, |c|, a, b) entries, where slot k
    of p is index k - 1 and slot k of q is index dim + k - 1.

    A constant (i, j, k) -> c gives input i the entry (0, |c|, j, k), input j
    the entry (0, |c|, i, k) and output k the entry (1, |c|, i, j).  A signed
    relabelling keeps |c| and these roles; it may swap i and j, which the
    entries do not tell apart.
    """
    edges = [[] for _ in range(2 * p.dim)]
    for offset, r in ((-1, p), (p.dim - 1, q)):
        for (i, j, k), c in r.structure_constants().items():
            a = abs(c)
            i, j, k = i + offset, j + offset, k + offset
            edges[i].append((0, a, j, k))
            edges[j].append((0, a, i, k))
            edges[k].append((1, a, i, j))
    return edges


def _refine(colours, edges, n):
    """Colour refinement of p's slots (the first n) and q's together.

    Each round recolours a slot by its colour and the sorted colours its
    entries see, through one table shared by both sides, so a colour names
    the same class on either side.  Returns the stable colouring, or None
    once the two sides' colour counts differ: a witness carries each slot
    to one of its colour, so then none exists.
    """
    count = len(set(colours))
    while True:
        table = {}
        refined = []
        for col, entries in zip(colours, edges):
            seen = []
            for role, a, x, y in entries:
                cx, cy = colours[x], colours[y]
                if role and cx > cy:
                    cx, cy = cy, cx
                seen.append((role, a, cx, cy))
            seen.sort()
            refined.append(table.setdefault((col, tuple(seen)), len(table)))
        if sorted(refined[:n]) != sorted(refined[n:]):
            return None
        if len(table) == count:
            return refined
        colours, count = refined, len(table)


ISO_BUDGET = 20000


def iso_small(p, q):
    """Search for a signed, filtration-friendly basis change taking p to q.

    A witness maps slot k of q to slot perm[k-1] of p and fixes the signs
    by ``_solve_signs``.  The search individualises and refines: all slots
    of p and q start in one colour and are refined together (``_refine``),
    which already sets apart slots of unequal lower-central weight.  It
    walks q's slots in slot order and tries each only against the unused p
    slots of its colour, in ascending order; when that cell has more than
    one slot, each choice gives the pair a fresh colour and refines again.
    A witness keeps every colour, so a pruned branch holds none, and the
    first witness found is the lexicographically least perm of any witness.

    Exhausting ISO_BUDGET individualisations is inconclusive, as is a search
    that ends without a witness, at the root when refinement already tells
    the two sides apart: only a fingerprint mismatch, the dimension its
    cheapest field, proves the two presentations non-isomorphic.
    """
    n = p.dim
    equal, field = compare_fingerprints(p, q)
    if not equal:
        return IsoResult(None, True, "fingerprint differs: %s" % field)

    edges = _slot_edges(p, q)
    colours = _refine([0] * (2 * n), edges, n)
    source = p.structure_constants()
    target = q.structure_constants()
    perm = [0] * n
    budget = ISO_BUDGET

    def walk(depth, colours):
        nonlocal budget
        if depth == n:
            moved = _transported_constants(source, perm, (1,) * n)
            signs = _solve_signs(n, moved, target)
            return None if signs is None else BasisChange(tuple(perm), signs)
        slot_q = depth + 1
        colour = colours[n + slot_q - 1]
        # assigned slots keep colours of their own, so a cell holds only
        # unused slots
        cell = [k for k in range(1, n + 1) if colours[k - 1] == colour]
        if len(cell) == 1:
            perm[slot_q - 1] = cell[0]
            return walk(depth + 1, colours)
        for slot_p in cell:
            budget -= 1
            if budget < 0:
                return None
            # refined colours count from 0, so -1 is the pair's own
            trial = list(colours)
            trial[slot_p - 1] = trial[n + slot_q - 1] = -1
            refined = _refine(trial, edges, n)
            if refined is not None:
                perm[slot_q - 1] = slot_p
                found = walk(depth + 1, refined)
                if found is not None:
                    return found
        return None

    witness = None if colours is None else walk(0, colours)
    if witness is not None:
        return IsoResult(witness, False, "signed monomial")
    if budget < 0:
        return IsoResult(None, False, "budget exhausted after %d candidates" % ISO_BUDGET)
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


def _d_columns(p, keys):
    """The matrix of d on the basis forms e^key: for each increasing key, the
    kernel's term map of d(e^key), with no form built."""
    return (ce_terms(p._dterms, {key: 1}) for key in keys)


_Field = namedtuple("_Field", "name built blocks cost")

# One row per fingerprint field, in fingerprint order: its value on a built
# presentation, on a flag nilradical's Levi block sizes (None when they do
# not give it) and its cost: 0 is read off, 1 and 2 one sparse rank (of the
# differentials, of the ad rows), 3 a bracket round per entry, 4 the rank
# of d on every 2-form.
_FIELDS = (
    _Field("dim", lambda p: p.dim, lambda b: _gap_dim(b, 1), 0),
    _Field("abelian", MalcevPresentation.is_abelian, lambda b: len(b) <= 2, 0),
    _Field("lcs_dims", lambda p: _bracket_series(p, True), lambda b: _block_series(b, True), 3),
    _Field(
        "derived_dims", lambda p: _bracket_series(p, False), lambda b: _block_series(b, False), 3
    ),
    _Field("center_dim", _center_dim, lambda b: b[0] * b[-1], 2),
    _Field("d1_rank", lambda p: rank(p._dterms), lambda b: _gap_dim(b, 2), 1),
    _Field(
        "d2_rank",
        lambda p: rank(_d_columns(p, itertools.combinations(range(1, p.dim + 1), 2))),
        None,
        4,
    ),
)

# Every comparison walks the fields cheapest first; ties keep fingerprint order.
_ORDER = tuple(sorted(_FIELDS, key=lambda row: row.cost))


def _field(p, row):
    """One field of p's fingerprint, computed on first use and kept on p."""
    memo = p._invariants
    if row.name not in memo:
        memo[row.name] = row.built(p)
    return memo[row.name]


def fingerprint(p):
    """Basis-independent invariants: dims of the lower central and derived
    series, center dimension and the per-degree ranks of d.

    Each field is memoized on the presentation itself, so it is computed at
    most once per presentation and freed with it; nothing is kept
    process-wide.
    """
    return tuple(_field(p, row) for row in _FIELDS)


def _first_difference(value, q, rows=_ORDER):
    """Name of the first of ``rows`` on which value(row), the other side's
    field, differs from q's field; None when they agree on all of them.

    Both values are asked for only when the walk reaches the row, so a cheap
    field that differs spares both sides the costly ones.  The walk stops
    once both sides are abelian: two abelian algebras of one dimension are
    equal presentations, so no further field can tell them apart.
    """
    for row in rows:
        mine = value(row)
        if mine != _field(q, row):
            return row.name
        if row.name == "abelian" and mine:
            break
    return None


def compare_fingerprints(p, q):
    """(equal, cheapest differing field name); a field of the two
    fingerprints is computed only when every cheaper field agreed.

    Equal presentations compare equal without computing any field; any other
    pair computes (or reuses) the fields memoized on each presentation.
    """
    if p == q:
        return True, None
    differs = _first_difference(lambda row: _field(p, row), q)
    return differs is None, differs


# --- random admissible triples for property suites -----------------------


def _closed_forms(p, keys):
    """Basis of the closed forms spanned by the basis forms e^key, ``keys``
    a list of increasing keys of one degree."""
    rows = {}
    for key, img in zip(keys, _d_columns(p, keys)):
        for tkey, c in img.items():
            rows.setdefault(tkey, {})[key] = c
    return [Form(len(keys[0]), terms) for terms in nullspace(rows.values(), keys)]


def _random_sum(rng, forms, degree, draws, coeffs):
    """Sum of c * f over rng.randint(*draws) draws of f in ``forms``, c in ``coeffs``."""
    total = Form.zero(degree)
    if forms:
        for _ in range(rng.randint(*draws)):
            f = forms[rng.randrange(len(forms))]
            total = total + rng.choice(coeffs) * f
    return total


def random_admissible_triple(rng, max_dim=8):
    """A random central-ideal admissible triple for property tests.

    The presentation is graded (two or three layers, so Jacobi holds by
    construction or by solving the closedness condition exactly), the
    ideal is the top layer and H is drawn from the closed 3-forms with at
    most one ideal leg per term.  max_dim must be at least 3.
    """
    max_dim = integer(max_dim, "max_dim")
    if max_dim < 3:
        raise ValueError("max_dim must be at least 3, got %d" % max_dim)
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
        terms = {key: rng.choice([-2, -1, -1, 1, 1, 2]) for key in pairs1 if rng.random() < 0.6}
        diffs.append(Form(2, terms))

    if layers == 3:
        keys = list(itertools.combinations(range(1, sizes[0] + sizes[1] + 1), 2))
        closed = _closed_forms(MalcevPresentation(list(diffs)), keys)
        diffs += [_random_sum(rng, closed, 2, (1, 2), [-1, 1, 2]) for _ in range(sizes[2])]

    algebra = MalcevPresentation(diffs)
    ideal = tuple(range(n - sizes[-1] + 1, n + 1))

    ideal_set = set(ideal)
    keys3 = [
        key
        for key in itertools.combinations(range(1, n + 1), 3)
        if sum(1 for i in key if i in ideal_set) <= 1
    ]
    flux = _random_sum(rng, _closed_forms(algebra, keys3), 3, (0, 3), [-2, -1, 1, 2])
    return AdmissibleTriple(algebra, ideal, flux)
