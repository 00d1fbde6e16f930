"""The full pipeline: nilradical, dualization, dual parabolic targets.

Also the maximal-flag self-dual flux construction, the three-summand run
ending in a projective space, and the integer obstruction scan that rules
out certain dual pairs on dimension grounds alone.
"""

import math
from dataclasses import dataclass, field
from typing import Optional

from .exterior import Form, wedge
from .nilradical import nilradical_presentation, parabolic_fields
from .rootsys import FlagSpec, block_sizes, theta_of_blocks, three_summand_dims
from .tduality import (
    AdmissibleTriple,
    DualityError,
    _first_difference,
    dualize,
    duality_certificate,
    iso_small,
)

__all__ = [
    "FlowingFlag",
    "TargetCandidate",
    "CorrespondResult",
    "SelfDualReport",
    "ThreeSummandReport",
    "ObstructionReport",
    "correspond",
    "correspond_presentation",
    "find_targets",
    "pretty_name",
    "selfdual_flux",
    "three_summand_correspond",
    "dimension_obstruction_scan",
]

@dataclass(frozen=True)
class FlowingFlag:
    spec: FlagSpec
    flux: Form

    def __post_init__(self):
        if self.flux.degree != 3:
            raise ValueError("flux must be a 3-form")


@dataclass
class TargetCandidate:
    spec: FlagSpec
    witness: object
    pretty_name: str

    def to_json(self):
        return {
            "series": self.spec.series,
            "rank": self.spec.rank,
            "theta": list(self.spec.theta),
            "pretty_name": self.pretty_name,
            "witness": self.witness.to_json() if self.witness else None,
        }


@dataclass
class CorrespondResult:
    algebra: object
    ideal: tuple
    flux: Form
    admissibility: object
    dualization: object
    certificate: object
    targets: list
    search_reason: Optional[str]
    source_spec: Optional[FlagSpec] = None
    legend: Optional[list] = None


def _completes(cells, squares, feasible):
    """Whether a composition of ``cells`` has block squares summing to ``squares``."""
    if not cells <= squares <= cells * cells:
        return False
    key = (cells, squares)
    if key not in feasible:
        feasible[key] = cells == 0 or any(
            _completes(cells - b, squares - b * b, feasible)
            for b in range(1, cells + 1)
        )
    return feasible[key]


def _thetas_of_dim(l, dim, feasible):
    """(theta, block sizes) of every rank-l flag of dimension dim, each flag
    once, in its larger block orientation, by ascending bit mask of theta.

    The dimension depends only on the block sizes b of theta,
    dim = ((l+1)**2 - sum b**2) / 2, so this walks the compositions of l+1
    with that sum of squares and enters only states that can still be
    completed.  ``feasible`` memoizes those (cells, squares) states; it does
    not depend on l or dim, so one dict serves a whole search.

    The walk picks the last block first, smallest first: theta's mask is
    2**l - 1 less that of the cuts, whose top is l+1 - b_k, so masks compare
    blocks from the end and the walk's order is ascending mask.  A flag and
    its flip (blocks reversed) are one manifold, and the larger block
    sequence, the one with the smaller mask, is kept.
    """
    found = []

    def walk(cells, squares, blocks):
        if not cells:
            if blocks >= blocks[::-1]:
                found.append((theta_of_blocks(blocks), blocks))
            return
        for b in range(1, cells + 1):
            if _completes(cells - b, squares - b * b, feasible):
                walk(cells - b, squares - b * b, (b,) + blocks)

    walk(l + 1, (l + 1) ** 2 - 2 * dim, ())
    return found


def pretty_name(l, theta):
    """Quotient notation, with the projective-space alias when it applies."""
    blocks = block_sizes(l, theta)
    name = "SU(%d)/S(%s)" % (l + 1, "×".join("U(%d)" % b for b in blocks))
    if len(blocks) == 2 and min(blocks) == 1:
        name += " ≅ CP^%d" % l
    return name


def find_targets(dual_algebra):
    """Parabolic nilradicals of matching dimension, confirmed by witness.

    Every rank is searched.  A rank-l flag with two or more blocks has
    dimension at least l (CP^l attains it), so no rank above the dual's
    dimension holds a candidate, and a search that comes up empty proves
    that no type-A parabolic target exists.  The one-block flags (points,
    dimension 0) are never targets.  A flag and its diagram flip are one
    manifold, so each flag is enumerated once, in its larger block
    orientation (``_thetas_of_dim``), and is one candidate.

    A candidate is decided from its Levi blocks b_1..b_k before it is built.
    Its nilradical is sum_{p<q} Hom(V_q, V_p), and the product of the full
    blocks n_pq and n_qr spans the whole block n_pr, so with
    a(g) = sum_{q-p >= g} b_p b_q the fingerprint has dim = a(1),
    abelian iff k <= 2, d1_rank = a(2), center_dim = b_1 b_k, lcs_dims =
    (a(2), a(3), ...) and derived_dims = (a(2), a(4), a(8), ...), each down
    to its first 0 (``parabolic_fields``).  A candidate whose block fields
    differ from the dual's is rejected unbuilt and never bracketed; only a
    survivor is built, with those fields already known, and goes to
    iso_small, whose own fingerprint comparison computes only d2_rank; a
    survivor it proves distinct counts as rejected by the fingerprint.  An
    abelian survivor equals an abelian dual and needs no field at all.

    The block fields are checked in that order, and each of the dual's
    fields is computed when a candidate first reaches it and then kept on
    the dual: its d1_rank and center_dim are sparse ranks read off its
    structure constants, and its bracket series are computed only when some
    candidate agrees with it on both.  The order cannot change the outcome,
    since a candidate survives only when all of its fields agree.

    Returns (targets, reason); reason is None when targets exist, else a
    deterministic account of why the search came up empty.
    """
    dim = dual_algebra.dim
    feasible = {}
    targets = []
    candidates = 0
    rejected = 0
    unconfirmed = 0
    for l in range(1, dim + 1):
        for theta, blocks in _thetas_of_dim(l, dim, feasible):
            candidates += 1
            # the block fields are kept as they stream, for a survivor's memo
            known = {}
            fields = (
                (name, known.setdefault(name, value))
                for name, value in parabolic_fields(blocks)
            )
            if _first_difference(fields, dual_algebra) is not None:
                rejected += 1
                continue
            spec = FlagSpec("A", l, theta)
            cand, _legend = nilradical_presentation(spec)
            cand._invariants.update(known)
            iso = iso_small(cand, dual_algebra)
            if iso.witness is not None:
                targets.append(TargetCandidate(spec, iso.witness, pretty_name(l, theta)))
            elif iso.proved_distinct:
                rejected += 1
            else:
                unconfirmed += 1
    if targets:
        return targets, None
    reason = (
        "no parabolic nilradical, every rank searched, is isomorphic to the dual: "
        "%d candidates of dimension %d, %d rejected by invariant fingerprint, "
        "%d unconfirmed within search budget"
        % (candidates, dim, rejected, unconfirmed)
    )
    return targets, reason


def correspond_presentation(algebra, ideal, flux):
    """Dualize an explicit presentation and search for parabolic targets.

    The input must make an AdmissibleTriple (a Lie algebra, a flux within
    its dimension) and an admissible one; otherwise this raises
    MalcevValueError or DualityError before any search.
    """
    triple = AdmissibleTriple(algebra, tuple(ideal), flux)
    dualization = dualize(triple)
    certificate = duality_certificate(triple, dualization)
    targets, reason = find_targets(dualization.dual.algebra)
    return CorrespondResult(
        algebra,
        triple.ideal,
        flux,
        dualization.admissibility,
        dualization,
        certificate,
        targets,
        reason,
    )


def correspond(flag, ideal_choice):
    """Pipeline entry for a flag manifold: nilradical, dual, targets."""
    presentation, legend = nilradical_presentation(flag.spec)
    result = correspond_presentation(presentation, ideal_choice, flag.flux)
    result.source_spec = flag.spec
    result.legend = legend
    return result


@dataclass
class SelfDualReport:
    flux: Form
    admissibility: object
    selfdual: Optional[bool]
    dualization: object = None
    witness: object = None
    flux_matches: Optional[bool] = None


def selfdual_flux(spec):
    """Flux built from the top-root slot of a maximal flag.

    H = -(de^n) wedge e^n with a = the highest-root direction; when every
    admissibility flag holds this dualizes to an equivalent triple.  The
    closedness of H fails beyond rank 2, in which case the report carries
    the failing admissibility flag and selfdual stays undecided.
    """
    if spec.theta:
        raise ValueError("self-dual flux needs a maximal flag (empty theta)")
    presentation, _legend = nilradical_presentation(spec)
    n = presentation.dim
    flux = -wedge(presentation.differentials[n - 1], Form.basis(n))
    try:
        dualization = dualize(AdmissibleTriple(presentation, (n,), flux))
    except DualityError as exc:
        return SelfDualReport(flux, exc.report, None)
    report = dualization.admissibility
    iso = iso_small(presentation, dualization.dual.algebra)
    if iso.witness is None:
        verdict = False if iso.proved_distinct else None
        return SelfDualReport(flux, report, verdict, dualization)
    pulled = iso.witness.pull_form(dualization.dual.flux)
    matches = pulled == flux
    return SelfDualReport(flux, report, bool(matches), dualization, iso.witness, matches)


@dataclass
class ThreeSummandReport:
    dims: tuple
    spec: FlagSpec
    result: CorrespondResult
    cp_target: Optional[TargetCandidate]
    ok: bool
    notes: list = field(default_factory=list)


def three_summand_correspond(l, m, n):
    """Dualize along the third summand of SU(l+m+n)/S(U(l)x U(m)x U(n))."""
    dims = three_summand_dims(l, m, n)
    total = sum(dims)
    spec = FlagSpec("A", l + m + n - 1, theta_of_blocks((l, m, n)))
    ideal = tuple(range(total - dims[-1] + 1, total + 1))

    flag = FlowingFlag(spec, Form.zero(3))
    result = correspond(flag, ideal)
    notes = []
    dual = result.dualization.dual
    if not dual.algebra.is_abelian():
        notes.append("dual algebra is not abelian")
    if dual.flux.is_zero():
        notes.append("dual flux vanishes")
    cp = None
    for t in result.targets:
        if t.spec.rank == total and len(t.spec.theta) == total - 1:
            cp = t
            break
    if cp is None:
        notes.append("CP^%d not among targets" % total)
    return ThreeSummandReport(dims, spec, result, cp, not notes, notes)


@dataclass
class ObstructionReport:
    dl_solutions: list
    scanned_to: int
    e6_dims: tuple
    e6_check: bool


def dimension_obstruction_scan(bound):
    """Scan n**2+n-2 = l**2-l for n >= 4; the claim is that nothing hits.

    The e6 comparison is the fixed pair of complex dimensions 24 and 16,
    which differ, closing the exceptional case the same way.
    """
    if bound < 4:
        raise ValueError("bound must be >= 4")
    solutions = []
    for n in range(4, bound + 1):
        target = n * n + n - 2
        l = (1 + math.isqrt(1 + 4 * target)) // 2
        if 2 <= l <= bound and l * (l - 1) == target:
            solutions.append((n, l))
    return ObstructionReport(solutions, bound, (24, 16), 24 != 16)
