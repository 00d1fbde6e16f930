"""The full pipeline: nilradical, dualization, dual parabolic targets.

Also the maximal-flag self-dual flux construction, the three-summand run
ending in a projective space, and the integer obstruction scan that rules
out certain dual pairs on dimension grounds alone.
"""

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Optional

from .exterior import Form, wedge
from .nilradical import nilradical_presentation
from .rootsys import FlagSpec, build_root_system, isotropy_summands, three_summand_dims
from .tduality import (
    AdmissibleTriple,
    check_admissible,
    compare_fingerprints,
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
    rank_bound: Optional[int]
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
    """Every rank-l theta whose flag has dimension dim, by ascending bit mask.

    The dimension depends only on the block sizes b of theta,
    dim = ((l+1)**2 - sum b**2) / 2, so this walks the compositions of l+1
    with that sum of squares and enters only states that can still be
    completed.  ``feasible`` memoizes those (cells, squares) states; it does
    not depend on l or dim, so one dict serves a whole search.
    """
    thetas = []

    def walk(start, cells, squares, theta):
        if not cells:
            thetas.append(theta)
            return
        for b in range(1, cells + 1):
            if _completes(cells - b, squares - b * b, feasible):
                # a block of b cells from start: all but its last cell join theta
                walk(start + b, cells - b, squares - b * b,
                     theta + tuple(range(start, start + b - 1)))

    walk(1, l + 1, (l + 1) ** 2 - 2 * dim, ())
    thetas.sort(key=lambda theta: sum(1 << (t - 1) for t in theta))
    return thetas


@lru_cache(maxsize=None)
def _candidate_presentation(l, theta):
    return nilradical_presentation(FlagSpec("A", l, theta))


def _blocks(l, theta):
    cuts = [k for k in range(1, l + 1) if k not in theta]
    sizes = []
    prev = 0
    for c in cuts:
        sizes.append(c - prev)
        prev = c
    sizes.append(l + 1 - prev)
    return tuple(sizes)


def _canonical_theta(l, theta):
    """Pick one of theta / reversed theta; diagram flip gives the same flag."""
    rev = tuple(sorted(l + 1 - t for t in theta))
    if _blocks(l, rev) > _blocks(l, theta):
        return rev
    if _blocks(l, rev) < _blocks(l, theta):
        return theta
    return min(theta, rev)


def pretty_name(l, theta):
    """Quotient notation, with the projective-space alias when it applies."""
    blocks = _blocks(l, theta)
    name = "SU(%d)/S(%s)" % (l + 1, "×".join("U(%d)" % b for b in blocks))
    if len(blocks) == 2 and min(blocks) == 1:
        name += " ≅ CP^%d" % l
    return name


def find_targets(dual_algebra, rank_bound=None, budget=20000):
    """Parabolic nilradicals of matching dimension, confirmed by witness.

    Every rank is searched unless ``rank_bound`` caps it.  A rank-l flag
    with two or more blocks has dimension at least l (CP^l attains it), so
    no rank above the dual's dimension holds a candidate, and an uncapped
    search that comes up empty proves that no type-A parabolic target
    exists.  The one-block flags (points, dimension 0) are never targets.

    Returns (targets, reason); reason is None when targets exist, else a
    deterministic account of why the search came up empty.
    """
    if rank_bound is not None and rank_bound < 1:
        raise ValueError("rank_bound must be >= 1")
    dim = dual_algebra.dim
    top = dim if rank_bound is None else min(rank_bound, dim)
    feasible = {}
    seen = set()
    targets = []
    rejected = 0
    unconfirmed = 0
    for l in range(1, top + 1):
        for theta in _thetas_of_dim(l, dim, feasible):
            canon = _canonical_theta(l, theta)
            if (l, canon) in seen:
                continue
            seen.add((l, canon))
            cand, _legend = _candidate_presentation(l, canon)
            equal, _field = compare_fingerprints(cand, dual_algebra)
            if not equal:
                rejected += 1
                continue
            iso = iso_small(cand, dual_algebra, budget)
            if iso.witness is None:
                unconfirmed += 1
                continue
            targets.append(
                TargetCandidate(FlagSpec("A", l, canon), iso.witness, pretty_name(l, canon))
            )
    if targets:
        return targets, None
    if rank_bound is None:
        scope = ", every rank searched,"
    else:
        scope = " within rank bound %d" % rank_bound
    reason = (
        "no parabolic nilradical%s is isomorphic to the dual: "
        "%d candidates of dimension %d, %d rejected by invariant fingerprint, "
        "%d unconfirmed within search budget"
        % (scope, len(seen), dim, rejected, unconfirmed)
    )
    return targets, reason


def correspond_presentation(algebra, ideal, flux, rank_bound=None, budget=20000):
    """Dualize an explicit presentation and search for parabolic targets.

    ``rank_bound`` is an optional cap on the target rank (see find_targets).
    """
    if rank_bound is not None and rank_bound < 1:
        raise ValueError("rank bound must be >= 1")
    triple = AdmissibleTriple(algebra, tuple(ideal), flux)
    admissibility = check_admissible(triple)
    dualization = dualize(triple)
    certificate = duality_certificate(triple, dualization)
    targets, reason = find_targets(dualization.dual.algebra, rank_bound, budget)
    return CorrespondResult(
        algebra,
        triple.ideal,
        flux,
        admissibility,
        dualization,
        certificate,
        targets,
        reason,
        rank_bound,
    )


def correspond(flag, ideal_choice, rank_bound=None, budget=20000):
    """Pipeline entry for a flag manifold: nilradical, dual, targets."""
    presentation, legend = nilradical_presentation(flag.spec)
    result = correspond_presentation(
        presentation, ideal_choice, flag.flux, rank_bound, budget
    )
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
    triple = AdmissibleTriple(presentation, (n,), flux)
    report = check_admissible(triple)
    if not report.ok:
        return SelfDualReport(flux, report, None)
    dualization = dualize(triple)
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


def three_summand_correspond(l, m, n, rank_bound=None, budget=20000):
    """Dualize along the third summand of SU(l+m+n)/S(U(l)x U(m)x U(n))."""
    dims = three_summand_dims(l, m, n)
    total = sum(dims)
    rank = l + m + n - 1
    theta = tuple(k for k in range(1, rank + 1) if k not in (l, l + m))
    spec = FlagSpec("A", rank, theta)

    rs = build_root_system("A", rank)
    summands = isotropy_summands(rs, theta)
    ideal = tuple(range(total - summands[-1].dim + 1, total + 1))

    flag = FlowingFlag(spec, Form.zero(3))
    result = correspond(flag, ideal, rank_bound, budget)
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
