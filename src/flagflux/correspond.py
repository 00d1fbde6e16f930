"""The full pipeline: nilradical, dualization, dual parabolic targets.

Also the maximal-flag self-dual flux construction, the three-summand run
ending in a projective space, and the integer obstruction scan that rules
out certain dual pairs on dimension grounds alone.
"""

from dataclasses import dataclass, field
from typing import Optional

from ._kernel import integer
from .exterior import Form, wedge
from .nilradical import _nilradical, nilradical_presentation
from .rootsys import FlagSpec, theta_of_blocks, three_summand_dims
from .tduality import (
    AdmissibleTriple,
    BasisChange,
    DualityError,
    _ORDER,
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
    unconfirmed: list  # (FlagSpec, iso_small reason) of each undecided candidate
    source_spec: Optional[FlagSpec] = None
    legend: Optional[list] = None


def _blocks_of_dim(l, dim):
    """Levi block sizes of every rank-l flag of dimension dim, each flag
    once, in its larger orientation, by ascending bit mask of its theta.

    The dimension depends only on the block sizes b of theta,
    dim = ((l+1)**2 - sum b**2) / 2, so this walks the compositions of l+1
    with that sum of squares.  A state of c cells and r squares left is
    entered only when c <= r <= c*c and r - c is even.  No flag is lost:
    every composition of c cells meets both tests, since b <= b*b <= c*b
    and b*b - b is even for each of its blocks.  A state that passes them
    and still cannot be completed ends without output.

    The walk picks the last block first, smallest first: theta's mask is
    2**l - 1 less that of the cuts, whose top is l+1 - b_k, so masks compare
    blocks from the end and the walk's order is ascending mask.  A flag and
    its flip (blocks reversed) are one manifold, and the larger block
    sequence, the one with the smaller mask, is kept.  Theta itself is not
    formed here (``theta_of_blocks``): the search needs it only for a target.
    """
    found = []

    def walk(cells, squares, blocks):
        if not cells:
            if blocks >= blocks[::-1]:
                found.append(blocks)
            return
        for b in range(1, cells + 1):
            c, r = cells - b, squares - b * b
            if c <= r <= c * c and (r - c) % 2 == 0:
                walk(c, r, (b,) + blocks)

    walk(l + 1, (l + 1) ** 2 - 2 * dim, ())
    return found


def pretty_name(l, theta):
    """Quotient notation, with the projective-space alias when it applies."""
    return _name_of_blocks(FlagSpec("A", l, theta).blocks)


def _name_of_blocks(blocks):
    name = "SU(%d)/S(%s)" % (sum(blocks), "×".join("U(%d)" % b for b in blocks))
    if len(blocks) == 2 and min(blocks) == 1:
        name += " ≅ CP^%d" % (sum(blocks) - 1)
    return name


# The fingerprint fields that a flag's Levi blocks give, cheapest first.
_BLOCK_ORDER = tuple(row for row in _ORDER if row.blocks is not None)


def find_targets(dual_algebra):
    """Parabolic nilradicals isomorphic to the dual, each with a witness.

    Returns (targets, reason, unconfirmed); reason is None when targets
    exist, else a deterministic account of why the search came up empty.
    unconfirmed lists (spec, iso_small reason) for each candidate that
    agrees with the dual on every fingerprint field but that iso_small
    could neither map onto it nor prove distinct, whether or not targets
    exist.

    Every rank l from 1 to the dual's dimension is searched, in order: a
    flag with two or more blocks has dimension at least l (CP^l attains
    it), so no higher rank holds a candidate, and an empty search proves
    that no type-A parabolic target exists.  Within a rank the candidates
    are the flags of the dual's dimension from ``_blocks_of_dim``, each
    flag once, by ascending theta mask.

    A candidate is decided from its Levi blocks before it is built: every
    fingerprint field but d2_rank follows from them (the ``blocks`` column
    of ``tduality._FIELDS``), and the comparison walks those fields
    cheapest first, computing each block value only when it is reached, so
    a candidate that differs from the dual in one of them is rejected
    unbuilt.  A survivor with at most two blocks is abelian of the dual's
    dimension, as the dual then is, so the two are equal presentations and
    its witness is the identity.  A survivor with three or more blocks is
    built (``nilradical._nilradical``) with its block fields already
    known, and goes to iso_small; one that iso_small proves distinct counts
    as rejected by the fingerprint.  Theta is formed only for a target or
    an unconfirmed candidate.
    """
    dim = dual_algebra.dim
    targets = []
    unconfirmed = []
    candidates = 0
    rejected = 0
    for l in range(1, dim + 1):
        for blocks in _blocks_of_dim(l, dim):
            candidates += 1
            differs = _first_difference(lambda row: row.blocks(blocks), dual_algebra, _BLOCK_ORDER)
            if differs is not None:
                rejected += 1
                continue
            if len(blocks) <= 2:
                witness = BasisChange(tuple(range(1, dim + 1)), (1,) * dim)
            else:
                cand, _units = _nilradical(blocks)
                cand._invariants.update((row.name, row.blocks(blocks)) for row in _BLOCK_ORDER)
                iso = iso_small(cand, dual_algebra)
                if iso.witness is None:
                    if iso.proved_distinct:
                        rejected += 1
                    else:
                        unconfirmed.append((FlagSpec("A", l, theta_of_blocks(blocks)), iso.reason))
                    continue
                witness = iso.witness
            spec = FlagSpec("A", l, theta_of_blocks(blocks))
            targets.append(TargetCandidate(spec, witness, _name_of_blocks(blocks)))
    if targets:
        return targets, None, unconfirmed
    reason = (
        "no parabolic nilradical, every rank searched, is isomorphic to the dual: "
        "%d candidates of dimension %d, %d rejected by invariant fingerprint, "
        "%d unconfirmed within search budget"
        % (candidates, dim, rejected, len(unconfirmed))
    )
    return targets, reason, unconfirmed


def correspond_presentation(algebra, ideal, flux):
    """Dualize an explicit presentation and search for parabolic targets.

    The input must make an AdmissibleTriple (a Lie algebra, a flux within
    its dimension) and an admissible one; otherwise this raises
    MalcevValueError or DualityError before any search.
    """
    return _correspond(AdmissibleTriple(algebra, tuple(ideal), flux))


def _correspond(triple):
    dualization = dualize(triple)
    certificate = duality_certificate(triple, dualization)
    targets, reason, unconfirmed = find_targets(dualization.dual.algebra)
    return CorrespondResult(
        triple.algebra,
        triple.ideal,
        triple.flux,
        dualization.admissibility,
        dualization,
        certificate,
        targets,
        reason,
        unconfirmed,
    )


def correspond(flag, ideal_choice):
    """Pipeline entry for a flag manifold: nilradical, dual, targets."""
    presentation, legend = nilradical_presentation(flag.spec)
    result = _correspond(AdmissibleTriple(presentation, tuple(ideal_choice), flag.flux))
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
    """No n >= 4, l >= 2 solve n**2+n-2 = l**2-l: it is (n + l)(n - l + 1) = 2,
    and n + l >= 6 > 2.  Any bound costs O(1); ``scanned_to`` is the bound.

    The e6 comparison is the fixed pair of complex dimensions 24 and 16,
    which differ, closing the exceptional case the same way.
    """
    bound = integer(bound, "bound")
    if bound < 4:
        raise ValueError("bound must be >= 4")
    return ObstructionReport([], bound, (24, 16), 24 != 16)
