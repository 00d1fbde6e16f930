"""Work counts as Tier-1 gates.

A count is exact and does not depend on the machine, so a count that grows
fails here where a timing would read as noise.  Each count must be the same
under every PYTHONHASHSEED, as the golden reports are; CI runs this file
under two seeds.
"""

import importlib
import random
from collections import Counter

import pytest

from flagflux import (
    FlagSpec,
    BasisChange,
    FlowingFlag,
    Form,
    IsoResult,
    build_root_system,
    correspond,
    fingerprint,
    isotropy_summands,
    iso_small,
    jacobi_check,
    nilradical_presentation,
    parse_malcev,
)
from flagflux import tduality
from flagflux.nilradical import _nilradical

C = importlib.import_module("flagflux.correspond")


@pytest.fixture
def built_degrees(monkeypatch):
    """The degree of each Form constructed while the test runs, in order."""
    degrees = []
    init = Form.__init__

    def counted(self, degree, terms=None):
        degrees.append(degree)
        init(self, degree, terms)

    monkeypatch.setattr(Form, "__init__", counted)
    return degrees


def maximal_a5():
    p, _legend = nilradical_presentation(FlagSpec("A", 5))
    return p


def test_fingerprint_of_maximal_a5_builds_no_form(built_degrees):
    # the ranks of d and the bracket series read term maps and structure
    # constants; building the presentation is not counted
    p = maximal_a5()
    built_degrees.clear()
    assert fingerprint(p) == (15, False, (10, 6, 3, 1, 0), (10, 3, 0), 1, 10, 81)
    assert built_degrees == []


def test_jacobi_check_of_a_lie_algebra_builds_no_form(built_degrees):
    p = maximal_a5()
    built_degrees.clear()
    assert jacobi_check(p).ok
    assert built_degrees == []


def test_jacobi_failure_builds_its_residual_alone(built_degrees):
    p = parse_malcev("(0,0,0,-e^{12},-e^{34})")
    built_degrees.clear()
    report = jacobi_check(p)
    assert built_degrees == [3]
    assert (report.ok, report.failing_index) == (False, 5)
    assert report.residual.terms == {(1, 2, 3): -1}


@pytest.fixture
def search_counts(monkeypatch):
    """What the target search decides: one "candidates" count per block
    comparison, the field that rejects each rejected candidate, the
    "survivors" that agree on every block field, and the iso_small calls."""
    counts = Counter()
    first_difference, iso_small = C._first_difference, C.iso_small

    def compared(*args):
        differs = first_difference(*args)
        counts["candidates"] += 1
        counts[differs or "survivors"] += 1
        return differs

    def counted_iso(p, q):
        counts["iso_small"] += 1
        return iso_small(p, q)

    monkeypatch.setattr(C, "_first_difference", compared)
    monkeypatch.setattr(C, "iso_small", counted_iso)
    return counts


def test_a5_sweep_search_counts(search_counts):
    # every flag of A5 but the point, zero flux, dualized along its last
    # summand, which is central
    rs = build_root_system("A", 5)
    targets = 0
    for mask in range((1 << 5) - 1):
        theta = tuple(i + 1 for i in range(5) if mask >> i & 1)
        summands = isotropy_summands(rs, theta)
        dim = sum(s.dim for s in summands)
        ideal = tuple(range(dim - summands[-1].dim + 1, dim + 1))
        targets += len(correspond(FlowingFlag(FlagSpec("A", 5, theta), Form.zero(3)), ideal).targets)
    # each survivor has at most two blocks, so no iso_small call is counted
    assert targets == 23
    assert search_counts == {
        "candidates": 195,
        "abelian": 87,
        "d1_rank": 77,
        "center_dim": 8,
        "survivors": 23,
    }


@pytest.fixture
def refine_counts(monkeypatch):
    """The "calls" of ``tduality._refine`` and their "rounds": a round walks
    the slot edges once, so the edges handed to each call count their
    iterations."""
    counts = Counter()
    refine = tduality._refine

    class CountedEdges(list):
        def __iter__(self):
            counts["rounds"] += 1
            return super().__iter__()

    def counted(colours, edges, n):
        counts["calls"] += 1
        return refine(colours, CountedEdges(edges), n)

    monkeypatch.setattr(tduality, "_refine", counted)
    return counts


def seeded_relabelling(p, rng):
    """A signed relabelling of p that keeps its filtration, drawn by rng."""
    needs = {k: {i for key in f.terms for i in key} for k, f in enumerate(p.differentials, 1)}
    order = []
    while needs:
        k = rng.choice([k for k in sorted(needs) if needs[k] <= set(order)])
        order.append(k)
        del needs[k]
    return BasisChange(tuple(order), tuple(rng.choice((1, -1)) for _ in order))


@pytest.mark.parametrize(
    "blocks, calls, rounds",
    [((3, 3, 3), 6, 17), ((2, 5, 2), 5, 14), ((2, 2, 2, 2), 3, 9)],
    ids=["n(3,3,3)", "n(2,5,2)", "n(2,2,2,2)"],
)
def test_iso_search_counts_on_a_relabelling(refine_counts, blocks, calls, rounds):
    # one refinement from a single colour at the root, then one per
    # individualised pair
    p, _units = _nilradical(blocks)
    q = seeded_relabelling(p, random.Random(1)).apply(p)
    result = iso_small(p, q)
    assert result.witness.apply(p) == q
    assert refine_counts == {"calls": calls, "rounds": rounds}


def test_iso_search_of_a_fingerprint_tie_ends_at_the_root(refine_counts):
    result = iso_small(_nilradical((2, 5, 2))[0], _nilradical((4, 4, 1))[0])
    assert result == IsoResult(None, False, "search space exhausted without witness")
    assert refine_counts == {"calls": 1, "rounds": 1}
