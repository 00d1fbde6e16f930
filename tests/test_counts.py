"""Work counts as Tier-1 gates.

A count is exact and does not depend on the machine, so a count that grows
fails here where a timing would read as noise.  Each count must be the same
under every PYTHONHASHSEED, as the golden reports are; CI runs this file
under two seeds.
"""

import pytest

from flagflux import FlagSpec, Form, fingerprint, jacobi_check, nilradical_presentation, parse_malcev


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
