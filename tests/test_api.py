import ast
import enum
import pathlib
import random
import re
import warnings
from fractions import Fraction

import pytest

import flagflux
from flagflux import (
    AdmissibleTriple,
    BasisChange,
    FlagSpec,
    Form,
    Root,
    build_root_system,
    complex_matrix,
    interior,
    dimension_obstruction_scan,
    make_block,
    parse_form,
    parse_malcev,
    phi_matrix,
    random_admissible_triple,
    split_pairing,
    three_summand_dims,
)
from flagflux._kernel import integers
from flagflux.cli import UsageError, _as_int, _as_int_tuple

# The package's public names, one entry per name.
PUBLIC = {
    "__version__",
    "Form", "MalcevPresentation", "MalcevSyntaxError", "MalcevValueError",
    "wedge", "interior", "ce_diff", "parse_form", "print_form", "parse_malcev",
    "print_malcev",
    "Root", "RootSystem", "FlagSpec", "IsotropySummand", "UnsupportedSeriesError",
    "build_root_system", "complementary_positive_roots", "isotropy_summands",
    "three_summand_dims", "flag_dimension",
    "JacobiReport", "nilradical_presentation", "jacobi_check", "legend_to_json",
    "AdmissibleTriple", "AdmissibilityReport", "DualityError", "DualizationResult",
    "SlotMap", "CertificateReport", "BasisChange", "IsoResult", "check_admissible",
    "dualize", "duality_certificate", "iso_small", "fingerprint",
    "compare_fingerprints", "random_admissible_triple",
    "FlowingFlag", "TargetCandidate", "CorrespondResult", "SelfDualReport",
    "ThreeSummandReport", "ObstructionReport", "correspond",
    "correspond_presentation", "find_targets", "pretty_name", "selfdual_flux",
    "three_summand_correspond", "dimension_obstruction_scan",
    "GcsBlock", "TransportedBlock", "IntegrabilityReport", "complex_matrix",
    "noncomplex_matrix", "phi_matrix", "split_pairing", "make_block",
    "phi_conjugate", "classify_block", "integrability_necessary",
}


def test_public_names_are_pinned():
    assert len(flagflux.__all__) == len(set(flagflux.__all__))
    assert set(flagflux.__all__) == PUBLIC


def test_every_public_name_resolves():
    for name in flagflux.__all__:
        assert getattr(flagflux, name) is not None, name


def test_warnings_from_flagflux_fail_the_suite():
    # pyproject's filterwarnings turns a warning raised from flagflux code
    # into an error, in the tests and the doctests alike
    with pytest.raises(UserWarning, match="probe"):
        warnings.warn_explicit("probe", UserWarning, "exterior.py", 1, module="flagflux.exterior")


def _unused_imports(source):
    """(line, name) of each name that ``source`` imports and never reads;
    a name listed in its ``__all__`` counts as read."""
    tree = ast.parse(source)
    imported, read = [], set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported += [
                (node.lineno, (alias.asname or alias.name).partition(".")[0])
                for alias in node.names
                if alias.name != "*"
            ]
        elif isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            read.update(
                e.value for e in ast.walk(node.value) if isinstance(e, ast.Constant)
            )
    return [(line, name) for line, name in imported if name not in read]


def test_unused_import_is_found():
    source = "from .rootsys import FlagSpec, build_root_system\nFlagSpec('A', 1)\n"
    assert _unused_imports(source) == [(1, "build_root_system")]
    assert _unused_imports("import os.path\nos.sep\n__all__ = ['x']\nfrom m import x\n") == []


def test_no_module_imports_a_name_it_never_uses():
    package = pathlib.Path(flagflux.__file__).parent
    unused = [
        "%s:%d %s" % (path.name, line, name)
        for path in sorted(package.glob("*.py"))
        for line, name in _unused_imports(path.read_text(encoding="utf-8"))
    ]
    assert unused == []


def _number_rule_spellings(source):
    """Line of each spelling of the number rule in ``source``: an
    ``isinstance`` test against ``bool``, or ``type(...) is int`` and
    ``type(...) is not int``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance":
            classes = node.args[1:]
            if classes and isinstance(classes[0], ast.Tuple):
                classes = classes[0].elts
            if any(getattr(c, "id", None) == "bool" for c in classes):
                found.append(node.lineno)
        elif isinstance(node, ast.Compare) and any(
            isinstance(op, (ast.Is, ast.IsNot)) for op in node.ops
        ):
            operands = [node.left, *node.comparators]
            typed = any(
                isinstance(o, ast.Call) and getattr(o.func, "id", None) == "type" for o in operands
            )
            if typed and any(getattr(o, "id", None) == "int" for o in operands):
                found.append(node.lineno)
    return found


def test_number_rule_spelling_is_found():
    source = (
        "isinstance(x, bool)\nisinstance(x, (int, bool))\ntype(x) is int\n"
        "type(x) is not int\ntype(a) is type(b) is int\n"
        "isinstance(x, int)\ntype(x) is Fraction\nx is None\n"
    )
    assert _number_rule_spellings(source) == [1, 2, 3, 4, 5]


def test_only_the_kernel_spells_the_number_rule():
    # every outside int or rational goes through _kernel's checkers, so the
    # rule for what counts as one has a single home
    package = pathlib.Path(flagflux.__file__).parent
    spelled = [
        "%s:%d" % (path.name, line)
        for path in sorted(package.glob("*.py"))
        if path.name != "_kernel.py"
        for line in _number_rule_spellings(path.read_text(encoding="utf-8"))
    ]
    assert spelled == []


def _del_statements(source):
    """(enclosing function or None, line) of each ``del`` statement in
    ``source``."""
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Delete):
                found.append((function, child.lineno))
            inner = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, child.name if inner else function)

    visit(ast.parse(source), None)
    return found


def test_del_statement_is_found():
    source = (
        "del a\ndef f(row):\n    del row[1]\n    def g():\n        del b, c\n"
        "class C:\n    def m(self):\n        del self.x\n    y = {}.pop(1)\n"
    )
    assert _del_statements(source) == [(None, 1), ("f", 3), ("g", 5), ("m", 8)]


def test_only_subtract_cancels_in_place():
    # sums settle through _kernel.settle, which drops the zeros once; only
    # echelon's row update cancels as it goes, since echelon reads the
    # row's least column after every step
    package = pathlib.Path(flagflux.__file__).parent
    found = [
        (path.name, function)
        for path in sorted(package.glob("*.py"))
        for function, _line in _del_statements(path.read_text(encoding="utf-8"))
    ]
    assert found == [("_linalg.py", "_subtract")]


def _unchecked_builds(source):
    """(enclosing qualified name or None, spelling) of each ``_adopt``
    attribute and each ``object.__new__`` in ``source``."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Attribute):
                if child.attr == "_adopt":
                    found.append((scope, "_adopt"))
                elif child.attr == "__new__" and getattr(child.value, "id", None) == "object":
                    found.append((scope, "object.__new__"))
            named = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            visit(child, ".".join(filter(None, (scope, child.name))) if named else scope)

    visit(ast.parse(source), None)
    return found


def test_unchecked_build_is_found():
    source = (
        "class F:\n    def _adopt(cls):\n        return object.__new__(cls)\n"
        "def g():\n    return F._adopt()\nF._adopt\nobject.__init__\n"
    )
    assert _unchecked_builds(source) == [
        ("F._adopt", "object.__new__"), ("g", "_adopt"), (None, "_adopt"),
    ]


def test_nothing_builds_unchecked():
    # every form and presentation goes through its checking constructor
    package = pathlib.Path(flagflux.__file__).parent
    found = [
        (path.name, scope, spelling)
        for path in sorted(package.glob("*.py"))
        for scope, spelling in _unchecked_builds(path.read_text(encoding="utf-8"))
    ]
    assert found == []


class Half(Fraction):
    pass


def _heisenberg_ideal(v):
    return AdmissibleTriple(parse_malcev("(0,0,-e^{12})"), (v,), Form.zero(3)).ideal[0]


# (boundary, call on one number returning what it stores or returns, a value
# it accepts, the error of a rejected value)
INTEGER_BOUNDARIES = [
    ("Form degree", lambda v: Form(v).degree, 2, TypeError),
    ("Form key index", lambda v: min(Form(2, {(1, v): 1}).terms)[1], 2, TypeError),
    ("Form.from_terms index", lambda v: min(Form.from_terms(2, [((1, v), 1)]).terms)[1], 2,
     TypeError),
    ("parse_form degree", lambda v: parse_form("e^{12}", v).degree, 2, TypeError),
    ("interior index", lambda v: interior(v, Form.basis(1, 2)).terms[(2,)], 1, TypeError),
    ("parse_malcev dim", lambda v: parse_malcev("(0)", v).dim, 1, TypeError),
    ("Root", lambda v: Root(1, v, 3).col, 2, TypeError),
    ("FlagSpec rank", lambda v: FlagSpec("A", v).rank, 2, TypeError),
    ("FlagSpec theta", lambda v: FlagSpec("A", 3, (v,)).theta[0], 2, TypeError),
    ("build_root_system rank", lambda v: build_root_system("A", v).rank, 2, TypeError),
    ("three_summand_dims", lambda v: three_summand_dims(v, 1, 1)[0], 2, TypeError),
    ("random_admissible_triple max_dim",
     lambda v: random_admissible_triple(random.Random(0), v).algebra.dim, 3, TypeError),
    ("AdmissibleTriple ideal", _heisenberg_ideal, 2, TypeError),
    ("BasisChange perm", lambda v: BasisChange((1, v), (1, 1)).perm[1], 2, TypeError),
    ("dimension_obstruction_scan", lambda v: dimension_obstruction_scan(v).scanned_to, 5,
     TypeError),
    ("make_block sign", lambda v: make_block("complex", sign=v).params[0], 1, TypeError),
    ("complex_matrix", lambda v: complex_matrix(v)[1][0], 1, TypeError),
    ("phi_matrix", lambda v: phi_matrix(v, 1)[0][0], 1, TypeError),
    ("split_pairing", lambda v: len(split_pairing(v)), 2, TypeError),
    ("cli _as_int", lambda v: _as_int(v, "rank"), 2, UsageError),
    ("cli _as_int_tuple", lambda v: _as_int_tuple([v], "ideal")[0], 2, UsageError),
]

RATIONAL_BOUNDARIES = [
    ("Form coefficient", lambda v: Form(1, {(1,): v}).terms[(1,)]),
    ("Form.from_terms coefficient", lambda v: Form.from_terms(1, [((1,), v)]).terms[(1,)]),
    ("Form scalar", lambda v: (Form.basis(1) * v).terms[(1,)]),
]


class TestBoundaryTable:
    """Every boundary takes an int or rational subclass and keeps it plain,
    and rejects a bool, a float and text, through the one kernel rule."""

    @pytest.mark.parametrize(
        "call, good, error",
        [row[1:] for row in INTEGER_BOUNDARIES],
        ids=[row[0] for row in INTEGER_BOUNDARIES],
    )
    def test_integer_boundary(self, call, good, error):
        value = enum.IntEnum("Value", {"V": good}).V
        got = call(value)
        assert type(got) is int and got == call(good)
        for bad in (True, float(good), str(good)):
            with pytest.raises(error):
                call(bad)

    @pytest.mark.parametrize(
        "call", [row[1] for row in RATIONAL_BOUNDARIES], ids=[row[0] for row in RATIONAL_BOUNDARIES]
    )
    def test_rational_boundary(self, call):
        got = call(enum.IntEnum("Value", {"V": 2}).V)
        assert type(got) is int and got == 2
        got = call(Half(1, 2))
        assert type(got) is Fraction and got == Fraction(1, 2)
        got = call(Half(4, 2))
        assert type(got) is int and got == 2
        for bad in (True, 2.0, "2"):
            with pytest.raises(TypeError):
                call(bad)


# (what the message calls the values, a call that reads them)
INTEGERS_READERS = [
    ("ideal slots", lambda v: integers(v, "ideal slots")),
    ("ideal slots", lambda v: AdmissibleTriple(parse_malcev("(0,0,-e^{12})"), v, Form.zero(3))),
    ("key indices", lambda v: Form.from_terms(1, [(v, 1)])),
]


@pytest.mark.parametrize("what, call", INTEGERS_READERS, ids=["integers", "ideal", "from_terms"])
@pytest.mark.parametrize(
    "make, named",
    [
        (lambda: (k for k in [1.0]), "(1.0,)"),
        (lambda: iter([1, True]), "(1, True)"),
        (lambda: [2, "3"], "(2, '3')"),
        (lambda: {1: 2}, "{1: 2}"),
        (lambda: 5, "5"),
    ],
    ids=["generator", "iterator", "list", "mapping", "non-iterable"],
)
def test_refused_integers_are_named_as_read(what, call, make, named):
    # an iterable is named by the tuple read from it, not as a spent
    # iterator; what cannot be read as values is named as given
    message = "^%s must be integers, got %s$" % (what, re.escape(named))
    with pytest.raises(TypeError, match=message):
        call(make())


def test_refused_form_key_is_named_as_read():
    with pytest.raises(TypeError, match=r"^key indices must be integers, got \(1\.0,\)$"):
        Form(1, {(k for k in [1.0]): 1})
