import ast
import pathlib
import warnings

import pytest

import flagflux

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
