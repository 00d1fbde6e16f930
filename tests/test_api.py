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

