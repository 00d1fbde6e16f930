"""Command line front end with reproducible JSON and text reports.

Every subcommand accepts its inputs as flags or as a JSON config file;
on conflict the file wins and a warning goes to stderr.  Reports carry
no timestamps, so identical configs give byte-identical output.  Exit
codes: 0 success, 1 domain error (machine-readable error object on
stdout), 2 parse or usage error (a usage line, then ``flagflux <command>:
error: <message>``, on stderr).

The front end is one standard-library ``argparse`` parser, built at import
from the ``_COMMANDS`` table; every command takes ``--help``.
"""

import argparse
import json
import os
import sys
from collections import namedtuple
from functools import partial
from importlib import resources

from ._kernel import is_int
from .correspond import correspond_presentation, selfdual_flux
from .exterior import (
    MalcevSyntaxError,
    MalcevValueError,
    parse_form,
    parse_malcev,
    print_form,
    print_malcev,
)
from .gcs import block_from_json, integrability_necessary, phi_conjugate
from .nilradical import jacobi_check, legend_to_json, nilradical_presentation
from .rootsys import (
    FlagSpec,
    UnsupportedSeriesError,
    build_root_system,
    complementary_positive_roots,
    flag_dimension,
    isotropy_summands,
)
from .tduality import AdmissibleTriple, DualityError, dualize, duality_certificate


class UsageError(Exception):
    """Input the command cannot read: exit 2, the message on stderr."""


def _echo(text, err=False):
    """Write one line to stdout or stderr.

    A stream whose encoding cannot hold the text, such as ASCII under
    ``LC_ALL=C``, gets it as UTF-8, the encoding configs are read in.
    """
    stream = sys.stderr if err else sys.stdout
    try:
        stream.write(text + "\n")
    except UnicodeEncodeError:
        stream.flush()
        stream.buffer.write((text + "\n").encode("utf-8"))


def _dump(report):
    return json.dumps(report, sort_keys=True, indent=2)


def _emit(command, cfg, fmt):
    report = _report(command, cfg)
    if fmt == "text":
        _echo("\n".join(_COMMANDS[command].text(report)))
    else:
        _echo(_dump(report))


def _domain_error(kind, message, extra=None):
    body = {"kind": kind, "message": message}
    if extra:
        body.update(extra)
    _echo(_dump({"error": body}))
    return 1


def _parse_int_list(text):
    text = text.strip()
    if not text:
        return ()
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise UsageError("expected a comma-separated integer list, got %r" % text)


def _as_int_tuple(value, label):
    if value is None:
        return ()
    if isinstance(value, str):
        return _parse_int_list(value)
    if isinstance(value, (list, tuple)) and all(map(is_int, value)):
        return tuple(map(int, value))
    raise UsageError("%s must be a list of integers" % label)


def _as_int(value, label):
    if not is_int(value):
        raise UsageError("%s must be an integer, got %r" % (label, value))
    return int(value)


def _as_str(value, label):
    if not isinstance(value, str):
        raise UsageError("%s must be a string, got %r" % (label, value))
    return value


def _check_keys(cfg, keys, where):
    unknown = sorted(set(cfg) - set(keys))
    if unknown:
        raise UsageError(
            "unknown key%s in %s: %s"
            % ("s" if len(unknown) > 1 else "", where, ", ".join(map(repr, unknown)))
        )


def _merge(config_path, flags):
    """Typed flags plus config file; the file wins per key, conflicts warned."""
    cfg = {}
    if config_path:
        with open(config_path, encoding="utf-8") as fh:
            cfg = json.load(fh)
        if not isinstance(cfg, dict):
            raise UsageError("config file must hold a JSON object")
    for key in flags:
        if key in cfg:
            _echo("warning: config file overrides --%s" % key, err=True)
    return {**flags, **cfg}


def _spec_from_cfg(cfg):
    series = _as_str(cfg.get("series", "A"), "series")
    if cfg.get("rank") is None:
        raise UsageError("missing --rank (or config key \"rank\")")
    rank = _as_int(cfg["rank"], "rank")
    return FlagSpec(series, rank, _as_int_tuple(cfg.get("theta"), "theta"))


def _algebra_from_cfg(cfg):
    """(presentation, source spec) of an explicit Malcev string (spec None)
    or of a flag spec whose nilradical we build.

    A key of the other branch is a usage error, not silently dropped; the
    series counts only when it is not the default "A" that --series supplies.
    """
    if "algebra" in cfg:
        mixed = [key for key in ("rank", "theta") if cfg.get(key) is not None]
        if cfg.get("series", "A") != "A":
            mixed.append("series")
        if mixed:
            raise UsageError(
                "%s cannot be combined with 'algebra'" % ", ".join(map(repr, mixed))
            )
        dim = cfg.get("dim")
        presentation = parse_malcev(
            _as_str(cfg["algebra"], "algebra"),
            None if dim is None else _as_int(dim, "dim"),
        )
        return presentation, None
    if cfg.get("dim") is not None:
        raise UsageError("'dim' is read only together with 'algebra'")
    spec = _spec_from_cfg(cfg)
    return nilradical_presentation(spec)[0], spec


# ---------------------------------------------------------------- reports


def _ints(values):
    """An integer list as text reports spell it: "1,2"."""
    return ",".join(map(str, values))


def _flag(spec):
    """A flag of a report, from its series, rank and theta: "A_3, theta {1,2}"."""
    return "%s_%d, theta {%s}" % (spec["series"], spec["rank"], _ints(spec["theta"]))


def _yes_no(verdict):
    return "undecided" if verdict is None else "yes" if verdict else "no"


def _run_root_system(cfg):
    spec = _spec_from_cfg(cfg)
    rs = build_root_system(spec.series, spec.rank)
    report = {
        "series": spec.series,
        "rank": spec.rank,
        "count": len(rs.positive_roots),
        "positive_roots": [
            {
                "coeffs": list(r.coeffs),
                "height": r.height,
                "matrix_unit": list(r.matrix_unit()),
            }
            for r in rs.positive_roots
        ],
    }
    if "theta" in cfg:
        summands = isotropy_summands(rs, spec.theta)
        report["theta"] = list(spec.theta)
        report["complement"] = [
            list(r.coeffs) for r in complementary_positive_roots(rs, spec.theta)
        ]
        report["summands"] = [
            {
                "signature": list(s.signature),
                "dim": s.dim,
                "roots": [list(r.coeffs) for r in s.roots],
            }
            for s in summands
        ]
        report["flag_dimension"] = flag_dimension(spec)
    return report


def _text_root_system(report):
    lines = [
        "series: %s" % report["series"],
        "rank: %d" % report["rank"],
        "positive roots (%d):" % report["count"],
    ]
    for r in report["positive_roots"]:
        lines.append(
            "  (%s)  height %d  E(%s)"
            % (_ints(r["coeffs"]), r["height"], _ints(r["matrix_unit"]))
        )
    if "summands" in report:
        lines.append("theta: {%s}" % _ints(report["theta"]))
        lines.append("flag dimension: %d" % report["flag_dimension"])
        lines.append("isotropy summands (%d):" % len(report["summands"]))
        for s in report["summands"]:
            lines.append("  signature (%s)  dim %d" % (_ints(s["signature"]), s["dim"]))
    return lines


def _run_nilradical(cfg):
    spec = _spec_from_cfg(cfg)
    presentation, legend = nilradical_presentation(spec)
    jacobi = jacobi_check(presentation)
    report = {
        "series": spec.series,
        "rank": spec.rank,
        "theta": list(spec.theta),
        "dim": presentation.dim,
        "presentation": print_malcev(presentation),
        "legend": legend_to_json(legend),
        "jacobi_ok": jacobi.ok,
    }
    return report


def _text_nilradical(report):
    lines = [
        "flag: %s" % _flag(report),
        "dim: %d" % report["dim"],
        "presentation: %s" % report["presentation"],
        "jacobi: %s" % ("pass" if report["jacobi_ok"] else "FAIL"),
        "legend:",
    ]
    for entry in report["legend"]:
        lines.append(
            "  e%d = root (%s) = E(%s)"
            % (entry["slot"], _ints(entry["root"]), _ints(entry["matrix_unit"]))
        )
    return lines


def _dualize_core(cfg):
    """(algebra, ideal, flux, source spec) as read; AdmissibleTriple checks them."""
    presentation, source = _algebra_from_cfg(cfg)
    if "ideal" not in cfg:
        raise UsageError("missing --ideal (or config key \"ideal\")")
    ideal = _as_int_tuple(cfg["ideal"], "ideal")
    flux = parse_form(_as_str(cfg.get("flux", "0"), "flux"), 3)
    return presentation, ideal, flux, source


def _dualize_report(algebra, ideal, flux, dualization, certificate, source):
    report = {
        "algebra": print_malcev(algebra),
        "ideal": list(ideal),
        "flux": print_form(flux),
        "admissibility": dualization.admissibility.to_json(),
        "dual": {
            "algebra": print_malcev(dualization.dual.algebra),
            "ideal": list(dualization.dual.ideal),
            "flux": print_form(dualization.dual.flux),
        },
        "H_dual": print_form(dualization.dual.flux),
        "delta": print_form(dualization.delta),
        "slot_map": dualization.slot_map.to_json(),
        "certificate": certificate.to_json(),
    }
    if source is not None:
        report["source"] = source.to_json()
    return report


def _run_dualize(cfg):
    presentation, ideal, flux, source = _dualize_core(cfg)
    triple = AdmissibleTriple(presentation, ideal, flux)
    result = dualize(triple)
    certificate = duality_certificate(triple, result)
    return _dualize_report(presentation, triple.ideal, flux, result, certificate, source)


def _text_dualize(report):
    lines = [
        "algebra: %s" % report["algebra"],
        "ideal: {%s}" % _ints(report["ideal"]),
        "flux: %s" % report["flux"],
        "admissible: %s" % _yes_no(report["admissibility"]["ok"]),
        "dual algebra: %s" % report["dual"]["algebra"],
        "dual ideal: {%s}" % _ints(report["dual"]["ideal"]),
        "H_dual: %s" % report["H_dual"],
        "delta: %s" % report["delta"],
        "certificate: %s" % ("pass" if report["certificate"]["ok"] else "FAIL"),
    ]
    return lines


def _run_correspond(cfg):
    presentation, ideal, flux, source = _dualize_core(cfg)
    result = correspond_presentation(presentation, ideal, flux)
    report = _dualize_report(
        presentation, result.ideal, flux, result.dualization, result.certificate, source
    )
    report["targets"] = [t.to_json() for t in result.targets]
    if result.search_reason is not None:
        report["search_reason"] = result.search_reason
    if result.unconfirmed:
        report["unconfirmed"] = [
            dict(spec.to_json(), reason=why) for spec, why in result.unconfirmed
        ]
    return report


def _text_correspond(report):
    lines = _text_dualize(report)
    if report["targets"]:
        lines.append("targets:")
        for t in report["targets"]:
            lines.append("  %s  [%s]" % (t["pretty_name"], _flag(t)))
    else:
        lines.append("targets: none")
        lines.append("reason: %s" % report.get("search_reason", ""))
    if "unconfirmed" in report:
        lines.append(
            "unconfirmed: %s"
            % "; ".join("%s (%s)" % (_flag(u), u["reason"]) for u in report["unconfirmed"])
        )
    return lines


def _run_selfdual(cfg):
    spec = _spec_from_cfg(cfg)
    result = selfdual_flux(spec)
    report = {
        "series": spec.series,
        "rank": spec.rank,
        "flux": print_form(result.flux),
        "admissibility": result.admissibility.to_json(),
        "selfdual": result.selfdual,
    }
    if result.dualization is not None:
        report["dual"] = {
            "algebra": print_malcev(result.dualization.dual.algebra),
            "flux": print_form(result.dualization.dual.flux),
        }
    if result.witness is not None:
        report["witness"] = result.witness.to_json()
        report["flux_matches"] = result.flux_matches
    return report


def _text_selfdual(report):
    lines = [
        "flag: %s_%d, maximal" % (report["series"], report["rank"]),
        "flux: %s" % report["flux"],
        "admissible: %s" % _yes_no(report["admissibility"]["ok"]),
        "selfdual: %s" % _yes_no(report["selfdual"]),
    ]
    if not report["admissibility"]["ok"]:
        for flag, detail in sorted(report["admissibility"]["details"].items()):
            if not report["admissibility"][flag]:
                lines.append("  %s: %s" % (flag, detail))
    if "dual" in report:
        lines.append("dual algebra: %s" % report["dual"]["algebra"])
        lines.append("H_dual: %s" % report["dual"]["flux"])
    return lines


def _run_gcs_transport(cfg):
    spec = _spec_from_cfg(cfg)
    rs = build_root_system(spec.series, spec.rank)
    summands = isotropy_summands(rs, spec.theta)
    raw = cfg.get("blocks")
    if not isinstance(raw, dict):
        raise UsageError(
            "gcs-transport needs a config with a \"blocks\" object keyed by signature"
        )
    _check_keys(raw, [_ints(summand.signature) for summand in summands], "blocks")
    blocks = []
    assignment = []
    for summand in summands:
        key = _ints(summand.signature)
        if key not in raw:
            raise MalcevValueError("no block assigned to signature (%s)" % key)
        try:
            block = block_from_json(raw[key])
        except TypeError as exc:
            raise UsageError("block for signature (%s): %s" % (key, exc))
        for root in summand.roots:
            blocks.append(block)
            assignment.append(
                {
                    "root": list(root.coeffs),
                    "signature": list(summand.signature),
                    "block": block.to_json(),
                }
            )
    before = integrability_necessary(blocks, summands)
    moved = [phi_conjugate(b) for b in blocks]
    report = {
        "source": spec.to_json(),
        "blocks": assignment,
        "uniform_before": before.to_json(),
        "transported": [
            {
                "classification": m.classification,
                "matrix": [[str(v) for v in row] for row in m.matrix],
            }
            for m in moved
        ],
    }
    if "dual" in cfg:
        if not isinstance(cfg["dual"], dict):
            raise UsageError("dual must be a JSON object")
        _check_keys(cfg["dual"], _SPEC_KEYS, "dual")
        dual_spec = _spec_from_cfg(cfg["dual"])
        dual_rs = build_root_system(dual_spec.series, dual_spec.rank)
        dual_summands = isotropy_summands(dual_rs, dual_spec.theta)
        after = integrability_necessary(moved, dual_summands)
        report["dual"] = dual_spec.to_json()
        report["uniform_after"] = after.to_json()
    return report


def _text_gcs_transport(report):
    lines = [
        "source: %s" % _flag(report["source"]),
        "uniform before transport: %s" % _yes_no(report["uniform_before"]["ok"]),
    ]
    for entry, moved in zip(report["blocks"], report["transported"]):
        lines.append(
            "  root (%s): %s -> %s"
            % (_ints(entry["root"]), entry["block"]["kind"], moved["classification"])
        )
    if "uniform_after" in report:
        lines.append(
            "uniform after transport on %s: %s"
            % (_flag(report["dual"]), _yes_no(report["uniform_after"]["ok"]))
        )
    return lines


def _report(command, cfg):
    """Build a command's report; a config key it would not read is a usage error."""
    _check_keys(cfg, _COMMANDS[command].keys, "config")
    return _COMMANDS[command].run(cfg)


# --------------------------------------------------------------- commands


def _config_file(path):
    if not os.path.exists(path):
        raise argparse.ArgumentTypeError("file %r does not exist" % path)
    if os.path.isdir(path):
        raise argparse.ArgumentTypeError("%r is a directory" % path)
    return path


# add_argument keywords of each flag.  Every flag defaults to SUPPRESS, so
# the namespace holds exactly the flags that were typed.
_FLAGS = {
    "--series": {"help": "root system series (default: A)"},
    "--rank": {"type": int},
    "--theta": {"help": "comma list, empty for maximal"},
    "--ideal": {"help": "comma list of slots"},
    "--flux": {"help": "Malcev 3-form, 0 for none"},
    "--format": {
        "dest": "fmt", "choices": ("json", "text"), "help": "report format (default: json)",
    },
    "--config": {
        "dest": "config_path", "metavar": "PATH", "type": _config_file,
        "help": "JSON file of inputs; its keys win over flags",
    },
}

_SPEC_FLAGS = ("--series", "--rank", "--theta")
_TRIPLE_FLAGS = _SPEC_FLAGS + ("--ideal", "--flux")
_SPEC_KEYS = ("series", "rank", "theta")
_TRIPLE_KEYS = _SPEC_KEYS + ("algebra", "dim", "ideal", "flux")

# flags: the command's flags before --format and --config; keys: the
# config keys its report builder reads
_Command = namedtuple("_Command", "help flags run text keys")

_COMMANDS = {
    "root-system": _Command(
        "Positive roots; with --theta also the isotropy summands.",
        _SPEC_FLAGS, _run_root_system, _text_root_system, _SPEC_KEYS,
    ),
    "nilradical": _Command(
        "Malcev presentation of the nilradical, with legend and d2 check.",
        _SPEC_FLAGS, _run_nilradical, _text_nilradical, _SPEC_KEYS,
    ),
    "dualize": _Command(
        "Dualize an admissible triple; report dual, delta, certificate.",
        _TRIPLE_FLAGS, _run_dualize, _text_dualize, _TRIPLE_KEYS,
    ),
    "correspond": _Command(
        "Full pipeline: dualize, then search for parabolic targets.",
        _TRIPLE_FLAGS, _run_correspond, _text_correspond, _TRIPLE_KEYS,
    ),
    "selfdual": _Command(
        "Top-root flux on the maximal flag and its self-duality check.",
        ("--series", "--rank"), _run_selfdual, _text_selfdual, _SPEC_KEYS,
    ),
    "gcs-transport": _Command(
        "Transport per-root blocks and check per-summand type uniformity.",
        _SPEC_FLAGS, _run_gcs_transport, _text_gcs_transport,
        _SPEC_KEYS + ("blocks", "dual"),
    ),
}


def _report_command(name, fmt="json", config_path=None, **flags):
    _emit(name, _merge(config_path, flags), fmt)
    return 0


def _golden(list_only=False):
    jobs_root = resources.files("flagflux").joinpath("jobs")
    names = sorted(
        entry.name for entry in jobs_root.iterdir() if entry.name.endswith(".json")
    )
    if list_only:
        for name in names:
            _echo(name)
        return 0
    failures = 0
    for name in names:
        job = json.loads(jobs_root.joinpath(name).read_text(encoding="utf-8"))
        if job.get("command") not in _COMMANDS:
            _echo("BAD  %s (unknown command %r)" % (name, job.get("command")))
            failures += 1
            continue
        try:
            got = _dump(_report(job["command"], job.get("config", {}))) + "\n"
        except Exception as exc:
            _echo("ERR  %s (%s)" % (name, exc))
            failures += 1
            continue
        expected_path = jobs_root.joinpath("expected").joinpath(name)
        try:
            expected = expected_path.read_text(encoding="utf-8")
        except FileNotFoundError:
            _echo("MISS %s (no expected report)" % name)
            failures += 1
            continue
        if got == expected:
            _echo("ok   %s" % name)
        else:
            _echo("DIFF %s" % name)
            failures += 1
    if failures:
        return _domain_error("golden-mismatch", "%d job(s) differ" % failures)
    return 0


def _parser(prog):
    """One subcommand per ``_COMMANDS`` row, plus ``golden``."""
    parser = argparse.ArgumentParser(
        prog=prog,
        description="Flowing flags: nilradicals, infinitesimal T-duality, dual targets.",
        allow_abbrev=False,
    )
    commands = parser.add_subparsers(metavar="COMMAND", required=True)
    for name, spec in _COMMANDS.items():
        sub = commands.add_parser(
            name, help=spec.help, description=spec.help, allow_abbrev=False
        )
        for flag in spec.flags + ("--format", "--config"):
            sub.add_argument(flag, default=argparse.SUPPRESS, **_FLAGS[flag])
        sub.set_defaults(parser=sub, run=partial(_report_command, name))
    text = "Run the bundled jobs and diff against the stored expected reports."
    sub = commands.add_parser("golden", help=text, description=text, allow_abbrev=False)
    sub.add_argument(
        "--list", dest="list_only", action="store_true", default=argparse.SUPPRESS,
        help="list bundled jobs",
    )
    sub.set_defaults(parser=sub, run=_golden)
    return parser


_PARSER = _parser("flagflux")


def _joined(argv):
    """Each flag of ``_FLAGS`` joined to the word after it, as ``--flag=word``.

    argparse reads a word that starts with "-" as an option, so
    ``--flux -e^{123}`` would leave --flux without its value; a flag
    takes the next word, whatever it starts with.
    """
    out, words = [], iter(argv)
    for word in words:
        value = next(words, None) if word in _FLAGS else None
        out.append(word if value is None else "%s=%s" % (word, value))
    return out


def _run(parser, run, flags):
    """Run a parsed command; each kind of error gets its exit code."""
    try:
        return run(**flags)
    except UsageError as exc:
        _echo(parser.format_usage() + "%s: error: %s" % (parser.prog, exc), err=True)
        return 2
    except MalcevSyntaxError as exc:
        _echo("parse error: %s" % exc, err=True)
        return 2
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        _echo("parse error: invalid JSON: %s" % exc, err=True)
        return 2
    except DualityError as exc:
        extra = {"admissibility": exc.report.to_json()} if exc.report else None
        return _domain_error("inadmissible", str(exc), extra)
    except UnsupportedSeriesError as exc:
        return _domain_error("unsupported-series", str(exc))
    except (MalcevValueError, ValueError) as exc:
        return _domain_error("invalid-input", str(exc))


def main(args=None, prog_name="flagflux", standalone_mode=True):
    """Run one command line (``sys.argv[1:]`` when ``args`` is None).

    ``prog_name`` names the program in usage and help text.  The exit code
    ends the process, or with ``standalone_mode=False`` is returned, so a
    caller can run commands in its own process.
    """
    parser = _PARSER if prog_name == _PARSER.prog else _parser(prog_name)
    try:
        namespace, extra = parser.parse_known_args(
            _joined(sys.argv[1:] if args is None else args)
        )
        if extra:
            namespace.parser.error("unrecognized arguments: %s" % " ".join(extra))
    except SystemExit as exc:  # argparse exits 0 after --help, 2 on a parse error
        code = exc.code
    else:
        flags = vars(namespace)
        code = _run(flags.pop("parser"), flags.pop("run"), flags)
    if standalone_mode:
        sys.exit(code)
    return code


if __name__ == "__main__":
    main()
