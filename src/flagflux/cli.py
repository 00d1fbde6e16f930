"""Command line front end with reproducible JSON and text reports.

Every subcommand accepts its inputs as flags or as a JSON config file;
on conflict the file wins and a warning goes to stderr.  Reports carry
no timestamps, so identical configs give byte-identical output.  Exit
codes: 0 success, 1 domain error (machine-readable error object on
stdout), 2 parse or usage error.
"""

import json
import sys
from importlib import resources

import click
from click.core import ParameterSource

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
from .tduality import (
    AdmissibleTriple,
    DualityError,
    check_admissible,
    dualize,
    duality_certificate,
)


def _dump(report):
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def _emit(command, cfg, fmt):
    report = _report(command, cfg)
    if fmt == "text":
        click.echo("\n".join(_RUNNERS[command][1](report)))
    else:
        click.echo(_dump(report), nl=False)


def _domain_error(kind, message, extra=None):
    body = {"kind": kind, "message": message}
    if extra:
        body.update(extra)
    click.echo(_dump({"error": body}), nl=False)
    sys.exit(1)


def _guarded(fn):
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except MalcevSyntaxError as exc:
            click.echo("parse error: %s" % exc, err=True)
            sys.exit(2)
        except json.JSONDecodeError as exc:
            click.echo("parse error: invalid JSON: %s" % exc, err=True)
            sys.exit(2)
        except click.ClickException:
            raise
        except DualityError as exc:
            extra = {"admissibility": exc.report.to_json()} if exc.report else None
            _domain_error("inadmissible", str(exc), extra)
        except UnsupportedSeriesError as exc:
            _domain_error("unsupported-series", str(exc))
        except (MalcevValueError, ValueError) as exc:
            _domain_error("invalid-input", str(exc))

    wrapper.__name__ = fn.__name__
    wrapper.__doc__ = fn.__doc__
    return wrapper


def _parse_int_list(text):
    text = text.strip()
    if not text:
        return ()
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise click.UsageError("expected a comma-separated integer list, got %r" % text)


def _as_int_tuple(value, label):
    if value is None:
        return ()
    if isinstance(value, str):
        return _parse_int_list(value)
    if isinstance(value, (list, tuple)):
        if not all(isinstance(v, int) and not isinstance(v, bool) for v in value):
            raise click.UsageError("%s must be a list of integers" % label)
        return tuple(value)
    raise click.UsageError("%s must be a list of integers" % label)


def _as_int(value, label):
    if not isinstance(value, int) or isinstance(value, bool):
        raise click.UsageError("%s must be an integer, got %r" % (label, value))
    return value


def _as_str(value, label):
    if not isinstance(value, str):
        raise click.UsageError("%s must be a string, got %r" % (label, value))
    return value


def _check_keys(cfg, keys, where):
    unknown = sorted(set(cfg) - set(keys))
    if unknown:
        raise click.UsageError(
            "unknown key%s in %s: %s"
            % ("s" if len(unknown) > 1 else "", where, ", ".join(map(repr, unknown)))
        )


def _rank_from_cfg(cfg):
    rank = cfg.get("rank")
    if rank is None:
        raise click.UsageError("missing --rank (or config key \"rank\")")
    return _as_int(rank, "rank")


def _merge(ctx, config_path, flags):
    """Flags plus config file; the file wins per key, conflicts warned."""
    cfg = {}
    if config_path:
        with open(config_path) as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise click.UsageError("config file must hold a JSON object")
        cfg.update(data)
    merged = dict(cfg)
    for key, value in flags.items():
        explicit = ctx.get_parameter_source(key) == ParameterSource.COMMANDLINE
        if key in cfg:
            if explicit:
                click.echo(
                    "warning: config file overrides --%s" % key.replace("_", "-"),
                    err=True,
                )
            continue
        if value is not None:
            merged[key] = value
    return merged


def _spec_from_cfg(cfg):
    series = _as_str(cfg.get("series", "A"), "series")
    rank = _rank_from_cfg(cfg)
    return FlagSpec(series, rank, _as_int_tuple(cfg.get("theta"), "theta"))


def _algebra_from_cfg(cfg):
    """Explicit Malcev string, or a flag spec whose nilradical we build.

    A key of the other branch is a usage error, not silently dropped; the
    series counts only when it is not the default "A" that --series supplies.
    """
    if "algebra" in cfg:
        mixed = [key for key in ("rank", "theta") if cfg.get(key) is not None]
        if cfg.get("series", "A") != "A":
            mixed.append("series")
        if mixed:
            raise click.UsageError(
                "%s cannot be combined with 'algebra'" % ", ".join(map(repr, mixed))
            )
        dim = cfg.get("dim")
        presentation = parse_malcev(
            _as_str(cfg["algebra"], "algebra"),
            None if dim is None else _as_int(dim, "dim"),
        )
        return presentation, None, None
    if cfg.get("dim") is not None:
        raise click.UsageError("'dim' is read only together with 'algebra'")
    spec = _spec_from_cfg(cfg)
    presentation, legend = nilradical_presentation(spec)
    return presentation, legend, spec


def _flux_from_cfg(cfg, dim):
    form = parse_form(_as_str(cfg.get("flux", "0"), "flux"), 3)
    if form.max_index() > dim:
        raise MalcevValueError(
            "flux references index %d beyond dimension %d" % (form.max_index(), dim)
        )
    return form


# ---------------------------------------------------------------- reports


def _run_root_system(cfg):
    series = _as_str(cfg.get("series", "A"), "series")
    rank = _rank_from_cfg(cfg)
    rs = build_root_system(series, rank)
    report = {
        "series": series,
        "rank": rank,
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
        theta = _as_int_tuple(cfg["theta"], "theta")
        spec = FlagSpec(series, rank, theta)
        summands = isotropy_summands(rs, theta)
        report["theta"] = list(theta)
        report["complement"] = [
            list(r.coeffs) for r in complementary_positive_roots(rs, theta)
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
            "  (%s)  height %d  E(%d,%d)"
            % (
                ",".join(str(c) for c in r["coeffs"]),
                r["height"],
                r["matrix_unit"][0],
                r["matrix_unit"][1],
            )
        )
    if "summands" in report:
        lines.append("theta: {%s}" % ",".join(str(t) for t in report["theta"]))
        lines.append("flag dimension: %d" % report["flag_dimension"])
        lines.append("isotropy summands (%d):" % len(report["summands"]))
        for s in report["summands"]:
            lines.append(
                "  signature (%s)  dim %d"
                % (",".join(str(c) for c in s["signature"]), s["dim"])
            )
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
        "flag: %s_%d, theta {%s}"
        % (report["series"], report["rank"], ",".join(str(t) for t in report["theta"])),
        "dim: %d" % report["dim"],
        "presentation: %s" % report["presentation"],
        "jacobi: %s" % ("pass" if report["jacobi_ok"] else "FAIL"),
        "legend:",
    ]
    for entry in report["legend"]:
        lines.append(
            "  e%d = root (%s) = E(%d,%d)"
            % (
                entry["slot"],
                ",".join(str(c) for c in entry["root"]),
                entry["matrix_unit"][0],
                entry["matrix_unit"][1],
            )
        )
    return lines


def _dualize_core(cfg):
    presentation, _legend, source = _algebra_from_cfg(cfg)
    if "ideal" not in cfg:
        raise click.UsageError("missing --ideal (or config key \"ideal\")")
    ideal = _as_int_tuple(cfg["ideal"], "ideal")
    flux = _flux_from_cfg(cfg, presentation.dim)
    return presentation, ideal, flux, source


def _dualize_report(algebra, ideal, flux, admissibility, dualization, certificate, source):
    report = {
        "algebra": print_malcev(algebra),
        "ideal": list(ideal),
        "flux": print_form(flux),
        "admissibility": admissibility.to_json(),
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
    admissibility = check_admissible(triple)
    result = dualize(triple)
    certificate = duality_certificate(triple, result)
    return _dualize_report(
        presentation, triple.ideal, flux, admissibility, result, certificate, source
    )


def _text_dualize(report):
    lines = [
        "algebra: %s" % report["algebra"],
        "ideal: {%s}" % ",".join(str(i) for i in report["ideal"]),
        "flux: %s" % report["flux"],
        "admissible: %s" % ("yes" if report["admissibility"]["ok"] else "no"),
        "dual algebra: %s" % report["dual"]["algebra"],
        "dual ideal: {%s}" % ",".join(str(i) for i in report["dual"]["ideal"]),
        "H_dual: %s" % report["H_dual"],
        "delta: %s" % report["delta"],
        "certificate: %s" % ("pass" if report["certificate"]["ok"] else "FAIL"),
    ]
    return lines


def _run_correspond(cfg):
    presentation, ideal, flux, source = _dualize_core(cfg)
    result = correspond_presentation(presentation, ideal, flux)
    report = _dualize_report(
        presentation,
        result.ideal,
        flux,
        result.admissibility,
        result.dualization,
        result.certificate,
        source,
    )
    report["targets"] = [t.to_json() for t in result.targets]
    if result.search_reason is not None:
        report["search_reason"] = result.search_reason
    return report


def _text_correspond(report):
    lines = _text_dualize(report)
    if report["targets"]:
        lines.append("targets:")
        for t in report["targets"]:
            lines.append(
                "  %s  [%s_%d, theta {%s}]"
                % (
                    t["pretty_name"],
                    t["series"],
                    t["rank"],
                    ",".join(str(v) for v in t["theta"]),
                )
            )
    else:
        lines.append("targets: none")
        lines.append("reason: %s" % report.get("search_reason", ""))
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
    verdict = report["selfdual"]
    lines = [
        "flag: %s_%d, maximal" % (report["series"], report["rank"]),
        "flux: %s" % report["flux"],
        "admissible: %s" % ("yes" if report["admissibility"]["ok"] else "no"),
        "selfdual: %s"
        % ("yes" if verdict else "undecided" if verdict is None else "no"),
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
        raise click.UsageError(
            "gcs-transport needs a config with a \"blocks\" object keyed by signature"
        )
    blocks = []
    assignment = []
    for summand in summands:
        key = ",".join(str(c) for c in summand.signature)
        if key not in raw:
            raise MalcevValueError("no block assigned to signature (%s)" % key)
        try:
            block = block_from_json(raw[key])
        except TypeError as exc:
            raise click.UsageError("block for signature (%s): %s" % (key, exc))
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
            raise click.UsageError("dual must be a JSON object")
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
        "source: %s_%d, theta {%s}"
        % (
            report["source"]["series"],
            report["source"]["rank"],
            ",".join(str(t) for t in report["source"]["theta"]),
        ),
        "uniform before transport: %s"
        % ("yes" if report["uniform_before"]["ok"] else "no"),
    ]
    for entry, moved in zip(report["blocks"], report["transported"]):
        lines.append(
            "  root (%s): %s -> %s"
            % (
                ",".join(str(c) for c in entry["root"]),
                entry["block"]["kind"],
                moved["classification"],
            )
        )
    if "uniform_after" in report:
        lines.append(
            "uniform after transport on %s_%d theta {%s}: %s"
            % (
                report["dual"]["series"],
                report["dual"]["rank"],
                ",".join(str(t) for t in report["dual"]["theta"]),
                "yes" if report["uniform_after"]["ok"] else "no",
            )
        )
    return lines


_SPEC_KEYS = ("series", "rank", "theta")
_TRIPLE_KEYS = _SPEC_KEYS + ("algebra", "dim", "ideal", "flux")

# command -> (report builder, text lines, the config keys the builder reads)
_RUNNERS = {
    "root-system": (_run_root_system, _text_root_system, _SPEC_KEYS),
    "nilradical": (_run_nilradical, _text_nilradical, _SPEC_KEYS),
    "dualize": (_run_dualize, _text_dualize, _TRIPLE_KEYS),
    "correspond": (_run_correspond, _text_correspond, _TRIPLE_KEYS),
    "selfdual": (_run_selfdual, _text_selfdual, _SPEC_KEYS),
    "gcs-transport": (
        _run_gcs_transport, _text_gcs_transport, _SPEC_KEYS + ("blocks", "dual")
    ),
}


def _report(command, cfg):
    """Build a command's report; a config key it would not read is a usage error."""
    run, _text, keys = _RUNNERS[command]
    _check_keys(cfg, keys, "config")
    return run(cfg)


# ------------------------------------------------------------------ click


@click.group()
def main():
    """Flowing flags: nilradicals, infinitesimal T-duality, dual targets."""


_series = click.option("--series", default="A", show_default=True)
_rank = click.option("--rank", type=int, default=None)
_theta = click.option("--theta", default=None, help="comma list, empty for maximal")
_fmt = click.option(
    "--format", "fmt", type=click.Choice(["json", "text"]), default="json",
    show_default=True,
)
_config = click.option(
    "--config", "config_path", type=click.Path(exists=True, dir_okay=False),
    default=None,
)


@main.command("root-system")
@_series
@_rank
@_theta
@_fmt
@_config
@click.pass_context
@_guarded
def cmd_root_system(ctx, series, rank, theta, fmt, config_path):
    """Positive roots; with --theta also the isotropy summands."""
    cfg = _merge(ctx, config_path, {"series": series, "rank": rank, "theta": theta})
    _emit("root-system", cfg, fmt)


@main.command("nilradical")
@_series
@_rank
@_theta
@_fmt
@_config
@click.pass_context
@_guarded
def cmd_nilradical(ctx, series, rank, theta, fmt, config_path):
    """Malcev presentation of the nilradical, with legend and d2 check."""
    cfg = _merge(ctx, config_path, {"series": series, "rank": rank, "theta": theta})
    _emit("nilradical", cfg, fmt)


@main.command("dualize")
@_series
@_rank
@_theta
@click.option("--ideal", default=None, help="comma list of slots")
@click.option("--flux", default=None, help="Malcev 3-form, 0 for none")
@_fmt
@_config
@click.pass_context
@_guarded
def cmd_dualize(ctx, series, rank, theta, ideal, flux, fmt, config_path):
    """Dualize an admissible triple; report dual, delta, certificate."""
    cfg = _merge(
        ctx,
        config_path,
        {"series": series, "rank": rank, "theta": theta, "ideal": ideal, "flux": flux},
    )
    _emit("dualize", cfg, fmt)


@main.command("correspond")
@_series
@_rank
@_theta
@click.option("--ideal", default=None, help="comma list of slots")
@click.option("--flux", default=None, help="Malcev 3-form, 0 for none")
@_fmt
@_config
@click.pass_context
@_guarded
def cmd_correspond(ctx, series, rank, theta, ideal, flux, fmt, config_path):
    """Full pipeline: dualize, then search for parabolic targets."""
    cfg = _merge(
        ctx,
        config_path,
        {"series": series, "rank": rank, "theta": theta, "ideal": ideal, "flux": flux},
    )
    _emit("correspond", cfg, fmt)


@main.command("selfdual")
@_series
@_rank
@_fmt
@_config
@click.pass_context
@_guarded
def cmd_selfdual(ctx, series, rank, fmt, config_path):
    """Top-root flux on the maximal flag and its self-duality check."""
    cfg = _merge(ctx, config_path, {"series": series, "rank": rank})
    _emit("selfdual", cfg, fmt)


@main.command("gcs-transport")
@_series
@_rank
@_theta
@_fmt
@_config
@click.pass_context
@_guarded
def cmd_gcs_transport(ctx, series, rank, theta, fmt, config_path):
    """Transport per-root blocks and check per-summand type uniformity."""
    cfg = _merge(ctx, config_path, {"series": series, "rank": rank, "theta": theta})
    _emit("gcs-transport", cfg, fmt)


@main.command("golden")
@click.option("--list", "list_only", is_flag=True, help="list bundled jobs")
@_guarded
def cmd_golden(list_only):
    """Run the bundled jobs and diff against the stored expected reports."""
    jobs_root = resources.files("flagflux").joinpath("jobs")
    names = sorted(
        entry.name for entry in jobs_root.iterdir() if entry.name.endswith(".json")
    )
    if list_only:
        for name in names:
            click.echo(name)
        return
    failures = 0
    for name in names:
        job = json.loads(jobs_root.joinpath(name).read_text())
        if job.get("command") not in _RUNNERS:
            click.echo("BAD  %s (unknown command %r)" % (name, job.get("command")))
            failures += 1
            continue
        try:
            got = _dump(_report(job["command"], job.get("config", {})))
        except Exception as exc:
            click.echo("ERR  %s (%s)" % (name, exc))
            failures += 1
            continue
        expected_path = jobs_root.joinpath("expected").joinpath(name)
        try:
            expected = expected_path.read_text()
        except FileNotFoundError:
            click.echo("MISS %s (no expected report)" % name)
            failures += 1
            continue
        if got == expected:
            click.echo("ok   %s" % name)
        else:
            click.echo("DIFF %s" % name)
            failures += 1
    if failures:
        _domain_error("golden-mismatch", "%d job(s) differ" % failures)


if __name__ == "__main__":
    main()
