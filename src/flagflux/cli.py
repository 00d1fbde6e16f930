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
from .tduality import AdmissibleTriple, DualityError, check_admissible


def _dump(report):
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def _emit(report, fmt, text_fn):
    if fmt == "text":
        click.echo("\n".join(text_fn(report)))
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


def _spec_from_cfg(cfg, require_theta=False):
    series = cfg.get("series", "A")
    rank = _rank_from_cfg(cfg)
    theta = cfg.get("theta")
    if theta is None:
        if require_theta:
            raise click.UsageError("missing --theta (or config key \"theta\")")
        theta = ()
    return FlagSpec(series, rank, _as_int_tuple(theta, "theta"))


def _algebra_from_cfg(cfg):
    """Explicit Malcev string, or a flag spec whose nilradical we build."""
    if "algebra" in cfg:
        dim = cfg.get("dim")
        presentation = parse_malcev(
            _as_str(cfg["algebra"], "algebra"),
            None if dim is None else _as_int(dim, "dim"),
        )
        return presentation, None, None
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


def _spec_json(spec):
    return {"series": spec.series, "rank": spec.rank, "theta": list(spec.theta)}


# ---------------------------------------------------------------- reports


def _run_root_system(cfg):
    series = cfg.get("series", "A")
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


def _run_dualize(cfg):
    from .tduality import duality_certificate, dualize as _dualize

    presentation, ideal, flux, source = _dualize_core(cfg)
    triple = AdmissibleTriple(presentation, ideal, flux)
    admissibility = check_admissible(triple)
    result = _dualize(triple)
    certificate = duality_certificate(triple, result)
    report = {
        "algebra": print_malcev(presentation),
        "ideal": list(triple.ideal),
        "flux": print_form(flux),
        "admissibility": admissibility.to_json(),
        "dual": {
            "algebra": print_malcev(result.dual.algebra),
            "ideal": list(result.dual.ideal),
            "flux": print_form(result.dual.flux),
        },
        "H_dual": print_form(result.dual.flux),
        "delta": print_form(result.delta),
        "slot_map": result.slot_map.to_json(),
        "certificate": certificate.to_json(),
    }
    if source is not None:
        report["source"] = _spec_json(source)
    return report


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
    bound = cfg.get("rank_bound")
    if bound is not None:
        bound = _as_int(bound, "rank_bound")
        if bound < 1:
            raise click.UsageError("rank_bound must be at least 1, got %d" % bound)
    result = correspond_presentation(presentation, ideal, flux, bound)
    report = {
        "algebra": print_malcev(presentation),
        "ideal": list(result.ideal),
        "flux": print_form(flux),
        "admissibility": result.admissibility.to_json(),
        "dual": {
            "algebra": print_malcev(result.dualization.dual.algebra),
            "ideal": list(result.dualization.dual.ideal),
            "flux": print_form(result.dualization.dual.flux),
        },
        "H_dual": print_form(result.dualization.dual.flux),
        "delta": print_form(result.dualization.delta),
        "slot_map": result.dualization.slot_map.to_json(),
        "certificate": result.certificate.to_json(),
        "rank_bound": result.rank_bound,
        "targets": [t.to_json() for t in result.targets],
    }
    if result.search_reason is not None:
        report["search_reason"] = result.search_reason
    if source is not None:
        report["source"] = _spec_json(source)
    return report


def _text_correspond(report):
    lines = _text_dualize(report)
    bound = report["rank_bound"]
    lines.append("rank bound: %s" % ("none" if bound is None else bound))
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
        "source": _spec_json(spec),
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
        dual_spec = _spec_from_cfg(cfg["dual"])
        dual_rs = build_root_system(dual_spec.series, dual_spec.rank)
        dual_summands = isotropy_summands(dual_rs, dual_spec.theta)
        after = integrability_necessary(moved, dual_summands)
        report["dual"] = _spec_json(dual_spec)
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


_RUNNERS = {
    "root-system": (_run_root_system, _text_root_system),
    "nilradical": (_run_nilradical, _text_nilradical),
    "dualize": (_run_dualize, _text_dualize),
    "correspond": (_run_correspond, _text_correspond),
    "selfdual": (_run_selfdual, _text_selfdual),
    "gcs-transport": (_run_gcs_transport, _text_gcs_transport),
}


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
    _emit(_run_root_system(cfg), fmt, _text_root_system)


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
    _emit(_run_nilradical(cfg), fmt, _text_nilradical)


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
    _emit(_run_dualize(cfg), fmt, _text_dualize)


@main.command("correspond")
@_series
@_rank
@_theta
@click.option("--ideal", default=None, help="comma list of slots")
@click.option("--flux", default=None, help="Malcev 3-form, 0 for none")
@click.option(
    "--rank-bound", type=int, default=None,
    help="optional cap on the target rank; every rank is searched without it",
)
@_fmt
@_config
@click.pass_context
@_guarded
def cmd_correspond(ctx, series, rank, theta, ideal, flux, rank_bound, fmt, config_path):
    """Full pipeline: dualize, then search for parabolic targets."""
    cfg = _merge(
        ctx,
        config_path,
        {
            "series": series,
            "rank": rank,
            "theta": theta,
            "ideal": ideal,
            "flux": flux,
            "rank_bound": rank_bound,
        },
    )
    _emit(_run_correspond(cfg), fmt, _text_correspond)


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
    _emit(_run_selfdual(cfg), fmt, _text_selfdual)


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
    _emit(_run_gcs_transport(cfg), fmt, _text_gcs_transport)


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
        runner = _RUNNERS.get(job.get("command"))
        if runner is None:
            click.echo("BAD  %s (unknown command %r)" % (name, job.get("command")))
            failures += 1
            continue
        try:
            got = _dump(runner[0](job.get("config", {})))
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
