"""Command-line front end for the pipeline.

Commands: validate, simulate, portrait, infer, fit, discretize, check,
hybrid.  Exit codes: 0 success, 2 model validation failure, 3
contradictory transition data, 4 compatibility failure, 1 anything
else.  All output is deterministic for identical inputs and flags.
"""

import functools
import sys

import click

from .continuous import (
    fit_from_samples,
    hybrid_simulate,
    load_rates,
    load_samples_csv,
    save_events_csv,
    save_samples_csv,
)
from .dynamics import (
    attractor_summary_dot,
    phase_portrait,
    portrait_report,
    transitions_dot,
)
from .errors import (
    CompatibilityError,
    ContradictoryDataError,
    GsdsError,
    ModelValidationError,
)
from .files import FORMAT_VERSION, dumps
from .infer import StateSeries, TransitionData, infer_network, load_series, \
    save_series, series_to_dict, solution_space
from .network import global_map, load_model, save_model, \
    trajectory, validate_model
from .polyring import parse_poly
from .translate import discretize_series, check_translated, load_thresholds


def _with_overrides(model, display=None, schedule=None):
    if schedule is not None:
        names = [s.strip() for s in schedule.split(",") if s.strip()]
        schedule = [model.gene_index(name) for name in names]
    if (display is None or display == model.display) and schedule is None:
        return model
    return model.replace(schedule, display)


def _parse_state(model, text):
    """A state in the model's display encoding: '(v1,v2,...)' comma form,
    or a compact digit string for single-digit canonical values."""
    text = text.strip().strip("()")
    if "," in text:
        parts = [p.strip() for p in text.split(",")]
    elif text.isdigit() and len(text) == model.n:
        parts = list(text)
    else:
        parts = text.split()
    if len(parts) != model.n:
        raise ValueError(f"state {text!r} does not have {model.n} coordinates")
    return tuple(model.encode_level(int(p)) for p in parts)


def _report(data, path=None):
    """Print ``data`` as JSON, and write the same text to ``path``."""
    text = dumps(data) + "\n"
    sys.stdout.write(text)
    if path:
        with open(path, "w") as fh:
            fh.write(text)


display_option = click.option(
    "--display",
    type=click.Choice(["canonical", "balanced"]),
    default=None,
    help="Override the model's display encoding.",
)


@click.group()
def cli():
    """Gene-network dynamical systems over finite fields."""


@cli.command()
@click.argument("model_file", type=click.Path(exists=True))
def validate(model_file):
    """Check locality, value ranges, and the schedule of a model."""
    model = load_model(model_file)
    report = validate_model(model)
    if report.valid:
        click.echo("valid")
        return
    raise ModelValidationError(report)


@cli.command()
@click.argument("model_file", type=click.Path(exists=True))
@click.option("--state", required=True, help="Initial state, e.g. '(-1,1,-1)' or '0000'.")
@click.option("--steps", "-T", default=0, show_default=True, help="Number of steps.")
@click.option("--json", "as_json", is_flag=True, help="Emit JSON instead of text lines.")
@click.option("--schedule", default=None,
              help="Override the schedule word, e.g. 'g3,g2,g1,g0'.")
@display_option
def simulate(model_file, state, steps, as_json, display, schedule):
    """Iterate the model's global map from a state."""
    model = _with_overrides(load_model(model_file), display, schedule)
    start = _parse_state(model, state)
    global_map(model)  # validates; exit 2 on failure
    states = trajectory(model, start, steps)
    if as_json:
        _report(
            {
                "format_version": FORMAT_VERSION,
                "field": model.field.order,
                "display": model.display,
                "states": [model.decode_state(s) for s in states],
            }
        )
    else:
        for s in states:
            click.echo(model.format_state(s))


@cli.command()
@click.argument("model_file", type=click.Path(exists=True))
@click.option("--json", "json_out", type=click.Path(), default=None,
              help="Write the JSON report here (also printed).")
@click.option("--dot", "dot_out", type=click.Path(), default=None,
              help="Write the transition digraph in DOT form.")
@click.option("--summary-dot", "summary_out", type=click.Path(), default=None,
              help="Write the attractor summary in DOT form.")
@click.option("--workers", type=click.IntRange(min=1), default=1,
              show_default=True,
              help="Accepted for compatibility; starts no threads and does "
                   "not change the output.")
@click.option("--limit", default=1 << 24, show_default=True,
              help="Maximum state-space size.")
@click.option("--schedule", default=None,
              help="Override the schedule word, e.g. 'g3,g2,g1,g0'.")
@display_option
def portrait(model_file, json_out, dot_out, summary_out, workers, limit, display,
             schedule):
    """Attractors, transients, and basins of the global map."""
    model = _with_overrides(load_model(model_file), display, schedule)
    p = phase_portrait(model, limit=limit, workers=workers)
    _report(portrait_report(p), json_out)
    if dot_out:
        with open(dot_out, "w") as fh:
            fh.write(transitions_dot(p))
    if summary_out:
        with open(summary_out, "w") as fh:
            fh.write(attractor_summary_dot(p))


@cli.command()
@click.argument("series_file", type=click.Path(exists=True), required=False)
@click.option("--csv", "csv_file", type=click.Path(exists=True), default=None,
              help="Concentration CSV to discretize instead of a series file.")
@click.option("--thresholds", "thresholds_file", type=click.Path(exists=True),
              default=None, help="Threshold file (required with --csv).")
@click.option("--preference", type=click.Choice(["canonical", "sparsest"]),
              default="canonical", show_default=True)
@click.option("--member", default=None,
              help="Semicolon-separated coordinate polynomials to test for "
                   "solution-space membership.")
@click.option("-o", "--output", type=click.Path(), default=None,
              help="Write the inferred model file here.")
def infer(series_file, csv_file, thresholds_file, preference, member, output):
    """Fit polynomial coordinate functions to a state series."""
    if csv_file:
        if thresholds_file is None:
            raise click.UsageError("--csv requires --thresholds")
        genes, _, rows = load_samples_csv(csv_file)
        tmap, _ = load_thresholds(thresholds_file, genes)
        states = discretize_series(tmap, rows)
        series = StateSeries(tmap.field, states, genes, tmap.display)
    elif series_file:
        series = load_series(series_file)
    else:
        raise click.UsageError("provide a series file or --csv")
    if len(series.states) < 2:
        raise click.UsageError("the series must contain at least two states")
    result = infer_network(
        series.field,
        series.states,
        preference,
        genes=series.genes,
        display=series.display,
    )
    model = result.model
    report = {
        "format_version": FORMAT_VERSION,
        "field": series.field.order,
        "genes": list(model.genes),
        "preference": preference,
        "transitions": len(series.states) - 1,
        "dimensions": result.dimensions,
        "polynomials": {g: p.render() for g, p in zip(model.genes, result.coordinate_polys)},
        "edges": [[model.genes[a], model.genes[b]] for a, b in result.edges],
    }
    if member:
        texts = [t.strip() for t in member.split(";")]
        if len(texts) != model.n:
            raise click.UsageError(
                f"--member needs {model.n} polynomials, got {len(texts)}"
            )
        data = TransitionData.from_series(series.field, series.states)
        verdicts = {}
        for i, text in enumerate(texts):
            candidate = parse_poly(text, model.n, series.field)
            verdicts[model.genes[i]] = solution_space(data, i).is_solution(candidate)
        report["membership"] = verdicts
        report["member_of_all"] = all(verdicts.values())
    _report(report)
    if output:
        save_model(model, output)


@cli.command()
@click.argument("csv_file", type=click.Path(exists=True))
@click.option("-o", "--output", type=click.Path(), default=None)
def fit(csv_file, output):
    """Fit piecewise-linear curves through a concentration CSV."""
    genes, times, rows = load_samples_csv(csv_file)
    if len(times) < 2:
        raise click.UsageError("need at least two samples to fit")
    report = {"format_version": FORMAT_VERSION, "genes": {}}
    for j, name in enumerate(genes):
        curve = fit_from_samples(times, [r[j] for r in rows])
        report["genes"][name] = {
            "breakpoints": list(curve.breakpoints),
            "segments": [[a, b] for a, b in curve.segments],
        }
    _report(report, output)


@cli.command()
@click.argument("csv_file", type=click.Path(exists=True))
@click.option("--thresholds", "thresholds_file", type=click.Path(exists=True),
              required=True)
@click.option("--collapse", is_flag=True, help="Collapse consecutive repeats.")
@click.option("-o", "--output", type=click.Path(), default=None,
              help="Write the discretized series file here.")
def discretize(csv_file, thresholds_file, collapse, output):
    """Discretize a concentration CSV into a state series."""
    genes, _, rows = load_samples_csv(csv_file)
    tmap, _ = load_thresholds(thresholds_file, genes)
    states = discretize_series(tmap, rows, collapse=collapse)
    series = StateSeries(tmap.field, states, genes, tmap.display)
    _report(series_to_dict(series))
    if output:
        save_series(series, output)


@cli.command()
@click.argument("csv_file", type=click.Path(exists=True))
@click.option("--thresholds", "thresholds_file", type=click.Path(exists=True),
              required=True)
@click.option("--model", "model_file", type=click.Path(exists=True), required=True)
def check(csv_file, thresholds_file, model_file):
    """Check that the model's map commutes with discretization on the data."""
    genes, _, rows = load_samples_csv(csv_file)
    model = load_model(model_file)
    tmap, _ = load_thresholds(thresholds_file, genes)
    fmap = global_map(model)
    result = check_translated(fmap, list(zip(rows, rows[1:])), tmap)
    _report(
        {
            "format_version": FORMAT_VERSION,
            "compatible": result.compatible,
            "checked": result.checked,
            "counterexamples": [
                {
                    "pair": idx,
                    "state": model.decode_state(state),
                    "expected": model.decode_state(expected),
                    "actual": model.decode_state(actual),
                }
                for idx, state, expected, actual in result.counterexamples
            ],
        }
    )
    if not result.compatible:
        raise CompatibilityError(result)


@cli.command()
@click.argument("model_file", type=click.Path(exists=True))
@click.option("--rates", "rates_file", type=click.Path(exists=True), required=True)
@click.option("--thresholds", "thresholds_file", type=click.Path(exists=True),
              required=True)
@click.option("--c0", required=True, help="Initial concentrations, e.g. '0.5,1.2,0.5'.")
@click.option("--t-end", type=float, required=True)
@click.option("-o", "--output", type=click.Path(), default=None,
              help="Write the JSON result here (also printed).")
@click.option("--csv-out", type=click.Path(), default=None,
              help="Write trajectory breakpoints as CSV.")
@click.option("--events-csv", type=click.Path(), default=None,
              help="Write the event log as CSV.")
def hybrid(model_file, rates_file, thresholds_file, c0, t_end, output, csv_out,
           events_csv):
    """Event-driven simulation of concentrations coupled to the model."""
    model = load_model(model_file)
    rates = load_rates(rates_file, model)
    tmap, _ = load_thresholds(thresholds_file, list(model.genes))
    start = [float(v) for v in c0.replace("(", "").replace(")", "").split(",")]
    result = hybrid_simulate(model, rates, tmap, start, t_end)
    decode = functools.cache(model.decode_state)  # a run visits few states
    report = {
        "format_version": FORMAT_VERSION,
        "t_end": result.t_end,
        "genes": list(model.genes),
        "trajectories": {
            name: {
                "breakpoints": list(tr.breakpoints),
                "segments": [[a, b] for a, b in tr.segments],
            }
            for name, tr in zip(model.genes, result.trajectories)
        },
        "events": [
            {
                "time": e.time,
                "gene": model.genes[e.gene],
                "threshold": e.threshold,
                "kind": e.kind,
                "old_state": decode(e.old_state),
                "new_state": decode(e.new_state),
            }
            for e in result.events
        ],
        "phases": [
            [t0, t1, decode(s)]
            for t0, t1, s in result.phases
        ],
    }
    _report(report, output)
    if csv_out:  # each breakpoint takes the value of the segment on its left
        times = result.trajectories[0].breakpoints
        columns = [[a * t + b for (a, b), t in zip(tr.segments[:1] + tr.segments, times)]
                   for tr in result.trajectories]
        save_samples_csv(csv_out, model.genes, times, zip(*columns))
    if events_csv:
        save_events_csv(events_csv, result.events, model.genes,
                        format_level=model.format_level)


def main(argv=None):
    """Entry point with the documented exit-code contract."""
    try:
        cli.main(args=argv, prog_name="gsds", standalone_mode=False)
    except click.exceptions.Exit as exc:
        return exc.exit_code
    except click.ClickException as exc:
        exc.show()
        return 1
    except ModelValidationError as exc:
        click.echo("validation failed:", err=True)
        for line in exc.report.lines():
            click.echo(f"  {line}", err=True)
        return 2
    except ContradictoryDataError as exc:
        click.echo(f"contradictory data: {exc}", err=True)
        return 3
    except CompatibilityError as exc:
        click.echo(f"compatibility failure: {exc}", err=True)
        for idx, state, expected, actual in exc.check.counterexamples:
            click.echo(
                f"  pair {idx}: f{state} = {expected}, observed {actual}",
                err=True,
            )
        return 4
    except (GsdsError, OSError, ValueError, KeyError) as exc:
        click.echo(f"error: {exc}", err=True)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
