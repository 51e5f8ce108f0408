"""Command-line front end for the pipeline.

Commands: validate, simulate, portrait, infer, fit, discretize, check,
hybrid.  Exit codes: 0 success, 2 model validation failure, 3
contradictory transition data, 4 compatibility failure, 1 anything
else, usage errors included.  All output is deterministic for identical
inputs and flags.  One stdlib ``argparse`` parser, built at import,
reads every command line.
"""

import argparse
import functools
import os
import sys

from .continuous import fit_from_samples, hybrid_simulate, load_rates, load_samples_csv, \
    save_events_csv, save_samples_csv
from .dynamics import attractor_summary_dot, phase_portrait, portrait_report, transitions_dot
from .errors import CompatibilityError, ContradictoryDataError, FieldMismatchError, \
    GsdsError, ModelValidationError
from .files import FORMAT_VERSION, dumps
from .infer import StateSeries, TransitionData, infer_network, load_series, \
    series_to_dict, solution_space
from .network import global_map, load_model, save_model, \
    trajectory, validate_model
from .polyring import parse_poly
from .translate import discretize_series, check_translated, load_thresholds


def _existing(path):
    """A path argument, checked for existence while the line is parsed."""
    if not os.path.exists(path):
        raise argparse.ArgumentTypeError(f"path {path!r} does not exist")
    return path


class _Parser(argparse.ArgumentParser):
    """A parser whose usage errors raise ValueError (exit 1), not exit 2."""

    def error(self, message):
        raise ValueError(message)


def _arg(*flags, **kwargs):
    return flags, kwargs


HELP = _arg("--help", action="help", help="Show this message and exit.")
PARSER = _Parser(prog="gsds", description="Gene-network dynamical systems over finite fields.",
                 add_help=False, allow_abbrev=False)
PARSER.add_argument(*HELP[0], **HELP[1])
COMMANDS = PARSER.add_subparsers(dest="command", metavar="COMMAND", required=True)
VALUE_OPTIONS = {}  # command -> {option string taking a value: its long form}


def _command(*params):
    """Add the decorated function to the parser as the command of its
    name, with one ``add_argument`` call per ``_arg`` in ``params``."""
    def add(fn):
        sub = COMMANDS.add_parser(fn.__name__, help=fn.__doc__, description=fn.__doc__,
                                  add_help=False, allow_abbrev=False)
        for flags, kwargs in (*params, HELP):
            sub.add_argument(*flags, **kwargs)
        sub.set_defaults(run=fn)
        VALUE_OPTIONS[fn.__name__] = {f: flags[-1] for flags, kw in params
                                      if "action" not in kw and flags[0].startswith("-")
                                      for f in flags}
        return fn
    return add


def _joined(argv):
    """``argv`` with each option that takes a value joined to the next
    token as ``--long-form=value``, so that the value may begin with ``-``."""
    out, valued, tokens = [], None, iter(argv)
    for token in tokens:
        if valued is None:
            valued = VALUE_OPTIONS.get(token)
        elif token in valued:
            value = next(tokens, None)
            token = token if value is None else f"{valued[token]}={value}"
        elif token == "--":
            return out + [token, *tokens]
        out.append(token)
    return out


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


SCHEDULE = _arg("--schedule", help="Override the schedule word, e.g. 'g3,g2,g1,g0'.")
DISPLAY = _arg("--display", choices=["canonical", "balanced"],
               help="Override the model's display encoding.")


def _thresholds(path, genes, model):
    """The threshold file's map, which must be over the model's field."""
    tmap, _ = load_thresholds(path, genes)
    if tmap.field != model.field:
        raise FieldMismatchError(f"threshold file {path} is over {tmap.field!r}, "
                                 f"the model over {model.field!r}")
    return tmap


@_command(_arg("model_file", type=_existing))
def validate(model_file):
    """Check locality, value ranges, and the schedule of a model."""
    model = load_model(model_file)
    report = validate_model(model)
    if report.valid:
        print("valid")
        return
    raise ModelValidationError(report)


@_command(
    _arg("model_file", type=_existing),
    _arg("--state", required=True, help="Initial state, e.g. '(-1,1,-1)' or '0000'."),
    _arg("-T", "--steps", type=int, default=0, help="Number of steps. (default: %(default)s)"),
    _arg("--json", dest="as_json", action="store_true",
         help="Emit JSON instead of text lines."),
    SCHEDULE, DISPLAY,
)
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
        sys.stdout.write("".join(model.format_state(s) + "\n" for s in states))


@_command(
    _arg("model_file", type=_existing),
    _arg("--json", dest="json_out", metavar="PATH",
         help="Write the JSON report here (also printed)."),
    _arg("--dot", dest="dot_out", metavar="PATH",
         help="Write the transition digraph in DOT form."),
    _arg("--summary-dot", dest="summary_out", metavar="PATH",
         help="Write the attractor summary in DOT form."),
    _arg("--workers", type=int, default=1,
         help="Accepted for compatibility; starts no threads and does "
              "not change the output. (default: %(default)s)"),
    _arg("--limit", type=int, default=1 << 24,
         help="Maximum state-space size. (default: %(default)s)"),
    SCHEDULE, DISPLAY,
)
def portrait(model_file, json_out, dot_out, summary_out, workers, limit, display,
             schedule):
    """Attractors, transients, and basins of the global map."""
    if workers < 1:
        raise ValueError(f"--workers {workers} is not in the range x>=1")
    model = _with_overrides(load_model(model_file), display, schedule)
    p = phase_portrait(model, limit=limit)  # --workers is accepted and unused
    _report(portrait_report(p), json_out)
    if dot_out:
        with open(dot_out, "w") as fh:
            fh.writelines(transitions_dot(p))
    if summary_out:
        with open(summary_out, "w") as fh:
            fh.write(attractor_summary_dot(p))


@_command(
    _arg("series_file", type=_existing, nargs="?"),
    _arg("--csv", dest="csv_file", type=_existing,
         help="Concentration CSV to discretize instead of a series file."),
    _arg("--thresholds", dest="thresholds_file", type=_existing,
         help="Threshold file (required with --csv)."),
    _arg("--preference", choices=["canonical", "sparsest"], default="canonical",
         help="(default: %(default)s)"),
    _arg("--member", help="Semicolon-separated coordinate polynomials to test for "
                          "solution-space membership."),
    _arg("-o", "--output", metavar="PATH", help="Write the inferred model file here."),
)
def infer(series_file, csv_file, thresholds_file, preference, member, output):
    """Fit polynomial coordinate functions to a state series."""
    if csv_file:
        if thresholds_file is None:
            raise ValueError("--csv requires --thresholds")
        genes, _, rows = load_samples_csv(csv_file)
        tmap, _ = load_thresholds(thresholds_file, genes)
        states = discretize_series(tmap, rows)
        series = StateSeries(tmap.field, states, genes, tmap.display)
    elif series_file:
        series = load_series(series_file)
    else:
        raise ValueError("provide a series file or --csv")
    if len(series.states) < 2:
        raise ValueError("the series must contain at least two states")
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
            raise ValueError(
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


@_command(_arg("csv_file", type=_existing), _arg("-o", "--output", metavar="PATH"))
def fit(csv_file, output):
    """Fit piecewise-linear curves through a concentration CSV."""
    genes, times, rows = load_samples_csv(csv_file)
    if len(times) < 2:
        raise ValueError("need at least two samples to fit")
    report = {"format_version": FORMAT_VERSION, "genes": {}}
    for j, name in enumerate(genes):
        curve = fit_from_samples(times, [r[j] for r in rows])
        report["genes"][name] = {
            "breakpoints": list(curve.breakpoints),
            "segments": [[a, b] for a, b in curve.segments],
        }
    _report(report, output)


@_command(
    _arg("csv_file", type=_existing),
    _arg("--thresholds", dest="thresholds_file", type=_existing, required=True),
    _arg("--collapse", action="store_true", help="Collapse consecutive repeats."),
    _arg("-o", "--output", metavar="PATH", help="Write the discretized series file here."),
)
def discretize(csv_file, thresholds_file, collapse, output):
    """Discretize a concentration CSV into a state series."""
    genes, _, rows = load_samples_csv(csv_file)
    tmap, _ = load_thresholds(thresholds_file, genes)
    states = discretize_series(tmap, rows, collapse=collapse)
    series = StateSeries(tmap.field, states, genes, tmap.display)
    _report(series_to_dict(series), output)


@_command(
    _arg("csv_file", type=_existing),
    _arg("--thresholds", dest="thresholds_file", type=_existing, required=True),
    _arg("--model", dest="model_file", type=_existing, required=True),
)
def check(csv_file, thresholds_file, model_file):
    """Check that the model's map commutes with discretization on the data."""
    genes, _, rows = load_samples_csv(csv_file)
    model = load_model(model_file)
    tmap = _thresholds(thresholds_file, genes, model)
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


@_command(
    _arg("model_file", type=_existing),
    _arg("--rates", dest="rates_file", type=_existing, required=True),
    _arg("--thresholds", dest="thresholds_file", type=_existing, required=True),
    _arg("--c0", required=True, help="Initial concentrations, e.g. '0.5,1.2,0.5'."),
    _arg("--t-end", type=float, required=True),
    _arg("-o", "--output", metavar="PATH", help="Write the JSON result here (also printed)."),
    _arg("--csv-out", metavar="PATH", help="Write trajectory breakpoints as CSV."),
    _arg("--events-csv", metavar="PATH", help="Write the event log as CSV."),
)
def hybrid(model_file, rates_file, thresholds_file, c0, t_end, output, csv_out,
           events_csv):
    """Event-driven simulation of concentrations coupled to the model."""
    model = load_model(model_file)
    rates = load_rates(rates_file, model)
    tmap = _thresholds(thresholds_file, list(model.genes), model)
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
        args = vars(PARSER.parse_args(_joined(sys.argv[1:] if argv is None else argv)))
        del args["command"]
        args.pop("run")(**args)
    except SystemExit as exc:  # --help printed the help
        return exc.code
    except ModelValidationError as exc:
        print("validation failed:", file=sys.stderr)
        for line in exc.report.lines():
            print(f"  {line}", file=sys.stderr)
        return 2
    except ContradictoryDataError as exc:
        print(f"contradictory data: {exc}", file=sys.stderr)
        return 3
    except CompatibilityError as exc:
        print(f"compatibility failure: {exc}", file=sys.stderr)
        for idx, state, expected, actual in exc.check.counterexamples:
            print(f"  pair {idx}: f{state} = {expected}, observed {actual}", file=sys.stderr)
        return 4
    except (GsdsError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
