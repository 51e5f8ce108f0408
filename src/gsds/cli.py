"""Command-line front end for the pipeline.

Exit codes: 0 success, 2 model validation failure, 3 contradictory
transition data, 4 compatibility failure, 1 anything else, including a
usage error, which prints one line.  Output is deterministic for
identical inputs and flags.  ``_read`` reads each command line in one
pass over the parameters that ``@_command`` declares, as argparse would:
a value may begin with ``-``, there is no ``-h`` and no abbreviation.
"""

import contextlib
import functools
import itertools
import json
import os
import re
import sys

from .continuous import fit_from_samples, hybrid_simulate, load_rates, load_samples_csv, \
    save_events_csv, save_samples_csv
from .dynamics import DEFAULT_STATE_LIMIT, attractor_summary_dot, phase_portrait, \
    portrait_report, transitions_dot
from .errors import CompatibilityError, ContradictoryDataError, FieldMismatchError, \
    GsdsError, ModelValidationError, PolyParseError
from .files import FORMAT_VERSION, finite
from .infer import StateSeries, infer_network, load_series, \
    series_to_dict, solution_space
from .network import global_map, load_model, orbit, save_model, validate_model
from .polyring import parse_poly, render_polys
from .translate import discretize_series, check_translated, load_thresholds


def _existing(path):
    """A path argument, checked for existence while the line is read."""
    if not os.path.exists(path):
        raise ValueError(f"path {path!r} does not exist")
    return path


def _arg(*flags, **kwargs):
    """An ``add_argument`` parameter (long form last), with argparse's ``dest`` and ``default``."""
    kwargs.setdefault("dest", flags[-1].lstrip("-").replace("-", "_"))
    kwargs.setdefault("default", False if "action" in kwargs else None)
    return flags, kwargs


HELP = _arg("--help", action="help", help="Show this message and exit.")
COMMANDS = {}  # name -> (function, parameters, option string or 0 (the positional) -> keywords)
VALUE = re.compile(r"\Z|[^-]|-\Z|-\d+$|-\d*\.\d+$|[^ ]* ")  # never read as an option string


def _command(*params):
    """Register the decorated function as the command of its name."""
    def add(fn):
        COMMANDS[fn.__name__] = fn, params, {flag if flag[0] == "-" else 0: kw
                                             for flags, kw in (*params, HELP) for flag in flags}
        return fn
    return add


def _read(argv):
    """The command function and its keyword arguments for ``argv``, read in
    one pass as argparse would, or the help printer for ``--help`` in option
    position.  Usage errors raise ValueError; unknown tokens do after the pass."""
    if not argv or argv[0] not in COMMANDS:
        if argv[:1] == ["--help"]:
            return _help, {}
        raise ValueError(f"the first argument must be --help or one of {', '.join(COMMANDS)}")
    fn, params, options = COMMANDS[argv[0]]
    args = {kw["dest"]: kw["default"] for _, kw in params}
    extra, tokens, positional, dashed = [], iter(argv[1:]), 0, False
    for token in tokens:
        flag, eq, value = token.partition("=")
        if token in options:
            flag, value = token, None
        elif not (eq and flag in options):
            flag, value = token[:2], token[2:]  # a short option with its value attached
        if dashed or flag not in options:
            if not (dashed or VALUE.match(token)):  # "--", or an unknown option
                dashed = token == "--"
                extra += [] if dashed else [token]
                continue
            flag, value, positional = positional, token, None
        kw = options.get(flag)
        if kw is None:
            extra.append(token)
        elif "action" not in kw:
            if value is None and (value := next(tokens, None)) is None:
                raise ValueError(f"argument {flag}: expected one argument")
            try:
                args[kw["dest"]] = value = kw.get("type", str)(value)
                if value not in kw.get("choices", (value,)):
                    raise ValueError(f"invalid choice {value!r}")
            except ValueError as exc:
                raise ValueError(f"argument {flag or kw['dest']}: {exc}") from None
        elif value is not None:
            raise ValueError(f"argument {flag}: ignored explicit argument {value!r}")
        elif kw is HELP[1]:
            return _help, {"command": argv[0]}
        else:
            args[kw["dest"]] = True
    missing = [flags[-1] for flags, kw in params if args[kw["dest"]] is None and (
        kw.get("required") or flags[0][0] != "-" and kw.get("nargs") != "?")]
    if missing or extra:
        raise ValueError(" ".join(["missing:", *missing] if missing else ["unknown:", *extra]))
    return fn, args


def _help(command=None):
    """Print the commands, or one command's parameters, with their help texts."""
    fn, params, _ = COMMANDS.get(command) or (main, [((name,), {"help": c[0].__doc__})
                                                     for name, c in COMMANDS.items()], None)
    print(f"usage: gsds {command or 'COMMAND'} [ARGUMENTS]\n\n{fn.__doc__}\n")
    for flags, kw in (*params, HELP):
        arg = "" if "action" in kw or flags[0][0] != "-" else kw.get("metavar", kw["dest"].upper())
        print(f"  {' '.join((', '.join(flags), arg)):<30}{kw.get('help', '') % kw}".rstrip())


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
    try:
        levels = list(map(int, parts))
    except ValueError:
        raise ValueError(f"state {text!r} has a coordinate that is not an integer") from None
    return tuple(map(model.encode_level, levels))


def _report(data, path=None):
    """Print ``data`` and write the same to ``path``: a dict as indented JSON, a str
    or an iterable of str blocks as JSON text, each block as it comes."""
    if isinstance(data, dict):
        data = json.dumps(data, indent=2, allow_nan=False)
    with open(path, "w") if path else contextlib.nullcontext() as fh:
        for block in itertools.chain([data] if isinstance(data, str) else data, ["\n"]):
            sys.stdout.write(block)
            if fh:
                fh.write(block)


SCHEDULE = _arg("--schedule", help="Override the schedule word, e.g. 'g3,g2,g1,g0'.")
DISPLAY = _arg("--display", choices=["canonical", "balanced"],
               help="Override the model's display encoding.")


def _thresholds(path, model):
    """The threshold file's map for the model's genes, which must be over the
    model's field and discretize each gene into its state set."""
    tmap = load_thresholds(path, model.genes)
    if tmap.field != model.field:
        raise FieldMismatchError(f"threshold file {path} is over {tmap.field!r}, "
                                 f"the model over {model.field!r}")
    for name, g, values in zip(model.genes, tmap.genes, model.state_sets):
        for level in g.band_levels + g.equal_levels:
            if level not in values:
                raise ValueError(f"threshold file {path}: gene {name!r} discretizes to level "
                                 f"{model.format_level(level)}, outside its state set")
    return tmap


def _csv_series(csv_file, thresholds_file, collapse=False):
    """The state series of a concentration CSV, discretized by the threshold file."""
    genes, _, rows = load_samples_csv(csv_file)
    tmap = load_thresholds(thresholds_file, genes)
    states = discretize_series(tmap, rows, collapse=collapse)
    return StateSeries(tmap.field, states, genes, tmap.display)


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
    states = orbit(model, start, steps)  # each state written as it is made
    if as_json:  # the text of json.dumps(report, indent=2)
        decoded = (_lay(map(str, model.decode_state(s)), 2) for s in states)
        _report(itertools.chain(
            [f'{{\n  "format_version": {FORMAT_VERSION},\n  "field": {model.field.order},\n'
             f'  "display": "{model.display}",\n  "states": [\n    ', next(decoded)],
            map(",\n    ".__add__, decoded), ["\n  ]\n}"]))
    else:
        sys.stdout.writelines(model.format_state(s) + "\n" for s in states)


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
    _arg("--limit", type=int, default=DEFAULT_STATE_LIMIT,
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
        series = _csv_series(csv_file, thresholds_file)
    elif series_file:
        series = load_series(series_file)
    else:
        raise ValueError("provide a series file or --csv")
    data = series.transitions()
    model = infer_network(data, preference, genes=series.genes, display=series.display)
    report = {
        "format_version": FORMAT_VERSION,
        "field": series.field.order,
        "genes": list(model.genes),
        "preference": preference,
        "transitions": len(series.states) - 1,
        "dimensions": [series.field.order**model.n - len(data)] * model.n,
        "polynomials": dict(zip(model.genes, render_polys(model.local_polys))),
        "edges": [[model.genes[a], model.genes[b]] for a, b in sorted(model.graph.edges)],
    }
    if member:
        texts = [t.strip() for t in member.split(";")]
        if len(texts) != model.n:
            raise ValueError(
                f"--member needs {model.n} polynomials, got {len(texts)}"
            )
        verdicts = {}
        for i, text in enumerate(texts):
            try:
                candidate = parse_poly(text, model.n, series.field)
            except PolyParseError as exc:
                exc.args = (f"--member polynomial {i + 1} (gene {model.genes[i]!r}): {exc}",)
                raise
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
        try:
            curve = fit_from_samples(times, [r[j] for r in rows])
        except ValueError as exc:  # the times, or a slope or intercept that overflows
            raise ValueError(f"sample CSV {csv_file} column {name!r} cannot be fitted: "
                             f"{exc}") from None
        report["genes"][name] = {"breakpoints": curve.breakpoints, "segments": curve.segments}
    _report(report, output)


@_command(
    _arg("csv_file", type=_existing),
    _arg("--thresholds", dest="thresholds_file", type=_existing, required=True),
    _arg("--collapse", action="store_true", help="Collapse consecutive repeats."),
    _arg("-o", "--output", metavar="PATH", help="Write the discretized series file here."),
)
def discretize(csv_file, thresholds_file, collapse, output):
    """Discretize a concentration CSV into a state series."""
    _report(series_to_dict(_csv_series(csv_file, thresholds_file, collapse)), output)


@_command(
    _arg("csv_file", type=_existing),
    _arg("--thresholds", dest="thresholds_file", type=_existing, required=True),
    _arg("--model", dest="model_file", type=_existing, required=True),
)
def check(csv_file, thresholds_file, model_file):
    """Check that the model's map commutes with discretization on the data."""
    model = load_model(model_file)
    _, _, rows = load_samples_csv(csv_file, model.genes)  # by name, other columns unread
    tmap = _thresholds(thresholds_file, model)
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


# the hybrid report's items, indented as json.dumps(indent=2) indents them
_SEGMENT = "[\n          %r,\n          %r\n        ]"
_CURVE = '%s: {\n      "breakpoints": %s,\n      "segments": %s\n    }'
_EVENT = ('{\n      "time": %s,\n      "gene": %s,\n      "threshold": %r,\n      "kind": "%s",'
          '\n      "old_state": %s,\n      "new_state": %s\n    }')
_PHASE = "[\n      %s,\n      %s,\n      %s\n    ]"


def _lay(items, depth, brackets="[]"):
    """The JSON array (or object) at ``depth`` of item texts whose inner lines are indented."""
    inner = "\n  " + "  " * depth
    body = ("," + inner).join(items)
    return f"{brackets[0]}{inner}{body}\n{'  ' * depth}{brackets[1]}" if body else brackets


def _hybrid_json(model, result):
    """The hybrid report, byte for byte ``json.dumps(oracle_hybrid_report(...), indent=2)``
    (see the tests).  Every phase bound and event time is a breakpoint of the run, shared by
    all genes, so each time is formatted once; each distinct state is laid out once."""
    breakpoints = result.trajectories[0].breakpoints
    at = dict(zip(breakpoints, map(float.__repr__, breakpoints)))  # a breakpoint's JSON text
    names = list(map(json.encoder.encode_basestring_ascii, model.genes))
    state = functools.cache(lambda s: _lay(map(str, model.decode_state(s)), 3))
    points = _lay(at.values(), 3)
    curves = (_CURVE % (name, points, _lay(map(_SEGMENT.__mod__, tr.segments), 3))
              for name, tr in zip(names, result.trajectories))
    events = (_EVENT % (at[e.time], names[e.gene], e.threshold, e.kind, state(e.old_state),
                        state(e.new_state)) for e in result.events)
    phases = (_PHASE % (at[t0], at[t1], state(s)) for t0, t1, s in result.phases)
    return (f'{{\n  "format_version": {FORMAT_VERSION},\n  "t_end": {result.t_end!r},\n'
            f'  "genes": {_lay(names, 1)},\n  "trajectories": {_lay(curves, 1, "{}")},\n'
            f'  "events": {_lay(events, 1)},\n  "phases": {_lay(phases, 1)}\n}}')


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
    tmap = _thresholds(thresholds_file, model)
    start = [finite(v, "c0") for v in c0.replace("(", "").replace(")", "").split(",")]
    result = hybrid_simulate(model, rates, tmap, start, t_end)
    _report(_hybrid_json(model, result), output)
    if csv_out:
        times = result.trajectories[0].breakpoints
        columns = [list(map(tr.value, times)) for tr in result.trajectories]
        save_samples_csv(csv_out, model.genes, times, zip(*columns))
    if events_csv:
        save_events_csv(events_csv, result.events, model)


def main(argv=None):
    """Gene-network dynamical systems over finite fields; returns the exit code."""
    try:
        fn, args = _read(sys.argv[1:] if argv is None else argv)
        fn(**args)
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
    except (GsdsError, OSError, ValueError, KeyError) as exc:  # a KeyError's str() is a repr
        print(f"error: {exc.args[0] if type(exc) is KeyError else exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
