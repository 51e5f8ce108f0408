"""Piecewise-linear concentration curves and the hybrid simulator.

A sectional linear function is a continuous piecewise-linear curve:
strictly increasing breakpoints t0 < ... < tn and one (slope,
intercept) pair per interval [ti, ti+1], with adjacent segments agreeing
at the shared breakpoint.  Outside [t0, tn] the value is 0.

The hybrid simulator couples a discrete model to real concentrations:
each gene's concentration grows linearly with a slope chosen by its
current *activity* - the gene's coordinate of F(state), where state is
the thresholded concentration vector - and slopes are recomputed at
events.  Events are exact threshold crossings (roots of linear
equations, no numerical integration) plus floor hits at 0 for decaying
genes.  A concentration sitting exactly on a threshold classifies to
that threshold's "equal" level, so the state used to recompute slopes
at a crossing instant is the on-threshold one.

Sample files are CSV with header ``t,<gene>,<gene>,...``, one row per
time point.
"""

import bisect
import csv
import itertools
import math
from collections import namedtuple
from operator import le, mul, sub, truediv

from .errors import ContinuityError, ZenoError
from .files import FORMAT_VERSION, document, finite, finite_all, load
from .network import global_map
from .translate import discretize

CONTINUITY_TOL = 1e-9  # times the largest of 1 and the terms a*t, b at a breakpoint
MAX_EVENTS = 10**6


class SectionalLinear:
    """A continuity-checked piecewise-linear function of time."""

    __slots__ = ("breakpoints", "segments")

    def __init__(self, breakpoints, segments):
        breakpoints = finite_all(breakpoints, "a breakpoint")
        segments = tuple((float(a), float(b)) for a, b in segments)
        finite_all(itertools.chain.from_iterable(segments), "a segment's slope or intercept")
        if len(breakpoints) < 2:
            raise ValueError("need at least two breakpoints")
        if any(map(le, breakpoints[1:], breakpoints)):
            raise ValueError(f"breakpoints must be strictly increasing: {breakpoints}")
        if len(segments) != len(breakpoints) - 1:
            raise ValueError(
                f"{len(breakpoints)} breakpoints need {len(breakpoints) - 1} "
                f"segments, got {len(segments)}"
            )
        for (a0, b0), (a1, b1), t in zip(segments, segments[1:], breakpoints[1:]):
            at0, at1 = a0 * t, a1 * t
            gap, scale = at1 + b1 - (at0 + b0), max(1.0, abs(at0), abs(b0), abs(at1), abs(b1))
            if not abs(gap) <= CONTINUITY_TOL * scale < math.inf:  # false if a*t overflows
                raise ContinuityError(t, gap)
        self.breakpoints = breakpoints
        self.segments = segments

    def value(self, t):
        t, bps = float(t), self.breakpoints
        if t < bps[0] or t > bps[-1]:
            return 0.0
        # the first segment whose interval reaches t; at an interior
        # breakpoint both neighbors agree by continuity
        a, b = self.segments[bisect.bisect_left(bps, t, 1, len(self.segments)) - 1]
        return a * t + b

    __call__ = value


def fit_from_samples(times, values):
    """The piecewise-linear interpolant through consecutive samples."""
    times = list(map(float, times))
    values = list(map(float, values))
    if len(times) != len(values):
        raise ValueError("times and values differ in length")
    if len(times) < 2:
        raise ValueError("need at least two samples")
    if any(map(le, times[1:], times)):
        raise ValueError(f"sample times must be strictly increasing: {times}")
    slopes = list(map(truediv, map(sub, values[1:], values), map(sub, times[1:], times)))
    segments = tuple(zip(slopes, map(sub, values, map(mul, slopes, times))))
    return SectionalLinear(times, segments)


class RatePolicy:
    """Per-gene map from discrete activity level to growth slope."""

    def __init__(self, rates, floor_at_zero=True):
        # rates: one {level: slope} dict per gene
        self.rates = [dict(r) for r in rates]
        finite_all(itertools.chain.from_iterable(map(dict.values, self.rates)), "a rate")
        self.floor_at_zero = floor_at_zero

    def check_coverage(self, model):
        for name, table, values in zip(model.genes, self.rates, model.state_sets):
            for v in values:
                if v not in table:
                    raise ValueError(f"no rate for gene {name!r} at level {model.format_level(v)}")


class HybridEvent(namedtuple("HybridEvent", "time gene threshold kind old_state new_state")):
    """One threshold crossing or floor hit (``kind`` "threshold" or "floor") of a hybrid run."""

    __slots__ = ()

    def __repr__(self):
        return (
            f"HybridEvent(t={self.time}, gene={self.gene}, "
            f"threshold={self.threshold}, kind={self.kind}, "
            f"{self.old_state} -> {self.new_state})"
        )


class HybridResult(namedtuple("HybridResult", "trajectories events phases t_end")):
    """Trajectories (one SectionalLinear per gene), events, constant-state phases
    (t_start, t_end, discrete state at phase start) and end time of a hybrid run."""

    __slots__ = ()


def hybrid_simulate(model, rates, tmap, c0, t_end):
    """Event-driven exact simulation of the coupled dynamics.

    Between events every concentration is linear with slope
    rates[gene][activity], activity being the gene's coordinate of
    F(discretize(c)) fixed at the latest event.  Event times are exact
    roots of the linear segments; simultaneous crossings are processed
    together, logged in ascending (gene, threshold) order.  Each pass of
    the event loop starts from the slopes of the current state and
    concentrations.  More than ``MAX_EVENTS`` events raise ZenoError.
    """
    if finite(t_end, "t_end") <= 0:
        raise ValueError("t_end must be positive")
    n = model.n
    if len(c0) != n or tmap.n != n:
        raise ValueError("initial vector, model, and thresholds disagree on gene count")
    rates.check_coverage(model)
    fmap = global_map(model)
    rows = {}  # discrete state -> slope row of its activities

    def slopes_for(state, conc):
        row = rows.get(state)
        if row is None:
            row = [float(table[a]) for table, a in zip(rates.rates, fmap(state))]
            rows[state] = row
        if not rates.floor_at_zero:
            return row
        return [0.0 if v < 0 and c <= 0 else v for v, c in zip(row, conc)]

    # each gene's crossing targets, rising and falling
    rising = [[(theta, "threshold") for theta in gt.thresholds] for gt in tmap.genes]
    falling = [r + [(0.0, "floor")] if rates.floor_at_zero and (0.0, "threshold") not in r
               else r for r in rising]

    t = 0.0
    conc = [finite(c, "c0") for c in c0]
    state = discretize(tmap, conc)
    events = []
    phases = []
    breakpoints = [0.0]  # every phase bound and event time is one: cli's report relies on it
    columns = [[c] for c in conc]  # concentration at each breakpoint

    while True:
        slopes = slopes_for(state, conc)
        # next crossing before t_end over all genes and thresholds, plus floor hits
        best_t = t_end
        crossings = []
        for j in range(n):
            v = slopes[j]
            if v == 0:
                continue
            for theta, kind in (falling if v < 0 else rising)[j]:
                if (v > 0 and conc[j] < theta) or (v < 0 and conc[j] > theta):
                    when = t + (theta - conc[j]) / v
                    if when < best_t:
                        best_t = when
                        crossings = [(j, theta, kind)]
                    elif when == best_t:
                        crossings.append((j, theta, kind))
        if best_t == t_end:
            break
        if len(events) + len(crossings) > MAX_EVENTS:
            raise ZenoError(
                f"more than {MAX_EVENTS} events by t={best_t}; "
                f"the dynamics look Zeno"
            )
        # advance to the event and snap crossing genes exactly on target
        for j in range(n):
            conc[j] += slopes[j] * (best_t - t)
        for j, theta, _ in crossings:
            conc[j] = theta
        old_state = state
        state = discretize(tmap, conc)
        for j, theta, kind in sorted(crossings):
            events.append(HybridEvent(best_t, j, theta, kind, old_state, state))
        if best_t > t:  # else the crossing rounded to now: no phase or breakpoint
            phases.append((t, best_t, old_state))
            breakpoints.append(best_t)
        for column, c in zip(columns, conc):  # the last breakpoint's sample, new or not
            column[len(breakpoints) - 1 :] = [c]
        t = best_t

    # close the final phase (t < t_end) and extend trajectories to t_end
    phases.append((t, t_end, state))
    breakpoints.append(t_end)
    for j in range(n):
        columns[j].append(conc[j] + slopes[j] * (t_end - t))
    trajectories = tuple(
        fit_from_samples(breakpoints, columns[j]) for j in range(n)
    )
    return HybridResult(trajectories, events, phases, t_end)


# -- rate files ----------------------------------------------------------


def rates_to_dict(policy, model):
    levels = {}
    for name, table in zip(model.genes, policy.rates):
        levels[name] = {
            model.format_level(level): slope for level, slope in sorted(table.items())
        }
    return {
        "format_version": FORMAT_VERSION,
        "floor_at_zero": policy.floor_at_zero,
        "rates": levels,
    }


def rates_from_dict(d, model):
    document(d, "rates")
    rates = []
    for name in model.genes:
        table = d["rates"].get(name)
        if table is None:
            raise ValueError(f"rates missing for gene {name!r}")
        levels = {}
        for k, v in table.items():
            if (level := model.encode_level(int(k))) in levels:  # "1" and "01"
                raise ValueError(f"rates of gene {name!r} name level {int(k)} twice")
            levels[level] = finite(v, f"rate of gene {name!r} at level {k}")
        rates.append(levels)
    floor = d.get("floor_at_zero", True)
    if not isinstance(floor, bool):
        raise ValueError(f"floor_at_zero must be true or false, not {floor!r}")
    policy = RatePolicy(rates, floor_at_zero=floor)
    policy.check_coverage(model)
    return policy


def load_rates(path, model):
    return load(path, "rates", rates_from_dict, model)


def save_events_csv(path, events, model):
    """Write a hybrid event log of ``model`` as CSV, one crossing per row."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["time", "gene", "threshold", "kind", "old_state", "new_state"])
        for e in events:
            writer.writerow([
                _fmt(e.time),
                model.genes[e.gene],
                _fmt(e.threshold),
                e.kind,
                " ".join(map(model.format_level, e.old_state)),
                " ".join(map(model.format_level, e.new_state)),
            ])


# -- CSV samples ---------------------------------------------------------


def load_samples_csv(path, genes=None):
    """Read a time series: returns (gene_names, times, sample_vectors) of the
    columns of ``genes``, in that order, when given, else of every column."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if not header or header[0].strip() != "t":
            raise ValueError("sample CSV must start with a 't' header column")
        names = [h.strip() for h in header[1:]]
        if not names:
            raise ValueError("sample CSV has no gene columns")
        genes = names if genes is None else list(genes)
        for g in genes:
            if g not in names:
                raise ValueError(f"sample CSV {path} has no column for gene {g!r}")
        repeated = sorted({g for g in genes if names.count(g) > 1})
        if repeated:
            raise ValueError(f"sample CSV repeats gene column(s) {', '.join(repeated)}")
        picks = [0, *(names.index(g) + 1 for g in genes)]
        columns = [f"sample CSV {path} column {g!r}" for g in ["t", *genes]]
        times = []
        rows = []
        for row in reader:
            if not row:
                continue
            if len(row) != len(names) + 1:
                raise ValueError(f"row {row!r} does not match the header")
            t, *values = map(finite, map(row.__getitem__, picks), columns)
            times.append(t)
            rows.append(tuple(values))
    return genes, times, rows


def save_samples_csv(path, genes, times, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t"] + list(genes))
        for t, row in zip(times, rows):
            writer.writerow([_fmt(t)] + [_fmt(v) for v in row])


def _fmt(x):
    return format(float(x), "g")
