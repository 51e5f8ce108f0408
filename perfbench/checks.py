"""Output checks for the benchmark's jobs.

Each check takes a job (as built by gen.py) and the job's outputs, and
returns a list of failure reasons; an empty list means the output is
correct.  The checks use the generator's own coefficients and
evaluators, never the package under test.
"""

import bisect
import json
import random

from gen import parse_poly, state_at

PORTRAIT_SAMPLE = 64
EVENT_TOL = 1e-9


def _load(text, what):
    try:
        return json.loads(text), []
    except ValueError as exc:
        return None, [f"{what} is not JSON: {exc}"]


def _parse_state(label):
    return tuple(int(v) for v in label.strip('"()').split(","))


def check_portrait(job, stdout, files):
    report, errors = _load(stdout, "report")
    if errors:
        return errors
    model = job["model"]
    count = report["state_count"]
    if count != model.state_count:
        errors.append(f"state_count {count} != {model.state_count}")
    basins = sum(a["basin_size"] for a in report["attractors"])
    if basins != count:
        errors.append(f"basin sizes sum to {basins}, not {count}")
    hist = sum(c for _, c in report["transient_histogram"])
    if hist != count:
        errors.append(f"transient histogram sums to {hist}, not {count}")
    for a in report["attractors"]:
        cycle = [tuple(s) for s in a["states"]]
        for k, s in enumerate(cycle):
            if model.step(s) != cycle[(k + 1) % len(cycle)]:
                errors.append(f"attractor {a['id']} is not closed under F at {s}")
                break
    with open(files[0]) as fh:
        if fh.read() != stdout:
            errors.append("--json file differs from stdout")

    # F on a seeded sample of states, read from the DOT transition lines
    # (one per state, in state-index order, after the attractor lines).
    with open(files[1]) as fh:
        lines = fh.read().splitlines()
    edges = [line for line in lines if " -> " in line]
    if len(edges) != count:
        return errors + [f"DOT has {len(edges)} transitions, not {count}"]
    rng = random.Random(job["id"])
    for index in rng.sample(range(count), min(PORTRAIT_SAMPLE, count)):
        src, dst = edges[index].strip().rstrip(";").split(" -> ")
        state = state_at(model.q, model.n, index)
        if _parse_state(src) != state:
            errors.append(f"DOT line {index} starts at {src}, not {state}")
        elif _parse_state(dst) != model.step(state):
            errors.append(f"F{state} = {dst} in DOT, expected {model.step(state)}")
    return errors


def check_infer(job, stdout, files):
    report, errors = _load(stdout, "report")
    if errors:
        return errors
    model, series = job["model"], job["series"]
    q, n = model.q, model.n
    expected_dim = q**n - job["transitions"]
    if report["dimensions"] != [expected_dim] * n:
        errors.append(f"dimensions {report['dimensions']} != {expected_dim}")
    for i, gene in enumerate(report["genes"]):
        text = report["polynomials"][gene]
        poly = parse_poly(q, text)
        for s, t in zip(series, series[1:]):
            if poly.eval(s) != t[i]:
                errors.append(f"{gene} = {text} misses {s} -> {t}")
                break
        if job["kind"] == "sparsest" and len(poly.support()) > 3:
            errors.append(f"{gene}: sparsest support {sorted(poly.support())}"
                          " exceeds the generator's in-degree 3")
    if job["kind"] == "member" and not (
        report.get("member_of_all") and all(report["membership"].values())
    ):
        errors.append(f"generator polynomials not members: {report.get('membership')}")
    for path in files:
        with open(path) as fh:
            written, file_errors = _load(fh.read(), path)
        if file_errors:
            errors += file_errors
        elif written["locals"] != report["polynomials"]:
            errors.append("-o model differs from the reported polynomials")
    return errors


def _value(traj, t):
    """A trajectory from the report at time t (breakpoint lists with one
    (slope, intercept) pair per interval)."""
    segments = traj["segments"]
    k = bisect.bisect_left(traj["breakpoints"], t) - 1
    a, b = segments[min(max(k, 0), len(segments) - 1)]
    return a * t + b


def check_hybrid(job, stdout, files):
    report, errors = _load(stdout, "report")
    if errors:
        return errors
    spec = job["spec"]
    t_end = spec.t_end
    trajs = [report["trajectories"][g] for g in spec.genes]
    last = 0.0
    for e in report["events"]:
        t = e["time"]
        if not (0.0 < t < t_end) or t < last:
            errors.append(f"event time {t} out of order or outside (0, {t_end})")
        last = t
        if e["kind"] == "threshold":
            j = spec.genes.index(e["gene"])
            if abs(_value(trajs[j], t) - spec.thresholds[j]) > EVENT_TOL:
                errors.append(f"{e['gene']} is off its threshold at {t}")
    phases = report["phases"]
    if not phases or phases[0][0] != 0.0 or phases[-1][1] != t_end:
        errors.append("phases do not start at 0 and end at t_end")
    for (_, end, _), (start, _, _) in zip(phases, phases[1:]):
        if end != start:
            errors.append(f"phases leave a gap or overlap at {end}")
            break
    return errors


def phase_mismatches(job, stdout):
    """Phases whose state differs from the discretized concentrations at
    the phase midpoint.  A count, not a failure."""
    spec = job["spec"]
    report = json.loads(stdout)
    trajs = [report["trajectories"][g] for g in spec.genes]
    mismatches = 0
    for t0, t1, state in report["phases"]:
        mid = (t0 + t1) / 2
        seen = [spec.classify(j, _value(tr, mid)) for j, tr in enumerate(trajs)]
        mismatches += seen != state
    return mismatches


CHECKS = {
    "portrait": check_portrait,
    "infer": check_infer,
    "hybrid": check_hybrid,
}
