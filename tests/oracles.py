"""Independent reference implementations used to cross-check results."""

import itertools

from gsds.continuous import MAX_EVENTS, HybridEvent, HybridResult, fit_from_samples
from gsds.errors import ZenoError
from gsds.network import global_map
from gsds.polyring import Polynomial
from gsds.translate import discretize


def oracle_interpolate_gf3(points, outputs, n):
    """Reduced interpolant of a fully specified GF(3)^n table.

    Solves for the monomial coefficients with plain integer Gaussian
    elimination mod 3 - deliberately a different construction from the
    indicator-sum interpolation in the package.  Returns the nonzero
    coefficient dict keyed by exponent tuple.
    """
    monomials = list(itertools.product(range(3), repeat=n))
    mat = []
    for p, out in zip(points, outputs):
        row = [_pow_prod(p, e) % 3 for e in monomials]
        mat.append(row + [out % 3])
    cols = len(monomials)
    pivots = []
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, len(mat)) if mat[i][c] % 3), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        inv = mat[r][c]  # mod 3 every nonzero value is its own inverse
        mat[r] = [(v * inv) % 3 for v in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] % 3:
                f = mat[i][c]
                mat[i] = [(v - f * w) % 3 for v, w in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    coeffs = [0] * cols
    for i, c in enumerate(pivots):
        coeffs[c] = mat[i][-1]
    return {e: v for e, v in zip(monomials, coeffs) if v}


def _pow_prod(point, exps):
    v = 1
    for x, e in zip(point, exps):
        v *= x**e
    return v


def oracle_indicator_poly(field, point):
    """The indicator of ``point`` as prod_j (1 - (x_j - a_j)^(q-1)),
    built in Polynomial arithmetic - independent of the table transform
    that the package uses."""
    n = len(point)
    one = Polynomial.constant(field, n, 1)
    result = one
    for j, a in enumerate(point, start=1):
        diff = Polynomial.variable(field, n, j) - Polynomial.constant(field, n, a)
        result = result * (one - diff ** (field.order - 1))
    return result


def oracle_table_poly(field, n, values):
    """The indicator sum of a sparse table {point: value}."""
    result = Polynomial.zero(field, n)
    for point, value in values.items():
        result = result + oracle_indicator_poly(field, point).scale(value)
    return result


def oracle_hybrid_simulate(model, rates, tmap, c0, t_end, max_events=MAX_EVENTS):
    """The hybrid event loop evaluating the map and every rate, and
    building every gene's crossing targets, at each event."""
    if t_end <= 0:
        raise ValueError("t_end must be positive")
    n = model.n
    if len(c0) != n or tmap.n != n:
        raise ValueError("initial vector, model, and thresholds disagree on gene count")
    rates.check_coverage(model)
    fmap = global_map(model)

    def slopes_for(state, conc):
        act = fmap(state)
        out = []
        for j in range(n):
            v = rates.slope(j, act[j])
            if rates.floor_at_zero and conc[j] <= 0 and v < 0:
                v = 0.0
            out.append(float(v))
        return out

    t = 0.0
    conc = [float(c) for c in c0]
    state = discretize(tmap, conc)
    slopes = slopes_for(state, conc)
    events = []
    phases = []
    breakpoints = [0.0]
    columns = [[c] for c in conc]  # concentration at each breakpoint
    phase_start = 0.0

    while True:
        # next crossing over all genes and thresholds, plus floor hits
        best_t = None
        crossings = []
        for j in range(n):
            v = slopes[j]
            if v == 0:
                continue
            targets = [(theta, "threshold") for theta in tmap.genes[j].thresholds]
            if rates.floor_at_zero and v < 0 and 0.0 not in tmap.genes[j].thresholds:
                targets.append((0.0, "floor"))
            for theta, kind in targets:
                if (v > 0 and conc[j] < theta) or (v < 0 and conc[j] > theta):
                    when = t + (theta - conc[j]) / v
                    if best_t is None or when < best_t:
                        best_t = when
                        crossings = [(j, theta, kind)]
                    elif when == best_t:
                        crossings.append((j, theta, kind))
        if best_t is None or best_t >= t_end:
            break
        if len(events) + len(crossings) > max_events:
            raise ZenoError(
                f"more than {max_events} events by t={best_t}; "
                f"the dynamics look Zeno"
            )
        # advance to the event and snap crossing genes exactly on target
        for j in range(n):
            conc[j] += slopes[j] * (best_t - t)
        for j, theta, _ in crossings:
            conc[j] = theta
        t = best_t
        old_state = state
        state = discretize(tmap, conc)
        for j, theta, kind in sorted(crossings):
            events.append(HybridEvent(t, j, theta, kind, old_state, state))
        phases.append((phase_start, t, old_state))
        phase_start = t
        breakpoints.append(t)
        for j in range(n):
            columns[j].append(conc[j])
        slopes = slopes_for(state, conc)

    # close the final phase and extend trajectories to t_end
    if t < t_end:
        phases.append((phase_start, t_end, state))
        breakpoints.append(t_end)
        for j in range(n):
            columns[j].append(conc[j] + slopes[j] * (t_end - t))
    trajectories = tuple(
        fit_from_samples(breakpoints, columns[j]) for j in range(n)
    )
    return HybridResult(trajectories, events, phases, t_end)
