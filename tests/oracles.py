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


def oracle_render(poly):
    """The text of a polynomial: terms in graded lexicographic order,
    highest first, by a per-term sort key, with each factor formatted
    from its exponent."""
    if not poly.terms:
        return "0"
    parts = []
    for exps in sorted(poly.terms, key=lambda e: (sum(e), e), reverse=True):
        coeff = poly.terms[exps]
        factors = []
        for j, e in enumerate(exps):
            if e == 1:
                factors.append(f"x{j + 1}")
            elif e > 1:
                factors.append(f"x{j + 1}^{e}")
        if not factors:
            parts.append(str(coeff))
        elif coeff == 1:
            parts.append("*".join(factors))
        else:
            parts.append("*".join([str(coeff)] + factors))
    return " + ".join(parts)


def oracle_solve_linear(field, rows, rhs):
    """One solution of A x = b (free unknowns 0) or None, by reduced
    row-echelon form with one field method call per entry."""
    rows = [list(r) + [b] for r, b in zip(rows, rhs)]
    cols = len(rows[0]) - 1 if rows else 0
    pivots = []
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = field.inv(rows[r][c])
        rows[r] = [field.mul(inv, v) for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                factor = rows[i][c]
                rows[i] = [
                    field.sub(v, field.mul(factor, w))
                    for v, w in zip(rows[i], rows[r])
                ]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    for i in range(r, len(rows)):
        if rows[i][-1] != 0:
            return None
    solution = [0] * cols
    for i, c in enumerate(pivots):
        solution[c] = rows[i][-1]
    return solution


def oracle_constrained_interpolate(data, coordinate, allowed_vars):
    """The interpolant on the monomials in ``allowed_vars`` (1-based)
    with free coefficients 0, or None: one row entry per monomial, each
    a product of field powers, solved by ``oracle_solve_linear``."""
    allowed = sorted(set(allowed_vars))
    f = data.field
    monomials = []
    for partial in itertools.product(range(f.order), repeat=len(allowed)):
        exps = [0] * data.n
        for v, e in zip(allowed, partial):
            exps[v - 1] = e
        monomials.append(tuple(exps))
    view = data.coordinate_view(coordinate)
    rows = []
    for state, _ in view:
        row = []
        for exps in monomials:
            v = 1
            for x, e in zip(state, exps):
                if e:
                    v = f.mul(v, f.pow(x, e))
            row.append(v)
        rows.append(row)
    solution = oracle_solve_linear(f, rows, [value for _, value in view])
    if solution is None:
        return None
    return Polynomial(f, data.n, {e: c for e, c in zip(monomials, solution) if c})


def oracle_probe_variable(poly, j, domain):
    """The first pair in product order of points of ``domain`` that
    differ only in x_(j+1) and give different values, or None: a scan of
    every other coordinate's levels, support or not."""
    others = [domain[k] for k in range(poly.n_vars) if k != j]
    for rest in itertools.product(*others):
        first_point = first_val = None
        for v in domain[j]:
            point = rest[:j] + (v,) + rest[j:]
            val = poly.eval(point)
            if first_point is None:
                first_point, first_val = point, val
            elif val != first_val:
                return (first_point, point)
    return None


def oracle_phase_portrait(successor):
    """(attractors, transient, basin) of a successor list by a walk from
    each unfinished state that colours its states and keeps a dict of
    their positions on the walk; attractors in ascending order of their
    minimal state, each rotated to start there."""
    n = len(successor)
    color = [0] * n  # 0 unseen, 1 on the current walk, 2 finished
    attr_of = [-1] * n
    transient = [0] * n
    attractors = []
    for start in range(n):
        if color[start]:
            continue
        path = []
        on_path = {}
        v = start
        while color[v] == 0:
            color[v] = 1
            on_path[v] = len(path)
            path.append(v)
            v = successor[v]
        if color[v] == 1:
            cut = on_path[v]
            cycle = path[cut:]
            rot = cycle.index(min(cycle))
            aid = len(attractors)
            attractors.append(cycle[rot:] + cycle[:rot])
            for node in cycle:
                color[node] = 2
                attr_of[node] = aid
            tail = path[:cut]
        else:
            tail = path
        for node in reversed(tail):
            nxt = successor[node]
            attr_of[node] = attr_of[nxt]
            transient[node] = transient[nxt] + 1
            color[node] = 2
    order = sorted(range(len(attractors)), key=lambda a: attractors[a][0])
    remap = {old: new for new, old in enumerate(order)}
    return [attractors[a] for a in order], transient, [remap[a] for a in attr_of]


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
        if t > breakpoints[-1]:  # a crossing that rounds to now adds no phase
            phases.append((phase_start, t, old_state))
            phase_start = t
            breakpoints.append(t)
            for j in range(n):
                columns[j].append(conc[j])
        else:
            for j in range(n):
                columns[j][-1] = conc[j]
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
