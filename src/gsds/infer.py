"""Reverse-engineering of network models from observed state transitions.

A set of observed transitions, a ``TransitionData``, is a *partially
defined function*: outputs are known on some subset S of GF(q)^n.  Per
coordinate, the interpolants form an affine space of dimension q^n - |S|:
one particular solution, ``interpolate(data, i)`` (the observed table, zero
off S, made a reduced polynomial by the exact transform ``table_polys``,
one pass for every coordinate), plus the span of the indicators of the
unspecified points, a basis of q^n - |S| polynomials built only when
``SolutionSpace.basis`` is first read (a member is one transform of the
table, its coefficients filled in).  The sparsest member with respect to
variable support is found by searching variable subsets by size, then
lexicographically.  ``infer_network`` fits one ``TransitionData`` and
returns the inferred parallel ``GsdsModel``.  A subset V admits an
interpolant iff no two observed inputs agree on V with different outputs
(over GF(q) every function on the projection is a polynomial), a test of
one dict pass; the constraints restricted to monomials in V are solved
only for the first subset that passes it.

Series files are JSON:

    {
      "format_version": 1,
      "field": 3,
      "genes": ["g1", "g2", "g3"],      # optional
      "display": "balanced",            # optional
      "states": [[-1, 1, -1], [0, 1, 0], ...]
    }
"""

import functools
import itertools
import operator

from .errors import ContradictoryDataError
from .ffield import Field, check_display, decode_level, encode_level
from .files import FORMAT_VERSION, document, load, write_json
from .network import DependencyGraph, GsdsModel
from .polyring import Polynomial, indicator_poly, iter_points, table_poly, table_polys

SPARSEST_MAX_VARS = 12
CONSTRAINED_MAX_UNKNOWNS = 1 << 14


class TransitionData:
    """Deterministic input -> output state observations over GF(q)^n."""

    def __init__(self, field, n, pairs):
        self._keep(field, n, ((tuple(map(field.check, s)), tuple(map(field.check, t)))
                              for s, t in pairs))

    @classmethod
    def from_series(cls, field, states):
        """The transitions between consecutive states, each state checked once."""
        data, states = cls.__new__(cls), list(states)
        data._keep(field, len(states[0]) if states else 0,
                   itertools.pairwise(tuple(map(field.check, s)) for s in states))
        return data

    def _keep(self, field, n, pairs):
        """The first image of each input state, from pairs of checked states."""
        self.field, self.n, mapping = field, n, {}
        for state, image in pairs:
            if len(state) != n or len(image) != n:
                raise ValueError(f"transition {state} -> {image} is not {n}-dimensional")
            if mapping.setdefault(state, image) != image:
                raise ContradictoryDataError(state, mapping[state], image)
        self.pairs = tuple(mapping.items())

    def coordinate_view(self, coordinate):
        return [(s, image[coordinate]) for s, image in self.pairs]

    def __len__(self):
        return len(self.pairs)


def interpolate(data, coordinate):
    """The canonical interpolant for one coordinate: exact on every observed
    input and zero on all unspecified points, the particular solution.
    ``infer_network`` builds all coordinates' in one ``table_polys`` pass."""
    return table_poly(data.field, data.n, dict(data.coordinate_view(coordinate)))


class SolutionSpace:
    """All interpolants of one coordinate: particular + indicator span."""

    def __init__(self, field, n, pairs):
        self.field = field
        self.n = n
        self.pairs = pairs  # (input state, output value), inputs distinct

    @property
    def dimension(self):
        return self.field.order**self.n - len(self.pairs)

    @functools.cached_property
    def basis(self):
        """The indicators of the unspecified points, in point order:
        q^n - |S| polynomials, built on first access."""
        specified = {state for state, _ in self.pairs}
        return tuple(
            indicator_poly(self.field, p)
            for p in iter_points(self.field, self.n)
            if p not in specified
        )

    def is_solution(self, poly):
        """Membership test: a polynomial is a solution iff it interpolates
        every specified point."""
        return all(poly.eval(state) == value for state, value in self.pairs)

    def member(self, coefficients):
        """particular + sum of coefficient * basis polynomial, as one ``table_poly``
        of the observed values and each coefficient at its point of ``basis``."""
        if len(coefficients) != self.dimension:
            raise ValueError(f"need {self.dimension} coefficients")
        values = dict(self.pairs)
        free = [p for p in iter_points(self.field, self.n) if p not in values]
        values.update(zip(free, map(self.field.coerce, coefficients)))
        return table_poly(self.field, self.n, values)


def solution_space(data, coordinate):
    return SolutionSpace(data.field, data.n, tuple(data.coordinate_view(coordinate)))


def _solve_linear(field, rows, rhs):
    """One solution of A x = b over the field (free unknowns set to 0),
    or None if the system is inconsistent.  Forward elimination to unit
    pivots (rows below a pivot are zero left of its column), then back-
    substitution, on the field's lookup rows: scaling is one row of
    ``mul``, subtraction adds the product with the negated factor."""
    add, mul, neg = field.add_rows, field.mul_rows, field.neg_row
    rows = [list(r) + [b] for r, b in zip(rows, rhs)]
    cols = len(rows[0]) - 1 if rows else 0
    pivots = []
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        scale = mul[field.inv(rows[r][c])]
        prow = rows[r][c:] = [scale[v] for v in rows[r][c:]]
        for row in rows[r + 1:]:
            if row[c] != 0:
                m = mul[neg[row[c]]]
                row[c:] = [add[v][m[w]] for v, w in zip(row[c:], prow)]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    if any(row[-1] for row in rows[r:]):
        return None
    solution = [0] * cols
    for i in reversed(range(r)):
        row, value = rows[i], rows[i][-1]
        for c in pivots[i + 1:]:
            value = add[value][mul[neg[row[c]]][solution[c]]]
        solution[pivots[i]] = value
    return solution


def _feasible(view, subset):
    """Whether some function of the variables in ``subset`` (1-based)
    fits ``view``: no two inputs agree on them with different outputs."""
    project = operator.itemgetter(*(v - 1 for v in subset)) if subset else (lambda s: ())
    seen = {}
    return all(seen.setdefault(project(s), value) == value for s, value in view)


def constrained_interpolate(data, coordinate, allowed_vars):
    """An interpolant supported on the given variables, or None.

    Solves the interpolation constraints restricted to monomials in
    ``allowed_vars`` (1-based indices); free coefficients are set to 0,
    so the result is deterministic.
    """
    allowed = sorted(set(allowed_vars))
    for v in allowed:
        if not 1 <= v <= data.n:
            raise ValueError(f"variable index {v} outside 1..{data.n}")
    f = data.field
    q = f.order
    if q ** len(allowed) > CONSTRAINED_MAX_UNKNOWNS:
        raise ValueError(
            f"{q}^{len(allowed)} unknowns exceed the solver limit "
            f"({CONSTRAINED_MAX_UNKNOWNS})"
        )
    mul, power = f.mul_rows, f.pow_rows
    view = data.coordinate_view(coordinate)
    rows = []
    for state, _ in view:
        # the monomials x^e over ``allowed`` in product order, as a
        # Kronecker product of per-variable power rows
        row = [1]
        for v in allowed:
            row = [mul[a][b] for a in row for b in power[state[v - 1]]]
        rows.append(row)
    solution = _solve_linear(f, rows, [value for _, value in view])
    if solution is None:
        return None
    terms = {}
    for i, c in enumerate(solution):
        if c:
            exps = [0] * data.n
            for v in reversed(allowed):
                i, exps[v - 1] = divmod(i, q)
            terms[tuple(exps)] = c
    return Polynomial._trusted(f, data.n, terms)


def sparsest_interpolate(data, coordinate):
    """The interpolant with the fewest support variables.

    Searches subsets in order of increasing size, lexicographic within a
    size, and returns the constrained interpolant of the first feasible
    one; by the search order no strict subset of its support is feasible.
    """
    if data.n > SPARSEST_MAX_VARS:
        raise ValueError(
            f"sparsest search supports at most {SPARSEST_MAX_VARS} variables, "
            f"got {data.n}"
        )
    view = data.coordinate_view(coordinate)
    for size in range(data.n + 1):
        too_large = data.field.order**size > CONSTRAINED_MAX_UNKNOWNS
        for subset in itertools.combinations(range(1, data.n + 1), size):
            # past the solver limit the first subset raises its error
            if too_large or _feasible(view, subset):
                return constrained_interpolate(data, coordinate, subset)
    raise AssertionError("unreachable: the full variable set always interpolates")


def infer_network(data, preference="canonical", genes=None, display="canonical"):
    """Fit one polynomial per coordinate to the transitions ``data``.

    ``canonical`` uses the indicator-sum interpolant; ``sparsest``
    minimizes the number of support variables.  The dependency graph has
    an edge j -> i exactly when coordinate i's polynomial depends on
    x_j.  The returned model is parallel (no schedule): its polynomials
    are coordinate functions of the global map, not local update order.
    """
    if preference not in ("canonical", "sparsest"):
        raise ValueError(f"unknown preference {preference!r}")
    if not data.pairs:
        raise ValueError("need at least one transition to infer from")
    field, n = data.field, data.n
    if genes is None:
        genes = [f"g{j + 1}" for j in range(n)]
    if preference == "sparsest":
        polys = [sparsest_interpolate(data, i) for i in range(n)]
    elif field.order**n > CONSTRAINED_MAX_UNKNOWNS:  # the transform's table has q^n points
        raise ValueError(f"canonical inference over {field.order}^{n} points exceeds the "
                         f"limit ({CONSTRAINED_MAX_UNKNOWNS})")
    else:  # every coordinate's interpolant from one dense transform
        states, images = zip(*data.pairs)
        polys = table_polys(field, n, states, list(zip(*images)))
    return GsdsModel(field, genes, DependencyGraph.from_supports(polys), polys,
                     schedule=None, display=display)


# -- series files -------------------------------------------------------


class StateSeries:
    """A sequence of observed discrete states with display metadata."""

    def __init__(self, field, states, genes=None, display="canonical"):
        self.field = field
        self.states = [tuple(field.check(v) for v in s) for s in states]
        self.genes = list(genes) if genes else None
        self.display = check_display(field, display)


def series_to_dict(series):
    field, display = series.field, series.display
    d = {"format_version": FORMAT_VERSION, "field": field.order}
    if series.genes:
        d["genes"] = series.genes
    if display != "canonical":
        d["display"] = display
    d["states"] = [[decode_level(field, display, v) for v in s] for s in series.states]
    return d


def series_from_dict(d):
    document(d, "series")
    field = Field(d["field"])
    display = check_display(field, d.get("display", "canonical"))
    states = [tuple(encode_level(field, display, v) for v in s) for s in d["states"]]
    bad = next((i for i, s in enumerate(states) if len(s) != len(states[0])), None)
    if bad is not None:
        raise ValueError(f"state {bad} {d['states'][bad]} has {len(states[bad])} levels, "
                         f"state 0 has {len(states[0])}")
    genes = d.get("genes")
    names = {g for g in genes if isinstance(g, str)} if isinstance(genes, list) else None
    if genes is not None and (names is None or {len(names), *map(len, states)} != {len(genes)}):
        raise ValueError(f"genes must be distinct names, one per coordinate, got {genes!r}")
    return StateSeries(field, states, genes, display)


def save_series(series, path):
    write_json(series_to_dict(series), path)


def load_series(path):
    return load(path, "series", series_from_dict)
