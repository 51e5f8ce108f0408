"""Independent reference implementations used to cross-check results."""

import argparse
import contextlib
import functools
import io
import itertools
import math
import sys
from collections import Counter

from gsds import continuous
from gsds.cli import COMMANDS, HELP
from gsds.continuous import HybridEvent, HybridResult, fit_from_samples
from gsds.errors import ModelValidationError, PolyParseError, ZenoError
from gsds.files import FORMAT_VERSION
from gsds.ffield import GF4_MUL
from gsds.network import RANGE_MAX_LINES, global_map, validate_model
from gsds.polyring import Polynomial, poly_sum, poly_table
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


def oracle_axes_table_poly(field, n, values):
    """A one-column table turned into its reduced polynomial by the
    inverse Vandermonde matrix applied along each axis of the sparse
    table, one field value per entry: the transform before the columns
    were packed into one int."""
    q = field.order
    inverse = [
        [(e, field.mul_rows[c]) for e, c in enumerate(
            field.sub(int(e == 0), field.pow_rows[a][q - 1 - e]) for e in range(q)) if c]
        for a in range(q)
    ]
    strides = [q ** (n - 1 - j) for j in range(n)]
    table = {sum(a * s for a, s in zip(p, strides)): v for p, v in values.items() if v}
    top = q ** (n - 1)
    for _ in range(n):
        out = {}
        for idx, v in table.items():
            digit, rest = divmod(idx, top)
            for e, m in inverse[digit]:
                out[rest * q + e] = field.add(out.get(rest * q + e, 0), m[v])
        table = {k: v for k, v in out.items() if v}
    terms = {tuple(idx // s % q for s in strides): v for idx, v in table.items()}
    return Polynomial(field, n, terms)


def oracle_packed_table_polys(field, n, points, columns):
    """The reduced polynomials of value columns on distinct points by the
    inverse Vandermonde matrix applied along each axis of one sparse table
    keyed by mixed-radix index, whose entries pack the columns as the
    digits of an int: one get/add/set per (entry, output digit).  In
    characteristic 2 a digit is a value of 1 or 2 bits added by xor; over an
    odd prime, an integer below (q-1)(q(q-1))^n reduced mod q at the end."""
    q, char2 = field.order, field.order in (2, 4)
    width = q.bit_length() - 1 if char2 else ((q - 1) * (q * q - q) ** n).bit_length()
    # multiples(v)[c] = c * v; in GF(4) 2 = z and 3 = z + 1 act on the bit planes h z + l
    if q == 4:
        def multiples(v, lo=sum(1 << 2 * c for c in range(len(columns)))):
            l, h = v & lo, v >> 1 & lo
            return 0, v, (h ^ l) << 1 | h, l << 1 | (h ^ l)
    else:
        multiples = (lambda v: (0, v)) if char2 else (lambda v: range(0, q * v, v))
    add, power = (lambda a, b: a ^ b) if char2 else (lambda a, b: a + b), field.pow_rows
    rows = {a: [(e, c) for e in range(q) if (c := field.sub(int(e == 0), power[a][q - 1 - e]))]
            for a in {a for p in points for a in p}}  # the leading digits that occur
    strides = [q ** (n - 1 - j) for j in range(n)]
    table = {}
    for p, *values in zip(points, *columns):
        if packed := sum(v << width * c for c, v in enumerate(values)):
            table[sum(a * s for a, s in zip(p, strides))] = packed
    top = q ** (n - 1)  # the place of the leading digit
    for _ in range(n):
        out = {}
        for idx, v in table.items():
            digit, rest = divmod(idx, top)
            base, m = rest * q, multiples(v)
            for e, c in rows[digit]:
                out[base + e] = add(out.get(base + e, 0), m[c])
        table = {k: v for k, v in out.items() if v}
    mask, terms = (1 << width) - 1, [{} for _ in columns]
    for idx, v in table.items():
        exps = tuple(idx // s % q for s in strides)
        for t in terms:
            if c := (v & mask) % q:
                t[exps] = c
            v >>= width
    return [Polynomial(field, n, t) for t in terms]


def oracle_add(a, b):
    """a + b: a copy of a's terms with each of b's terms merged in by a
    field method call, then the constructor."""
    f = a.field
    terms = dict(a.terms)
    for exps, coeff in b.terms.items():
        terms[exps] = f.add(terms.get(exps, 0), coeff)
    return Polynomial(f, a.n_vars, terms)


def oracle_mul(a, b):
    """a * b term by term: each product's exponents folded by x^q = x and
    merged at once, with field method calls."""
    f, top = a.field, a.field.order - 1
    terms = {}
    for e1, c1 in a.terms.items():
        for e2, c2 in b.terms.items():
            exps = tuple((x + y - 1) % top + 1 if x + y else 0 for x, y in zip(e1, e2))
            terms[exps] = f.add(terms.get(exps, 0), f.mul(c1, c2))
    return Polynomial(f, a.n_vars, terms)


def oracle_compose(poly, substitutions):
    """Substitution as a running sum of terms, each a running product
    of the substitutions, one factor at a time."""
    f, n = poly.field, poly.n_vars
    result = Polynomial.zero(f, n)
    for exps, coeff in poly.terms.items():
        term = Polynomial.constant(f, n, coeff)
        for sub, e in zip(substitutions, exps):
            for _ in range(e):
                term = oracle_mul(term, sub)
        result = oracle_add(result, term)
    return result


def oracle_member(space, coefficients):
    """The particular solution plus each scaled basis polynomial, added
    one at a time."""
    result = oracle_table_poly(space.field, space.n, dict(space.pairs))
    for c, b in zip(coefficients, space.basis):
        if c:
            result = oracle_add(result, b.scale(c))
    return result


def oracle_range_lines(model):
    """Each gene's first RANGE_MAX_LINES (gene, state, value) range
    violations, found by walking the states in index order and reading
    each state's value from the gene's subcube table: the listing that
    validation made before it read the states off the table alone."""
    lines = []
    for i, poly in enumerate(model.local_polys):
        support, table = poly_table(poly, model.state_sets)
        values = set(model.state_sets[i])
        value_at = dict(zip(itertools.product(*(model.state_sets[j] for j in support)), table))
        value = lambda state: value_at[tuple(map(state.__getitem__, support))]
        states = (s for s in model.iter_states() if value(s) not in values)
        lines += [(i, s, value(s)) for s in itertools.islice(states, RANGE_MAX_LINES)]
    return lines


def oracle_subcube_table(poly, levels):
    """The polynomial's support variables (0-based) and its values on
    the product of their levels, one evaluation per point."""
    support = sorted(v - 1 for v in poly.support())
    point = [0] * poly.n_vars
    table = []
    for combo in itertools.product(*(levels[j] for j in support)):
        for j, v in zip(support, combo):
            point[j] = v
        table.append(poly.eval(point))
    return support, table


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


def oracle_sorted_render(poly):
    """The text of one polynomial by two stable sorts of its own terms
    (lexicographic, then by degree, both highest first) and factor names
    read from a table: the rendering before polynomials were rendered
    together."""
    names = [("", f"x{j}") + tuple(f"x{j}^{e}" for e in range(2, poly.field.order))
             for j in range(1, poly.n_vars + 1)]
    parts = []
    for exps in sorted(sorted(poly.terms, reverse=True), key=sum, reverse=True):
        factors = [row[e] for row, e in zip(names, exps) if e]
        coeff = poly.terms[exps]
        if coeff != 1 or not factors:
            factors.insert(0, str(coeff))
        parts.append("*".join(factors))
    return " + ".join(parts) or "0"


def oracle_parse_poly(text, n_vars, field):
    """Recursive descent that builds one Polynomial per factor, one
    product per '*' and one reduced sum per expression; no nesting
    bound."""
    return _OracleParser(text, n_vars, field).parse()


class _OracleParser:
    def __init__(self, text, n_vars, field):
        self.text = text
        self.n = n_vars
        self.field = field
        self.pos = 0

    def parse(self):
        result = self._expr()
        if self._peek():
            raise PolyParseError(f"unexpected character {self._peek()!r}", self.pos)
        return result

    def _peek(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1
        return self.text[self.pos : self.pos + 1]

    def _expr(self):
        terms = []
        ch = self._peek()
        while True:
            if ch and ch in "+-":
                self.pos += 1
            elif terms:
                return poly_sum(self.field, self.n, terms)
            term = self._term()
            terms.append(-term if ch == "-" else term)
            ch = self._peek()

    def _term(self):
        result = self._factor()
        while self._peek() == "*":
            self.pos += 1
            result = result * self._factor()
        return result

    def _factor(self):
        ch = self._peek()
        if ch == "(":
            open_pos = self.pos
            self.pos += 1
            inner = self._expr()
            if self._peek() != ")":
                raise PolyParseError("unclosed parenthesis", open_pos)
            self.pos += 1
            return inner
        if ch.isdigit():
            value = self._integer()
            if self.field.kind == "gf4" and value > 3:
                raise PolyParseError(
                    f"coefficient {value} is not a canonical GF(4) value", self.pos
                )
            return Polynomial.constant(self.field, self.n, value)
        if ch == "x":
            var_pos = self.pos
            self.pos += 1
            if not self._peek().isdigit():
                raise PolyParseError("variable needs an index", var_pos)
            index = self._integer()
            if not 1 <= index <= self.n:
                raise PolyParseError(f"variable x{index} outside 1..{self.n}", var_pos)
            exponent = 1
            if self._peek() == "^":
                self.pos += 1
                exp_pos = self.pos
                sign = 1
                if self._peek() == "-":
                    self.pos += 1
                    sign = -1
                if not self._peek().isdigit():
                    raise PolyParseError("exponent must be an integer", exp_pos)
                exponent = sign * self._integer()
                if exponent < 0:
                    raise PolyParseError("negative exponent", exp_pos)
            exps = [0] * self.n
            exps[index - 1] = exponent
            return Polynomial(self.field, self.n, {tuple(exps): 1})
        if ch == "":
            raise PolyParseError("unexpected end of input", self.pos)
        raise PolyParseError(f"unexpected character {ch!r}", self.pos)

    def _integer(self):
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        return int(self.text[start : self.pos])


def oracle_transitions_dot(portrait):
    """The transition digraph with one label per state joined from its
    level tuple, and one formatted line per state."""
    m = portrait.model
    levels = [[m.format_level(v) for v in values] for values in m.state_sets]
    labels = ["(" + ",".join(t) + ")" for t in itertools.product(*levels)]
    lines = ["digraph transitions {", "  node [shape=circle];"]
    in_cycle = sorted(i for cycle in portrait.attractors for i in cycle)
    for i in in_cycle:
        lines.append(f'  "{labels[i]}" [shape=doublecircle];')
    for i, j in enumerate(portrait.successor):
        lines.append(f'  "{labels[i]}" -> "{labels[j]}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


def oracle_portrait_report(portrait):
    """The ``gsds portrait`` report as a dict, each state decoded from
    ``state_at``: ``json.dumps(report, indent=2)`` is the text the command
    writes."""
    m = portrait.model
    sizes = portrait.basin_sizes()
    return {
        "format_version": FORMAT_VERSION,
        "field": m.field.order,
        "genes": list(m.genes),
        "display": m.display,
        "state_count": portrait.state_count,
        "attractor_count": len(portrait.attractors),
        "max_transient": portrait.max_transient(),
        "attractors": [
            {"id": aid, "length": len(cycle),
             "states": [m.decode_state(m.state_at(i)) for i in cycle], "basin_size": sizes[aid]}
            for aid, cycle in enumerate(portrait.attractors)
        ],
        "transient_histogram": [[t, c] for t, c in portrait.transient_histogram()],
    }


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


def oracle_feasible(view, subset):
    """Whether some function of the variables in ``subset`` (1-based) fits
    ``view``: no two inputs agree on them with different outputs."""
    seen = {}
    return all(seen.setdefault(tuple(s[v - 1] for v in subset), value) == value
               for s, value in view)


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


def oracle_marker_portrait(successor):
    """(attractors, transient, basin, basin sizes, transient histogram)
    of a successor list by a walk from every state in index order, each
    walk marking its states in one list, with the sizes and the histogram
    counted over every state afterwards."""
    n = len(successor)
    attr = [-1] * n  # -1 unseen, -2 - start on the walk from start, else the attractor id
    transient = [0] * n
    attractors = []
    for start in range(n):
        if attr[start] != -1:
            continue
        mark, path, v = -2 - start, [], start
        while attr[v] == -1:
            attr[v] = mark
            path.append(v)
            v = successor[v]
        aid, depth = attr[v], transient[v]
        if aid == mark:
            cut = path.index(v)
            cycle, path = path[cut:], path[:cut]
            rot = cycle.index(min(cycle))
            aid, depth = len(attractors), 0
            attractors.append(cycle[rot:] + cycle[:rot])
            for node in cycle:
                attr[node] = aid
        for node in reversed(path):
            depth += 1
            attr[node] = aid
            transient[node] = depth
    order = sorted(range(len(attractors)), key=lambda a: attractors[a][0])
    rank = [0] * len(order)
    for new, old in enumerate(order):
        rank[old] = new
    attractors = [attractors[a] for a in order]
    basin = list(map(rank.__getitem__, attr))
    sizes = Counter(basin)
    return (attractors, transient, basin, [sizes[a] for a in range(len(attractors))],
            sorted(Counter(transient).items()))


def oracle_global_map(model, state):
    """The composed map evaluated term by term: every updated gene's
    polynomial at the current state, in parallel or along the word."""
    if model.parallel:
        return tuple(p.eval(state) for p in model.local_polys)
    current = list(state)
    for i in model.schedule:
        current[i] = model.local_polys[i].eval(current)
    return tuple(current)


# -- the bitset fold: the successor kernel before byte planes ---------------


def _bit_strides(levels):
    return [math.prod(map(len, levels[j + 1 :])) for j in range(len(levels))]


def oracle_fold_bits(model, word):
    """Each gene's level bitsets of the images of the model's map composed
    along ``word`` (None: the parallel map): bit s of a gene's bitset for
    a level is set when the image of state s holds that level.  Each
    update walks its support subcube depth first, ANDing in one support
    gene's bitset per level, or gathers its large subcube state by state.
    Raises ModelValidationError when a table leaves its gene's levels."""
    levels, position = model.state_sets, [{v: p for p, v in enumerate(s)} for s in model.state_sets]
    tables = [poly_table(p, levels) for p in model.local_polys]
    if not all(pos.keys() >= set(t) for pos, (_, t) in zip(position, tables)):
        raise ModelValidationError(validate_model(model))
    total = model.state_count()
    full = (1 << total) - 1
    src = []
    for values, stride in zip(levels, _bit_strides(levels)):
        first, period = (1 << stride) - 1, len(values) * stride
        while period < total:  # shift-and-OR doubling, then cut to size
            first |= first << period
            period *= 2
        first &= full
        src.append([first << (p * stride) for p in range(len(values))])
    bits = list(src) if word is None else src
    for i in range(model.n) if word is None else word:
        support, table = tables[i]
        slots = [position[i][v] for v in table]
        rows = [src[j] for j in support]
        if _bit_gathers(len(table), rows, len(levels[i]), total):
            bits[i] = _bit_gather(rows, slots, len(levels[i]), total)
        else:
            bits[i] = out = [0] * len(levels[i])
            _bit_walk(out, iter(slots), rows, full)
    return bits


def _bit_gathers(points, rows, count, total):
    """Whether gathering one update state by state is cheaper than walking
    its ``points`` subcube points, in machine-word operations."""
    planes = (count - 1).bit_length()
    spreads = sum((len(row) - 1).bit_length() for row in rows)
    gather = total * (86 * planes + 9 * spreads) + points * 170 * planes
    return points * (total // 64 + 350) > gather


def _bit_walk(out, slots, rows, mask):
    """OR ``mask`` AND one bitset of each row into ``out[next(slots)]``
    at each point of the rows' product, in product order."""
    if not rows:
        out[next(slots)] |= mask
        return
    for b in rows[0]:
        _bit_walk(out, slots, rows[1:], mask & b)


def _bit_gather(rows, slots, count, total):
    """The ``count`` output bitsets of an update whose subcube point at
    each state is read from the spread row bitsets, one bit plane of the
    output position at a time."""
    terms = [(w * c, b) for row, w in zip(rows, _bit_strides(rows))
             for c, b in _bit_planes(range(len(row)), row)]
    keys = _bit_spread(terms, total, len(slots) - 1)
    out = [(1 << total) - 1]
    for r in reversed(range((count - 1).bit_length())):
        flags = bytes(s >> r & 1 for s in slots)
        data = bytes(map(flags.__getitem__, keys))
        plane = sum(int.from_bytes(data[k::8], "little") << k for k in range(8))
        # out[x]: the states whose position starts with the bits of x
        out = [x for m in out for x in (m & ~plane, m & plane)]
    return out[:count]


def _bit_planes(values, gene):
    """The terms (2^r, bitset of the states whose value has bit r set) of
    sum(v * b for v, b in zip(values, gene)), for disjoint level bitsets."""
    planes = []
    for r in range(max(values, default=0).bit_length()):
        plane = 0
        for v, b in zip(values, gene):
            if v >> r & 1:
                plane |= b
        planes.append((1 << r, plane))
    return planes


def _bit_spread(terms, total, top):
    """The sum(c * (bit s of b) for c, b in terms) for s < total, each at
    most ``top``, as a memoryview of native integers."""
    width, fmt = next((w, f) for w, f in zip((1, 2, 4, 8), "BHIQ") if top < 1 << 8 * w)
    order, size = sys.byteorder, (total + 7) // 8
    spread = [b""]  # byte x -> fields of its bits, least significant first
    for _ in range(8):
        spread = [s + f for f in (bytes(width), (1).to_bytes(width, order)) for s in spread]
    acc = 0
    for c, b in terms:
        data = b"".join(map(spread.__getitem__, b.to_bytes(size, "little")))
        acc += c * int.from_bytes(data, order)
    return memoryview(acc.to_bytes(8 * width * size, order)).cast(fmt)[:total]


def oracle_bit_successor(model, word):
    """The successor list read out of ``oracle_fold_bits``."""
    total, bits = model.state_count(), oracle_fold_bits(model, word)
    terms = [(stride * c, b) for stride, gene in zip(_bit_strides(model.state_sets), bits)
             for c, b in _bit_planes(range(len(gene)), gene)]
    return list(_bit_spread(terms, total, total - 1))


def oracle_bit_truth_table(model, word):
    """The truth table read out of ``oracle_fold_bits``."""
    total, top = model.state_count(), model.field.order - 1
    columns = [_bit_spread(_bit_planes(v, gene), total, top)
               for v, gene in zip(model.state_sets, oracle_fold_bits(model, word))]
    return tuple(zip(*columns)) if columns else ((),)


def oracle_compare_schedules(model, word_a, word_b):
    """The lowest bit set in any XOR of the two maps' image bitsets."""
    a, b = oracle_fold_bits(model, word_a), oracle_fold_bits(model, word_b)
    diff = 0
    for x, y in zip(itertools.chain(*a), itertools.chain(*b)):
        diff |= x ^ y
    return model.state_at((diff & -diff).bit_length() - 1) if diff else None


def oracle_schedule_scan(model, words):
    """Words grouped by their maps' image bitsets, in order of appearance."""
    classes = {}
    for word in map(tuple, words):
        classes.setdefault(tuple(map(tuple, oracle_fold_bits(model, word))), []).append(word)
    return list(classes.values())


def oracle_hybrid_simulate(model, rates, tmap, c0, t_end):
    """The hybrid event loop evaluating the map and every rate, and
    building every gene's crossing targets, at each event; more than
    ``continuous.MAX_EVENTS`` events (read at call time) raise ZenoError."""
    if t_end <= 0:
        raise ValueError("t_end must be positive")
    n = model.n
    if len(c0) != n or tmap.n != n:
        raise ValueError("initial vector, model, and thresholds disagree on gene count")
    rates.check_coverage(model)
    global_map(model)  # validates

    def slopes_for(state, conc):
        act = oracle_global_map(model, state)
        out = []
        for j in range(n):
            v = rates.rates[j][act[j]]
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
        if len(events) + len(crossings) > continuous.MAX_EVENTS:
            raise ZenoError(
                f"more than {continuous.MAX_EVENTS} events by t={best_t}; "
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


def oracle_hybrid_report(model, result):
    """The ``gsds hybrid`` report as a dict: ``json.dumps(report, indent=2,
    allow_nan=False)`` is the text the command writes."""
    return {
        "format_version": FORMAT_VERSION,
        "t_end": result.t_end,
        "genes": list(model.genes),
        "trajectories": {name: {"breakpoints": tr.breakpoints, "segments": tr.segments}
                         for name, tr in zip(model.genes, result.trajectories)},
        "events": [
            {
                "time": e.time,
                "gene": model.genes[e.gene],
                "threshold": e.threshold,
                "kind": e.kind,
                "old_state": model.decode_state(e.old_state),
                "new_state": model.decode_state(e.new_state),
            }
            for e in result.events
        ],
        "phases": [[t0, t1, model.decode_state(s)] for t0, t1, s in result.phases],
    }


class OracleField:
    """Field arithmetic that branches on prime vs GF(4) in every
    operation: % and pow() for primes, the GF4_MUL table and xor for
    GF(4)."""

    def __init__(self, order):
        self.order = order
        self.kind = "gf4" if order == 4 else "prime"

    def add(self, a, b):
        if self.kind == "prime":
            return (a + b) % self.order
        return a ^ b

    def sub(self, a, b):
        if self.kind == "prime":
            return (a - b) % self.order
        return a ^ b

    def neg(self, a):
        if self.kind == "prime":
            return (-a) % self.order
        return a

    def mul(self, a, b):
        if self.kind == "prime":
            return (a * b) % self.order
        return GF4_MUL[a][b]

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError(f"inverse of zero in GF({self.order})")
        if self.kind == "prime":
            return pow(a, self.order - 2, self.order)
        return GF4_MUL[a][a]  # a^3 = 1 for a != 0, so inv(a) = a^2

    def div(self, a, b):
        if b == 0:
            raise ZeroDivisionError(f"division by zero in GF({self.order})")
        return self.mul(a, self.inv(b))

    def pow(self, a, e):
        if e < 0:
            return self.pow(self.inv(a), -e)
        if self.kind == "prime":
            return pow(a, e, self.order)
        if a == 0:
            return 0 if e else 1
        r = 1
        for _ in range(e % 3):  # nonzero elements of GF(4) have order dividing 3
            r = GF4_MUL[r][a]
        return r


def oracle_sectional_value(curve, t):
    """The curve's value at t by a hand-written binary search for the
    first segment whose interval reaches t; 0 outside."""
    t = float(t)
    if t < curve.breakpoints[0] or t > curve.breakpoints[-1]:
        return 0.0
    lo, hi = 0, len(curve.segments) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if t <= curve.breakpoints[mid + 1]:
            hi = mid
        else:
            lo = mid + 1
    a, b = curve.segments[lo]
    return a * t + b


class _OracleArgumentParser(argparse.ArgumentParser):
    """A parser whose usage errors raise ValueError, not SystemExit(2)."""

    def error(self, message):
        raise ValueError(message)


@functools.cache
def _oracle_cli_parser():
    """The stdlib argparse parser for the command table of ``gsds.cli``,
    as the front end built it before it read command lines itself."""
    parser = _OracleArgumentParser(prog="gsds", add_help=False, allow_abbrev=False)
    parser.add_argument(*HELP[0], action="help")
    commands = parser.add_subparsers(dest="command", metavar="COMMAND", required=True)
    for name, (fn, params, _) in COMMANDS.items():
        sub = commands.add_parser(name, add_help=False, allow_abbrev=False)
        for flags, kwargs in params:
            if flags[0][0] != "-":  # argparse names a positional's dest itself
                kwargs = {k: v for k, v in kwargs.items() if k != "dest"}
            sub.add_argument(*flags, **kwargs)
        sub.add_argument(*HELP[0], action="help")
        sub.set_defaults(run=fn)
    return parser


def _oracle_joined(argv):
    """``argv`` with each option that takes a value joined to the next
    token as ``--long-form=value``, so that the value may begin with ``-``."""
    valued_options = {name: {f: flags[-1] for flags, kw in params
                             if "action" not in kw and flags[0].startswith("-") for f in flags}
                      for name, (_, params, _) in COMMANDS.items()}
    out, valued, tokens = [], None, iter(argv)
    for token in tokens:
        if valued is None:
            valued = valued_options.get(token)
        elif token in valued:
            value = next(tokens, None)
            token = token if value is None else f"{valued[token]}={value}"
        elif token == "--":
            return out + [token, *tokens]
        out.append(token)
    return out


def oracle_read(argv):
    """argparse's reading of a gsds command line: ``(function, keyword
    arguments)``, or ``"help"`` for a line that prints the help; a usage
    error raises ValueError."""
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            args = vars(_oracle_cli_parser().parse_args(_oracle_joined(argv)))
    except SystemExit as exc:
        assert exc.code == 0
        return "help"
    del args["command"]
    return args.pop("run"), args
