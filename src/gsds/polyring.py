"""Reduced multivariate polynomials over GF(q).

A polynomial is stored as a mapping from exponent tuples to nonzero
coefficients, kept in *reduced* form: every exponent is at most q-1,
using x^q = x to fold higher powers (e > 0 maps to ((e-1) mod (q-1)) + 1,
which never collapses a positive power to x^0 and therefore preserves
the value at 0).  Reduced polynomials are the canonical representatives
of functions GF(q)^n -> GF(q): two polynomials are equal as functions
iff their reduced forms are identical.  ``table_polys`` (values on points
to polynomials) and ``poly_tables`` (values on a product of levels) are the
one exact transform between tables and polynomials, in the same dense passes;
``render_polys`` writes a list of polynomials with one sort.

Variables are written x1 ... xn.  The concrete text syntax (used in
model files and CLI output) is

    expr   := ['+'|'-'] term (('+'|'-') term)*
    term   := factor ('*' factor)*
    factor := integer | var | var '^' integer | '(' expr ')'
    var    := 'x' index          (1 <= index <= n_vars)

with whitespace ignored and integer coefficients reduced into the field
(negatives allowed).  Multiplication is always explicit.  ``parse_poly``
reads it as tokens of one pattern (a number, a variable power or one other
character), one recursive call per parenthesis level.
"""

import array
import functools
import itertools
import math
import operator
import re
import sys

from .errors import FieldMismatchError, PolyParseError

PARSE_MAX_DEPTH = 100  # parentheses nested in one text; one parser frame each
TABLE_MAX_POINTS = 1 << 18  # cells of one column of a dense transform (table_polys: q^n)


def iter_points(field, n_vars):
    """All points of GF(q)^n in mixed-radix (first variable slowest) order."""
    return itertools.product(field.elements(), repeat=n_vars)


class Polynomial:
    """A reduced multivariate polynomial over a finite field."""

    __slots__ = ("field", "n_vars", "terms", "_compiled", "_text")

    def __init__(self, field, n_vars, terms=None):
        if n_vars < 0:
            raise ValueError("n_vars must be non-negative")
        for exps in terms or ():
            if len(exps) != n_vars:
                raise ValueError(f"exponent tuple {exps} does not have {n_vars} entries")
            if exps and min(exps) < 0:
                raise ValueError(f"negative exponent in {exps}")
        self.field = field
        self.n_vars = n_vars
        self.terms = _reduced(field, n_vars, (terms or {}).items()).terms
        self._compiled = self._text = None

    # -- constructors ------------------------------------------------

    @classmethod
    def _trusted(cls, field, n_vars, terms):
        """A polynomial on terms already reduced, canonical and nonzero."""
        poly = cls.__new__(cls)
        poly.field, poly.n_vars, poly.terms = field, n_vars, terms
        poly._compiled = poly._text = None
        return poly

    @classmethod
    def zero(cls, field, n_vars):
        return cls(field, n_vars, {})

    @classmethod
    def constant(cls, field, n_vars, value):
        return cls(field, n_vars, {(0,) * n_vars: value})

    @classmethod
    def variable(cls, field, n_vars, index):
        """The polynomial x_index (1-based)."""
        if not 1 <= index <= n_vars:
            raise ValueError(f"variable index {index} outside 1..{n_vars}")
        exps = tuple(1 if j == index - 1 else 0 for j in range(n_vars))
        return cls(field, n_vars, {exps: 1})

    # -- basic protocol ----------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, Polynomial)
            and self.field == other.field
            and self.n_vars == other.n_vars
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.field.order, self.n_vars, frozenset(self.terms.items())))

    def __bool__(self):
        return bool(self.terms)

    def __repr__(self):
        return f"<{self.field!r}[{self.n_vars}] {self.render()}>"

    def __str__(self):
        return self.render()

    def _check_compatible(self, other):
        if not isinstance(other, Polynomial):
            raise TypeError(f"expected Polynomial, got {other!r}")
        if self.field != other.field or self.n_vars != other.n_vars:
            raise FieldMismatchError(
                f"incompatible polynomials: {self.field!r}[{self.n_vars}] "
                f"vs {other.field!r}[{other.n_vars}]"
            )

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other):
        self._check_compatible(other)
        return poly_sum(self.field, self.n_vars, (self, other))

    def __neg__(self):
        return self.scale(-1)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check_compatible(other)
        mul = self.field.mul_rows
        return _reduced(self.field, self.n_vars, (
            (tuple(map(operator.add, e1, e2)), mul[c1][c2])
            for e1, c1 in self.terms.items()
            for e2, c2 in other.terms.items()
        ))

    def __pow__(self, e):
        if e < 0:
            raise ValueError("negative polynomial powers are not defined")
        # a^e = a^(reduced e) on every field value, so on every function
        e = self.field.fold_exp(e)
        result = Polynomial.constant(self.field, self.n_vars, 1)
        base = self
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result

    def scale(self, coeff):
        row = self.field.mul_rows[self.field.coerce(coeff)]
        return _reduced(self.field, self.n_vars, ((e, row[v]) for e, v in self.terms.items()))

    # -- evaluation ----------------------------------------------------

    def eval(self, point):
        """Value at a point of canonical ints, term by term on the field's rows."""
        if len(point) != self.n_vars:
            raise FieldMismatchError(
                f"point has {len(point)} coordinates, polynomial has {self.n_vars}"
            )
        if self._compiled is None:
            # per-term factor lists with the zero exponents dropped
            self._compiled = [
                (coeff, tuple((j, e) for j, e in enumerate(exps) if e))
                for exps, coeff in self.terms.items()
            ]
        add, mul, power = self.field.add_rows, self.field.mul_rows, self.field.pow_rows
        total = 0
        for coeff, factors in self._compiled:
            v = coeff
            for j, e in factors:
                v = mul[v][power[point[j]][e]]
                if v == 0:
                    break
            total = add[total][v]
        return total

    __call__ = eval

    def compose(self, substitutions):
        """Substitute a polynomial for each variable."""
        if len(substitutions) != self.n_vars:
            raise FieldMismatchError(
                f"need {self.n_vars} substitutions, got {len(substitutions)}"
            )
        for s in substitutions:
            self._check_compatible(s)
        f, n = self.field, self.n_vars
        return poly_sum(f, n, [
            functools.reduce(operator.mul, (s**e for s, e in zip(substitutions, exps) if e),
                             Polynomial.constant(f, n, coeff))
            for exps, coeff in self.terms.items()
        ])

    # -- structure -----------------------------------------------------

    def support(self):
        """1-based indices of variables appearing in the reduced form."""
        return frozenset(j + 1 for j, col in enumerate(zip(*self.terms)) if any(col))

    # -- rendering -----------------------------------------------------

    def render(self):
        return self._text or render_polys([self])[0]


def render_polys(polys):
    """The text of each polynomial, all over one ring, kept in its ``_text``:
    the union of their monomials is sorted once (graded lexicographic, highest
    first) and written once, and each text is that order filtered by its terms."""
    polys = list(polys)
    for p in polys[1:]:
        polys[0]._check_compatible(p)
    todo = [p for p in polys if p._text is None]
    if todo:
        # the sort is stable under reverse=True, so ties keep lex order
        order = sorted(sorted({e for p in todo for e in p.terms}, reverse=True),
                       key=sum, reverse=True)
        names = [("", f"x{j}", *(f"x{j}^{e}" for e in range(2, todo[0].field.order)))
                 for j in range(1, todo[0].n_vars + 1)]  # names[j-1][e]: x_j^e
        monomials = ["*".join([row[x] for row, x in zip(names, e) if x]) for e in order]
        for p in todo:
            p._text = " + ".join([(m if c == 1 else f"{c}*{m}") if m else str(c) for m, c
                                  in zip(monomials, map(p.terms.get, order)) if c]) or "0"
    return [p._text for p in polys]


def support_vars(poly, domain):
    """Variables (1-based) the polynomial's function depends on over
    ``domain``, a sequence of per-variable value collections.

    It probes exhaustively, which is what restricted state sets require;
    over the full field ``poly.support()`` reads the reduced form.
    """
    if len(domain) != poly.n_vars:
        raise FieldMismatchError(
            f"domain has {len(domain)} variable ranges, need {poly.n_vars}"
        )
    for j, values in enumerate(domain):
        if not values:
            raise ValueError(f"empty domain for variable x{j + 1}")
    # only variables in the reduced-form support can influence values
    tabled = poly_table(poly, domain)
    return frozenset(v for v in poly.support() if probe_variable(tabled, v - 1, domain))


def _reduced(field, n_vars, pairs):
    """The polynomial in GF(q)[x1..xn] that is the sum of the (exponents,
    coefficient) pairs: the one place where terms are combined.
    Exponents fold by x^q = x, coefficients are coerced into the field,
    repeated monomials merge and zero coefficients drop."""
    top = field.order - 1
    add = field.add_rows
    coerce = field.coerce
    out = {}
    get = out.get
    for exps, c in pairs:
        if exps and max(exps) > top:
            exps = tuple(map(field.fold_exp, exps))
        out[exps] = add[get(exps, 0)][coerce(c)]
    return Polynomial._trusted(field, n_vars, {e: c for e, c in out.items() if c})


def poly_sum(field, n_vars, polys):
    """The sum of polynomials, all in GF(q)[x1..xn], reduced once."""
    return _reduced(field, n_vars, itertools.chain.from_iterable(p.terms.items() for p in polys))


def _passes(field, size, nonzero, axes):
    """A dense table of ``size`` entries over GF(q), zero but for the (index,
    value) pairs ``nonzero`` and its slowest digit the column, after a matrix
    along each axis, axes[k] = (r, s, row): input radix r <= q, output radix s,
    row(d)[e] the entry for input digit d and output digit e; the output digits
    in axis order, the column fastest.  A pass maps the planes t[d::r] (last
    digit d) to the planes sum_d row(d)[e] * plane d (first digit e), one big-int
    operation per nonzero (d, e) on byte entries up to GF(13), 4-byte ints past
    it; row(d) is built only for a plane d that is not zero."""
    q, order, wide = field.order, sys.byteorder, field.order * (field.order - 1) > 255
    cells = array.array("I", [0]) * size if wide else bytearray(size)
    for i, v in nonzero:
        cells[i] = v
    if wide:  # 4 bytes hold q products below (q-1)^2; each entry reduced mod q
        read, scale = functools.partial(int.from_bytes, byteorder=order), operator.mul
        settle = lambda t: array.array("I", map(q.__rmod__, memoryview(t).cast("I")))
    else:  # translate tables that read a byte v as v mod q
        mul = [(bytes(m) * (256 // q + 1))[:256] for m in field.mul_rows]
        read, settle = bytes, lambda t: t.translate(mul[1])
        scale = lambda p, c: int.from_bytes(p if c == 1 else p.translate(mul[c]), order)
    add = operator.xor if q in (2, 4) else operator.add
    for r, s, row in reversed(axes):
        width = len(cells) // r * memoryview(cells).itemsize
        live = [(plane, row(d)) for d in range(r)
                if (plane := read(cells[d::r])) != (0 if wide else bytes(width))]
        cells = settle(b"".join(functools.reduce(add, [scale(p, m[e]) for p, m in live if m[e]], 0)
                                .to_bytes(width, order) for e in range(s)))
    return cells


def table_polys(field, n_vars, points, columns):
    """The reduced polynomials, one per column, that are ``column[k]`` at
    ``points[k]`` (distinct points of GF(q)^n) and 0 elsewhere: the inverse
    Vandermonde matrix, L(a, e) = [e == 0] - a^(q-1-e) from the indicator
    1 - (x - a)^(q-1), applied along each axis of a dense table."""
    q, count, size = field.order, len(columns), field.order**n_vars
    if size > TABLE_MAX_POINTS:
        raise ValueError(f"a table of {q}^{n_vars} points exceeds the limit ({TABLE_MAX_POINTS})")
    strides = [q ** (n_vars - 1 - j) for j in range(n_vars)]
    index = [sum(map(operator.mul, p, strides)) for p in points]
    nonzero = itertools.chain.from_iterable(
        zip(map(base.__add__, index), col) for base, col in zip(itertools.count(0, size), columns))
    neg = field.neg_row.__getitem__  # L(d, e): [d == 0], then -d^(q-1-e)
    inverse = lambda d: [int(d == 0), *map(neg, field.pow_rows[d][q - 2 :: -1])]
    cells = _passes(field, count * size, nonzero, [(q, q, inverse)] * n_vars)
    exps = list(itertools.product(range(q), repeat=n_vars))
    return [Polynomial._trusted(field, n_vars, dict(itertools.compress(zip(exps, col), col)))
            for col in (cells[c::count] for c in range(count))]


def table_poly(field, n_vars, values):
    """``table_polys`` of the one column ``values``, a dict {point: value}."""
    return table_polys(field, n_vars, list(values), [list(values.values())])[0]


def poly_tables(polys, levels):
    """The forward direction of the exact transform of ``table_polys``: per
    polynomial, its support variables (0-based) and its values on the product
    of their ``levels`` (a level list per variable) in product order, from the
    rows levels[e]^x along each axis of a dense table in which a variable's
    digit runs over the exponents x below its level count, then over the higher
    ones it has.  Polynomials of one field with equal level lists and digits
    share a table, a column each.  ValueError(message, i) refuses polynomial i,
    before any table is built, if its column has more than TABLE_MAX_POINTS cells."""
    groups = {}
    for i, poly in enumerate(polys):
        top = [*map(max, zip(*poly.terms))]
        support = [j for j, e in enumerate(top) if e]
        key = tuple((tuple(v), range(len(v)) if top[j] < len(v)
                     else tuple(sorted({*range(len(v)), *(e[j] for e in poly.terms)})))
                    for j, v in zip(support, map(levels.__getitem__, support)))
        if (cells := math.prod(len(x) for _, x in key)) > TABLE_MAX_POINTS:
            size = math.prod(len(v) for v, _ in key)
            what = (f"reads a subcube of {size} points" if size > TABLE_MAX_POINTS
                    else f"needs a table of {cells} cells")
            raise ValueError(f"{what}, above the limit ({TABLE_MAX_POINTS})", i)
        groups.setdefault((poly.field, key), []).append((i, poly, support))
    tables = [None] * len(polys)
    for (field, key), group in groups.items():
        count, radices = len(group), [len(x) for _, x in key]
        size, strides = math.prod(radices), [math.prod(radices[k + 1 :]) for k in range(len(key))]
        weights = [{x: d * stride for d, x in enumerate(xs)} for (_, xs), stride in zip(key, strides)]
        nonzero = [(c * size + sum(map(dict.__getitem__, weights, map(exps.__getitem__, support))), v)
                   for c, (_, poly, support) in enumerate(group) for exps, v in poly.terms.items()]
        axes = [(len(x), len(v), lambda d, v=v, x=x: [field.pow_rows[a][x[d]] for a in v])
                for v, x in key]
        cells = _passes(field, count * size, nonzero, axes)
        for c, (i, _, support) in enumerate(group):
            tables[i] = (support, list(cells[c::count]))
    return tables


def poly_table(poly, levels):
    """``poly_tables`` of the one polynomial ``poly``."""
    return poly_tables([poly], levels)[0]


def probe_variable(tabled, j, domain):
    """The first pair in product order of points of ``domain`` that differ
    only in x_(j+1), a support variable, and give different values, or
    None, read from ``tabled``: the polynomial's ``poly_table`` over
    ``domain``.  The pair has every coordinate off the support at its
    first level."""
    support, table = tabled
    t = support.index(j)
    value_at = dict(zip(itertools.product(*(domain[k] for k in support)), table))
    for sub, value in value_at.items():
        for v in domain[j][1:] if sub[t] == domain[j][0] else ():
            other = sub[:t] + (v,) + sub[t + 1 :]
            if value_at[other] != value:
                return tuple(tuple(dict(zip(support, s)).get(k, levels[0])
                                   for k, levels in enumerate(domain)) for s in (sub, other))
    return None


def indicator_poly(field, point):
    """The polynomial that is 1 at ``point`` and 0 elsewhere on GF(q)^n."""
    return table_poly(field, len(point), {tuple(field.coerce(a) for a in point): 1})


# after blanks: a number, a variable power x<i>[^[-]<e>], or one other character ("" at the end)
_TOKEN = re.compile(r"\s*((\d+)|x\s*(\d*)(?:\s*\^(\s*-?)\s*(\d*))?|.?)")


def parse_poly(text, n_vars, field):
    """Parse polynomial text into reduced form.  See the module docstring
    for the grammar; raises PolyParseError with a character position, also
    past PARSE_MAX_DEPTH nested parentheses and at a parenthesised factor
    whose product could have more than TABLE_MAX_POINTS terms."""
    poly, end = _sum(text, _TOKEN.match(text), n_vars, field, 0)
    if end[1]:
        raise PolyParseError(f"unexpected character {end[1][0]!r}", end.start(1))
    return poly


def _sum(text, token, n, field, depth):
    """The signed sum of terms that begins at ``token``, all its (exponents,
    coefficient) pairs reduced in one call, and the token after it.  A term's
    numbers multiply on the field's rows and its variable powers add into one
    exponent list; only a parenthesised factor, read one frame deeper, costs
    a product."""
    match, mul, pairs, sign = _TOKEN.match, field.mul_rows, [], token[1]
    if sign in ("+", "-"):
        token = match(text, token.end())
    while True:
        exps, coeff, poly = [0] * n, field.neg_row[1] if sign == "-" else 1, None
        while True:
            word, number, index, minus, exp = token.groups()
            if number:
                value = int(number)
                if field.kind == "gf4" and value > 3:
                    raise PolyParseError(f"coefficient {value} is not a canonical GF(4) value",
                                         token.end(1))
                coeff = mul[coeff][field.coerce(value)]
            elif index:
                if not 0 < (i := int(index)) <= n:
                    raise PolyParseError(f"variable x{i} outside 1..{n}", token.start(1))
                if minus is not None:  # x<i>^<e>: an error here is placed just past the '^'
                    if not exp:
                        raise PolyParseError("exponent must be an integer", token.start(4))
                    if minus.endswith("-") and int(exp):
                        raise PolyParseError("negative exponent", token.start(4))
                exps[i - 1] += 1 if minus is None else int(exp)
            elif index is not None:
                raise PolyParseError("variable needs an index", token.start(1))
            elif word == "(":
                at = token.start(1)
                if depth == PARSE_MAX_DEPTH:
                    raise PolyParseError(f"parentheses nested deeper than {depth}", at)
                inner, token = _sum(text, match(text, token.end()), n, field, depth + 1)
                if token[1] != ")":
                    raise PolyParseError("unclosed parenthesis", at)
                if poly is None:
                    poly, first = inner, at
                else:  # refused before it is multiplied out
                    tops = zip(*(map(max, zip(*p.terms)) for p in (poly, inner)))
                    size = min(len(poly.terms) * len(inner.terms),
                               math.prod(min(field.order - 1, s + t) + 1 for s, t in tops))
                    if size > TABLE_MAX_POINTS:
                        raise PolyParseError(f"a product of up to {size} terms exceeds the limit "
                                             f"({TABLE_MAX_POINTS})", at)
                    poly = poly * inner
            else:
                raise PolyParseError(f"unexpected character {word!r}" if word
                                     else "unexpected end of input", token.start(1))
            token = match(text, token.end())
            if token[1] != "*":
                break
            token = match(text, token.end())
        if poly is None:
            pairs.append((tuple(exps), coeff))
        else:
            row = mul[coeff]
            pairs += [(tuple(map(operator.add, e, exps)), row[c]) for e, c in poly.terms.items()]
            if len(pairs) > TABLE_MAX_POINTS:  # a sum of products is reduced before it grows on
                pairs = [*_reduced(field, n, pairs).terms.items()]
                if len(pairs) > TABLE_MAX_POINTS:
                    raise PolyParseError(f"a sum of {len(pairs)} terms exceeds the limit "
                                         f"({TABLE_MAX_POINTS})", first)
        sign = token[1]
        if sign not in ("+", "-"):
            return _reduced(field, n, pairs), token
        token = match(text, token.end())
