"""Reduced multivariate polynomials over GF(q).

A polynomial is stored as a mapping from exponent tuples to nonzero
coefficients, kept in *reduced* form: every exponent is at most q-1,
using x^q = x to fold higher powers (e > 0 maps to ((e-1) mod (q-1)) + 1,
which never collapses a positive power to x^0 and therefore preserves
the value at 0).  Reduced polynomials are the canonical representatives
of functions GF(q)^n -> GF(q): two polynomials are equal as functions
iff their reduced forms are identical.  ``table_polys`` (values on points
to polynomials, in passes over one dense table) and ``poly_table`` (values
on a product of levels, from the terms) are the one exact transform between
tables and polynomials; ``render_polys`` writes a list of them with one sort.

Variables are written x1 ... xn.  The concrete text syntax (used in
model files and CLI output) is

    expr   := ['+'|'-'] term (('+'|'-') term)*
    term   := factor ('*' factor)*
    factor := integer | var | var '^' integer | '(' expr ')'
    var    := 'x' index          (1 <= index <= n_vars)

with whitespace ignored and integer coefficients reduced into the field
(negatives allowed).  Multiplication is always explicit.
"""

import array
import functools
import itertools
import math
import operator
import sys

from .errors import FieldMismatchError, PolyParseError

PARSE_MAX_DEPTH = 100  # parentheses nested in one text; three parser frames each
TABLE_MAX_POINTS = 1 << 18  # q^n of one dense table_polys transform


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


def support_vars(poly, domain=None):
    """Variables (1-based) the polynomial's function depends on.

    Over the full field this reads the reduced form; over a restricted
    ``domain`` (a sequence of per-variable value collections) it probes
    exhaustively, which is what restricted state sets require.
    """
    if domain is None:
        return poly.support()
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


@functools.lru_cache(maxsize=256)
def _vandermonde(field, levels):
    """Row e of the Vandermonde matrix V[a][e] = a^e over ``levels``: the
    pairs (position of a, the multiplication row of a^e) with a^e != 0,
    where 0^0 = 1."""
    mul, power = field.mul_rows, field.pow_rows
    return tuple(
        tuple((p, mul[v]) for p, v in enumerate(power[a][e] for a in levels) if v)
        for e in range(field.order)
    )


def _along_axes(field, table, axes):
    """A sparse table keyed by mixed-radix index (first axis slowest)
    with one matrix applied along each axis.  ``axes`` holds per axis
    (input radix, output radix, rows), where rows[d] lists for input
    digit d the pairs (output digit, multiplication row of the entry).
    Each pass takes the leading digit off the index and appends the
    output digit at the end, so the axes end in their first order."""
    add = field.add_rows
    top = math.prod(r_in for r_in, _, _ in axes)
    for r_in, r_out, rows in axes:
        top //= r_in
        out = {}
        get = out.get
        for idx, v in table.items():
            digit, rest = divmod(idx, top)
            base = rest * r_out
            for e, m in rows[digit]:
                out[base + e] = add[get(base + e, 0)][m[v]]
        table = {k: v for k, v in out.items() if v}
        top *= r_out
    return table


def table_polys(field, n_vars, points, columns):
    """The reduced polynomials, one per column, that are ``column[k]`` at
    ``points[k]`` (distinct points of GF(q)^n) and 0 elsewhere: the inverse
    Vandermonde matrix, L(a, e) = [e == 0] - a^(q-1-e) from the indicator
    1 - (x - a)^(q-1), applied along each axis of a dense table, the column
    its slowest digit.  A pass maps the planes t[d::q] (last digit d) to the
    planes sum_d L(d, e) * plane d (first digit e), one big-int operation per
    (d, e): byte entries up to GF(13), scaled by translate, added by xor in
    GF(2) and GF(4) or reduced mod q by translate; past that, 4-byte ints."""
    q, count, size = field.order, len(columns), field.order**n_vars
    if size > TABLE_MAX_POINTS:
        raise ValueError(f"a table of {q}^{n_vars} points exceeds the limit ({TABLE_MAX_POINTS})")
    wide, order = q * (q - 1) > 255, sys.byteorder  # a byte holds q entries below q
    entries = (lambda t: memoryview(t).cast("I")) if wide else (lambda t: t)
    cells = bytearray(count * size * (array.array("I").itemsize if wide else 1))
    strides, at = [q ** (n_vars - 1 - j) for j in range(n_vars)], entries(cells)
    index, width = [sum(map(operator.mul, p, strides)) for p in points], len(cells) // q
    for base, column in zip(range(0, count * size, size), columns):
        for i, v in zip(index, column):
            at[base + i] = v
    if wide:  # 4 bytes hold q products below (q-1)^2; each entry reduced mod q
        read, zero, scale = functools.partial(int.from_bytes, byteorder=order), 0, operator.mul
        settle = lambda t: array.array("I", map(q.__rmod__, entries(t))).tobytes()
    else:  # translate tables that read a byte v as v mod q
        mul = [(bytes(m) * (256 // q + 1))[:256] for m in field.mul_rows]
        read, zero, settle = bytes, bytes(width), lambda t: t.translate(mul[1])
        scale = lambda p, c: int.from_bytes(p if c == 1 else p.translate(mul[c]), order)
    add, neg = operator.xor if q in (2, 4) else operator.add, field.neg_row.__getitem__
    for _ in range(n_vars):  # each nonzero plane d with L(d, e): [d == 0], then -d^(q-1-e)
        live = [(plane, [int(d == 0), *map(neg, field.pow_rows[d][q - 2 :: -1])])
                for d in range(q) if (plane := read(entries(cells)[d::q])) != zero]
        if not live:  # a zero table stays zero
            break
        planes, lower = zip(*live)
        cells = settle(b"".join(functools.reduce(add, map(
            scale, itertools.compress(planes, row), filter(None, row)), 0).to_bytes(width, order)
            for row in zip(*lower)))
    exps = list(itertools.product(range(q), repeat=n_vars))
    return [Polynomial._trusted(field, n_vars, dict(itertools.compress(zip(exps, col), col)))
            for col in (entries(cells)[c::count] for c in range(count))]


def table_poly(field, n_vars, values):
    """``table_polys`` of the one column ``values``, a dict {point: value}."""
    return table_polys(field, n_vars, list(values), [list(values.values())])[0]


def poly_table(poly, levels):
    """The forward direction of the exact transform of ``table_polys``:
    the polynomial's support variables (0-based) and its values on the
    product of their ``levels`` (one level list per variable), in
    product order.  The Vandermonde matrix over each support variable's
    levels is applied along its axis of the coefficient table."""
    field, q = poly.field, poly.field.order
    support = sorted(v - 1 for v in poly.support())
    strides = [q ** (len(support) - 1 - k) for k in range(len(support))]
    table = {sum(exps[j] * s for j, s in zip(support, strides)): c
             for exps, c in poly.terms.items()}
    sizes = [len(levels[j]) for j in support]
    axes = [(q, size, _vandermonde(field, tuple(levels[j]))) for j, size in zip(support, sizes)]
    table = _along_axes(field, table, axes)
    return support, [table.get(i, 0) for i in range(math.prod(sizes))]


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


def parse_poly(text, n_vars, field):
    """Parse polynomial text into reduced form.  See the module docstring
    for the grammar; raises PolyParseError with a character position
    (also past PARSE_MAX_DEPTH nested parentheses)."""
    return _Parser(text, n_vars, field).parse()


class _Parser:
    def __init__(self, text, n_vars, field):
        self.text = text
        self.n = n_vars
        self.field = field
        self.pos = 0
        self.mul = field.mul_rows

    def parse(self):
        result = self._expr()
        if self._peek():
            raise PolyParseError(f"unexpected character {self._peek()!r}", self.pos)
        return result

    def _peek(self):
        """The next non-blank character, or "" at the end of the text."""
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1
        return self.text[self.pos : self.pos + 1]

    def _expr(self, depth=0):
        """A signed sum of terms, all their pairs reduced in one call."""
        pairs, ch = [], self._peek()
        if ch and ch in "+-":
            self.pos += 1
        while True:
            pairs += self._term(ch == "-", depth)
            ch = self._peek()
            if not (ch and ch in "+-"):
                return _reduced(self.field, self.n, pairs)
            self.pos += 1

    def _term(self, negative, depth):
        """A product of factors as (exponents, coefficient) pairs: numbers
        multiply on the field's rows and variable powers add into one
        exponent list; only a parenthesised factor costs a product."""
        exps, coeff, poly = [0] * self.n, self.field.coerce(-1 if negative else 1), None
        while True:
            factor = self._factor(exps, depth)
            if isinstance(factor, Polynomial):
                poly = factor if poly is None else poly * factor
            else:
                coeff = self.mul[coeff][factor]
            if self._peek() != "*":
                break
            self.pos += 1
        if poly is None:
            return [(tuple(exps), coeff)]
        mul = self.mul[coeff]
        return [(tuple(map(operator.add, e, exps)), mul[c]) for e, c in poly.terms.items()]

    def _factor(self, exps, depth):
        """A parenthesised factor as a Polynomial, a number as a field
        value, or a variable power added into ``exps`` (returning 1)."""
        ch = self._peek()
        if ch == "(":
            open_pos = self.pos
            if depth == PARSE_MAX_DEPTH:
                raise PolyParseError(f"parentheses nested deeper than {depth}", open_pos)
            self.pos += 1
            inner = self._expr(depth + 1)
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
            return self.field.coerce(value)
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
                negative = self._peek() == "-"
                self.pos += negative
                if not self._peek().isdigit():
                    raise PolyParseError("exponent must be an integer", exp_pos)
                exponent = self._integer()
                if negative and exponent:
                    raise PolyParseError("negative exponent", exp_pos)
            exps[index - 1] += exponent
            return 1
        if ch == "":
            raise PolyParseError("unexpected end of input", self.pos)
        raise PolyParseError(f"unexpected character {ch!r}", self.pos)

    def _integer(self):
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        return int(self.text[start : self.pos])
