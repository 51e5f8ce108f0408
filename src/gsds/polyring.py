"""Reduced multivariate polynomials over GF(q).

A polynomial is stored as a mapping from exponent tuples to nonzero
coefficients, kept in *reduced* form: every exponent is at most q-1,
using x^q = x to fold higher powers (e > 0 maps to ((e-1) mod (q-1)) + 1,
which never collapses a positive power to x^0 and therefore preserves
the value at 0).  Reduced polynomials are the canonical representatives
of functions GF(q)^n -> GF(q): two polynomials are equal as functions
iff their reduced forms are identical.

Variables are written x1 ... xn.  The concrete text syntax (used in
model files and CLI output) is

    expr   := ['+'|'-'] term (('+'|'-') term)*
    term   := factor ('*' factor)*
    factor := integer | var | var '^' integer | '(' expr ')'
    var    := 'x' index          (1 <= index <= n_vars)

with whitespace ignored and integer coefficients reduced into the field
(negatives allowed).  Multiplication is always explicit.
"""

import functools
import itertools

from .errors import FieldMismatchError, PolyParseError
from .ffield import GF4_ADD, GF4_MUL


def iter_points(field, n_vars):
    """All points of GF(q)^n in mixed-radix (first variable slowest) order."""
    return itertools.product(field.elements(), repeat=n_vars)


class Polynomial:
    """A reduced multivariate polynomial over a finite field."""

    __slots__ = ("field", "n_vars", "terms", "_compiled", "_text")

    def __init__(self, field, n_vars, terms=None):
        if n_vars < 0:
            raise ValueError("n_vars must be non-negative")
        self.field = field
        self.n_vars = n_vars
        top = field.order - 1
        reduced = {}
        for exps, coeff in (terms or {}).items():
            if len(exps) != n_vars:
                raise ValueError(f"exponent tuple {exps} does not have {n_vars} entries")
            if exps and min(exps) < 0:
                raise ValueError(f"negative exponent in {exps}")
            if exps and max(exps) > top:
                exps = tuple(self._reduce_exp(e) for e in exps)
            coeff = field.coerce(coeff)
            if exps in reduced:
                coeff = field.add(reduced[exps], coeff)
            reduced[exps] = coeff
        self.terms = {e: c for e, c in reduced.items() if c != 0}
        self._compiled = self._text = None

    def _reduce_exp(self, e):
        if e == 0:
            return 0
        return (e - 1) % (self.field.order - 1) + 1

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
        f = self.field
        terms = dict(self.terms)
        for exps, coeff in other.terms.items():
            terms[exps] = f.add(terms.get(exps, 0), coeff)
        return Polynomial(f, self.n_vars, terms)

    def __neg__(self):
        f = self.field
        return Polynomial(f, self.n_vars, {e: f.neg(c) for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check_compatible(other)
        f = self.field
        terms = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                exps = tuple(a + b for a, b in zip(e1, e2))
                c = f.mul(c1, c2)
                # exponent folding can merge products, so reduce eagerly
                exps = tuple(self._reduce_exp(e) for e in exps)
                terms[exps] = f.add(terms.get(exps, 0), c)
        return Polynomial(f, self.n_vars, terms)

    def __pow__(self, e):
        if e < 0:
            raise ValueError("negative polynomial powers are not defined")
        # a^e = a^(reduced e) on every field value, so on every function
        e = self._reduce_exp(e)
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
        f = self.field
        c = f.coerce(coeff)
        return Polynomial(f, self.n_vars, {e: f.mul(v, c) for e, v in self.terms.items()})

    # -- evaluation ----------------------------------------------------

    def eval(self, point):
        """Value at a point given as a sequence of canonical ints."""
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
        f = self.field
        total = 0
        for coeff, factors in self._compiled:
            v = coeff
            for j, e in factors:
                v = f.mul(v, f.pow(point[j], e))
                if v == 0:
                    break
            total = f.add(total, v)
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
        result = Polynomial.zero(self.field, self.n_vars)
        for exps, coeff in self.terms.items():
            term = Polynomial.constant(self.field, self.n_vars, coeff)
            for sub, e in zip(substitutions, exps):
                if e:
                    term = term * sub**e
            result = result + term
        return result

    # -- structure -----------------------------------------------------

    def monomials(self):
        """Terms as (exponents, coefficient) pairs in render order."""
        return [(e, self.terms[e]) for e in self._ordered_exps()]

    def _ordered_exps(self):
        # graded lexicographic, highest first; deterministic render order
        # (the sort is stable under reverse=True, so ties keep lex order)
        return sorted(sorted(self.terms, reverse=True), key=sum, reverse=True)

    def support(self):
        """1-based indices of variables appearing in the reduced form."""
        return frozenset(j + 1 for j, col in enumerate(zip(*self.terms)) if any(col))

    def _probe_variable(self, j, domain):
        """The first pair in product order of points of ``domain`` that
        differ only in x_(j+1) and give different values, or None.  It has
        every coordinate off the support at its first level."""
        others = sorted(v - 1 for v in self.support() if v != j + 1)
        point = [values[0] for values in domain]
        for rest in itertools.product(*(domain[k] for k in others)):
            for k, v in zip(others, rest):
                point[k] = v
            line = [tuple(point[:j]) + (v,) + tuple(point[j + 1 :]) for v in domain[j]]
            value = self.eval(line[0])
            witness = next((p for p in line[1:] if self.eval(p) != value), None)
            if witness:
                return line[0], witness
        return None

    # -- rendering -----------------------------------------------------

    def render(self):
        if self._text is None:  # terms are never written after construction
            names = _factor_names(self.n_vars, self.field.order)
            parts = []
            for exps in self._ordered_exps():
                factors = [row[e] for row, e in zip(names, exps) if e]
                coeff = self.terms[exps]
                if coeff != 1 or not factors:
                    factors.insert(0, str(coeff))
                parts.append("*".join(factors))
            self._text = " + ".join(parts) or "0"
        return self._text


@functools.lru_cache(maxsize=64)
def _factor_names(n_vars, q):
    """names[j][e]: the factor x_(j+1)^e as rendered, for 1 <= e < q."""
    return tuple(
        ("", f"x{j}") + tuple(f"x{j}^{e}" for e in range(2, q))
        for j in range(1, n_vars + 1)
    )


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
    return frozenset(v for v in poly.support() if poly._probe_variable(v - 1, domain))


@functools.lru_cache(maxsize=64)
def _field_rows(field):
    """The addition rows add[a][b] = a + b and multiplication rows
    mul[c][v] = c * v of the field, built on first use."""
    q = field.order
    if field.kind == "gf4":
        return GF4_ADD, GF4_MUL
    return (tuple(tuple((a + b) % q for b in range(q)) for a in range(q)),
            tuple(tuple(c * v % q for v in range(q)) for c in range(q)))


@functools.lru_cache(maxsize=64)
def _inverse_vandermonde(field):
    """Row a of the inverse Vandermonde matrix: for each nonzero L(a, e),
    a coefficient of the indicator 1 - (x - a)^(q-1), the pair (e, the
    multiplication row of L(a, e)).  L(a, 0) = [a == 0] and
    L(a, e) = -a^(q-1-e) for e >= 1, with 0^0 = 1 (also in GF(4))."""
    q = field.order
    mul = _field_rows(field)[1]
    rows = []
    for a in range(q):
        row = [int(a == 0)] + [field.neg(field.pow(a, q - 1 - e)) for e in range(1, q)]
        rows.append(tuple((e, mul[c]) for e, c in enumerate(row) if c))
    return tuple(rows)


def table_poly(field, n_vars, values):
    """The reduced polynomial that is ``values[point]`` on the given
    points of GF(q)^n and 0 elsewhere: the inverse Vandermonde matrix
    applied along each axis of the sparse table, O(n q^(n+1)) at most.
    The table is keyed by mixed-radix point index (first variable
    slowest); the digit of axis j is index // q^(n-1-j) % q."""
    q = field.order
    add = _field_rows(field)[0]
    rows = _inverse_vandermonde(field)
    strides = [q ** (n_vars - 1 - j) for j in range(n_vars)]
    table = {sum(a * s for a, s in zip(p, strides)): v for p, v in values.items() if v}
    for stride in strides:
        out = {}
        get = out.get
        for idx, v in table.items():
            digit = idx // stride % q
            base = idx - digit * stride
            for e, m in rows[digit]:
                k = base + e * stride
                out[k] = add[get(k, 0)][m[v]]
        table = {k: v for k, v in out.items() if v}
    terms = {tuple([idx // s % q for s in strides]): v for idx, v in table.items()}
    return Polynomial._trusted(field, n_vars, terms)


def indicator_poly(field, point):
    """The polynomial that is 1 at ``point`` and 0 elsewhere on GF(q)^n."""
    return table_poly(field, len(point), {tuple(field.coerce(a) for a in point): 1})


def parse_poly(text, n_vars, field):
    """Parse polynomial text into reduced form.  See the module docstring
    for the grammar; raises PolyParseError with a character position."""
    return _Parser(text, n_vars, field).parse()


class _Parser:
    def __init__(self, text, n_vars, field):
        self.text = text
        self.n = n_vars
        self.field = field
        self.pos = 0

    def parse(self):
        result = self._expr()
        self._skip_ws()
        if self.pos < len(self.text):
            raise PolyParseError(
                f"unexpected character {self.text[self.pos]!r}", self.pos
            )
        return result

    def _skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def _peek(self):
        self._skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def _expr(self):
        negate = False
        ch = self._peek()
        if ch in "+-":
            self.pos += 1
            negate = ch == "-"
        result = self._term()
        if negate:
            result = -result
        while True:
            ch = self._peek()
            if ch == "+":
                self.pos += 1
                result = result + self._term()
            elif ch == "-":
                self.pos += 1
                result = result - self._term()
            else:
                return result

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
            return Polynomial.constant(self.field, self.n, self._coefficient(value))
        if ch == "x":
            var_pos = self.pos
            self.pos += 1
            if not self._peek().isdigit():
                raise PolyParseError("variable needs an index", var_pos)
            index = self._integer()
            if not 1 <= index <= self.n:
                raise PolyParseError(
                    f"variable x{index} outside 1..{self.n}", var_pos
                )
            poly = Polynomial.variable(self.field, self.n, index)
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
                poly = poly**exponent
            return poly
        if ch == "":
            raise PolyParseError("unexpected end of input", self.pos)
        raise PolyParseError(f"unexpected character {ch!r}", self.pos)

    def _integer(self):
        self._skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        return int(self.text[start : self.pos])

    def _coefficient(self, value):
        if self.field.kind == "prime":
            return value % self.field.order
        if value > 3:
            raise PolyParseError(
                f"coefficient {value} is not a canonical GF(4) value", self.pos
            )
        return value
