"""Exact arithmetic in GF(p) for prime p <= 257 and in GF(4).

Field elements are plain ints in the canonical range {0, ..., q-1}; a
``Field`` object carries the operations, as in most small finite-field
libraries.  Every operation reads the field's lookup rows, built on the
first ``Field(q)`` of each order from the ``%`` tables (GF(4): ``GF4_ADD``
and ``GF4_MUL``): ``add_rows[a][b]``, ``mul_rows[a][b]``, ``neg_row[a]``,
``inv_row[a]`` (0 at 0) and ``pow_rows[a][e] = a^e`` for 0 <= e < q with
0^0 = 1.  Polynomials and inference index the same rows.

GF(4) uses the bit-pair encoding 0=00, 1=01, 2=10, 3=11, where 2 is a
root ``a`` of z^2 + z + 1 over GF(2), so 3 = a^2 = a + 1.  Addition is
bitwise xor; multiplication is polynomial multiplication modulo
z^2 + z + 1.  Published versions of the operation tables for this
encoding contain typos that break the field axioms; the arithmetic here
is derived from the defining relation, and :func:`gf4_table_errata`
reports every cell where the derived tables differ from the published
ones.

Odd prime fields additionally support a *balanced* display encoding
{-(q-1)/2, ..., (q-1)/2}; e.g. GF(3) displayed as {-1, 0, 1} with the
canonical value 2 shown as -1.  The balanced form is presentation only:
all internal arithmetic stays canonical, and ``encode_level`` and
``decode_level`` are the one codec between a display and canonical values.
"""

from .errors import UnsupportedEncodingError

MAX_PRIME = 257


def _is_prime(n):
    if not isinstance(n, int) or n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _gf4_mul(a, b):
    """Multiply two 2-bit values as polynomials over GF(2) mod z^2+z+1."""
    # Carry-less product of (a1 z + a0)(b1 z + b0), then reduce z^2 -> z+1.
    prod = 0
    for shift in range(2):
        if (b >> shift) & 1:
            prod ^= a << shift
    if prod & 4:
        prod ^= 0b111  # clear z^2, add z + 1
    return prod & 3


GF4_ADD = tuple(tuple(a ^ b for b in range(4)) for a in range(4))
GF4_MUL = tuple(tuple(_gf4_mul(a, b) for b in range(4)) for a in range(4))

# Tables as published for the 00/01/10/11 encoding, kept verbatim so the
# divergence from the derived arithmetic can be reported.
GF4_PUBLISHED_ADD = ((0, 1, 2, 3), (1, 2, 3, 0), (2, 3, 0, 1), (3, 2, 1, 0))
GF4_PUBLISHED_MUL = ((0, 0, 0, 0), (0, 1, 1, 3), (0, 2, 3, 1), (0, 3, 1, 2))


_ROWS = {}  # order -> (add, mul, neg, inv, pow) rows, filled by Field(q)


def _rows(order, kind):
    """The lookup rows of GF(order): the addition and multiplication
    tables, negation and inverse read off where a row hits 0 and 1, and
    a^e by repeated multiplication."""
    q = range(order)
    add, mul = (GF4_ADD, GF4_MUL) if kind == "gf4" else (
        tuple(tuple((a + b) % order for b in q) for a in q),
        tuple(tuple(a * b % order for b in q) for a in q))
    powers = []
    for a in q:
        row = [1]
        while len(row) < order:
            row.append(mul[row[-1]][a])
        powers.append(tuple(row))
    neg = tuple(row.index(0) for row in add)
    inv = (0,) + tuple(row.index(1) for row in mul[1:])
    return add, mul, neg, inv, tuple(powers)


class Field:
    """GF(q) for prime q <= 257 or q = 4, operating on canonical ints."""

    __slots__ = ("order", "kind", "add_rows", "mul_rows", "neg_row", "inv_row", "pow_rows")

    def __init__(self, order):
        if isinstance(order, int) and order == 4:  # 4.0 == 4; _is_prime refuses non-ints
            kind = "gf4"
        elif _is_prime(order):
            if order > MAX_PRIME:
                raise ValueError(f"prime fields supported up to {MAX_PRIME}, got {order}")
            kind = "prime"
        else:
            raise ValueError(f"field order must be prime (<= {MAX_PRIME}) or 4, got {order!r}")
        self.order = order
        self.kind = kind
        if order not in _ROWS:
            _ROWS[order] = _rows(order, kind)
        self.add_rows, self.mul_rows, self.neg_row, self.inv_row, self.pow_rows = _ROWS[order]

    def __repr__(self):
        return f"GF({self.order})"

    def __eq__(self, other):
        return isinstance(other, Field) and self.order == other.order

    def __hash__(self):
        return hash(("Field", self.order))

    def elements(self):
        return range(self.order)

    def check(self, value):
        """Validate a canonical value, returning it unchanged."""
        if not isinstance(value, int) or isinstance(value, bool):
            raise TypeError(f"field values are ints, got {value!r}")
        if not 0 <= value < self.order:
            raise ValueError(f"value {value} outside canonical range of {self!r}")
        return value

    def coerce(self, value):
        """Reduce an arbitrary int to a canonical value.

        For primes this is reduction mod p (negatives allowed).  For
        GF(4) integer reduction has no polynomial meaning, so the value
        must already be canonical, up to sign (char 2: -v = v).
        """
        if self.kind == "prime":
            return value % self.order
        return self.check(abs(value))

    def add(self, a, b):
        return self.add_rows[a][b]

    def sub(self, a, b):
        return self.add_rows[a][self.neg_row[b]]

    def neg(self, a):
        return self.neg_row[a]

    def mul(self, a, b):
        return self.mul_rows[a][b]

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError(f"inverse of zero in {self!r}")
        return self.inv_row[a]

    def div(self, a, b):
        if b == 0:
            raise ZeroDivisionError(f"division by zero in {self!r}")
        return self.mul_rows[a][self.inv_row[b]]

    def fold_exp(self, e):
        """e >= 0 folded into [0, q-1] by x^q = x: a^e = a^fold_exp(e) for all a."""
        return e and (e - 1) % (self.order - 1) + 1

    def pow(self, a, e):
        if e < 0:
            a, e = self.inv(a), -e
        return self.pow_rows[a][self.fold_exp(e)]


def _require_balanced(field):
    if field.kind != "prime" or field.order == 2:
        raise UnsupportedEncodingError(
            f"balanced encoding needs an odd prime field, not {field!r}"
        )


def check_display(field, display):
    """A display mode, returned unchanged: "canonical", or "balanced" for
    an odd prime field."""
    if display not in ("canonical", "balanced"):
        raise ValueError(f"unknown display mode {display!r}")
    if display == "balanced":
        _require_balanced(field)
    return display


def encode_level(field, display, x):
    """The canonical value of a level written in the display encoding; a
    balanced level x in {-(q-1)/2, ..., (q-1)/2} is x mod q."""
    if not isinstance(x, int) or isinstance(x, bool):
        raise ValueError(f"levels are integers, got {x!r}")
    if display != "balanced":
        return field.check(x)
    _require_balanced(field)
    half = (field.order - 1) // 2
    if not -half <= x <= half:
        raise ValueError(f"{x} outside balanced range [-{half}, {half}] of {field!r}")
    return x % field.order


def decode_level(field, display, v):
    """A canonical value written in the display encoding (balanced: v - q past (q-1)/2)."""
    if display != "balanced":
        return v
    _require_balanced(field)
    field.check(v)
    return v - field.order if v > (field.order - 1) // 2 else v


def gf4_table_errata():
    """Cells where the derived GF(4) tables differ from the published ones.

    Returns a list of (op, a, b, derived, published) tuples with canonical
    values; empty would mean the published tables are consistent with the
    defining relation (they are not).
    """
    return [
        (op, a, b, derived[a][b], published[a][b])
        for op, derived, published in (("add", GF4_ADD, GF4_PUBLISHED_ADD),
                                       ("mul", GF4_MUL, GF4_PUBLISHED_MUL))
        for a in range(4) for b in range(4) if derived[a][b] != published[a][b]
    ]
