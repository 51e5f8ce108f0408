import itertools
import random
import tracemalloc

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gsds import Field, FieldMismatchError, Polynomial, PolyParseError, polyring
from gsds.polyring import (PARSE_MAX_DEPTH, indicator_poly, iter_points, parse_poly, poly_table,
                           poly_tables, render_polys, support_vars, table_poly, table_polys)

from oracles import (oracle_add, oracle_axes_table_poly, oracle_compose, oracle_mul,
                     oracle_packed_table_polys, oracle_parse_poly, oracle_render,
                     oracle_sorted_render, oracle_subcube_table)

GF2 = Field(2)
GF3 = Field(3)
GF4 = Field(4)


def table(poly):
    return tuple(poly.eval(p) for p in iter_points(poly.field, poly.n_vars))


# -- parsing -------------------------------------------------------------


def test_parse_sum_of_variables():
    p = parse_poly("x1 + x2", 3, GF3)
    assert p.terms == {(1, 0, 0): 1, (0, 1, 0): 1}


def test_parse_known_two_term_polynomial():
    p = parse_poly("1 + x1^2*x3^2", 3, GF3)
    assert p.terms == {(0, 0, 0): 1, (2, 0, 2): 1}


def test_parse_zero():
    assert parse_poly("0", 2, GF3) == Polynomial.zero(GF3, 2)


def test_parse_whitespace_and_parens():
    assert parse_poly(" ( x1 + 1 ) * ( x1 + 2 ) ", 1, GF3) == parse_poly(
        "x1^2 + 2", 1, GF3
    )


def test_parse_negative_coefficients():
    assert parse_poly("-x2", 3, GF3) == parse_poly("2*x2", 3, GF3)
    assert parse_poly("x1 - 4", 1, GF3) == parse_poly("x1 + 2", 1, GF3)


def test_parse_error_positions():
    with pytest.raises(PolyParseError) as err:
        parse_poly("x1 + ", 2, GF3)
    assert err.value.position == 5
    with pytest.raises(PolyParseError) as err:
        parse_poly("x1 $ x2", 2, GF3)
    assert err.value.position == 3
    # an empty, blank or truncated text fails at its end
    for text, position in (("", 0), ("   ", 3), ("(", 1)):
        with pytest.raises(PolyParseError) as err:
            parse_poly(text, 2, GF3)
        assert err.value.position == position


def test_parse_variable_out_of_range():
    with pytest.raises(PolyParseError):
        parse_poly("x3", 2, GF3)
    with pytest.raises(PolyParseError):
        parse_poly("x0", 2, GF3)


def test_parse_negative_exponent_rejected():
    with pytest.raises(PolyParseError) as err:
        parse_poly("x1^-2", 2, GF3)
    assert "negative exponent" in str(err.value)
    assert parse_poly("x1^-0", 2, GF3) == Polynomial.constant(GF3, 2, 1)


def test_parse_unclosed_paren():
    with pytest.raises(PolyParseError):
        parse_poly("(x1 + 1", 1, GF3)


def test_parse_gf4_coefficients_are_canonical_values():
    p = parse_poly("2*x1 + 3", 1, GF4)
    assert p.eval((1,)) == GF4.add(2, 3)
    with pytest.raises(PolyParseError):
        parse_poly("5*x1", 1, GF4)


def test_parse_multiplies_numbers_in_the_field():
    # in GF(4), 2 * 3 = 1: the plain integer product 6 is not a field value
    assert parse_poly("2*3*x1", 1, GF4) == Polynomial.variable(GF4, 1, 1)
    assert parse_poly("3*x1*2*x1^0 + 2*2", 1, GF4).terms == {(1,): 1, (0,): 3}


def test_parse_nesting_bound():
    deep = "(" * PARSE_MAX_DEPTH + "x1" + ")" * PARSE_MAX_DEPTH
    assert parse_poly(deep, 1, GF3) == Polynomial.variable(GF3, 1, 1)
    # the error is raised at the first parenthesis past the bound
    for text in (f"x1 * ({deep})", "2 + " + "(" * 1000 + "x1" + ")" * 1000):
        with pytest.raises(PolyParseError, match="nested deeper than") as err:
            parse_poly(text, 1, GF3)
        assert err.value.position == text.index("(") + PARSE_MAX_DEPTH


def test_parse_of_a_rendered_sum_reduces_once(monkeypatch):
    rng = random.Random(5)
    monomials = rng.sample(list(itertools.product(range(3), repeat=8)), 500)
    poly = Polynomial(GF3, 8, {e: rng.randint(1, 2) for e in monomials})
    calls = []
    reduced = polyring._reduced
    monkeypatch.setattr(polyring, "_reduced", lambda *a: calls.append(1) or reduced(*a))
    assert parse_poly(poly.render(), 8, GF3) == poly
    assert len(calls) == 1


parse_settings = settings(
    max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


@st.composite
def poly_texts(draw):
    """A field, a variable count and a well-formed text with signs,
    blanks, nested parentheses, repeated variables, ``^0``, exponents
    past q and products of several numbers."""
    field = Field(draw(st.sampled_from([2, 3, 4, 5])))
    n = draw(st.integers(1, 4))
    numbers = st.integers(0, 3 if field.kind == "gf4" else 12).map(str)
    blank = st.sampled_from(["", "", " ", "  ", "\t"])

    def factor(depth):
        kind = draw(st.sampled_from(["number", "variable", "variable", "parens"][: 3 + (depth > 0)]))
        if kind == "number":
            return draw(numbers)
        if kind == "variable":
            text = f"x{draw(st.integers(1, n))}"
            if draw(st.booleans()):
                text += f"^{draw(st.integers(0, 2 * field.order))}"
            return text
        return "(" + draw(blank) + expr(depth - 1) + draw(blank) + ")"

    def term(depth):
        factors = [factor(depth) for _ in range(draw(st.integers(1, 4)))]
        return (draw(blank) + "*" + draw(blank)).join(factors)

    def expr(depth):
        text = draw(st.sampled_from(["", "", "-", "+"])) + draw(blank) + term(depth)
        for _ in range(draw(st.integers(0, 3))):
            text += draw(blank) + draw(st.sampled_from("+-")) + draw(blank) + term(depth)
        return text

    return field, n, draw(blank) + expr(2) + draw(blank)


def parse_outcome(parse, text, n, field):
    """The parsed terms, or the error message and position."""
    try:
        return parse(text, n, field).terms
    except PolyParseError as exc:
        return str(exc), exc.position


@parse_settings
@given(poly_texts())
def test_parse_matches_oracle(case):
    field, n, text = case
    assert parse_poly(text, n, field).terms == oracle_parse_poly(text, n, field).terms


@parse_settings
@given(poly_texts(), st.data())
def test_parse_errors_match_oracle(case, data):
    # a well-formed text with one character replaced, inserted or deleted
    field, n, text = case
    pos = data.draw(st.integers(0, len(text)))
    char = data.draw(st.sampled_from("x1234567^+-*() $."))
    edit = data.draw(st.sampled_from(["replace", "insert", "delete"]))
    text = text[:pos] + ("" if edit == "delete" else char) + text[pos + (edit != "insert"):]
    assert parse_outcome(parse_poly, text, n, field) == parse_outcome(oracle_parse_poly, text, n,
                                                                       field)


# -- evaluation ----------------------------------------------------------


def test_eval_sum_at_balanced_point():
    # (-1, 1, -1) in canonical form is (2, 1, 2); first coordinate of the
    # 3-gene map sends it to 0
    p = parse_poly("x1 + x2", 3, GF3)
    assert p.eval((2, 1, 2)) == 0


def test_eval_constant_term():
    p = parse_poly(
        "2 + x1 + 2*x3 + x1*x3 + 2*x1^2 + x3^2 + 2*x1^2*x3 + 2*x1*x3^2 + x1^2*x3^2",
        3,
        GF3,
    )
    assert p.eval((0, 0, 0)) == 2


def test_eval_zero_polynomial():
    z = Polynomial.zero(GF3, 2)
    for point in iter_points(GF3, 2):
        assert z.eval(point) == 0


def test_eval_arity_mismatch():
    p = parse_poly("x1", 2, GF3)
    with pytest.raises(FieldMismatchError):
        p.eval((1,))


# -- normalization -------------------------------------------------------


def test_normalize_fermat_power():
    assert parse_poly("x1^3", 1, GF3) == parse_poly("x1", 1, GF3)


def test_normalize_fourth_power():
    p = parse_poly("x1^4", 1, GF3)
    q = parse_poly("x1^2", 1, GF3)
    assert p == q
    assert table(p) == table(q)  # exhaustive over GF(3)


def test_huge_exponent_parses_to_reduced_form():
    assert parse_poly("x1^1000000", 1, GF3) == parse_poly("x1^2", 1, GF3)


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_power_matches_repeated_product(q):
    field = Field(q)
    rng = random.Random(q)
    for _ in range(10):
        p = Polynomial(field, 2, {
            (rng.randrange(q), rng.randrange(q)): rng.randint(1, q - 1)
            for _ in range(rng.randint(0, 3))
        })
        product = Polynomial.constant(field, 2, 1)
        for e in range(3 * q + 2):
            assert p**e == product
            assert p**e == p ** p.field.fold_exp(e)
            product = product * p


def test_normalize_zero_coefficient():
    assert parse_poly("3*x1", 1, GF3) == Polynomial.zero(GF3, 1)


def test_normalize_is_evaluation_preserving():
    rng = random.Random(7)
    for _ in range(50):
        n = rng.randint(1, 3)
        raw = {
            tuple(rng.randint(0, 6) for _ in range(n)): rng.randint(1, 2)
            for _ in range(rng.randint(1, 5))
        }
        reduced = Polynomial(GF3, n, raw)
        for point in iter_points(GF3, n):
            value = 0
            for exps, coeff in raw.items():
                v = coeff
                for x, e in zip(point, exps):
                    v = GF3.mul(v, GF3.pow(x, e))
                value = GF3.add(value, v)
            assert reduced.eval(point) == value
        assert Polynomial(GF3, n, reduced.terms) == reduced  # idempotent


# -- arithmetic ----------------------------------------------------------


def test_add_variables():
    assert (
        parse_poly("x1", 2, GF3) + parse_poly("x2", 2, GF3)
        == parse_poly("x1 + x2", 2, GF3)
    )


def test_mul_matches_pointwise_product():
    a = parse_poly("x1 + 1", 1, GF3)
    b = parse_poly("x1 + 2", 1, GF3)
    prod = a * b
    assert prod == parse_poly("x1^2 + 2", 1, GF3)
    for point in iter_points(GF3, 1):
        assert prod.eval(point) == GF3.mul(a.eval(point), b.eval(point))


def test_add_identity():
    p = parse_poly("2*x1*x2 + 1", 2, GF3)
    assert p + Polynomial.zero(GF3, 2) == p


def test_arith_random_pointwise(seeded=11):
    rng = random.Random(seeded)
    for field in (GF2, GF3, GF4):
        for _ in range(25):
            n = rng.randint(1, 2)
            terms = lambda: {
                tuple(rng.randint(0, field.order - 1) for _ in range(n)):
                    rng.randint(1, field.order - 1)
                for _ in range(rng.randint(0, 4))
            }
            a = Polynomial(field, n, terms())
            b = Polynomial(field, n, terms())
            for point in iter_points(field, n):
                assert (a + b).eval(point) == field.add(a.eval(point), b.eval(point))
                assert (a * b).eval(point) == field.mul(a.eval(point), b.eval(point))
                assert (a - b).eval(point) == field.sub(a.eval(point), b.eval(point))


def test_arith_field_mismatch():
    with pytest.raises(FieldMismatchError):
        parse_poly("x1", 1, GF3) + parse_poly("x1", 1, GF2)
    with pytest.raises(FieldMismatchError):
        parse_poly("x1", 1, GF3) * parse_poly("x1 + x2", 2, GF3)


# -- canonical-form bijection ---------------------------------------------


@pytest.mark.parametrize("q,n", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2)])
def test_reduced_form_bijection_exhaustive(q, n):
    # every function GF(q)^n -> GF(q) has exactly one reduced polynomial:
    # interpolate each truth table and check the round trip and uniqueness
    field = Field(q)
    points = list(iter_points(field, n))
    # scaled[k][v]: v times the indicator of points[k], built once
    scaled = [[indicator_poly(field, point).scale(v) for v in range(q)] for point in points]
    seen = {}
    for outputs in itertools.product(range(q), repeat=len(points)):
        poly = Polynomial.zero(field, n)
        for terms, value in zip(scaled, outputs):
            if value:
                poly = poly + terms[value]
        assert tuple(poly.eval(p) for p in points) == outputs
        key = frozenset(poly.terms.items())
        assert key not in seen or seen[key] == outputs
        seen[key] = outputs
    assert len(seen) == q ** len(points)


def test_reduced_form_bijection_sampled_gf3_cubed():
    # 3^27 functions cannot be enumerated; sample polynomial pairs instead
    rng = random.Random(23)
    points = list(iter_points(GF3, 3))
    for _ in range(200):
        terms = lambda: {
            tuple(rng.randint(0, 2) for _ in range(3)): rng.randint(1, 2)
            for _ in range(rng.randint(0, 6))
        }
        a = Polynomial(GF3, 3, terms())
        b = Polynomial(GF3, 3, terms())
        tables_equal = all(a.eval(p) == b.eval(p) for p in points)
        assert tables_equal == (a == b)


# -- rendering ------------------------------------------------------------


def test_render_round_trip():
    rng = random.Random(5)
    for field in (GF2, GF3, GF4):
        for _ in range(40):
            n = rng.randint(1, 3)
            p = Polynomial(
                field,
                n,
                {
                    tuple(rng.randint(0, field.order - 1) for _ in range(n)):
                        rng.randint(1, field.order - 1)
                    for _ in range(rng.randint(0, 5))
                },
            )
            assert parse_poly(p.render(), n, field) == p


@st.composite
def polynomials(draw):
    """A polynomial over GF(2), GF(3), GF(4), GF(5), GF(11) or GF(257) in
    0 to 12 variables: zero, constant-only, or up to 6 drawn terms."""
    field = Field(draw(st.sampled_from([2, 3, 4, 5, 11, 257])))
    n = draw(st.integers(0, 12))
    coeffs = st.integers(0, field.order - 1)
    exps = st.tuples(*[st.integers(0, field.order - 1)] * n)
    terms = draw(st.one_of(
        st.just({}),
        coeffs.map(lambda c: {(0,) * n: c}),
        st.dictionaries(exps, coeffs, max_size=6),
    ))
    return Polynomial(field, n, terms)


@settings(max_examples=300, deadline=None)
@given(polynomials())
def test_render_matches_oracle_and_round_trips(p):
    text = p.render()
    assert text == oracle_render(p)
    assert p.render() == text
    assert parse_poly(text, p.n_vars, p.field) == p
    assert p.support() == {j + 1 for exps in p.terms for j, e in enumerate(exps) if e}


def test_render_order_is_graded_lex():
    p = parse_poly("x2 + x1^2*x3^2 + 1 + 2*x1", 3, GF3)
    assert p.render() == "x1^2*x3^2 + 2*x1 + x2 + 1"


def test_polynomial_truth_and_str():
    # x1^3 - x1 reduces to the zero polynomial over GF(3)
    for text, truth in (("0", False), ("x1^3 - x1", False), ("1", True), ("2*x1*x2 + x2^2", True)):
        p = parse_poly(text, 2, GF3)
        assert bool(p) is truth
        assert str(p) == p.render()
    assert not Polynomial.zero(GF3, 2) and str(Polynomial.zero(GF3, 2)) == "0"


# -- support -------------------------------------------------------------


def test_support_of_sum():
    assert parse_poly("x1 + x2", 3, GF3).support() == {1, 2}


def test_support_of_vanishing_polynomial():
    assert parse_poly("x1^3 - x1", 1, GF3).support() == frozenset()


def test_support_of_two_variable_square_form():
    assert parse_poly("1 + x1^2*x3^2", 3, GF3).support() == {1, 3}


def test_support_on_restricted_domain():
    # restricted to x1 in {0}, the polynomial x1*x2 cannot vary with x2
    p = parse_poly("x1*x2", 2, GF3)
    assert support_vars(p, domain=[(0,), (0, 1, 2)]) == frozenset()
    assert support_vars(p, domain=[(1, 2), (0, 1, 2)]) == {1, 2}


def test_support_on_mixed_state_domain():
    # the mixed-state network's second coordinate depends on genes 1 and 3
    # even when gene 2 is restricted to {0, 1}
    p = parse_poly("1 + x1^2*x3^2", 3, GF3)
    assert support_vars(p, domain=[(0, 1, 2), (0, 1), (0, 1, 2)]) == {1, 3}


def test_support_empty_domain_rejected():
    p = parse_poly("x1", 2, GF3)
    with pytest.raises(ValueError):
        support_vars(p, domain=[(0, 1, 2), ()])


# -- indicators ------------------------------------------------------------


def test_indicator_single_variable():
    ind = indicator_poly(GF3, (0,))
    assert [ind.eval((v,)) for v in range(3)] == [1, 0, 0]
    assert ind == parse_poly("1 - x1^2", 1, GF3)


def test_indicator_gf2_corner():
    assert indicator_poly(GF2, (1, 1)) == parse_poly("x1*x2", 2, GF2)


@pytest.mark.parametrize("q,n", [(2, 2), (3, 2), (3, 3), (4, 2)])
def test_indicator_is_one_exactly_at_its_point(q, n):
    field = Field(q)
    points = list(iter_points(field, n))
    for a in points:
        ind = indicator_poly(field, a)
        for p in points:
            assert ind.eval(p) == (1 if p == a else 0)


# -- one reduction: sums, products and substitution against the oracles ----

arith_settings = settings(
    max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


def polys_in(field, n, max_terms, max_exp=None):
    """Polynomials in GF(q)[x1..xn] of up to ``max_terms`` drawn terms,
    zero coefficients included, exponents up to ``max_exp`` (default
    q - 1)."""
    top = field.order - 1 if max_exp is None else max_exp
    exps = st.tuples(*[st.integers(0, top)] * n)
    terms = st.dictionaries(exps, st.integers(0, field.order - 1), max_size=max_terms)
    return terms.map(lambda t: Polynomial(field, n, t))


@st.composite
def rings(draw, max_vars):
    """GF(2), GF(3), GF(4) or GF(5) in 0 to ``max_vars`` variables, or
    GF(257) in 0 to 2."""
    field = Field(draw(st.sampled_from([2, 3, 4, 5, 257])))
    return field, draw(st.integers(0, 2 if field.order == 257 else max_vars))


@st.composite
def sum_cases(draw):
    field, n = draw(rings(8))
    return draw(polys_in(field, n, 300)), draw(polys_in(field, n, 300))


@st.composite
def product_cases(draw):
    field, n = draw(rings(6))
    return draw(polys_in(field, n, 40)), draw(polys_in(field, n, 8))


@st.composite
def compose_cases(draw):
    field, n = draw(rings(4))
    poly = draw(polys_in(field, n, 8, max_exp=min(field.order - 1, 4)))
    subs = [draw(polys_in(field, n, 3)) for _ in range(n)]
    return poly, subs


@arith_settings
@given(sum_cases())
def test_sum_matches_oracle(case):
    a, b = case
    assert a + b == oracle_add(a, b)
    minus_b = Polynomial(b.field, b.n_vars, {e: b.field.neg(c) for e, c in b.terms.items()})
    assert a - b == oracle_add(a, minus_b)
    assert parse_poly((a + b).render(), a.n_vars, a.field) == a + b


@arith_settings
@given(product_cases())
def test_product_matches_oracle(case):
    a, b = case
    assert a * b == oracle_mul(a, b)
    assert parse_poly((a * b).render(), a.n_vars, a.field) == a * b


@arith_settings
@given(compose_cases())
def test_compose_matches_oracle(case):
    poly, subs = case
    assert poly.compose(subs) == oracle_compose(poly, subs)


def test_parse_coerce_calls_grow_linearly(monkeypatch):
    # every '+' once copied and re-reduced the running sum, so parsing a
    # rendered sum coerced O(terms^2) coefficients
    rng = random.Random(8)
    monomials = rng.sample(list(itertools.product(range(3), repeat=8)), 800)
    texts = {k: Polynomial(GF3, 8, {e: rng.randint(1, 2) for e in monomials[:k]}).render()
             for k in (400, 800)}
    calls = []
    coerce = Field.coerce
    monkeypatch.setattr(Field, "coerce", lambda self, v: calls.append(v) or coerce(self, v))

    def count(k):
        calls.clear()
        assert len(parse_poly(texts[k], 8, GF3).terms) == k
        return len(calls)

    assert count(800) <= 2.5 * count(400)


# -- the forward transform ------------------------------------------------------


@st.composite
def tabulation_cases(draw):
    """A zero, constant or drawn polynomial and per-variable level lists,
    the whole field or a subset in drawn order (GF(257): the whole field
    in at most one variable)."""
    field, n = draw(rings(4))
    q = field.order
    poly = draw(st.one_of(
        st.just(Polynomial.zero(field, n)),
        st.integers(0, q - 1).map(lambda c: Polynomial.constant(field, n, c)),
        polys_in(field, n, 20),
    ))
    subset = st.lists(st.integers(0, q - 1), min_size=1, max_size=min(q, 6), unique=True)
    whole = st.just(list(range(q))) if q < 257 or n <= 1 else subset
    return poly, [draw(st.one_of(whole, subset)) for _ in range(n)]


@arith_settings
@given(tabulation_cases())
def test_poly_table_matches_pointwise_table(case):
    poly, levels = case
    assert poly_table(poly, levels) == oracle_subcube_table(poly, levels)


def test_poly_table_of_constants():
    assert poly_table(Polynomial.zero(GF3, 0), []) == ([], [0])
    assert poly_table(Polynomial.constant(GF4, 0, 3), []) == ([], [3])
    assert poly_table(Polynomial.constant(GF3, 2, 2), [(0, 1), (2,)]) == ([], [2])
    assert poly_table(parse_poly("x2^2 + 1", 3, GF3), [(0,), (2, 0, 1), (1,)]) == ([1], [2, 1, 2])


@st.composite
def shared_tabulation_cases(draw):
    """Up to 6 polynomials over one ring, zeros and constants among them,
    and per-variable level lists drawn from at most 3 lists (the whole
    field in drawn order or a subset), so that polynomials on different
    variables share a level key.  GF(257): subsets, and the whole field
    in at most the first variable."""
    field, n = draw(rings(4))
    q = field.order
    subset = st.lists(st.integers(0, q - 1), min_size=1, max_size=min(q, 6), unique=True)
    whole = st.permutations(list(range(q)))
    lists = draw(st.lists(st.one_of(whole, subset) if q < 257 else subset, min_size=1, max_size=3))
    levels = [draw(st.sampled_from(lists)) for _ in range(n)]
    if q == 257 and n and draw(st.booleans()):
        levels[0] = list(range(q))
    polys = draw(st.lists(st.one_of(
        st.just(Polynomial.zero(field, n)),
        st.integers(0, q - 1).map(lambda c: Polynomial.constant(field, n, c)),
        polys_in(field, n, 12),
    ), max_size=6))
    return polys, levels


@arith_settings
@given(shared_tabulation_cases())
def test_poly_tables_match_pointwise_tables(case):
    polys, levels = case
    assert poly_tables(polys, levels) == [oracle_subcube_table(p, levels) for p in polys]


def test_poly_tables_digits_run_over_the_exponents_a_polynomial_has():
    # x1^200*x2^200*x3^200 on two levels per variable: 8 subcube points
    # and digits over (0, 1, 200), 27 cells
    gf257 = Field(257)
    levels = [(0, 1), (1, 2), (0, 2)]
    p = parse_poly("x1^200*x2^200*x3^200 + 1", 3, gf257)
    assert poly_tables([p], levels) == [oracle_subcube_table(p, levels)]
    # (x1*x2*x3)^k for k = 2..64: digits over 2 + 63 exponents each
    many = parse_poly(" + ".join(f"x1^{k}*x2^{k}*x3^{k}" for k in range(2, 65)), 3, gf257)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError) as err:
            poly_tables([p, many], levels)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert err.value.args == (f"needs a table of {65**3} cells, above the limit ({1 << 18})", 1)
    assert peak < 1 << 16  # the table would take 4 * 65^3 bytes


def test_poly_tables_never_share_a_table_across_fields():
    # x1^2 + x1 at x1 = 2 is 0 in GF(3) and 1 in GF(5); both have the
    # level list (0, 1, 2) and digits over exponents (0, 1, 2)
    polys = [parse_poly("x1^2 + x1", 1, GF3), parse_poly("x1^2 + x1", 1, Field(5))]
    assert poly_tables(polys, [(0, 1, 2)]) == [([0], [0, 2, 0]), ([0], [0, 2, 1])]


@st.composite
def full_tables(draw):
    field = Field(draw(st.sampled_from([2, 3, 4, 5, 257])))
    n = draw(st.integers(0, {2: 6, 3: 4, 4: 3, 5: 3, 257: 1}[field.order]))
    return draw(polys_in(field, n, 40))


@arith_settings
@given(full_tables())
def test_table_poly_inverts_the_full_field_table(poly):
    field, n = poly.field, poly.n_vars
    values = {p: poly.eval(p) for p in iter_points(field, n)}
    assert table_poly(field, n, values) == poly
    # the same table from the forward transform on the support subcube
    support, table = poly_table(poly, [field.elements()] * n)
    on_support = dict(zip(iter_points(field, len(support)), table))
    assert {p: on_support[tuple(p[j] for j in support)] for p in values} == values


@st.composite
def packed_tables(draw):
    """No, some or all points of GF(q)^n in drawn order, q in {2, 3, 4, 5}
    and n in 0 to 4, or GF(257) and n in 0 to 1, and 0 to 5 value columns
    on them, some all zero.  All points only up to 257 of them."""
    field = Field(draw(st.sampled_from([2, 3, 4, 5, 257])))
    q = field.order
    every = list(iter_points(field, draw(st.integers(0, 1 if q == 257 else 4))))
    some = st.lists(st.sampled_from(every), unique=True, max_size=30)
    every_order = st.permutations(every) if len(every) <= 257 else some
    points = draw(st.one_of(st.just([]), some, every_order))
    values = st.lists(st.integers(0, q - 1), min_size=len(points), max_size=len(points))
    zeros = st.just([0] * len(points))
    return field, len(every[0]), points, draw(st.lists(st.one_of(zeros, values), max_size=5))


@arith_settings
@given(packed_tables())
def test_table_polys_match_the_one_column_transform(case):
    field, n, points, columns = case
    assert table_polys(field, n, points, columns) == [
        oracle_axes_table_poly(field, n, dict(zip(points, column))) for column in columns]


@st.composite
def dense_cases(draw):
    """No, some or all points of GF(q)^n in drawn order for q from 2 to 257,
    n = 0 included, and up to 4 value columns on them, some all zero."""
    field = Field(draw(st.sampled_from([2, 3, 4, 5, 7, 13, 17, 257])))
    q = field.order
    n = draw(st.integers(0, {2: 6, 3: 4, 4: 3, 5: 3, 7: 2, 13: 2, 17: 2, 257: 1}[q]))
    every = list(iter_points(field, n))
    some = st.lists(st.sampled_from(every), unique=True, max_size=40)
    points = draw(st.one_of(st.just([]), some, st.permutations(every)))
    values = st.lists(st.integers(0, q - 1), min_size=len(points), max_size=len(points))
    zeros = st.just([0] * len(points))
    return field, n, points, draw(st.lists(st.one_of(zeros, values), max_size=4))


@arith_settings
@given(dense_cases())
def test_table_polys_match_the_packed_sparse_transform(case):
    field, n, points, columns = case
    got = table_polys(field, n, points, columns)
    expected = oracle_packed_table_polys(field, n, points, columns)
    assert got == expected
    # reduced, nonzero terms; the text does not depend on the order of the terms
    q = field.order
    assert all(0 < c < q and all(0 <= e < q for e in exps)
               for poly in got for exps, c in poly.terms.items())
    assert render_polys(got) == [oracle_render(p) for p in expected]


def test_table_polys_bound_raises_before_allocating():
    assert polyring.TABLE_MAX_POINTS == 1 << 18
    # GF(257)^2, the largest table in the suite, is under the bound
    assert len(table_polys(Field(257), 2, [(0, 0)], [[1]])[0].terms) == 4
    cases = [(field, n, [(0,) * n], [[1]] * 8) for field, n in ((GF2, 19), (Field(257), 3),
                                                               (GF4, 10))]
    tracemalloc.start()
    try:
        for field, n, points, columns in cases:
            with pytest.raises(ValueError) as err:
                table_polys(field, n, points, columns)
            assert str(err.value) == (f"a table of {field.order}^{n} points exceeds the "
                                      f"limit ({1 << 18})")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 16  # a table would take at least 8 * 2^19 bytes


@st.composite
def poly_lists(draw):
    """Up to 6 polynomials over one ring: zero, constants, drawn terms with
    coefficients of every value, and pairs on disjoint term sets; some of
    them rendered already."""
    field, n = draw(rings(5))
    q = field.order
    one = st.one_of(
        st.just(Polynomial.zero(field, n)),
        st.integers(1, q - 1).map(lambda c: Polynomial.constant(field, n, c)),
        polys_in(field, n, 12),
    )
    polys = draw(st.lists(one, max_size=6))
    whole = draw(polys_in(field, n, 12))
    half = {e for e in whole.terms if draw(st.booleans())}
    polys += [Polynomial(field, n, {e: c for e, c in whole.terms.items() if (e in half) == side})
              for side in (True, False)]
    order = draw(st.permutations(polys))
    for p in order[: draw(st.integers(0, len(order)))]:
        p.render()
    return order


@arith_settings
@given(poly_lists())
def test_render_polys_matches_the_one_polynomial_render(polys):
    fresh = [Polynomial(p.field, p.n_vars, p.terms) for p in polys]
    texts = render_polys(polys)
    assert texts == [oracle_sorted_render(p) for p in fresh] == [oracle_render(p) for p in fresh]
    assert [p.render() for p in polys] == texts == [p.render() for p in fresh]


def test_render_polys_of_no_polynomials():
    assert render_polys([]) == [] and render_polys(iter(())) == []


@pytest.mark.parametrize("other", [Polynomial.zero(GF3, 2), Polynomial.zero(GF2, 3)])
def test_render_polys_rejects_polynomials_of_different_rings(other):
    with pytest.raises(FieldMismatchError):
        render_polys([Polynomial.variable(GF2, 2, 1), other])


def test_arithmetic_matches_oracle_on_dense_polynomials():
    rng = random.Random(3)
    monomials = list(itertools.product(range(3), repeat=6))
    a, b, c, d = (Polynomial(GF3, 6, {e: rng.randint(1, 2) for e in rng.sample(monomials, k)})
                  for k in (300, 300, 12, 60))
    assert a + b == oracle_add(a, b)
    assert a * b == oracle_mul(a, b)
    x = [Polynomial.variable(GF3, 6, j) for j in range(1, 7)]
    subs = [c, x[2] + x[4], x[2], c, x[0] * x[5], Polynomial.constant(GF3, 6, 2)]
    assert d.compose(subs) == oracle_compose(d, subs)
    assert parse_poly((a * b).render(), 6, GF3) == a * b


# -- error messages ---------------------------------------------------------------------

X1 = parse_poly("x1", 1, GF3)


@pytest.mark.parametrize("call, error, message", [
    (lambda: Polynomial(GF3, -1), ValueError, "n_vars must be non-negative"),
    (lambda: Polynomial(GF3, 2, {(1,): 1}), ValueError,
     "exponent tuple (1,) does not have 2 entries"),
    (lambda: Polynomial(GF3, 2, {(1, -1): 1}), ValueError, "negative exponent in (1, -1)"),
    (lambda: Polynomial.variable(GF3, 2, 3), ValueError, "variable index 3 outside 1..2"),
    (lambda: X1 + 1, TypeError, "expected Polynomial, got 1"),
    (lambda: X1 ** -1, ValueError, "negative polynomial powers are not defined"),
    (lambda: X1.compose([]), FieldMismatchError, "need 1 substitutions, got 0"),
    (lambda: support_vars(X1, [(0,), (1,)]), FieldMismatchError,
     "domain has 2 variable ranges, need 1"),
    (lambda: parse_poly("x1^", 1, GF3), PolyParseError,
     "exponent must be an integer (at position 3)"),
], ids=["n-vars", "exponent-count", "negative-exponent", "variable-index", "add-non-poly",
        "negative-power", "substitution-count", "domain-count", "exponent-missing"])
def test_error_messages(call, error, message):
    with pytest.raises(error) as err:
        call()
    assert str(err.value) == message
