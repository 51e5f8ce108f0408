import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gsds import Field, FieldMismatchError, Polynomial, PolyParseError
from gsds.polyring import indicator_poly, iter_points, parse_poly, support_vars

from oracles import oracle_render

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


def test_parse_variable_out_of_range():
    with pytest.raises(PolyParseError):
        parse_poly("x3", 2, GF3)
    with pytest.raises(PolyParseError):
        parse_poly("x0", 2, GF3)


def test_parse_negative_exponent_rejected():
    with pytest.raises(PolyParseError) as err:
        parse_poly("x1^-2", 2, GF3)
    assert "negative exponent" in str(err.value)


def test_parse_unclosed_paren():
    with pytest.raises(PolyParseError):
        parse_poly("(x1 + 1", 1, GF3)


def test_parse_gf4_coefficients_are_canonical_values():
    p = parse_poly("2*x1 + 3", 1, GF4)
    assert p.eval((1,)) == GF4.add(2, 3)
    with pytest.raises(PolyParseError):
        parse_poly("5*x1", 1, GF4)


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
            assert p**e == p ** p._reduce_exp(e)
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
    seen = {}
    for outputs in itertools.product(range(q), repeat=len(points)):
        poly = Polynomial.zero(field, n)
        for point, value in zip(points, outputs):
            if value:
                poly = poly + indicator_poly(field, point).scale(value)
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


# -- support -------------------------------------------------------------


def test_support_of_sum():
    assert support_vars(parse_poly("x1 + x2", 3, GF3)) == {1, 2}


def test_support_of_vanishing_polynomial():
    assert support_vars(parse_poly("x1^3 - x1", 1, GF3)) == frozenset()


def test_support_of_two_variable_square_form():
    assert support_vars(parse_poly("1 + x1^2*x3^2", 3, GF3)) == {1, 3}


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
