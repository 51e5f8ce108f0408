import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gsds import DependencyGraph, Field, GsdsModel, UnsupportedEncodingError, gf4_table_errata
from gsds.ffield import GF4_PUBLISHED_ADD, GF4_PUBLISHED_MUL, decode_level, encode_level
from gsds.polyring import parse_poly

from oracles import OracleField

AXIOM_ORDERS = [2, 3, 4, 5, 7]


def test_field_construction():
    assert Field(2).kind == "prime"
    assert Field(257).kind == "prime"
    assert Field(4).kind == "gf4"
    for bad in (0, 1, 6, 8, 9, 263, 100):
        with pytest.raises(ValueError):
            Field(bad)


def test_gf3_one_plus_one_is_two_displayed_minus_one():
    f = Field(3)
    assert f.add(1, 1) == 2
    assert decode_level(f, "balanced", f.add(1, 1)) == -1


def test_gf4_defining_relation():
    f = Field(4)
    # 2 is the root a of z^2 + z + 1: a^2 = a + 1 and a^3 = 1
    assert f.mul(2, 2) == f.add(2, 1) == 3
    assert f.pow(2, 3) == 1
    assert f.mul(2, 3) == 1  # a * a^2 = a^3


def test_gf4_characteristic_two():
    f = Field(4)
    for a in f.elements():
        assert f.add(a, a) == 0
        assert f.neg(a) == a


def test_gf4_published_table_errata():
    # exactly the published cells that contradict the field axioms
    assert gf4_table_errata() == [
        ("add", 1, 1, 0, 2),
        ("add", 1, 3, 2, 0),
        ("mul", 1, 2, 2, 1),
    ]
    # and everything not listed agrees with the published tables
    f = Field(4)
    bad = {(op, a, b) for op, a, b, _, _ in gf4_table_errata()}
    for a in range(4):
        for b in range(4):
            if ("add", a, b) not in bad:
                assert f.add(a, b) == GF4_PUBLISHED_ADD[a][b]
            if ("mul", a, b) not in bad:
                assert f.mul(a, b) == GF4_PUBLISHED_MUL[a][b]


@pytest.mark.parametrize("q", AXIOM_ORDERS)
def test_field_axioms_exhaustive(q):
    f = Field(q)
    elems = list(f.elements())
    for a in elems:
        assert f.add(a, 0) == a
        assert f.mul(a, 1) == a
        assert f.mul(a, 0) == 0
        assert f.add(a, f.neg(a)) == 0
        if a:
            assert f.mul(a, f.inv(a)) == 1
        for b in elems:
            assert f.add(a, b) == f.add(b, a)
            assert f.mul(a, b) == f.mul(b, a)
            assert f.sub(a, b) == f.add(a, f.neg(b))
            for c in elems:
                assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
                assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
                assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))


@pytest.mark.parametrize("q", AXIOM_ORDERS)
def test_fermat_powers(q):
    f = Field(q)
    for a in f.elements():
        assert f.pow(a, q) == a
        if a:
            assert f.pow(a, q - 1) == 1
            assert f.pow(a, -1) == f.inv(a)


@pytest.mark.parametrize("q", AXIOM_ORDERS)
def test_division_inverts_multiplication(q):
    f = Field(q)
    for a in f.elements():
        for b in f.elements():
            if b == 0:
                continue
            assert f.mul(f.div(a, b), b) == a


def test_zero_division_rejected():
    for q in (3, 4):
        f = Field(q)
        with pytest.raises(ZeroDivisionError):
            f.div(1, 0)
        with pytest.raises(ZeroDivisionError):
            f.inv(0)


def test_identity_of_addition_trivial():
    f = Field(7)
    for a in f.elements():
        assert f.add(a, 0) == a


def test_check_rejects_values_outside_the_canonical_range():
    f = Field(3)
    assert f.check(2) == 2
    for bad in (3, -1):
        with pytest.raises(ValueError):
            f.check(bad)


def test_balanced_encoding_gf3():
    f = Field(3)
    assert encode_level(f, "balanced", -1) == 2
    assert encode_level(f, "balanced", 0) == 0
    assert encode_level(f, "balanced", 1) == 1
    assert decode_level(f, "balanced", 2) == -1


def test_balanced_encoding_gf5():
    f = Field(5)
    assert encode_level(f, "balanced", -2) == 3
    for x in range(-2, 3):
        assert decode_level(f, "balanced", encode_level(f, "balanced", x)) == x


def test_balanced_encoding_out_of_range():
    f = Field(3)
    for bad in (-2, 2):
        with pytest.raises(ValueError) as err:
            encode_level(f, "balanced", bad)
        assert str(err.value) == f"{bad} outside balanced range [-1, 1] of GF(3)"


def test_balanced_encoding_unsupported_fields():
    for q in (2, 4):
        for codec in (encode_level, decode_level):
            with pytest.raises(UnsupportedEncodingError) as err:
                codec(Field(q), "balanced", 0)
            assert str(err.value) == f"balanced encoding needs an odd prime field, not GF({q})"


def test_format_state():
    f = Field(3)
    polys = [parse_poly("0", 3, f)] * 3
    for display, text in (("canonical", "(2,1,2)"), ("balanced", "(-1,1,-1)")):
        model = GsdsModel(f, ["a", "b", "c"], DependencyGraph(3, set()), polys, None,
                          display=display)
        assert model.format_state((2, 1, 2)) == text


def outcome(op, *args):
    """The result of a field operation, or the type of error it raised."""
    try:
        return op(*args)
    except ZeroDivisionError:
        return ZeroDivisionError


@st.composite
def field_operands(draw):
    q = draw(st.sampled_from([2, 3, 5, 7, 4, 257]))
    return q, draw(st.integers(0, q - 1)), draw(st.integers(0, q - 1))


@settings(max_examples=300, deadline=None)
@given(field_operands())
def test_operations_match_the_branching_oracle(case):
    q, a, b = case
    f, oracle = Field(q), OracleField(q)
    for name in ("add", "sub", "mul", "div"):
        assert outcome(getattr(f, name), a, b) == outcome(getattr(oracle, name), a, b), name
    for name in ("neg", "inv"):
        assert outcome(getattr(f, name), a) == outcome(getattr(oracle, name), a), name
    for e in range(-2 * q, 3 * q + 1):
        assert outcome(f.pow, a, e) == outcome(oracle.pow, a, e), e


@pytest.mark.parametrize("value", [1.0, True, "1"])
def test_check_rejects_values_that_are_not_ints(value):
    with pytest.raises(TypeError) as err:
        Field(3).check(value)
    assert str(err.value) == f"field values are ints, got {value!r}"
