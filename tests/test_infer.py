import itertools
import math
import random
import re
import tracemalloc
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gsds import (
    ContradictoryDataError,
    Field,
    GsdsError,
    StateSeries,
    TransitionData,
    constrained_interpolate,
    global_map,
    infer_network,
    interpolate,
    solution_space,
    sparsest_interpolate,
    trajectory,
)
from gsds.infer import (
    CONSTRAINED_MAX_UNKNOWNS,
    SolutionSpace,
    _conflicts,
    _solve_linear,
    load_series,
    save_series,
    series_from_dict,
    series_to_dict,
)
from gsds.polyring import Polynomial, indicator_poly, iter_points, parse_poly, table_poly

from conftest import build_example1
from oracles import (
    oracle_constrained_interpolate,
    oracle_feasible,
    oracle_indicator_poly,
    oracle_interpolate_gf3,
    oracle_member,
    oracle_solve_linear,
    oracle_table_poly,
)

GF2 = Field(2)
GF3 = Field(3)

EX3_SERIES = [(2, 1, 2), (0, 1, 0), (1, 1, 1), (2, 1, 2)]


# -- transition data -----------------------------------------------------------


def test_transition_data_from_series():
    data = TransitionData.from_series(GF3, EX3_SERIES)
    assert len(data) == 3
    assert data.pairs[0] == ((2, 1, 2), (0, 1, 0))


def test_transition_data_deduplicates_consistent_repeats():
    series = [(0, 0), (1, 1), (0, 0), (1, 1)]
    data = TransitionData.from_series(GF2, series)
    assert len(data) == 2


def test_contradictory_data_rejected():
    with pytest.raises(ContradictoryDataError) as err:
        TransitionData.from_series(GF2, [(0, 0), (1, 1), (0, 0), (0, 1)])
    assert err.value.state == (0, 0)
    assert err.value.first == (1, 1)
    assert err.value.second == (0, 1)


def test_from_series_checks_each_state_once():
    checked = []
    check = Field.check
    with mock.patch.object(Field, "check", lambda self, v: checked.append(v) or check(self, v)):
        data = TransitionData.from_series(GF3, EX3_SERIES)
    assert checked == [v for s in EX3_SERIES for v in s]
    assert data.pairs == TransitionData(GF3, 3, zip(EX3_SERIES, EX3_SERIES[1:])).pairs


def test_a_loaded_series_checks_each_level_once():
    checked = []
    check = Field.check
    d = {"format_version": 1, "field": 3, "states": [list(s) for s in EX3_SERIES]}
    with mock.patch.object(Field, "check", lambda self, v: checked.append(v) or check(self, v)):
        data = series_from_dict(d).transitions()
    assert checked == [v for s in EX3_SERIES for v in s]  # by encode_level
    assert data.pairs == TransitionData.from_series(GF3, EX3_SERIES).pairs
    # the states a library caller passes are still checked
    with pytest.raises(ValueError, match="value 3 outside canonical range"):
        StateSeries(GF3, [(0, 3, 0)])


@pytest.mark.parametrize("series", [
    [(0, 0), (1, 2), (0, 1)], [(0, 0), (1, True)], [(0, 0), (1,), (0, 1)],
    [(0, 0), (1, 1), (0, 0), (0, 1)], [(0, 0), (1, 1), (0, 0), (0, 1), (2, 0)],
], ids=["range", "type", "length", "contradiction", "contradiction-first"])
def test_from_series_raises_what_the_constructor_raises(series):
    with pytest.raises((GsdsError, TypeError, ValueError)) as expected:
        TransitionData(GF2, 2, zip(series, series[1:]))
    with pytest.raises(type(expected.value)) as err:
        TransitionData.from_series(GF2, series)
    assert str(err.value) == str(expected.value)


# -- interpolation ----------------------------------------------------------------


def test_interpolant_matches_observed_outputs():
    data = TransitionData.from_series(GF3, EX3_SERIES)
    for i in range(3):
        poly = interpolate(data, i)
        for state, image in data.pairs:
            assert poly.eval(state) == image[i]


def test_second_coordinate_constant_on_data():
    data = TransitionData.from_series(GF3, EX3_SERIES)
    poly = interpolate(data, 1)
    for state, _ in data.pairs:
        assert poly.eval(state) == 1
    # the canonical interpolant vanishes on unspecified points
    specified = {state for state, _ in data.pairs}
    for point in iter_points(GF3, 3):
        if point not in specified:
            assert poly.eval(point) == 0


def test_empty_data_gives_zero_polynomial():
    data = TransitionData(GF3, 2, [])
    assert interpolate(data, 0) == Polynomial.zero(GF3, 2)


def test_full_truth_table_recovers_reduced_form():
    target = parse_poly("x1 + x2", 2, GF3)
    pairs = [(p, (target.eval(p), 0)) for p in iter_points(GF3, 2)]
    data = TransitionData(GF3, 2, pairs)
    assert interpolate(data, 0) == target


def test_interpolant_matches_mod3_solver_oracle_on_full_tables():
    rng = random.Random(53)
    for _ in range(10):
        points = list(iter_points(GF3, 2))
        outputs = [rng.randint(0, 2) for _ in points]
        data = TransitionData(GF3, 2, [(p, (o, 0)) for p, o in zip(points, outputs)])
        got = interpolate(data, 0)
        expected = oracle_interpolate_gf3(points, outputs, 2)
        assert got.terms == expected


# -- solution spaces -----------------------------------------------------------------


def test_solution_space_dimension():
    data = TransitionData.from_series(GF3, EX3_SERIES)
    for i in range(3):
        assert solution_space(data, i).dimension == 27 - 3 == 24


def test_full_table_has_unique_solution():
    target = parse_poly("x1*x2 + 1", 2, GF2)
    pairs = [(p, (target.eval(p),) * 2) for p in iter_points(GF2, 2)]
    data = TransitionData(GF2, 2, pairs)
    space = solution_space(data, 0)
    assert space.dimension == 0
    assert interpolate(data, 0) == target


def test_known_coordinate_functions_are_members():
    data = TransitionData.from_series(GF3, EX3_SERIES)
    for i, text in enumerate(("x1 + x2", "x2", "x2 + x3")):
        assert solution_space(data, i).is_solution(parse_poly(text, 3, GF3))


def test_every_basis_combination_is_a_solution():
    rng = random.Random(59)
    data = TransitionData.from_series(GF3, EX3_SERIES)
    space = solution_space(data, 0)
    for _ in range(20):
        coeffs = [rng.randint(0, 2) for _ in range(space.dimension)]
        member = space.member(coeffs)
        assert space.is_solution(member)


@st.composite
def spaces_and_coefficients(draw):
    """A solution space over GF(2), GF(3), GF(4), GF(5) or GF(257) with
    drawn specified points, and coefficients for its basis, mostly 0, some
    outside the canonical range."""
    field = Field(draw(st.sampled_from([2, 3, 4, 5, 257])))
    q = field.order
    n = draw(st.integers(0, {2: 4, 3: 3, 4: 2, 5: 2, 257: 1}[q]))
    points = list(iter_points(field, n))
    specified = draw(st.sets(st.sampled_from(points), max_size=len(points)))
    pairs = tuple((p, draw(st.integers(0, q - 1))) for p in points if p in specified)
    space = SolutionSpace(field, n, pairs)
    coefficient = st.one_of(st.just(0), st.integers(0, q - 1), st.integers(-2 * q, 2 * q))
    return space, draw(st.lists(coefficient, min_size=space.dimension, max_size=space.dimension))


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(spaces_and_coefficients())
def test_member_matches_running_sum(case):
    space, coefficients = case
    try:
        member = space.member(coefficients)
    except ValueError as exc:  # GF(4) takes a coefficient only canonical up to sign
        with pytest.raises(ValueError, match=re.escape(str(exc))):
            oracle_member(space, coefficients)
        return
    assert "basis" not in vars(space)  # one transform of the table, no basis built
    assert member == oracle_member(space, coefficients)
    assert space.is_solution(member)


def test_solution_space_exhaustive_small_case():
    # q=2, n=2, two specified points: every function that agrees on them
    # is particular + span of the two unspecified indicators, and nothing
    # else is a solution
    pairs = [((0, 0), (1, 0)), ((1, 1), (0, 0))]
    data = TransitionData(GF2, 2, pairs)
    space = solution_space(data, 0)
    assert space.dimension == 2
    members = set()
    for coeffs in itertools.product(range(2), repeat=2):
        members.add(tuple(space.member(coeffs).eval(p) for p in iter_points(GF2, 2)))
    assert len(members) == 4
    for table in itertools.product(range(2), repeat=4):
        poly = Polynomial.zero(GF2, 2)
        points = list(iter_points(GF2, 2))
        for point, value in zip(points, table):
            if value:
                from gsds.polyring import indicator_poly

                poly = poly + indicator_poly(GF2, point).scale(value)
        agrees = poly.eval((0, 0)) == 1 and poly.eval((1, 1)) == 0
        assert agrees == (table in members)


# -- constrained and sparsest interpolation ----------------------------------------


def test_constrained_on_second_variable_only():
    data = TransitionData.from_series(GF3, EX3_SERIES)
    poly = constrained_interpolate(data, 1, {2})
    assert poly is not None
    assert poly.support() <= {2}
    for state, image in data.pairs:
        assert poly.eval(state) == image[1]


def test_constrained_infeasible_when_variable_missing():
    # two inputs differing only in x1 with different outputs
    pairs = [((0, 0), (0, 0)), ((1, 0), (1, 0))]
    data = TransitionData(GF2, 2, pairs)
    assert constrained_interpolate(data, 0, {2}) is None
    assert constrained_interpolate(data, 0, {1}) is not None


def test_constrained_with_all_variables_interpolates():
    data = TransitionData.from_series(GF3, EX3_SERIES)
    poly = constrained_interpolate(data, 0, {1, 2, 3})
    for state, image in data.pairs:
        assert poly.eval(state) == image[0]


def test_constrained_rejects_bad_variables():
    data = TransitionData.from_series(GF3, EX3_SERIES)
    with pytest.raises(ValueError):
        constrained_interpolate(data, 0, {0})
    with pytest.raises(ValueError):
        constrained_interpolate(data, 0, {4})


def test_sparsest_prefers_constants():
    data = TransitionData.from_series(GF3, EX3_SERIES)
    poly = sparsest_interpolate(data, 1)
    assert poly == Polynomial.constant(GF3, 3, 1)


def test_sparsest_single_variable_solution():
    data = TransitionData.from_series(GF3, EX3_SERIES)
    poly = sparsest_interpolate(data, 0)
    assert poly.support() == {1}
    assert poly == parse_poly("x1 + 1", 3, GF3)


def test_sparsest_support_is_minimal():
    rng = random.Random(61)
    for _ in range(15):
        n = 3
        states = [tuple(rng.randint(0, 1) for _ in range(n)) for _ in range(4)]
        series = states + [states[0]]
        try:
            data = TransitionData.from_series(GF2, series)
        except ContradictoryDataError:
            continue
        poly = sparsest_interpolate(data, 0)
        sup = poly.support()
        canonical = interpolate(data, 0)
        assert len(sup) <= len(canonical.support())
        # no strict subset of the support interpolates
        for smaller in itertools.combinations(sorted(sup), len(sup) - 1):
            assert constrained_interpolate(data, 0, smaller) is None


# -- network inference -----------------------------------------------------------------


def test_infer_example_series_sparsest():
    model = infer_network(TransitionData.from_series(GF3, EX3_SERIES), "sparsest",
                          genes=["g1", "g2", "g3"], display="balanced")
    rendered = [p.render() for p in model.local_polys]
    assert rendered == ["x1 + 1", "1", "x1 + 1"]
    assert (model.genes, model.display) == (("g1", "g2", "g3"), "balanced")
    assert model.parallel


def test_infer_graph_for_known_solution():
    # wiring the known 3-gene solution: edges j -> i where coordinate i
    # reads x_j
    polys = [parse_poly(s, 3, GF3) for s in ("x1 + x2", "x2", "x2 + x3")]
    edges = set()
    for i, p in enumerate(polys):
        for var in p.support():
            edges.add((var - 1, i))
    assert (1, 0) in edges and (1, 2) in edges
    assert edges == {(0, 0), (1, 0), (1, 1), (1, 2), (2, 2)}


def test_infer_constant_series():
    model = infer_network(TransitionData.from_series(GF3, [(1, 2), (1, 2), (1, 2)]), "sparsest")
    assert [p.render() for p in model.local_polys] == ["1", "2"]
    assert model.graph.edges == frozenset()


def test_infer_recovers_model_from_full_truth_table():
    m = build_example1()
    f = global_map(m)
    # a series visiting every state: list all (state, image) transitions
    # as chained two-step series is equivalent to feeding the pairs
    pairs = [(s, f(s)) for s in iter_points(GF2, 4)]
    data = TransitionData(GF2, 4, pairs)
    coords = f.coordinate_polys()
    for i in range(4):
        assert interpolate(data, i) == coords[i]
        assert solution_space(data, i).dimension == 0


def test_infer_round_trip_on_series():
    model = infer_network(TransitionData.from_series(GF3, EX3_SERIES), "canonical")
    got = trajectory(model, EX3_SERIES[0], len(EX3_SERIES) - 1)
    assert got == [tuple(s) for s in EX3_SERIES]


def test_infer_needs_two_states():
    for data in TransitionData.from_series(GF3, [(0, 0, 0)]), TransitionData(GF3, 3, []):
        with pytest.raises(ValueError, match="^need at least one transition to infer from$"):
            infer_network(data)


def test_infer_contradictory_series():
    with pytest.raises(ContradictoryDataError):
        TransitionData.from_series(GF2, [(0, 0), (1, 0), (0, 0), (0, 1)])


# -- random partially defined functions -------------------------------------------------


def test_random_partial_functions_interpolate_exactly():
    rng = random.Random(67)
    points = list(iter_points(GF3, 3))
    for _ in range(30):
        size = rng.randint(1, 27)
        inputs = rng.sample(points, size)
        outputs = {p: rng.randint(0, 2) for p in inputs}
        pairs = [(p, (outputs[p], 0, 0)) for p in inputs]
        data = TransitionData(GF3, 3, pairs)
        poly = interpolate(data, 0)
        for p in inputs:
            assert poly.eval(p) == outputs[p]
        space = solution_space(data, 0)
        assert space.dimension == 27 - size


# -- table transform, feasibility and search properties ---------------------------------

property_settings = settings(
    max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


@st.composite
def partial_functions(draw):
    """A random partial function on GF(q)^n, q in {2, 3, 4, 5}, n <= 3,
    as transition data whose coordinate 0 carries the values."""
    field = Field(draw(st.sampled_from([2, 3, 4, 5])))
    n = draw(st.integers(1, 3))
    points = list(iter_points(field, n))
    inputs = draw(st.lists(st.sampled_from(points), unique=True,
                           max_size=min(len(points), 24)))
    values = draw(st.lists(st.sampled_from(range(field.order)),
                           min_size=len(inputs), max_size=len(inputs)))
    pairs = [(p, (v,) + (0,) * (n - 1)) for p, v in zip(inputs, values)]
    return TransitionData(field, n, pairs)


@st.composite
def wide_partial_functions(draw):
    """A random partial function as in ``partial_functions``, on GF(2)^n
    for n <= 8, GF(3)^n for n <= 5, or GF(7)^n and GF(257)^n for n <= 2,
    so that point indices reach several digits on several axes."""
    q, top = draw(st.sampled_from([(2, 8), (3, 5), (7, 2), (257, 2)]))
    field = Field(q)
    n = draw(st.integers(1, top))
    # the oracle builds each GF(257) indicator from 257-term powers
    size = {1: 4, 2: 1}[n] if q == 257 else 24
    inputs = draw(st.lists(st.tuples(*[st.integers(0, q - 1)] * n), unique=True,
                           max_size=size))
    values = draw(st.lists(st.integers(0, q - 1),
                           min_size=len(inputs), max_size=len(inputs)))
    pairs = [(p, (v,) + (0,) * (n - 1)) for p, v in zip(inputs, values)]
    return TransitionData(field, n, pairs)


@st.composite
def constrained_problems(draw):
    """Transition data on GF(q)^n, q in {2, 3, 4, 5, 257} and n <= 3, with
    a subset of the variables small enough for the solver limit."""
    q = draw(st.sampled_from([2, 3, 4, 5, 257]))
    n = draw(st.integers(1, 2 if q == 257 else 3))
    inputs = draw(st.lists(st.tuples(*[st.integers(0, q - 1)] * n), unique=True,
                           max_size=12))
    values = draw(st.lists(st.integers(0, q - 1),
                           min_size=len(inputs), max_size=len(inputs)))
    data = TransitionData(Field(q), n, [(p, (v,) + (0,) * (n - 1))
                                        for p, v in zip(inputs, values)])
    subset = draw(st.sets(st.integers(1, n), max_size=1 if q == 257 else n))
    return data, subset


@st.composite
def linear_systems(draw):
    """A system A x = b over GF(q), q in {2, 3, 4, 5, 257}: square, over-
    or under-determined, of drawn rank (deficient when below both sides),
    with b in the column space or drawn freely (often inconsistent)."""
    field = Field(draw(st.sampled_from([2, 3, 4, 5, 257])))
    m, cols = draw(st.integers(0, 6)), draw(st.integers(1, 6))
    rank = draw(st.integers(0, min(m, cols)))
    element = st.integers(0, field.order - 1)
    base = [draw(st.lists(element, min_size=cols, max_size=cols)) for _ in range(rank)]
    rows = []
    for _ in range(m):
        row = [0] * cols
        for b in base:
            c = draw(element)
            row = [field.add(v, field.mul(c, w)) for v, w in zip(row, b)]
        rows.append(row)
    if draw(st.booleans()):
        x = draw(st.lists(element, min_size=cols, max_size=cols))
        rhs = [0] * m
        for i, row in enumerate(rows):
            for a, v in zip(row, x):
                rhs[i] = field.add(rhs[i], field.mul(a, v))
    else:
        rhs = draw(st.lists(element, min_size=m, max_size=m))
    return field, rows, rhs


def exhaustive_sparsest(data, coordinate):
    """The sparsest search that solves the linear system for every subset,
    with the oracle's solver."""
    for size in range(data.n + 1):
        for subset in itertools.combinations(range(1, data.n + 1), size):
            poly = oracle_constrained_interpolate(data, coordinate, subset)
            if poly is not None:
                return poly
    raise AssertionError("the full variable set always interpolates")


@property_settings
@given(partial_functions())
def test_table_poly_matches_indicator_sum(data):
    values = dict(data.coordinate_view(0))
    expected = oracle_table_poly(data.field, data.n, values)
    assert table_poly(data.field, data.n, values) == expected
    assert interpolate(data, 0) == expected


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(wide_partial_functions())
def test_table_poly_matches_indicator_sum_beyond_three_variables(data):
    values = dict(data.coordinate_view(0))
    got = table_poly(data.field, data.n, values)
    assert got == oracle_table_poly(data.field, data.n, values)
    # reduced, canonical and nonzero, as the unchecked constructor assumes
    q = data.field.order
    for exps, coeff in got.terms.items():
        assert len(exps) == data.n and all(0 <= e <= q - 1 for e in exps)
        assert 1 <= coeff <= q - 1


@property_settings
@given(linear_systems())
def test_solve_linear_matches_oracle(system):
    field, rows, rhs = system
    assert _solve_linear(field, rows, rhs) == oracle_solve_linear(field, rows, rhs)


@property_settings
@given(constrained_problems())
def test_constrained_interpolate_matches_oracle(problem):
    data, subset = problem
    got = constrained_interpolate(data, 0, subset)
    expected = oracle_constrained_interpolate(data, 0, subset)
    assert got == expected
    if got is not None:
        assert list(got.terms.items()) == list(expected.terms.items())


@property_settings
@given(st.sampled_from([2, 3, 4, 5]), st.data())
def test_indicator_poly_matches_product(q, data):
    field = Field(q)
    n = data.draw(st.integers(1, 3))
    point = tuple(data.draw(st.sampled_from(range(q))) for _ in range(n))
    assert indicator_poly(field, point) == oracle_indicator_poly(field, point)


@property_settings
@given(partial_functions())
def test_projection_feasibility_matches_solver(data):
    view = data.coordinate_view(0)
    for size in range(data.n + 1):
        for subset in itertools.combinations(range(1, data.n + 1), size):
            solved = constrained_interpolate(data, 0, subset)
            assert oracle_feasible(view, subset) == (solved is not None)


@property_settings
@given(partial_functions())
def test_sparsest_matches_exhaustive_elimination(data):
    assert sparsest_interpolate(data, 0) == exhaustive_sparsest(data, 0)


def scanned_sparsest(data, coordinate):
    """The sparsest search as one projection pass per subset, in the search order."""
    view = data.coordinate_view(coordinate)
    for size in range(data.n + 1):
        for subset in itertools.combinations(range(1, data.n + 1), size):
            if oracle_feasible(view, subset):
                return constrained_interpolate(data, coordinate, subset)
    raise AssertionError("the full variable set always interpolates")


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(wide_partial_functions())
def test_sparsest_matches_a_scan_of_every_subset_beyond_three_variables(data):
    # with up to 8 variables a conflict found for one subset rules out later ones
    assert sparsest_interpolate(data, 0) == scanned_sparsest(data, 0)


def test_sparsest_projects_only_subsets_that_meet_every_conflict():
    # a series like the benchmark's GF(2)^8 ones: 17 distinct states of a
    # random map whose coordinates each read three variables
    rng, n = random.Random(0), 8
    while True:
        reads = [sorted(rng.sample(range(n), 3)) for _ in range(n)]
        tables = [[rng.randrange(2) for _ in range(8)] for _ in range(n)]
        states = [tuple(rng.randrange(2) for _ in range(n))]
        while len(states) < 17:
            s = states[-1]
            image = tuple(t[4 * s[a] + 2 * s[b] + s[c]] for (a, b, c), t in zip(reads, tables))
            if image in states:
                break
            states.append(image)
        if len(states) == 17:
            break
    data = TransitionData.from_series(GF2, states)
    total_passes = total_scanned = 0
    for i in range(n):
        masks, passes = set(), []

        def counted(view, subset, bits):
            found = _conflicts(view, subset, bits)
            assert not found & masks  # the subset met every mask known before
            masks.update(found)
            passes.append([b.bit_length() for b in subset])
            return found

        with mock.patch("gsds.infer._conflicts", counted):
            poly = sparsest_interpolate(data, i)
        assert poly == scanned_sparsest(data, i)
        # the subset chosen is the support; a scan tries every subset up to it
        support = tuple(sorted(poly.support()))
        combos = list(itertools.combinations(range(1, n + 1), len(support)))
        scanned = sum(math.comb(n, k) for k in range(len(support))) + combos.index(support) + 1
        assert passes[-1] == list(support) and len(passes) <= 1 + len(masks)
        total_passes += len(passes)
        total_scanned += scanned
    assert total_passes < total_scanned


def test_sparsest_on_a_full_table_keeps_no_pair_of_inputs():
    # 1024 inputs, 523 776 pairs of them; coordinate 0 is x2*x5 + x9
    points = itertools.product(range(2), repeat=10)
    data = TransitionData(GF2, 10, [(p, (p[1] * p[4] ^ p[8],) + p[1:]) for p in points])
    tracemalloc.start()
    try:
        poly = sparsest_interpolate(data, 0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert poly == parse_poly("x2*x5 + x9", 10, GF2)
    assert peak < 2 << 20


@property_settings
@given(partial_functions())
def test_solution_space_dimension_counts_lazy_basis(data):
    space = solution_space(data, 0)
    assert "basis" not in vars(space)
    assert space.dimension == len(space.basis)


def test_sparsest_raises_solver_limit_before_eliminating():
    # coordinate 0 is x1 + ... + x7 and the inputs 0 and e_j differ only in
    # x_j, so no 6-subset is feasible and the search reaches 5^7 unknowns
    field = Field(5)
    inputs = [(0,) * 7] + [tuple(int(j == k) for j in range(7)) for k in range(7)]
    data = TransitionData(field, 7, [(s, (sum(s) % 5,) + (0,) * 6) for s in inputs])
    with pytest.raises(ValueError, match=r"^5\^7 unknowns exceed the solver limit \(16384\)$"):
        sparsest_interpolate(data, 0)


def test_canonical_inference_refuses_a_space_past_the_solver_limit():
    # a two-state series over GF(2)^n: 2^14 points are inferred, and 2^15
    # are refused before the transform builds its table of q^n points
    assert CONSTRAINED_MAX_UNKNOWNS == 2**14
    model = infer_network(TransitionData.from_series(Field(2), [(0,) * 14, (1,) * 14]))
    assert model.local_polys[0].eval((0,) * 14) == 1 and len(model.local_polys[0].terms) == 2**14
    with pytest.raises(ValueError, match=r"^canonical inference over 2\^15 points exceeds "
                                         r"the limit \(16384\)$"):
        infer_network(TransitionData.from_series(Field(2), [(0,) * 15, (1,) * 15]))


# -- series files -------------------------------------------------------------------------


def test_series_file_round_trip(tmp_path):
    series = StateSeries(GF3, EX3_SERIES, ["g1", "g2", "g3"], display="balanced")
    path = tmp_path / "series.json"
    save_series(series, path)
    loaded = load_series(path)
    assert loaded.states == [tuple(s) for s in EX3_SERIES]
    assert loaded.genes == ["g1", "g2", "g3"]
    assert loaded.display == "balanced"


def test_series_dict_balanced_values():
    series = StateSeries(GF3, EX3_SERIES, display="balanced")
    d = series_to_dict(series)
    assert d["states"][0] == [-1, 1, -1]
    assert series_from_dict(d).states[0] == (2, 1, 2)


def test_series_dict_version_check():
    d = series_to_dict(StateSeries(GF3, EX3_SERIES))
    d["format_version"] = 3
    with pytest.raises(ValueError):
        series_from_dict(d)


@pytest.mark.parametrize("call, message", [
    (lambda: TransitionData(GF2, 2, [((0, 0), (1,))]),
     "transition (0, 0) -> (1,) is not 2-dimensional"),
    (lambda: SolutionSpace(GF2, 1, ()).member([0]), "need 2 coefficients"),
    (lambda: sparsest_interpolate(TransitionData(GF2, 13, [((0,) * 13, (0,) * 13)]), 0),
     "sparsest search supports at most 12 variables, got 13"),
    (lambda: infer_network(TransitionData.from_series(GF2, [(0,), (1,)]), "densest"),
     "unknown preference 'densest'"),
], ids=["transition-length", "coefficient-count", "sparsest-limit", "preference"])
def test_error_messages(call, message):
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value) == message
