"""Properties of the truth-table kernel against the scalar map.

The kernel (successor array, truth table, range validation) and the map
call, which reads the same subcube tables, must agree with evaluating
every polynomial term by term at one state at a time, which stays as the
reference: ``oracles.oracle_global_map`` and the exhaustive per-state
range loop that validation used before the kernel.
"""

import json
import random
import sys
import tracemalloc
from collections import Counter
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gsds import (DependencyGraph, Field, GlobalMap, GsdsModel, ModelValidationError,
                  dynamics, network, phase_portrait, trajectory)
from gsds.cli import main
from gsds.dynamics import transitions_dot
from gsds.network import RANGE_MAX_LINES, ValidationReport, save_model, validate_model
from gsds.polyring import Polynomial, iter_points, parse_poly, support_vars, table_poly
from gsds.translate import GeneThresholds, ThresholdMap, check_translated

from oracles import (oracle_global_map, oracle_phase_portrait, oracle_probe_variable,
                     oracle_range_lines, oracle_transitions_dot)

FIELDS = [Field(q) for q in (2, 3, 4, 5)]

kernel_settings = settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


def into_levels(poly, levels):
    """h(poly) where h sends a field value a to levels[a mod len(levels)],
    so every value lies in ``levels``."""
    field, n = poly.field, poly.n_vars
    x = Polynomial.variable(field, n, 1)
    one = Polynomial.constant(field, n, 1)
    h = Polynomial.zero(field, n)
    for a in field.elements():
        at_a = one - (x - Polynomial.constant(field, n, a)) ** (field.order - 1)
        h = h + at_a.scale(levels[a % len(levels)])
    rest = [Polynomial.variable(field, n, j + 1) for j in range(1, n)]
    return h.compose([poly] + rest)


@st.composite
def models(draw, closed=False):
    """Small random models over GF(2), GF(3), GF(4), GF(5) with restricted
    state sets, constant polynomials, parallel maps and schedule words
    with repeated and omitted genes.  ``closed`` models map the state
    space into itself and satisfy locality, so they pass validation."""
    field = draw(st.sampled_from(FIELDS))
    q = field.order
    n = draw(st.integers(1, 4))
    levels = st.lists(st.integers(0, q - 1), min_size=1, max_size=q, unique=True)
    state_sets = [tuple(sorted(draw(levels))) for _ in range(n)]
    exps = st.tuples(*[st.integers(0, q - 1)] * n)
    polys = []
    for i in range(n):
        terms = draw(st.dictionaries(exps, st.integers(1, q - 1), max_size=3))
        poly = Polynomial(field, n, terms)
        polys.append(into_levels(poly, state_sets[i]) if closed else poly)
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    if closed:
        edges = {(a, b) for a in range(n) for b in range(n)}
    else:
        edges = draw(st.sets(pairs, max_size=n * n))
    schedule = draw(st.none() | st.lists(st.integers(0, n - 1), max_size=2 * n))
    return GsdsModel(field, [f"g{j}" for j in range(n)], DependencyGraph(n, edges),
                     polys, schedule, state_sets=state_sets)


def full_field_copy(m):
    """The model with every state set widened to the whole field."""
    return GsdsModel(m.field, m.genes, m.graph, m.local_polys, m.schedule)


def reference_validate(model):
    """Validation as an exhaustive loop over every state: every range
    violation is evaluated, the first RANGE_MAX_LINES of a gene listed
    and the rest counted."""
    report = ValidationReport(model.genes)
    domain = list(model.state_sets)
    for i, poly in enumerate(model.local_polys):
        allowed = model.graph.neighborhood(i)
        for var in sorted(poly.support()):
            if (var - 1) in allowed:
                continue
            witness = oracle_probe_variable(poly, var - 1, domain)
            if witness:
                report.locality.append((i, var, witness))
        values = set(model.state_sets[i])
        found = 0
        for state in model.iter_states():
            v = poly.eval(state)
            if v not in values:
                found += 1
                if found <= RANGE_MAX_LINES:
                    report.range.append((i, state, v))
        if found > RANGE_MAX_LINES:
            report.range_more[i] = found - RANGE_MAX_LINES
    return report


@kernel_settings
@given(models(closed=True))
def test_successor_array_matches_scalar_map(m):
    f = GlobalMap(m)
    expected = [m.state_index(oracle_global_map(m, s)) for s in m.iter_states()]
    assert list(f.successor_array()) == expected
    p = phase_portrait(m)
    assert list(p.successor) == expected
    attractors, transient, basin = oracle_phase_portrait(expected)
    assert p.attractors == attractors
    assert p.basin_sizes() == [basin.count(a) for a in range(len(attractors))]
    assert p.transient_histogram() == sorted(Counter(transient).items())


@kernel_settings
@given(models())
def test_truth_table_matches_scalar_map(m):
    f, full = GlobalMap(m), GlobalMap(full_field_copy(m))
    if validate_model(m).range:  # the map leaves the state space
        with pytest.raises(ModelValidationError):
            f.truth_table()
    else:
        assert f.truth_table() == tuple(oracle_global_map(m, s) for s in m.iter_states())
    assert full.truth_table() == tuple(oracle_global_map(m, p) for p in iter_points(m.field, m.n))


@kernel_settings
@given(models())
def test_map_call_matches_oracle_on_the_full_field(m):
    # the map is defined on the state space of a model that stays in it:
    # a point of the full field outside the state sets raises ValueError,
    # and a model that is not closed refuses every state of its space
    f, closed = GlobalMap(m), not validate_model(m).range
    for p in iter_points(m.field, m.n):
        if not m.contains_state(p):
            with pytest.raises(ValueError) as err:
                f(p)
            assert str(err.value) == f"state {p} is outside the model's state space"
        elif closed:
            assert f(p) == oracle_global_map(m, p)
        else:
            with pytest.raises(ModelValidationError):
                f(p)


@kernel_settings
@given(st.data())
def test_word_map_matches_the_model_with_that_schedule(data):
    # GlobalMap(m, word) builds no model; the model rebuilt with the word
    # as its schedule is the oracle, parallel models included
    m = data.draw(models(closed=True) | models())
    word = data.draw(st.lists(st.integers(0, m.n - 1), max_size=2 * m.n))
    oracle, states = GlobalMap(m.replace(schedule=word)), list(m.iter_states())
    with mock.patch.object(GsdsModel, "__init__", side_effect=AssertionError("model built")):
        f = GlobalMap(m, word)
        assert f.coordinate_polys() == oracle.coordinate_polys()
        if validate_model(m).range:  # the maps leave the state space
            for method in (f.image_bits, f.successor_array, lambda: f(states[0])):
                with pytest.raises(ModelValidationError):
                    method()
            return
        assert f.successor_array() == oracle.successor_array()
        assert f.image_bits() == oracle.image_bits()
        assert [f(s) for s in states] == [oracle(s) for s in states]


@kernel_settings
@given(models())
def test_apply_local_matches_oracle_one_gene_word(m):
    # each call reads gene i's subcube table; no model is built for the word
    states = list(m.iter_states())
    if validate_model(m).range:  # one gene leaving its levels refuses every word
        for i in range(m.n):
            with pytest.raises(ModelValidationError):
                GlobalMap(m, (i,))(states[0])
        return
    expected = [[oracle_global_map(m.replace(schedule=(i,)), s) for s in states]
                for i in range(m.n)]
    with mock.patch.object(GsdsModel, "__init__", side_effect=AssertionError("model built")):
        assert [[GlobalMap(m, (i,))(s) for s in states] for i in range(m.n)] == expected


def test_map_call_rejects_levels_outside_the_field():
    # a level the model's field lacks lies outside every state set: the
    # call raises one ValueError naming the state, over a prime field and
    # over GF(4) alike, and neither reduces nor evaluates it
    f3, f4 = Field(3), Field(4)
    m = GsdsModel(f3, ["g1", "g2"], DependencyGraph(2, {(0, 1), (1, 0)}),
                  [parse_poly("x2", 2, f3), parse_poly("x1^2 + 1", 2, f3)], None)
    assert GlobalMap(m)((1, 2)) == (2, 2)
    m4 = GsdsModel(f4, ["g1"], DependencyGraph(1, {(0, 0)}), [parse_poly("x1^2", 1, f4)], None)
    for f, state in ((GlobalMap(m), (4, 5)), (GlobalMap(m), (1, -1)), (GlobalMap(m4), (5,))):
        with pytest.raises(ValueError) as err:
            f(state)
        assert str(err.value) == f"state {state} is outside the model's state space"


@kernel_settings
@given(models())
def test_coordinate_polys_equal_interpolated_full_field_table(m):
    points = list(iter_points(m.field, m.n))
    table = GlobalMap(full_field_copy(m)).truth_table()
    assert GlobalMap(m).coordinate_polys() == tuple(
        table_poly(m.field, m.n, {p: image[i] for p, image in zip(points, table)})
        for i in range(m.n)
    )


@kernel_settings
@given(models())
def test_validate_matches_exhaustive_loop(m):
    report, expected = validate_model(m), reference_validate(m)
    assert report.locality == expected.locality
    assert (report.range, report.range_more) == (expected.range, expected.range_more)
    for poly in m.local_polys:
        assert support_vars(poly, m.state_sets) == frozenset(
            v for v in poly.support()
            if oracle_probe_variable(poly, v - 1, m.state_sets))


@kernel_settings
@given(models())
def test_range_lines_are_read_off_the_table(m):
    # the listed states come from the out-of-range table points and the
    # other genes' offsets, never from a walk over the state space
    expected = oracle_range_lines(m)
    with mock.patch.object(GsdsModel, "iter_states", side_effect=AssertionError("states walked")):
        assert validate_model(m).range == expected


@kernel_settings
@given(models(closed=True), st.booleans(), st.integers(1, 40))
def test_transitions_dot_matches_oracle(m, balanced, block):
    # small blocks split the labels between several leading-gene prefixes
    if balanced and m.field.order in (3, 5):
        m = m.replace(display="balanced")
    p = phase_portrait(m)
    with mock.patch.object(dynamics, "DOT_BLOCK_STATES", block):
        blocks = list(transitions_dot(p))
    assert "".join(blocks) == oracle_transitions_dot(p)
    widest = max(block, max(map(len, m.state_sets), default=1))
    assert all(b.count("\n") <= widest for b in blocks[1:])


def test_failed_validation_reads_the_tables(monkeypatch):
    # locality witnesses and range lines of a dense polynomial come from
    # its subcube table, not from one Polynomial.eval per point
    rng, field, n = random.Random(9), Field(3), 5
    dense = table_poly(field, n, {p: rng.randint(0, 2) for p in iter_points(field, n)})
    polys = [dense] + [Polynomial.variable(field, n, j + 1) for j in range(1, n)]
    sets = [(0, 2), (0, 1, 2), (1, 2), (0, 1, 2), (0, 1)]
    m = GsdsModel(field, [f"g{j}" for j in range(n)], DependencyGraph(n, {(1, 0)}),
                  polys, None, state_sets=sets)
    expected = reference_validate(m)
    probed = frozenset(v for v in dense.support() if oracle_probe_variable(dense, v - 1, sets))
    assert len(expected.locality) == 3 and expected.range
    calls = []
    evaluate = Polynomial.eval
    monkeypatch.setattr(Polynomial, "eval", lambda self, point: calls.append(point) or evaluate(self, point))
    report = validate_model(m)
    assert (report.locality, report.range, report.range_more) == (
        expected.locality, expected.range, expected.range_more)
    assert support_vars(dense, sets) == probed
    assert calls == []


def test_locality_probe_scans_the_support_only(monkeypatch):
    # f1 = x1*x16 over GF(3)^16 with no edge between g1 and g16: a scan of
    # every other gene would evaluate f1 at 3^15 points per level of x16
    field, n = Field(3), 16
    polys = [parse_poly("x1*x16", n, field)]
    polys += [Polynomial.variable(field, n, j + 1) for j in range(1, n)]
    m = GsdsModel(field, [f"g{j}" for j in range(n)], DependencyGraph(n, set()),
                  polys, None)
    evals = []
    original = Polynomial.eval
    monkeypatch.setattr(Polynomial, "eval",
                        lambda self, point: evals.append(1) or original(self, point))
    report = validate_model(m)
    low = (0,) * (n - 2)
    assert report.locality == [(0, n, ((1,) + low + (0,), (1,) + low + (1,)))]
    assert support_vars(polys[0], m.state_sets) == {1, n}
    assert len(evals) <= 100


def test_validate_cli_output_matches_exhaustive_loop(tmp_path, capsys):
    rng = random.Random(5)
    field = Field(3)
    checked = 0
    while checked < 10:
        n = rng.randint(2, 3)
        polys = [
            Polynomial(field, n, {
                tuple(rng.randint(0, 2) for _ in range(n)): rng.randint(1, 2)
                for _ in range(rng.randint(1, 3))
            })
            for _ in range(n)
        ]
        sets = [tuple(sorted(rng.sample(range(3), rng.randint(1, 3)))) for _ in range(n)]
        edges = {(a, b) for a in range(n) for b in range(n) if rng.random() < 0.5}
        m = GsdsModel(field, [f"g{j}" for j in range(n)], DependencyGraph(n, edges),
                      polys, list(range(n)), state_sets=sets)
        expected = reference_validate(m)
        if not expected.range:
            continue
        path = tmp_path / f"m{checked}.json"
        save_model(m, path)
        code = main(["validate", str(path)])
        err = capsys.readouterr().err
        assert code == 2
        assert err == "validation failed:\n" + "".join(
            f"  {line}\n" for line in expected.lines()
        )
        checked += 1


# -- deterministic cases past one machine word and at the edges ---------------


def random_model(field, n, schedule, state_sets=None, seed=0):
    """A seeded model whose local polynomials read three genes, mapped
    into the state sets, with every edge present so that it passes
    validation."""
    rng = random.Random(seed)
    q = field.order
    polys = []
    for i in range(n):
        inputs = rng.sample(range(n), min(3, n))
        terms = {}
        for _ in range(4):
            exps = [0] * n
            for j in inputs:
                exps[j] = rng.randint(0, q - 1)
            terms[tuple(exps)] = rng.randint(1, q - 1)
        poly = Polynomial(field, n, terms)
        polys.append(into_levels(poly, state_sets[i]) if state_sets else poly)
    edges = {(a, b) for a in range(n) for b in range(n)}
    return GsdsModel(field, [f"g{j}" for j in range(n)], DependencyGraph(n, edges),
                     polys, schedule, state_sets=state_sets)


def assert_kernel_matches_scalar(m):
    f = GlobalMap(m)
    images = [oracle_global_map(m, s) for s in m.iter_states()]
    successor = [m.state_index(image) for image in images]
    assert f.truth_table() == tuple(images)
    assert list(f.successor_array()) == successor
    assert list(phase_portrait(m).successor) == successor
    return images


def test_kernel_gf257_matches_scalar_map():
    field = Field(257)
    polys = [Polynomial(field, 2, {(1, 1): 1, (0, 0): 200}),
             Polynomial(field, 2, {(1, 0): 1, (0, 1): 1, (0, 0): 1})]
    m = GsdsModel(field, ["a", "b"], DependencyGraph(2, {(0, 1), (1, 0)}),
                  polys, (1, 0, 1))
    assert m.state_count() == 66049
    images = assert_kernel_matches_scalar(m)
    # the level 256 does not fit a one-byte truth table field
    assert max(map(max, images)) == 256


def test_kernel_gf2_13_word_with_repeats_and_omissions():
    m = random_model(Field(2), 13, (3, 0, 3, 7, 12, 0, 5, 9, 3), seed=13)
    assert_kernel_matches_scalar(m)


def test_kernel_gf3_7_restricted_state_sets():
    rng = random.Random(7)
    sets = [tuple(sorted(rng.sample(range(3), rng.randint(2, 3)))) for _ in range(7)]
    for schedule in (None, (6, 5, 4, 3, 2, 1, 0)):
        assert_kernel_matches_scalar(random_model(Field(3), 7, schedule, sets, seed=3))


def test_kernel_single_level_gene():
    sets = [(0, 1, 2), (1,), (0, 2)]
    for schedule in (None, (1, 0, 2, 1)):
        assert_kernel_matches_scalar(random_model(Field(3), 3, schedule, sets, seed=1))


def test_kernel_zero_gene_model(tmp_path, capsys):
    m = GsdsModel(Field(2), [], DependencyGraph(0, set()), [], None)
    assert_kernel_matches_scalar(m)
    assert GlobalMap(m).truth_table() == ((),)
    assert phase_portrait(m).fixed_points() == [()]
    assert "".join(transitions_dot(phase_portrait(m))) == oracle_transitions_dot(phase_portrait(m))
    path = tmp_path / "empty.json"
    save_model(m, path)
    assert main(["portrait", str(path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert (report["state_count"], report["attractor_count"]) == (1, 1)


def test_successor_array_peak_memory_near_result_size():
    f = GlobalMap(random_model(Field(2), 18, None, seed=18))
    tracemalloc.start()
    try:
        result = f.successor_array()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the reference is the size of the same indices as a list: small ints
    # are shared, every larger entry is its own object
    values = list(result)
    size = sys.getsizeof(values) + sum(sys.getsizeof(v) for v in values if v > 256)
    assert len(result) == 1 << 18
    assert peak <= 2 * size


def test_portrait_footprint_per_state():
    # the portrait keeps the kernel's buffer of native ints; a list of
    # boxed ints costs about 36 bytes per state
    m = random_model(Field(2), 16, None, seed=16)
    network._subcube_tables(m)
    tracemalloc.start()
    try:
        p = phase_portrait(m)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert p.state_count == 1 << 16
    assert retained <= 8 * p.state_count
    assert peak < 40 * p.state_count


def full_support_model(field, n, schedule, seed=0):
    """random_model with gene 0 reading every gene: x1 * ... * xn + x1."""
    m = random_model(field, n, schedule, seed=seed)
    first = Polynomial(field, n, {(1,) * n: 1, (1,) + (0,) * (n - 1): 1})
    return GsdsModel(field, m.genes, m.graph, (first,) + tuple(m.local_polys[1:]), schedule)


def test_portrait_tabulates_without_evaluating(monkeypatch):
    # subcube tables come from the forward transform, not from one
    # Polynomial.eval per subcube point
    rng = random.Random(6)
    m = random_model(Field(2), 6, (5, 0, 3, 1), seed=6)
    dense = table_poly(m.field, 6, {p: rng.randint(0, 1) for p in iter_points(m.field, 6)})
    assert dense.support() == set(range(1, 7)) and len(dense.terms) > 16
    m = GsdsModel(m.field, m.genes, m.graph, (dense,) + m.local_polys[1:], m.schedule)
    expected = [m.state_index(oracle_global_map(m, s)) for s in m.iter_states()]
    calls = []
    evaluate = Polynomial.eval
    monkeypatch.setattr(Polynomial, "eval", lambda self, point: calls.append(point) or evaluate(self, point))
    assert list(phase_portrait(m).successor) == expected
    assert calls == []


@pytest.mark.parametrize("gather", [False, True])
def test_kernel_walk_and_gather_match_scalar_map(monkeypatch, gather):
    monkeypatch.setattr(network, "_gathers", lambda *args: gather)
    sets = [(0, 2), (1,), (0, 1, 2), (1, 2), (0, 1, 2)]
    for m in (full_support_model(Field(2), 9, None, seed=9),
              full_support_model(Field(2), 9, (0, 4, 0, 8, 2), seed=2),
              random_model(Field(3), 5, (4, 0, 4, 2), sets, seed=5),
              random_model(Field(4), 4, None, seed=4)):
        assert_kernel_matches_scalar(m)


@pytest.mark.parametrize("gather", [False, True])
def test_full_support_gene_peak_memory_near_result_size(monkeypatch, gather):
    monkeypatch.setattr(network, "_gathers", lambda *args: gather)
    f = GlobalMap(full_support_model(Field(2), 14, (3, 0, 7), seed=14))
    network._subcube_tables(f.model)
    tracemalloc.start()
    try:
        result = f.successor_array()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    values = list(result)  # the reference size is that of the indices as a list
    size = sys.getsizeof(values) + sum(sys.getsizeof(v) for v in values if v > 256)
    m = f.model
    assert values == [m.state_index(oracle_global_map(m, s)) for s in m.iter_states()]
    assert peak <= 2 * size


def test_word_omitting_an_out_of_range_gene():
    # gene 2 maps into level 2, outside its state set {0, 1}; the word
    # never updates it, yet every bulk method and the call decline the
    # whole model with its validation report
    m = random_model(Field(3), 3, (0, 1), seed=6)
    polys = m.local_polys[:2] + (Polynomial.constant(Field(3), 3, 2),)
    m = GsdsModel(m.field, m.genes, m.graph, polys, (0, 1), state_sets=[(0, 1, 2)] * 2 + [(0, 1)])
    f = GlobalMap(m)
    for method in (f.image_bits, f.truth_table, f.successor_array, lambda: f((0, 0, 0))):
        with pytest.raises(ModelValidationError) as err:
            method()
        assert err.value.report.range[0] == (2, (0, 0, 0), 2)


def test_trajectory_reads_the_tables(monkeypatch):
    # a dense local polynomial reading all 6 genes: every step is
    # one table read per updated gene, not one Polynomial.eval
    rng = random.Random(11)
    m = random_model(Field(2), 6, None, seed=11)
    dense = table_poly(m.field, 6, {p: rng.randint(0, 1) for p in iter_points(m.field, 6)})
    assert dense.support() == set(range(1, 7)) and len(dense.terms) > 16
    for schedule in (None, (5, 0, 3, 1, 0)):
        m = GsdsModel(m.field, m.genes, m.graph, (dense,) + m.local_polys[1:], schedule)
        expected = [(1, 0, 1, 1, 0, 1)]
        for _ in range(40):
            expected.append(oracle_global_map(m, expected[-1]))
        calls = []
        evaluate = Polynomial.eval
        monkeypatch.setattr(Polynomial, "eval",
                            lambda self, point: calls.append(point) or evaluate(self, point))
        assert trajectory(m, expected[0], 40) == expected
        assert calls == []
        monkeypatch.undo()


def test_check_translated_on_levels_outside_a_state_set():
    # gene 0 keeps levels {0, 1}, but its thresholds discretize high
    # concentrations to 2: the map refuses the first such state, while
    # samples that stay in the state space check as the oracle does
    field = Field(3)
    polys = [parse_poly("x2^2", 2, field), parse_poly("x1 + 2*x2 + x1*x2", 2, field)]
    m = GsdsModel(field, ["a", "b"], DependencyGraph(2, {(0, 1), (1, 0)}), polys, (1, 0),
                  state_sets=[(0, 1), (0, 1, 2)])
    tmap = ThresholdMap(field, [GeneThresholds([1.0, 2.0], [0, 1, 2]),
                                GeneThresholds([1.0, 2.0], [0, 1, 2])])
    rng = random.Random(4)
    samples = [(rng.uniform(0, 3), rng.uniform(0, 3)) for _ in range(60)]
    pairs = list(zip(samples, samples[1:]))
    first = next(tuple(int(c > 1) + int(c > 2) for c in x) for x, _ in pairs if x[0] > 2)
    with pytest.raises(ValueError, match=rf"^state \({first[0]}, {first[1]}\) is outside"):
        check_translated(GlobalMap(m), pairs, tmap)
    inside = [(x, y) for x, y in pairs if x[0] <= 2]
    result = check_translated(GlobalMap(m), inside, tmap)
    expected = check_translated(lambda s: oracle_global_map(m, s), inside, tmap)
    assert result.checked == expected.checked == len(inside)
    assert result.counterexamples == expected.counterexamples and expected.counterexamples
