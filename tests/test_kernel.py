"""Properties of the truth-table kernel against the scalar map.

The kernel (successor array, truth table, range validation) must agree
with evaluating every state one at a time, which stays here as the
reference: the scalar global map and the exhaustive per-state range loop
that validation used before the kernel.
"""

import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gsds import DependencyGraph, Field, GlobalMap, GsdsModel, phase_portrait
from gsds.cli import main
from gsds.network import ValidationReport, save_model, validate_model
from gsds.polyring import Polynomial, iter_points

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


def reference_validate(model):
    """Validation as an exhaustive loop over every state."""
    report = ValidationReport(model.genes)
    domain = list(model.state_sets)
    for i, poly in enumerate(model.local_polys):
        allowed = model.graph.neighborhood(i)
        for var in sorted(poly.support()):
            if (var - 1) in allowed:
                continue
            witness = poly._probe_variable(var - 1, domain)
            if witness:
                report.locality.append((i, var, witness))
        values = set(model.state_sets[i])
        for state in model.iter_states():
            v = poly.eval(state)
            if v not in values:
                report.range.append((i, state, v))
    return report


@kernel_settings
@given(models(closed=True))
def test_successor_array_matches_scalar_map(m):
    f = GlobalMap(m)
    expected = [m.state_index(f(s)) for s in m.iter_states()]
    assert f.successor_array() == expected
    assert phase_portrait(m).successor == expected


@kernel_settings
@given(models())
def test_truth_table_matches_scalar_map(m):
    f = GlobalMap(m)
    assert f.truth_table() == tuple(f(s) for s in m.iter_states())
    assert f.truth_table(ambient=True) == tuple(
        f(p) for p in iter_points(m.field, m.n)
    )


@kernel_settings
@given(models())
def test_validate_matches_exhaustive_loop(m):
    report, expected = validate_model(m), reference_validate(m)
    assert report.locality == expected.locality
    assert report.range == expected.range


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
