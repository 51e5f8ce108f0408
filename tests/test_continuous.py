import ast
import math
import random
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gsds import (
    ContinuityError,
    DependencyGraph,
    Field,
    GsdsModel,
    RatePolicy,
    SectionalLinear,
    ZenoError,
    continuous,
    fit_from_samples,
    global_map,
    hybrid_simulate,
)
from gsds.continuous import (
    HybridEvent,
    load_samples_csv,
    rates_from_dict,
    rates_to_dict,
    save_samples_csv,
)
from gsds.polyring import Polynomial, parse_poly
from gsds.translate import GeneThresholds, ThresholdMap, check_translated, discretize

from conftest import EX3_ROWS, EX3_TIMES, build_example3
from oracles import oracle_hybrid_simulate, oracle_sectional_value
from test_kernel import models

GF2 = Field(2)


def toggle_model():
    """One self-coupled gene whose map flips its state."""
    return GsdsModel(GF2, ["g"], DependencyGraph(1, {(0, 0)}),
                     [parse_poly("x1 + 1", 1, GF2)], [0])


def one_threshold_map(n, theta=1.0):
    return ThresholdMap(
        GF2, [GeneThresholds([theta], [0, 1], [1]) for _ in range(n)]
    )


# -- construction and evaluation ----------------------------------------------


def test_fitted_microarray_segments_are_valid():
    curve = SectionalLinear(
        [0, 1, 2, 3], [(0.28, 0.5), (0.72, 0.06), (-1.0, 3.5)]
    )
    assert curve.segments == ((0.28, 0.5), (0.72, 0.06), (-1.0, 3.5))


def test_single_segment_is_trivially_valid():
    curve = SectionalLinear([0, 1], [(2.0, -1.0)])
    assert curve.value(0.5) == 0.0


def test_continuity_tolerance_scales_with_the_terms():
    # a*t + b rounds with an error that grows with |a*t| and |b|, so at
    # t = 1e6 a gap of a few 1e-9 is rounding, not a jump, even where the
    # value itself is 0
    SectionalLinear([0, 1e6, 2e6], [(1.0, 0.0), (1.0, 2e-9)])
    SectionalLinear([0, 1e6, 2e6], [(3.0, -3e6), (-3.0, 3e6 + 4e-9)])
    with pytest.raises(ContinuityError):
        SectionalLinear([0, 1e6, 2e6], [(1.0, 0.0), (1.0, 1e-2)])
    with pytest.raises(ContinuityError):
        SectionalLinear([0, 1, 2], [(1.0, 0.0), (1.0, 2e-9)])


@pytest.mark.parametrize("segments", [
    [(1e10, 0.0), (2e10, 0.0)],  # both sides' a*t overflow: the gap is NaN
    [(1e10, 0.0), (0.0, 0.0)],  # one side overflows: the gap and the scale are inf
], ids=["both-sides", "one-side"])
def test_continuity_check_rejects_an_overflowing_breakpoint(segments):
    with pytest.raises(ContinuityError):
        SectionalLinear([0, 1e300, 2e300], segments)


def test_discontinuity_rejected_with_gap():
    with pytest.raises(ContinuityError) as err:
        SectionalLinear([0, 1, 2], [(1, 0), (1, 1)])
    assert err.value.breakpoint_value == 1
    assert err.value.gap == pytest.approx(1.0)


def test_breakpoints_must_increase():
    with pytest.raises(ValueError):
        SectionalLinear([0, 0], [(1, 0)])
    with pytest.raises(ValueError):
        SectionalLinear([1, 0], [(1, 0)])


def test_segment_count_must_match():
    with pytest.raises(ValueError):
        SectionalLinear([0, 1, 2], [(1, 0)])


def test_eval_inside_segments():
    curve = fit_from_samples(EX3_TIMES, [r[2] for r in EX3_ROWS])
    assert curve.value(1.0) == pytest.approx(1.25, abs=1e-12)
    assert curve.value(0.5) == pytest.approx(0.875, abs=1e-12)
    assert curve.value(2.5) == pytest.approx(1.0, abs=1e-12)


def test_eval_outside_zero_mode():
    curve = SectionalLinear([0, 1], [(1.0, 0.0)])
    assert curve.value(-1.0) == 0.0
    assert curve.value(2.0) == 0.0


def test_interior_breakpoint_agrees_from_both_sides():
    curve = fit_from_samples([0, 1, 2], [0.0, 1.0, 0.5])
    t = 1.0
    left = curve.segments[0][0] * t + curve.segments[0][1]
    right = curve.segments[1][0] * t + curve.segments[1][1]
    assert abs(left - right) <= 1e-9
    assert curve.value(t) == pytest.approx(1.0, abs=1e-12)


@st.composite
def curves_and_times(draw):
    """A continuous curve through random samples at quarter-integer
    times, and times on its breakpoints, between them and outside them."""
    times = sorted(draw(st.sets(st.integers(-40, 40), min_size=2, max_size=9)))
    times = [t / 4 for t in times]
    values = draw(st.lists(st.floats(-10, 10), min_size=len(times), max_size=len(times)))
    curve = fit_from_samples(times, values)
    between = [a + (b - a) * draw(st.floats(0, 1)) for a, b in zip(times, times[1:])]
    outside = [times[0] - draw(st.floats(0, 20)), times[-1] + draw(st.floats(0, 20))]
    return curve, times + between + outside


@settings(max_examples=300, deadline=None)
@given(curves_and_times())
def test_value_matches_binary_search_oracle(case):
    curve, ts = case
    for t in ts:
        assert curve.value(t) == oracle_sectional_value(curve, t)


# -- fitting ---------------------------------------------------------------------


def test_fit_microarray_gene1():
    curve = fit_from_samples(EX3_TIMES, [r[0] for r in EX3_ROWS])
    expected = [(0.28, 0.5), (0.72, 0.06), (-1.0, 3.5)]
    for (a, b), (ea, eb) in zip(curve.segments, expected):
        assert a == pytest.approx(ea, abs=1e-12)
        assert b == pytest.approx(eb, abs=1e-12)


def test_fit_constant_gene2():
    curve = fit_from_samples(EX3_TIMES, [r[1] for r in EX3_ROWS])
    assert curve.segments == ((0.0, 1.2), (0.0, 1.2), (0.0, 1.2))


def test_fit_two_samples():
    curve = fit_from_samples([0, 1], [0.0, 1.0])
    assert curve.segments == ((1.0, 0.0),)


def test_fit_reproduces_samples_exactly():
    rng = random.Random(13)
    for _ in range(30):
        k = rng.randint(2, 8)
        times = sorted(rng.sample(range(100), k))
        values = [rng.uniform(-5, 5) for _ in range(k)]
        curve = fit_from_samples(times, values)
        for t, v in zip(times, values):
            assert curve.value(t) == pytest.approx(v, abs=1e-12)


def test_fit_rejects_bad_input():
    with pytest.raises(ValueError):
        fit_from_samples([0], [1.0])
    with pytest.raises(ValueError):
        fit_from_samples([0, 0], [1.0, 2.0])
    with pytest.raises(ValueError):
        fit_from_samples([0, 1], [1.0])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_curves_and_rates_must_be_finite(bad):
    # a fit through a NaN sample used to return the segments ((nan, nan),)
    cases = [(lambda: SectionalLinear([0.0, bad], [(1.0, 0.0)]), "a breakpoint"),
             (lambda: SectionalLinear([0.0, 1.0], [(bad, 0.0)]), "a segment's slope or intercept"),
             (lambda: fit_from_samples([0, 1], [0, bad]), "a segment's slope or intercept"),
             (lambda: RatePolicy([{0: 1.0, 1: bad}]), "a rate")]
    for build, what in cases:
        with pytest.raises(ValueError) as err:
            build()
        assert str(err.value) == f"{what} must be a finite number, not {bad}"


# -- hybrid simulation ---------------------------------------------------------


def test_triangular_wave_threshold_events():
    # slope +1 from 0 toward the threshold at 1; on arrival the map's
    # output flips the activity, so the slope turns to -1, the floor at 0
    # flips it back: threshold crossings land at t = 1, 3, 5
    m = toggle_model()
    rates = RatePolicy([{0: -1.0, 1: 1.0}])
    result = hybrid_simulate(m, rates, one_threshold_map(1), [0.0], 6.5)
    crossings = [e.time for e in result.events if e.kind == "threshold"]
    floors = [e.time for e in result.events if e.kind == "floor"]
    assert crossings == [1.0, 3.0, 5.0]
    assert floors == [2.0, 4.0, 6.0]
    tr = result.trajectories[0]
    assert tr.value(0.5) == 0.5
    assert tr.value(1.0) == 1.0
    assert tr.value(2.0) == 0.0
    assert tr.value(6.5) == 0.5


def test_all_zero_rates_mean_no_events():
    m = toggle_model()
    rates = RatePolicy([{0: 0.0, 1: 0.0}])
    result = hybrid_simulate(m, rates, one_threshold_map(1), [0.4], 5.0)
    assert result.events == []
    assert result.trajectories[0].segments == ((0.0, 0.4),)
    assert result.phases == [(0.0, 5.0, (0,))]


def test_floor_at_zero_holds_concentration():
    # constant-0 map: activity 0 everywhere, decay from 0.5 stops at 0
    m = GsdsModel(GF2, ["g"], DependencyGraph(1, set()),
                  [parse_poly("0", 1, GF2)], [0])
    rates = RatePolicy([{0: -1.0, 1: 1.0}])
    result = hybrid_simulate(m, rates, one_threshold_map(1), [0.5], 2.0)
    assert [(e.time, e.kind) for e in result.events] == [(0.5, "floor")]
    tr = result.trajectories[0]
    assert tr.value(0.5) == 0.0
    assert tr.value(2.0) == 0.0


def test_floor_disabled_lets_concentration_go_negative():
    m = GsdsModel(GF2, ["g"], DependencyGraph(1, set()),
                  [parse_poly("0", 1, GF2)], [0])
    rates = RatePolicy([{0: -1.0, 1: 1.0}], floor_at_zero=False)
    result = hybrid_simulate(m, rates, one_threshold_map(1), [0.5], 2.0)
    assert result.events == []
    assert result.trajectories[0].value(2.0) == pytest.approx(-1.5)


def test_event_times_are_exact_roots():
    m = toggle_model()
    rates = RatePolicy([{0: -0.25, 1: 0.25}])
    result = hybrid_simulate(m, rates, one_threshold_map(1, theta=0.5), [0.0], 3.0)
    assert [e.time for e in result.events if e.kind == "threshold"] == [2.0]


def test_two_gene_chain_steps_through_the_map():
    # composed map: (x1, x2) -> (1, x1); from (0,0) the orbit walks
    # (0,0) -> (1,0) -> (1,1) and stays; crossings at t = 0.25 and 1.0
    polys = [parse_poly("1", 2, GF2), parse_poly("x1", 2, GF2)]
    m = GsdsModel(GF2, ["a", "b"], DependencyGraph(2, {(0, 1)}), polys, [1, 0])
    fmap = global_map(m)
    assert fmap((0, 0)) == (1, 0) and fmap((1, 0)) == (1, 1)
    rates = RatePolicy([{0: -1.0, 1: 1.0}, {0: -1.0, 1: 1.0}])
    tmap = one_threshold_map(2)
    result = hybrid_simulate(m, rates, tmap, [0.75, 0.5], 3.0)
    assert [(e.time, e.gene) for e in result.events] == [(0.25, 0), (1.0, 1)]
    assert [s for _, _, s in result.phases] == [(0, 0), (1, 0), (1, 1)]
    # discrete state is constant strictly between events
    for t0, t1, state in result.phases:
        for frac in (0.25, 0.5, 0.75):
            t = t0 + (t1 - t0) * frac
            conc = [tr.value(t) for tr in result.trajectories]
            assert discretize(tmap, conc) == state


def test_hybrid_trajectories_are_continuous():
    m = toggle_model()
    rates = RatePolicy([{0: -2.0, 1: 3.0}])
    result = hybrid_simulate(m, rates, one_threshold_map(1), [0.2], 7.0)
    tr = result.trajectories[0]
    for t in tr.breakpoints:
        lo = tr.value(t - 1e-12) if t > tr.breakpoints[0] else tr.value(t)
        hi = tr.value(t + 1e-12) if t < tr.breakpoints[-1] else tr.value(t)
        assert abs(lo - hi) < 1e-9


def test_hybrid_closure_with_translation_check():
    polys = [parse_poly("1", 2, GF2), parse_poly("x1", 2, GF2)]
    m = GsdsModel(GF2, ["a", "b"], DependencyGraph(2, {(0, 1)}), polys, [1, 0])
    tmap = one_threshold_map(2)
    rates = RatePolicy([{0: -1.0, 1: 1.0}, {0: -1.0, 1: 1.0}])
    result = hybrid_simulate(m, rates, tmap, [0.75, 0.5], 3.0)
    mids = [(t0 + t1) / 2 for t0, t1, _ in result.phases]
    samples = [tuple(tr.value(t) for tr in result.trajectories) for t in mids]
    outcome = check_translated(global_map(m), list(zip(samples, samples[1:])), tmap)
    assert outcome.compatible and outcome.checked == 2


def test_hybrid_rejects_bad_inputs():
    m = toggle_model()
    rates = RatePolicy([{0: -1.0, 1: 1.0}])
    with pytest.raises(ValueError):
        hybrid_simulate(m, rates, one_threshold_map(1), [0.0], 0.0)
    with pytest.raises(ValueError):
        hybrid_simulate(m, rates, one_threshold_map(1), [0.0, 0.0], 1.0)
    with pytest.raises(ValueError, match="^no rate for gene 'g' at level 1$"):
        hybrid_simulate(m, RatePolicy([{0: -1.0}]), one_threshold_map(1), [0.0], 1.0)


def test_zeno_guard(monkeypatch):
    # the limit is read at call time, so patching the constant bounds the run
    monkeypatch.setattr(continuous, "MAX_EVENTS", 100)
    m = toggle_model()
    rates = RatePolicy([{0: -1.0, 1: 1.0}])
    with pytest.raises(ZenoError, match=r"^more than 100 events by t=\d"):
        hybrid_simulate(m, rates, one_threshold_map(1), [0.0], 1e9)


def test_hybrid_event_repr_names_time_gene_and_both_states():
    m = toggle_model()
    run = hybrid_simulate(m, RatePolicy([{0: -1.0, 1: 1.0}]), one_threshold_map(1), [0.0], 1.5)
    assert [repr(e) for e in run.events] == [
        "HybridEvent(t=1.0, gene=0, threshold=1.0, kind=threshold, (0,) -> (1,))"]
    event = HybridEvent(2.5, 1, 0.0, "floor", (1, 2), (1, 0))
    assert repr(event) == "HybridEvent(t=2.5, gene=1, threshold=0.0, kind=floor, (1, 2) -> (1, 0))"


def test_hybrid_accepts_its_own_trajectories_at_large_magnitudes():
    # the fitted segments' intercepts reach 1e8, and at breakpoints such
    # as 5666666.67 (value 1e6) and 7333333.33 (value 0) they round to
    # gaps of 2e-9 and 4e-9, above an absolute tolerance of 1e-9
    tmap = ThresholdMap(GF2, [GeneThresholds([1e6], [0, 1], [1])])
    rates = RatePolicy([{0: -3.0, 1: 3.0}])
    result = hybrid_simulate(toggle_model(), rates, tmap, [0.0], 3e7)
    assert [e.kind for e in result.events] == ["threshold", "floor"] * 45
    tr = result.trajectories[0]
    assert max(abs(tr.value(e.time) - e.threshold) for e in result.events) < 1e-6


def test_simultaneous_crossings_processed_in_gene_order():
    polys = [parse_poly("1", 2, GF2), parse_poly("1", 2, GF2)]
    m = GsdsModel(GF2, ["a", "b"], DependencyGraph(2, set()), polys, [0, 1])
    rates = RatePolicy([{0: -1.0, 1: 1.0}, {0: -1.0, 1: 1.0}])
    result = hybrid_simulate(m, rates, one_threshold_map(2), [0.5, 0.5], 1.0)
    assert [(e.time, e.gene) for e in result.events] == [(0.5, 0), (0.5, 1)]
    assert result.events[0].new_state == (1, 1)


# -- rate files --------------------------------------------------------------------


def test_rates_round_trip():
    m = build_example3()
    policy = RatePolicy([{0: 0.0, 1: 1.0, 2: -1.0}] * 3, floor_at_zero=False)
    d = rates_to_dict(policy, m)
    assert d["rates"]["g1"] == {"0": 0.0, "1": 1.0, "-1": -1.0}
    back = rates_from_dict(d, m)
    assert back.rates == policy.rates
    assert back.floor_at_zero is False


def test_rates_missing_gene_rejected():
    m = build_example3()
    with pytest.raises(ValueError):
        rates_from_dict({"format_version": 1, "rates": {"g1": {"0": 1.0}}}, m)


def test_rates_that_name_one_level_twice_rejected():
    m = build_example3()  # balanced GF(3): "-1" and "-01" are one level
    table = {"0": 0.0, "1": 1.0, "-1": -1.0, "-01": 1.0}
    d = {"format_version": 1, "rates": {g: table for g in m.genes}}
    with pytest.raises(ValueError, match=r"^rates of gene 'g1' name level -1 twice$"):
        rates_from_dict(d, m)


# -- CSV --------------------------------------------------------------------------


def test_samples_csv_round_trip(tmp_path):
    path = tmp_path / "samples.csv"
    save_samples_csv(path, ["g1", "g2", "g3"], EX3_TIMES, EX3_ROWS)
    genes, times, rows = load_samples_csv(path)
    assert genes == ["g1", "g2", "g3"]
    assert times == list(EX3_TIMES)
    assert rows == [tuple(r) for r in EX3_ROWS]


def test_samples_csv_requires_time_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("g1,g2\n1,2\n")
    with pytest.raises(ValueError):
        load_samples_csv(path)


def test_samples_csv_row_length_checked(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("t,g1,g2\n0,1\n")
    with pytest.raises(ValueError):
        load_samples_csv(path)


# -- the simulator against the per-event loop ---------------------------------


@st.composite
def hybrid_cases(draw):
    """Random GF(2) and GF(3) models wired completely, so every one
    validates, with thresholds (0.0 among the candidates), rates, initial
    vectors on and off thresholds, and the floor on or off."""
    field = Field(draw(st.sampled_from([2, 3])))
    q = field.order
    n = draw(st.integers(1, 3))
    exps = st.tuples(*[st.integers(0, q - 1)] * n)
    polys = [Polynomial(field, n, draw(st.dictionaries(exps, st.integers(1, q - 1),
                                                        max_size=3)))
             for _ in range(n)]
    schedule = draw(st.none() | st.permutations(range(n)))
    model = GsdsModel(field, [f"g{j}" for j in range(n)],
                      DependencyGraph(n, {(a, b) for a in range(n) for b in range(n)}),
                      polys, schedule)
    level = st.integers(0, q - 1)
    genes = []
    for _ in range(n):
        cuts = sorted(draw(st.lists(st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.5]),
                                    min_size=1, max_size=2, unique=True)))
        band = draw(st.lists(level, min_size=len(cuts) + 1, max_size=len(cuts) + 1))
        equal = draw(st.lists(level, min_size=len(cuts), max_size=len(cuts)))
        genes.append(GeneThresholds(cuts, band, equal))
    slope = st.sampled_from([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 3.0])
    rates = RatePolicy([{v: draw(slope) for v in range(q)} for _ in range(n)],
                       floor_at_zero=draw(st.booleans()))
    start = st.sampled_from([0.0, 0.5, 1.0, 2.5]) | st.floats(-1.0, 3.0)
    c0 = draw(st.lists(start, min_size=n, max_size=n))
    return model, rates, ThresholdMap(field, genes), c0, draw(st.floats(0.1, 8.0))


def run_outcome(simulate, case):
    try:
        with mock.patch.object(continuous, "MAX_EVENTS", 400):
            result = simulate(*case)
    except ZenoError as exc:
        return str(exc)
    events = [(e.time, e.gene, e.threshold, e.kind, e.old_state, e.new_state)
              for e in result.events]
    curves = [(tr.breakpoints, tr.segments) for tr in result.trajectories]
    return events, result.phases, curves


def test_floor_holds_per_event_on_a_revisited_state():
    # a toggles; b copies a.  b starts floored in state (0, 0), rises while
    # a is up, and decays when a's floor hit brings (0, 0) back at t = 2
    polys = [parse_poly("x1 + 1", 2, GF2), parse_poly("x1", 2, GF2)]
    m = GsdsModel(GF2, ["a", "b"], DependencyGraph(2, {(0, 0), (0, 1)}), polys, None)
    tmap = ThresholdMap(GF2, [GeneThresholds([1.0], [0, 1], [1]),
                              GeneThresholds([2.5], [0, 1], [1])])
    rates = RatePolicy([{0: -1.0, 1: 1.0}] * 2)
    case = (m, rates, tmap, [0.0, 0.0], 3.5)
    assert run_outcome(hybrid_simulate, case) == run_outcome(oracle_hybrid_simulate, case)
    b = hybrid_simulate(*case).trajectories[1]
    assert [b.value(t) for t in (1.0, 2.0, 2.5, 3.0)] == [0.0, 1.0, 0.5, 0.0]


# g = 1 rising from -5e-324 crosses 0.0 at 5e-324 / 3, which rounds to t = 0
ROUNDS_TO_NOW = (
    GsdsModel(GF2, ["g"], DependencyGraph(1, set()), [Polynomial.constant(GF2, 1, 1)], None),
    RatePolicy([{0: 3.0, 1: 3.0}]),
    ThresholdMap(GF2, [GeneThresholds([0.0], [0, 1], [1])]),
    [-5e-324],
    1.0,
)


def test_crossing_that_rounds_to_now_adds_no_phase():
    result = hybrid_simulate(*ROUNDS_TO_NOW)
    assert [(e.time, e.kind, e.old_state, e.new_state) for e in result.events] == [
        (0.0, "threshold", (1,), (1,))]
    assert result.phases == [(0.0, 1.0, (1,))]
    curve = result.trajectories[0]
    assert (curve.breakpoints, curve.segments) == ((0.0, 1.0), ((3.0, 0.0),))


@settings(max_examples=300, deadline=None)
@given(hybrid_cases())
@example(ROUNDS_TO_NOW)
def test_simulator_matches_the_per_event_loop(case):
    assert run_outcome(hybrid_simulate, case) == run_outcome(oracle_hybrid_simulate, case)


@settings(max_examples=200, deadline=None)
@given(hybrid_cases())
@example(ROUNDS_TO_NOW)
def test_phases_tile_the_run_and_every_event_time_is_a_breakpoint(case):
    # the invariants the event loop keeps and cli's hybrid report relies on
    try:
        with mock.patch.object(continuous, "MAX_EVENTS", 400):
            result, again = hybrid_simulate(*case), hybrid_simulate(*case)
    except ZenoError:
        return
    bounds = [0.0] + [t1 for _, t1, _ in result.phases]
    assert [t0 for t0, _, _ in result.phases] == bounds[:-1] and bounds[-1] == case[-1]
    assert all(map(float.__lt__, bounds, bounds[1:]))
    assert all(list(tr.breakpoints) == bounds for tr in result.trajectories)
    assert {e.time for e in result.events} <= set(bounds)
    assert again.events == result.events


@st.composite
def state_space_cases(draw):
    """Models over GF(2)-GF(5) with restricted state sets that their
    polynomials stay in, parallel or sequential, with threshold band and
    equal levels drawn from the whole field and a rate at every level of
    the field."""
    model = draw(models(closed=True))
    level = st.integers(0, model.field.order - 1)
    genes = []
    for _ in range(model.n):
        cuts = sorted(draw(st.lists(st.sampled_from([0.5, 1.0, 1.5, 2.5]),
                                    min_size=1, max_size=2, unique=True)))
        band = draw(st.lists(level, min_size=len(cuts) + 1, max_size=len(cuts) + 1))
        equal = draw(st.lists(level, min_size=len(cuts), max_size=len(cuts)))
        genes.append(GeneThresholds(cuts, band, equal))
    slope = st.sampled_from([-1.0, -0.5, 0.0, 0.5, 1.0, 2.0])
    rates = RatePolicy([{v: draw(slope) for v in model.field.elements()}
                        for _ in range(model.n)])
    c0 = draw(st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0]),
                       min_size=model.n, max_size=model.n))
    return model, rates, ThresholdMap(model.field, genes), c0, draw(st.floats(0.1, 6.0))


@settings(max_examples=200, deadline=None)
@given(state_space_cases())
def test_hybrid_states_lie_in_the_state_space(case):
    # the map call refuses the first discretized state outside the state
    # space, before a phase or a slope is taken from it
    model = case[0]
    try:
        with mock.patch.object(continuous, "MAX_EVENTS", 400):
            result = hybrid_simulate(*case)
    except ValueError as exc:
        text = str(exc)
        assert text.startswith("state (") and text.endswith(") is outside the model's state space")
        assert not model.contains_state(ast.literal_eval(text[len("state "):text.index(" is")]))
        return
    except ZenoError:  # every state the run reached went through the map call
        return
    states = [s for _, _, s in result.phases]
    states += [s for e in result.events for s in (e.old_state, e.new_state)]
    assert all(map(model.contains_state, states))


@pytest.mark.parametrize("call, message", [
    (lambda: SectionalLinear([0.0], []), "need at least two breakpoints"),
], ids=["one-breakpoint"])
def test_sectional_error_messages(call, message):
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value) == message


def test_samples_csv_without_gene_columns_and_with_blank_rows(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("t\n0\n")
    with pytest.raises(ValueError) as err:
        load_samples_csv(path)
    assert str(err.value) == "sample CSV has no gene columns"
    path.write_text("t,g\n0,1.5\n\n1,2.5\n")  # a blank row is skipped
    assert load_samples_csv(path) == (["g"], [0.0, 1.0], [(1.5,), (2.5,)])
