"""The level codec and the JSON file path of the four file kinds.

Every kind must read back what it wrote, in canonical and balanced
display over GF(3) and GF(5) and canonical display over GF(2) and GF(4),
and must refuse a display mode it does not know.
"""

import json
import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gsds import DependencyGraph, Field, GeneThresholds, GsdsModel, ThresholdMap
from gsds.continuous import RatePolicy, load_rates, rates_to_dict
from gsds.errors import UnsupportedEncodingError
from gsds.ffield import check_display, decode_level, encode_level
from gsds import files
from gsds.cli import _report
from gsds.files import write_json
from gsds.infer import StateSeries, load_series, save_series, series_from_dict
from gsds.network import load_model, save_model
from gsds.polyring import Polynomial
from gsds.translate import load_thresholds, save_thresholds, thresholds_from_dict

ENCODINGS = [(3, "canonical"), (3, "balanced"), (5, "canonical"), (5, "balanced"),
             (2, "canonical"), (4, "canonical")]

round_trip_settings = settings(
    max_examples=60, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


@st.composite
def models(draw):
    field, display = draw(st.sampled_from(ENCODINGS))
    field = Field(field)
    q = field.order
    genes = draw(st.lists(st.text(min_size=1, max_size=3), min_size=1, max_size=3,
                          unique=True))
    n = len(genes)
    exps = st.tuples(*[st.integers(0, q - 1)] * n)
    polys = [
        Polynomial(field, n, draw(st.dictionaries(exps, st.integers(1, q - 1), max_size=3)))
        for _ in range(n)
    ]
    gene = st.integers(0, n - 1)
    edges = draw(st.sets(st.tuples(gene, gene)))
    schedule = draw(st.none() | st.lists(gene, max_size=2 * n))
    levels = st.lists(st.integers(0, q - 1), min_size=1, max_size=q, unique=True)
    state_sets = draw(st.none() | st.lists(levels, min_size=n, max_size=n))
    return GsdsModel(field, genes, DependencyGraph(n, edges), polys, schedule,
                     state_sets=state_sets, display=display)


def model_fields(m):
    return (m.field, m.genes, m.graph, m.local_polys, m.schedule, m.state_sets,
            m.display)


@round_trip_settings
@given(models())
def test_model_file_round_trip(tmp_path, m):
    path = tmp_path / "model.json"
    save_model(m, path)
    assert model_fields(load_model(path)) == model_fields(m)


@round_trip_settings
@given(st.sampled_from(ENCODINGS), st.data())
def test_series_file_round_trip(tmp_path, encoding, data):
    field, display = Field(encoding[0]), encoding[1]
    n = data.draw(st.integers(1, 4))
    state = st.tuples(*[st.integers(0, field.order - 1)] * n)
    names = st.lists(st.text(min_size=1), min_size=n, max_size=n, unique=True)
    genes = data.draw(st.none() | names)
    series = StateSeries(field, data.draw(st.lists(state)), genes, display)
    path = tmp_path / "series.json"
    save_series(series, path)
    back = load_series(path)
    assert (back.field, back.states, back.genes, back.display) == (
        series.field, series.states, series.genes, series.display)


@round_trip_settings
@given(st.sampled_from(ENCODINGS), st.data())
def test_thresholds_file_round_trip(tmp_path, encoding, data):
    field, display = Field(encoding[0]), encoding[1]
    level = st.integers(0, field.order - 1)
    genes = []
    for _ in range(data.draw(st.integers(1, 3))):
        cuts = sorted(data.draw(st.lists(st.floats(-10, 10), max_size=3, unique=True)))
        band = data.draw(st.lists(level, min_size=len(cuts) + 1, max_size=len(cuts) + 1))
        equal = data.draw(st.lists(level, min_size=len(cuts), max_size=len(cuts)))
        genes.append(GeneThresholds(cuts, band, equal))
    eps = data.draw(st.floats(0, 1))
    tmap = ThresholdMap(field, genes, eps=eps, display=display)
    names = [f"g{j}" for j in range(len(genes))]
    path = tmp_path / "thresholds.json"
    save_thresholds(tmap, names, path)
    back = load_thresholds(path, names)
    assert (back.field, back.eps, back.display) == (field, eps, display)
    for got, want in zip(back.genes, genes):
        assert (got.thresholds, got.band_levels, got.equal_levels) == (
            want.thresholds, want.band_levels, want.equal_levels)


@round_trip_settings
@given(models(), st.data())
def test_rates_file_round_trip(tmp_path, m, data):
    slope = st.floats(-5, 5)
    rates = [{v: data.draw(slope) for v in values} for values in m.state_sets]
    policy = RatePolicy(rates, floor_at_zero=data.draw(st.booleans()))
    path = tmp_path / "rates.json"
    write_json(rates_to_dict(policy, m), path)
    back = load_rates(path, m)
    assert (back.rates, back.floor_at_zero) == (policy.rates, policy.floor_at_zero)


# -- the JSON writer -----------------------------------------------------------

json_leaves = (st.none() | st.booleans() | st.integers() | st.integers(-10**40, 10**40)
               | st.floats() | st.sampled_from([-0.0, 1e300, math.nan, math.inf, -math.inf])
               | st.text() | st.text(alphabet='[]{},: "\\\n\t\x00\x1f\x7fé☃𝄞'))
json_keys = (st.text(alphabet='[]{},: "\\\n\x01é☃ab') | st.integers() | st.floats()
             | st.booleans() | st.none())
json_values = st.recursive(
    json_leaves,
    lambda inner: (st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
                   | st.dictionaries(json_keys, inner, max_size=4)),
    max_leaves=30,
)


@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(json_values)
def test_write_json_is_the_stdlib_indented_dump(tmp_path, data):
    path = tmp_path / "out.json"
    path.unlink(missing_ok=True)
    try:
        want = json.dumps(data, indent=2, allow_nan=False) + "\n"
    except ValueError:  # a NaN or an infinity: nothing is written
        with pytest.raises(ValueError):
            write_json(data, path)
        assert not path.exists()
        return
    write_json(data, path)
    assert path.read_bytes() == want.encode("ascii")



@pytest.mark.parametrize("writer", [write_json, _report], ids=["write_json", "report"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, {"k": [1.0, math.nan]}])
def test_writers_refuse_nan_and_infinity(tmp_path, capsys, writer, value):
    path = tmp_path / "out.json"
    with pytest.raises(ValueError):
        writer({"v": value}, path)
    assert not path.exists() and capsys.readouterr().out == ""
    writer({"v": [1e308, -0.0]}, path)
    assert path.read_text() == '{\n  "v": [\n    1e+308,\n    -0.0\n  ]\n}\n'


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", math.nan, -math.inf])
def test_finite_names_the_input(value):
    with pytest.raises(ValueError, match=r"^threshold of gene 'g1' must be a finite number, not "):
        files.finite(value, "threshold of gene 'g1'")
    assert files.finite("-2.5e3", "x") == -2500.0


# -- display modes -------------------------------------------------------------


def test_unknown_display_rejected_in_series_and_thresholds():
    series = {"field": 3, "display": "bogus", "states": [[0, 1]]}
    with pytest.raises(ValueError, match="unknown display mode 'bogus'"):
        series_from_dict(series)
    thresholds = {"field": 3, "display": "bogus", "genes": {
        "g": {"levels": [{"threshold": 1.0, "below_level": 0}], "top_level": 1}}}
    with pytest.raises(ValueError, match="unknown display mode 'bogus'"):
        thresholds_from_dict(thresholds, ["g"])
    with pytest.raises(UnsupportedEncodingError):
        series_from_dict({**series, "field": 2, "display": "balanced"})
    with pytest.raises(UnsupportedEncodingError):
        thresholds_from_dict({**thresholds, "field": 4, "display": "balanced"}, ["g"])


def test_codec():
    gf3, gf5 = Field(3), Field(5)
    assert check_display(gf3, "balanced") == "balanced"
    with pytest.raises(UnsupportedEncodingError):
        check_display(Field(2), "balanced")
    assert [encode_level(gf5, "balanced", x) for x in (-2, -1, 0, 1, 2)] == [3, 4, 0, 1, 2]
    assert [decode_level(gf5, "balanced", v) for v in range(5)] == [0, 1, 2, -2, -1]
    assert decode_level(gf5, "canonical", 4) == 4
    for bad in (1.0, "1", True, None):
        with pytest.raises(ValueError, match="levels are integers"):
            encode_level(gf3, "canonical", bad)
    with pytest.raises(ValueError):
        encode_level(gf3, "balanced", 2)
