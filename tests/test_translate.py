import json
import math
import random

import pytest

from gsds import (
    Field,
    GeneThresholds,
    ThresholdMap,
    check_translated,
    discretize,
    discretize_series,
    global_map,
    search_compatible_thresholds,
)
from gsds.translate import (
    candidate_thresholds,
    default_level_scheme,
    load_thresholds,
    save_thresholds,
    thresholds_from_dict,
    thresholds_to_dict,
)

from conftest import EX3_ROWS, build_ex3_thresholds, build_example3

GF2 = Field(2)
GF3 = Field(3)


# -- threshold maps ----------------------------------------------------------


def test_thresholds_must_increase():
    with pytest.raises(ValueError):
        GeneThresholds([1.0, 1.0], [0, 1, 2], [0, 0])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_thresholds_and_eps_must_be_finite(bad):
    # a NaN threshold used to pass the order check and send 0.5 to level 0
    with pytest.raises(ValueError) as err:
        GeneThresholds([0.5, bad], [0, 1, 1])
    assert str(err.value) == f"a threshold must be a finite number, not {bad}"
    with pytest.raises(ValueError) as err:
        ThresholdMap(GF2, [GeneThresholds([1.0], [0, 1])], eps=bad)
    assert str(err.value) == f"eps must be a finite number, not {bad}"


def test_level_counts_checked():
    with pytest.raises(ValueError):
        GeneThresholds([1.0], [0], [0])
    with pytest.raises(ValueError):
        GeneThresholds([1.0], [0, 1], [0, 1])


def test_equal_levels_default_to_the_band_above():
    g = GeneThresholds([1.0], [0, 1])
    assert g.classify(1.0) == 1
    assert g.classify(0.5) == 0


def test_levels_checked_against_field():
    with pytest.raises(ValueError):
        ThresholdMap(GF2, [GeneThresholds([1.0], [0, 2], [1])])


# -- discretization ----------------------------------------------------------


def test_microarray_first_sample(ex3_thresholds):
    # canonical 2 displays as -1 in the balanced encoding
    assert discretize(ex3_thresholds, (0.5, 1.2, 0.5)) == (2, 1, 2)


def test_microarray_on_threshold_sample(ex3_thresholds):
    assert discretize(ex3_thresholds, (0.78, 1.2, 1.25)) == (0, 1, 0)


def test_all_on_threshold(ex3_thresholds):
    assert discretize(ex3_thresholds, (0.78, 0.75, 1.25)) == (0, 0, 0)


def test_discretize_series_microarray(ex3_thresholds):
    assert discretize_series(ex3_thresholds, EX3_ROWS) == [
        (2, 1, 2), (0, 1, 0), (1, 1, 1), (2, 1, 2),
    ]


def test_discretize_single_sample(ex3_thresholds):
    assert discretize_series(ex3_thresholds, [EX3_ROWS[0]]) == [(2, 1, 2)]


def test_discretize_series_collapse(ex3_thresholds):
    constant = [EX3_ROWS[0]] * 4
    assert len(discretize_series(ex3_thresholds, constant)) == 4
    assert discretize_series(ex3_thresholds, constant, collapse=True) == [(2, 1, 2)]


def test_discretize_is_monotone_per_gene(ex3_thresholds):
    rng = random.Random(19)
    for _ in range(200):
        a = tuple(rng.uniform(0, 2) for _ in range(3))
        b = tuple(v + rng.uniform(0.01, 1) for v in a)
        # skip near-threshold values; bands are compared in balanced order
        def near(c):
            return any(
                abs(c[j] - t) <= 1e-6
                for j in range(3)
                for t in ex3_thresholds.genes[j].thresholds
            )
        if near(a) or near(b):
            continue
        balanced = lambda s: [v - 3 if v > 1 else v for v in s]
        assert all(
            x <= y
            for x, y in zip(
                balanced(discretize(ex3_thresholds, a)),
                balanced(discretize(ex3_thresholds, b)),
            )
        )


def test_discretize_stable_under_small_perturbation(ex3_thresholds):
    rng = random.Random(31)
    eps = ex3_thresholds.eps
    for _ in range(100):
        c = tuple(rng.uniform(0, 2) for _ in range(3))
        if any(
            abs(c[j] - t) <= 2 * eps
            for j in range(3)
            for t in ex3_thresholds.genes[j].thresholds
        ):
            continue
        moved = tuple(v + rng.choice([-1, 1]) * eps / 3 for v in c)
        assert discretize(ex3_thresholds, c) == discretize(ex3_thresholds, moved)


def test_discretize_arity_checked(ex3_thresholds):
    with pytest.raises(Exception):
        discretize(ex3_thresholds, (0.5, 0.5))


# -- translation checks ----------------------------------------------------------


def test_microarray_data_commutes_with_the_global_map(ex3_thresholds):
    f = global_map(build_example3())
    pairs = list(zip(EX3_ROWS, EX3_ROWS[1:]))
    outcome = check_translated(f, pairs, ex3_thresholds)
    assert outcome.compatible
    assert outcome.checked == 3


def test_identity_map_fails_on_microarray_data(ex3_thresholds):
    identity = lambda s: s
    pairs = list(zip(EX3_ROWS, EX3_ROWS[1:]))
    outcome = check_translated(identity, pairs, ex3_thresholds)
    assert not outcome.compatible
    idx, state, expected, actual = outcome.counterexamples[0]
    assert idx == 0
    assert state == (2, 1, 2)
    assert expected == (2, 1, 2)
    assert actual == (0, 1, 0)


def test_empty_pairs_vacuously_compatible(ex3_thresholds):
    outcome = check_translated(lambda s: s, [], ex3_thresholds)
    assert outcome.compatible and outcome.checked == 0


# -- threshold search ---------------------------------------------------------------


def test_candidate_grid_contents():
    grid = candidate_thresholds([0.5, 0.78, 1.5, 0.5])
    assert 0.78 in grid  # observed values anchor the "equal" band
    assert 0.64 in grid  # midpoint of 0.5 and 0.78
    assert grid[0] < 0.5 and grid[-1] > 1.5  # flanking candidates
    assert grid == sorted(grid)


def test_search_explicit_grid_recovers_known_thresholds():
    f = global_map(build_example3())
    found = search_compatible_thresholds(
        EX3_ROWS,
        f,
        candidate_grid=[[0.78], [0.75], [1.25]],
        field=GF3,
    )
    assert len(found) == 1
    assert [g.thresholds[0] for g in found[0].genes] == [0.78, 0.75, 1.25]
    assert found[0].genes[0].band_levels == (2, 1)
    assert found[0].genes[0].equal_levels == (0,)


def test_search_default_grid_finds_compatible_maps():
    f = global_map(build_example3())
    found = search_compatible_thresholds(EX3_ROWS, f, field=GF3)
    assert found
    vectors = [tuple(g.thresholds[0] for g in tm.genes) for tm in found]
    assert vectors == sorted(vectors)  # deterministic lexicographic order
    assert any(v[0] == 0.78 for v in vectors)
    for tm in found:
        assert check_translated(f, list(zip(EX3_ROWS, EX3_ROWS[1:])), tm).compatible


def test_search_constant_series_identity_accepts_every_candidate():
    samples = [(1.0,), (1.0,), (1.0,)]
    found = search_compatible_thresholds(samples, lambda s: s, field=GF3)
    assert len(found) == len(candidate_thresholds([1.0]))


def test_search_impossible_transition_yields_nothing():
    # under the increment map the series s0 -> s1 -> s0 would need
    # s0 = s0 + 2 in GF(3); no discretization can make that commute
    samples = [(0.2,), (0.8,), (0.2,)]
    f = lambda s: ((s[0] + 1) % 3,)
    found = search_compatible_thresholds(samples, f, field=GF3)
    assert found == []


def test_search_needs_enough_samples():
    with pytest.raises(ValueError):
        search_compatible_thresholds([(1.0,)], lambda s: s, field=GF3)


def test_search_rejects_empty_explicit_grid():
    with pytest.raises(ValueError):
        search_compatible_thresholds(
            [(1.0,), (2.0,)], lambda s: s, candidate_grid=[[]], field=GF3
        )


def test_default_level_scheme():
    assert default_level_scheme(GF3) == (2, 0, 1)
    assert default_level_scheme(GF2) == (0, 1, 1)


# -- threshold files -------------------------------------------------------------------


def test_threshold_file_round_trip(tmp_path, ex3_thresholds):
    path = tmp_path / "thresholds.json"
    save_thresholds(build_ex3_thresholds("balanced"), ["g1", "g2", "g3"], path)
    raw = json.loads(path.read_text())
    assert raw["genes"]["g1"]["levels"][0] == {
        "threshold": 0.78, "below_level": -1, "equal_level": 0,
    }
    assert raw["genes"]["g1"]["top_level"] == 1
    loaded, names = load_thresholds(path)
    assert names == ["g1", "g2", "g3"]
    for got, want in zip(loaded.genes, ex3_thresholds.genes):
        assert got.thresholds == want.thresholds
        assert got.band_levels == want.band_levels
        assert got.equal_levels == want.equal_levels


def test_threshold_dict_missing_gene():
    d = thresholds_to_dict(build_ex3_thresholds(), ["g1", "g2", "g3"])
    with pytest.raises(ValueError):
        thresholds_from_dict(d, ["g1", "nope"])


def test_threshold_dict_version_check():
    d = thresholds_to_dict(build_ex3_thresholds(), ["g1", "g2", "g3"])
    d["format_version"] = 2
    with pytest.raises(ValueError):
        thresholds_from_dict(d)


def test_balanced_threshold_file_saves_back_unchanged(tmp_path):
    # the levels are written in the map's own display, so a balanced file
    # loaded and saved again keeps its levels and its "display" key
    path, again = tmp_path / "th.json", tmp_path / "again.json"
    levels = {"levels": [{"threshold": 0.78, "below_level": -1, "equal_level": 0}],
              "top_level": 1}
    path.write_text(json.dumps({"format_version": 1, "field": 3, "display": "balanced",
                                "genes": {"g1": levels, "g2": levels}}, indent=2) + "\n")
    tmap, names = load_thresholds(path)
    save_thresholds(tmap, names, again)
    assert again.read_text() == path.read_text()


@pytest.mark.parametrize("call, message", [
    (lambda: candidate_thresholds([]), "no observed values to build candidates from"),
    (lambda: search_compatible_thresholds([(0.0,), (1.0,)], tuple, [[0.5], [0.5]], field=GF2),
     "need 1 candidate lists, got 2"),
    (lambda: search_compatible_thresholds([(0.0, 0.0), (1.0, 1.0)], tuple,
                                          [range(1025)] * 2, field=GF2),
     "1050625 threshold combinations exceed the search limit"),
], ids=["no-values", "grid-count", "search-limit"])
def test_search_error_messages(call, message):
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value) == message
