import json
import random

import pytest

from gsds import (
    DependencyGraph,
    Field,
    FieldMismatchError,
    GlobalMap,
    GsdsModel,
    ModelValidationError,
    apply_local,
    global_map,
    parallel_to_sequential,
    trajectory,
    validate_model,
)
from gsds.network import load_model, model_from_dict, model_to_dict, save_model
from gsds.polyring import Polynomial, iter_points, parse_poly

from conftest import build_example1, build_example3
from test_kernel import full_field_copy

GF2 = Field(2)
GF3 = Field(3)


def random_model(rng, field, n, max_terms=3):
    """A dense-graph model with random local polynomials and schedule."""
    polys = []
    for _ in range(n):
        terms = {
            tuple(rng.randint(0, field.order - 1) for _ in range(n)):
                rng.randint(1, field.order - 1)
            for _ in range(rng.randint(0, max_terms))
        }
        polys.append(Polynomial(field, n, terms))
    edges = {(a, b) for a in range(n) for b in range(n)}
    word = [rng.randrange(n) for _ in range(rng.randint(0, 8))]
    return GsdsModel(field, [f"g{j}" for j in range(n)],
                     DependencyGraph(n, edges), polys, word)


# -- graph ----------------------------------------------------------------


def test_neighborhood_is_symmetrized_with_self():
    g = DependencyGraph(3, {(0, 1), (2, 1)})
    assert g.neighborhood(0) == {0, 1}
    assert g.neighborhood(1) == {0, 1, 2}
    assert g.neighborhood(2) == {1, 2}


def test_graph_rejects_unknown_vertices():
    with pytest.raises(ValueError):
        DependencyGraph(2, {(0, 2)})


# -- validation ------------------------------------------------------------


def test_example1_is_valid(example1):
    assert validate_model(example1).valid


def test_locality_violation_when_edge_removed(example1):
    # without g0 -> g2 the third local still reads x1 (gene g0)
    weak = GsdsModel(
        example1.field,
        example1.genes,
        DependencyGraph(4, {(1, 3), (1, 2), (2, 3)}),
        example1.local_polys,
        example1.schedule,
    )
    report = validate_model(weak)
    assert not report.valid
    assert [(gene, var) for gene, var, _ in report.locality] == [(2, 1)]
    (gene, var, (s1, s2)) = report.locality[0]
    assert sum(a != b for a, b in zip(s1, s2)) == 1
    assert example1.local_polys[2].eval(s1) != example1.local_polys[2].eval(s2)


def test_example2_range_violation(example2):
    # the second coordinate takes the value 2 outside its {0,1} state set
    report = validate_model(example2)
    assert report.locality == []
    genes_with_range_issues = {gene for gene, _, _ in report.range}
    assert genes_with_range_issues == {1}
    assert any(
        state[0] == 1 and state[2] == 1 and value == 2
        for gene, state, value in report.range
    )


def test_validation_report_lines(example2):
    report = validate_model(example2)
    text = "\n".join(report.lines())
    assert "range" in text and "g2" in text


# -- local application -------------------------------------------------------


def test_apply_local_fourth_gene(example1):
    assert apply_local(example1, 3, (0, 1, 0, 0)) == (0, 1, 0, 1)


def test_apply_local_constant_gene(example1):
    for state in example1.iter_states():
        assert apply_local(example1, 0, state)[0] == 1
        assert apply_local(example1, 0, state)[1:] == state[1:]


def test_apply_local_identity_polynomial():
    m = GsdsModel(GF3, ["a", "b"], DependencyGraph(2, set()),
                  [parse_poly("x1", 2, GF3), parse_poly("x2", 2, GF3)], [0, 1])
    for state in m.iter_states():
        assert apply_local(m, 0, state) == state
        assert apply_local(m, 1, state) == state


def test_apply_local_changes_at_most_one_coordinate():
    rng = random.Random(3)
    for _ in range(20):
        m = random_model(rng, GF3, 3)
        for i in range(m.n):
            for state in m.iter_states():
                new = apply_local(m, i, state)
                assert all(new[j] == state[j] for j in range(m.n) if j != i)


def test_apply_local_rejects_outside_states(example1):
    with pytest.raises(ValueError):
        apply_local(example1, 0, (0, 0, 0, 2))


@pytest.mark.parametrize("gene", [-1, 4, 9])
def test_apply_local_rejects_genes_outside_the_model(example1, gene):
    with pytest.raises(ValueError, match="not a gene"):
        apply_local(example1, gene, (0, 0, 0, 0))


@pytest.mark.parametrize("entry", [1.0, True, "1", None])
def test_word_entries_must_be_ints(example1, entry):
    # 1.0 and True equal the gene index 1 but are not ints: the schedule of
    # a model and the word of a map refuse them with one ValueError each
    with pytest.raises(ValueError) as err:
        example1.replace(schedule=(0, entry))
    assert str(err.value) == f"schedule entry {entry!r} is not a gene index"
    with pytest.raises(ValueError) as err:
        GlobalMap(example1, (0, entry))
    assert str(err.value) == f"word entry {entry!r} is not a gene index"


# -- global map ---------------------------------------------------------------


def test_example1_composed_coordinates(example1):
    coords = global_map(example1).coordinate_polys()
    expected = [
        parse_poly(s, 4, GF2) for s in ("1", "1", "x1*x2", "x2*(x3+1)")
    ]
    assert list(coords) == expected


def test_example3_composed_coordinates(example3):
    coords = global_map(example3).coordinate_polys()
    expected = [
        parse_poly(s, 3, GF3) for s in ("x1 + x2", "x2", "x2 + x3")
    ]
    assert list(coords) == expected


def test_empty_word_is_identity():
    m = GsdsModel(GF3, ["a"], DependencyGraph(1, set()),
                  [parse_poly("x1 + 1", 1, GF3)], [])
    f = global_map(m)
    for state in m.iter_states():
        assert f(state) == state


def test_global_map_equals_fold_of_locals():
    rng = random.Random(17)
    for _ in range(25):
        m = random_model(rng, GF2, 3)
        f = global_map(m, validate=False)
        for state in m.iter_states():
            expected = state
            for i in m.schedule:
                expected = apply_local(m, i, expected)
            assert f(state) == expected


def test_global_map_requires_valid_model(example2):
    with pytest.raises(ModelValidationError):
        global_map(example2)


def test_parallel_model_global_map(example2):
    # example 2 leaves g2's levels, so its map is refused at first use
    with pytest.raises(ModelValidationError):
        global_map(example2, validate=False)((1, 0, 1))
    # all coordinates update simultaneously from the same input
    f = global_map(full_field_copy(example2), validate=False)
    for state in iter_points(GF3, 3):
        assert f(state) == tuple(p.eval(state) for p in example2.local_polys)


def test_global_map_rejects_states_of_the_wrong_length(example2, example3):
    for f in (global_map(example3), global_map(example2, validate=False)):
        for state in ((2, 1), (2, 1, 2, 0)):
            with pytest.raises(FieldMismatchError, match=f"point has {len(state)} coordinates"):
                f(state)


# -- trajectories ---------------------------------------------------------------


def test_example3_trajectory_cycles(example3):
    # balanced (-1,1,-1) is canonical (2,1,2)
    assert trajectory(example3, (2, 1, 2), 3) == [
        (2, 1, 2), (0, 1, 0), (1, 1, 1), (2, 1, 2),
    ]


def test_example1_trajectory(example1):
    assert trajectory(example1, (0, 0, 0, 0), 3) == [
        (0, 0, 0, 0), (1, 1, 0, 0), (1, 1, 1, 1), (1, 1, 1, 0),
    ]


def test_trajectory_zero_steps(example1):
    assert trajectory(example1, (0, 1, 0, 1), 0) == [(0, 1, 0, 1)]


def test_step_is_single_iteration(example3):
    assert global_map(example3)((2, 1, 2)) == (0, 1, 0)


def test_trajectory_rejects_outside_state(example3):
    with pytest.raises(ValueError):
        trajectory(example3, (3, 0, 0), 1)


# -- parallel <-> sequential ------------------------------------------------------


def test_doubling_single_increment_map():
    inc = parse_poly("x1 + 1", 1, GF3)
    m = parallel_to_sequential([inc])
    assert m.n == 2
    f = global_map(m)
    for v in range(3):
        image = f((v, 0))
        assert image[0] == (v + 1) % 3


def test_doubling_identity_map():
    polys = [parse_poly("x1", 2, GF3), parse_poly("x2", 2, GF3)]
    m = parallel_to_sequential(polys)
    f = global_map(m)
    for state in iter_points(GF3, 2):
        assert f(state + (0, 0))[:2] == state


def test_doubling_example3_map(example3):
    coords = global_map(example3).coordinate_polys()
    doubled = parallel_to_sequential(coords, genes=example3.genes)
    assert validate_model(doubled).valid
    f2 = global_map(doubled)
    f = global_map(example3)
    for state in iter_points(GF3, 3):
        assert f2(state + state)[:3] == f(state)


def test_doubling_random_round_trips():
    rng = random.Random(41)
    for trial in range(50):
        q = rng.choice([2, 3])
        n = rng.randint(1, 3)
        field = Field(q)
        polys = [
            Polynomial(
                field,
                n,
                {
                    tuple(rng.randint(0, q - 1) for _ in range(n)):
                        rng.randint(1, q - 1)
                    for _ in range(rng.randint(0, 3))
                },
            )
            for _ in range(n)
        ]
        doubled = parallel_to_sequential(polys)
        f = global_map(doubled)
        for state in iter_points(field, n):
            expected = tuple(p.eval(state) for p in polys)
            assert f(state + state)[:n] == expected


def test_sequential_to_parallel_and_back(example1):
    # composed coordinates, re-sequentialized by doubling, agree everywhere
    coords = global_map(example1).coordinate_polys()
    doubled = parallel_to_sequential(coords)
    f1 = global_map(example1)
    f2 = global_map(doubled)
    for state in example1.iter_states():
        assert f2(state + state)[:4] == f1(state)


# -- state indexing -----------------------------------------------------------------


def test_state_indexing_round_trip(example2):
    for idx in range(example2.state_count()):
        assert example2.state_index(example2.state_at(idx)) == idx
    states = list(example2.iter_states())
    assert len(states) == 18  # 3 * 2 * 3
    assert states == sorted(states)  # first gene most significant


def test_restricted_state_sets_validated():
    with pytest.raises(ValueError):
        GsdsModel(GF3, ["a"], DependencyGraph(1, set()),
                  [parse_poly("x1", 1, GF3)], [0], state_sets=[()])


def test_duplicate_levels_rejected():
    with pytest.raises(ValueError, match="duplicate"):
        GsdsModel(GF3, ["a"], DependencyGraph(1, set()),
                  [parse_poly("x1", 1, GF3)], [0], state_sets=[(0, 0, 1)])
    d = {"field": 3, "genes": ["a", "b"], "states": {"a": [0, 0, 1]},
         "locals": {"a": "x1", "b": "x2"}, "schedule": None}
    with pytest.raises(ValueError, match="duplicate"):
        model_from_dict(d)


# -- model files ----------------------------------------------------------------------


def test_model_file_round_trip(tmp_path, example3):
    path = tmp_path / "model.json"
    save_model(example3, path)
    loaded = load_model(path)
    assert loaded.genes == example3.genes
    assert loaded.local_polys == example3.local_polys
    assert loaded.schedule == example3.schedule
    assert loaded.graph == example3.graph
    assert loaded.display == "balanced"


def test_model_dict_balanced_states():
    m = build_example3()
    d = model_to_dict(m)
    assert d["schedule"] == ["g1", "g2", "g3"]
    assert d["display"] == "balanced"
    assert "states" not in d  # full field is the default
    m2 = model_from_dict(d)
    assert m2.local_polys == m.local_polys


def test_model_dict_parallel_schedule_is_null(example2):
    d = model_to_dict(example2)
    assert d["schedule"] is None
    assert d["states"]["g2"] == [0, 1]
    m2 = model_from_dict(d)
    assert m2.parallel
    assert m2.state_sets == example2.state_sets


def test_model_dict_unknown_schedule_gene():
    d = model_to_dict(build_example1())
    d["schedule"] = ["g0", "nope"]
    with pytest.raises(ModelValidationError) as err:
        model_from_dict(d)
    assert err.value.report.schedule == [(1, "nope")]


def test_model_dict_unknown_edge_gene():
    d = model_to_dict(build_example1())
    d["edges"].append(["g0", "wat"])
    with pytest.raises(ValueError):
        model_from_dict(d)


def test_model_dict_version_check():
    d = model_to_dict(build_example1())
    d["format_version"] = 99
    with pytest.raises(ValueError):
        model_from_dict(d)


def test_example2_model_file_round_trip(tmp_path, example2):
    path = tmp_path / "fsm.json"
    save_model(example2, path)
    m = load_model(path)
    assert (m.state_sets, m.local_polys, m.graph) == (
        example2.state_sets, example2.local_polys, example2.graph)
    f1 = global_map(full_field_copy(example2), validate=False)
    f2 = global_map(full_field_copy(m), validate=False)
    for state in iter_points(GF3, 3):
        assert f1(state) == f2(state)


def test_locals_in_file_use_polynomial_syntax(tmp_path, example1):
    path = tmp_path / "m.json"
    save_model(example1, path)
    raw = json.loads(path.read_text())
    assert raw["locals"]["g2"] == "x1*x2"
    assert raw["locals"]["g3"] == "x2*x3 + x2"
