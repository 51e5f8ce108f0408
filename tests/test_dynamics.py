import itertools
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gsds import (
    DependencyGraph,
    Field,
    GsdsModel,
    StateSpaceLimitError,
    compare_schedules,
    cycles,
    fixed_points,
    global_map,
    phase_portrait,
    schedule_scan,
)
from gsds.dynamics import attractor_summary_dot, portrait_report, transitions_dot
from gsds.polyring import Polynomial, parse_poly, table_poly

from conftest import build_example1, build_example3
from oracles import oracle_phase_portrait, oracle_transitions_dot

GF2 = Field(2)
GF3 = Field(3)


def brute_portrait(model):
    """Independent oracle: walk every orbit with plain set bookkeeping."""
    f = global_map(model, validate=False)
    states = list(model.iter_states())
    succ = {s: f(s) for s in states}
    cycle_sets = set()
    cycle_lookup = {}
    for s in states:
        seen = set()
        cur = s
        while cur not in seen and cur not in cycle_lookup:
            seen.add(cur)
            cur = succ[cur]
        if cur not in cycle_lookup:
            cyc = [cur]
            nxt = succ[cur]
            while nxt != cur:
                cyc.append(nxt)
                nxt = succ[nxt]
            group = frozenset(cyc)
            cycle_sets.add(group)
            for x in cyc:
                cycle_lookup[x] = group
    attractor_of = {}
    transient = {}
    for s in states:
        steps = 0
        cur = s
        while cur not in cycle_lookup:
            cur = succ[cur]
            steps += 1
        transient[s] = steps
        attractor_of[s] = cycle_lookup[cur]
    return succ, cycle_sets, attractor_of, transient


def identity_model(field, n):
    polys = [Polynomial.variable(field, n, j + 1) for j in range(n)]
    return GsdsModel(field, [f"g{j}" for j in range(n)],
                     DependencyGraph(n, set()), polys, list(range(n)))


# -- portraits --------------------------------------------------------------


def test_example1_portrait():
    p = phase_portrait(build_example1())
    assert p.cycles() == [[(1, 1, 1, 0)]]
    assert p.max_transient() == 3
    assert p.basin_sizes() == [16]


def test_example3_portrait_contains_the_three_cycle():
    p = phase_portrait(build_example3())
    assert [(2, 1, 2), (0, 1, 0), (1, 1, 1)] in [
        c for c in p.cycles() if len(c) == 3
    ] or [(0, 1, 0), (1, 1, 1), (2, 1, 2)] in p.cycles()


def test_identity_model_portrait():
    m = identity_model(GF3, 1)
    p = phase_portrait(m)
    assert len(p.attractors) == 3
    assert p.max_transient() == 0
    assert p.fixed_points() == [(0,), (1,), (2,)]


def test_portrait_matches_brute_force_oracle():
    rng = random.Random(37)
    for _ in range(15):
        n = rng.randint(1, 3)
        field = Field(rng.choice([2, 3]))
        polys = [
            Polynomial(
                field,
                n,
                {
                    tuple(rng.randint(0, field.order - 1) for _ in range(n)):
                        rng.randint(1, field.order - 1)
                    for _ in range(rng.randint(0, 3))
                },
            )
            for _ in range(n)
        ]
        edges = {(a, b) for a in range(n) for b in range(n)}
        word = [rng.randrange(n) for _ in range(rng.randint(0, 6))]
        m = GsdsModel(field, [f"g{j}" for j in range(n)],
                      DependencyGraph(n, edges), polys, word)
        p = phase_portrait(m)
        succ, cyc_sets, attr_state, transient = brute_portrait(m)
        # successor array
        for i, s in enumerate(m.iter_states()):
            assert m.state_at(p.successor[i]) == succ[s]
        # attractor cycles as sets
        assert {frozenset(m.state_at(i) for i in c) for c in p.attractors} == cyc_sets
        # transients and basins
        for i, s in enumerate(m.iter_states()):
            assert p.transient[i] == transient[s]
            cycle_states = frozenset(
                m.state_at(j) for j in p.attractors[p.basin[i]]
            )
            assert cycle_states == attr_state[s]


@st.composite
def functional_graphs(draw):
    """Successor lists on 1 to 101 states: random maps, permutations
    (cycles only, often many) and a path through every state that closes
    onto itself, a long tail into one cycle or a self-loop."""
    n = draw(st.integers(1, 101))
    kind = draw(st.sampled_from(["map", "permutation", "path"]))
    if kind == "map":
        return draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    order = draw(st.permutations(range(n)))
    if kind == "permutation":
        return order
    successor = [0] * n
    for a, b in zip(order, order[1:]):
        successor[a] = b
    successor[order[-1]] = order[draw(st.integers(0, n - 1))]
    return successor


def map_model(successor):
    """A one-gene GF(101) model whose map on the levels 0..len-1 is the
    successor list."""
    field = Field(101)
    poly = table_poly(field, 1, {(x,): y for x, y in enumerate(successor)})
    return GsdsModel(field, ["g"], DependencyGraph(1, set()), [poly], None,
                     state_sets=[range(len(successor))])


@settings(max_examples=150, deadline=None)
@given(functional_graphs())
def test_portrait_matches_the_reference_traversal(successor):
    p = phase_portrait(map_model(successor))
    attractors, transient, basin = oracle_phase_portrait(successor)
    assert p.successor == successor
    assert (p.attractors, p.transient, p.basin) == (attractors, transient, basin)
    assert p.basin_sizes() == [basin.count(a) for a in range(len(attractors))]
    assert p.transient_histogram() == [
        (t, transient.count(t)) for t in sorted(set(transient))]


def test_portrait_invariants():
    p = phase_portrait(build_example3())
    n = p.state_count
    assert sum(p.basin_sizes()) == n
    for cycle in p.attractors:
        for i in cycle:
            assert p.transient[i] == 0
    for i in range(n):
        if p.transient[i] > 0:
            assert p.transient[i] == 1 + p.transient[p.successor[i]]
    # attractors sorted by minimal state index, rotated to start there
    mins = [c[0] for c in p.attractors]
    assert mins == sorted(mins)
    for c in p.attractors:
        assert c[0] == min(c)


def test_portrait_state_space_limit():
    with pytest.raises(StateSpaceLimitError):
        phase_portrait(build_example1(), limit=8)


def test_fixed_points_and_cycles_projections():
    m = build_example3()
    assert (0, 0, 0) in fixed_points(m)
    assert all(len(c) in (1, 3) for c in cycles(m))


def test_example1_unique_fixed_point():
    assert fixed_points(build_example1()) == [(1, 1, 1, 0)]


def test_constant_map_fixed_point():
    m = GsdsModel(GF3, ["a"], DependencyGraph(1, set()),
                  [parse_poly("2", 1, GF3)], [0])
    assert fixed_points(m) == [(2,)]


# -- schedule comparison -------------------------------------------------------


def test_example1_schedule_orders_differ():
    m = build_example1()
    witness = compare_schedules(m, (3, 2, 1, 0), (0, 1, 2, 3))
    assert witness is not None
    # reversed order gives the constant map onto the fixed point
    f_rev = lambda s: _fold(m, (0, 1, 2, 3), s)
    assert {f_rev(s) for s in m.iter_states()} == {(1, 1, 1, 0)}
    # the witness is minimal in state order
    for s in m.iter_states():
        if s == witness:
            break
        assert _fold(m, (3, 2, 1, 0), s) == f_rev(s)


def _fold(model, word, state):
    for i in word:
        value = model.local_polys[i].eval(state)
        state = state[:i] + (value,) + state[i + 1 :]
    return state


def test_schedule_compared_to_itself():
    m = build_example1()
    assert compare_schedules(m, (3, 2, 1, 0), (3, 2, 1, 0)) is None


def test_non_interacting_vertices_commute():
    m = GsdsModel(GF2, ["a", "b"], DependencyGraph(2, set()),
                  [parse_poly("x1 + 1", 2, GF2), parse_poly("x2 + 1", 2, GF2)],
                  [0, 1])
    assert compare_schedules(m, (0, 1), (1, 0)) is None


def test_compare_schedules_rejects_bad_word():
    with pytest.raises(ValueError):
        compare_schedules(build_example1(), (0, 9), (0, 1))


@st.composite
def models_with_words(draw):
    """A small model over GF(2)..GF(5) with restricted state sets that its
    polynomials may leave, and schedule words with repeated and omitted
    genes."""
    field = Field(draw(st.sampled_from([2, 3, 4, 5])))
    q = field.order
    n = draw(st.integers(1, 4))
    levels = st.lists(st.integers(0, q - 1), min_size=1, max_size=q, unique=True)
    exps = st.tuples(*[st.integers(0, q - 1)] * n)
    polys = [
        Polynomial(field, n, draw(st.dictionaries(exps, st.integers(1, q - 1), max_size=3)))
        for _ in range(n)
    ]
    m = GsdsModel(field, [f"g{j}" for j in range(n)], DependencyGraph(n, set()),
                  polys, None, state_sets=[draw(levels) for _ in range(n)])
    word = st.lists(st.integers(0, n - 1), max_size=2 * n)
    return m, draw(st.lists(word, min_size=2, max_size=5))


@settings(max_examples=150, deadline=None)
@given(models_with_words())
def test_schedule_comparison_matches_fold(case):
    m, words = case
    states = list(m.iter_states())

    def classes(word_list):
        out = {}
        for w in word_list:
            out.setdefault(tuple(_fold(m, w, s) for s in states), []).append(tuple(w))
        return list(out.values())

    assert schedule_scan(m, words) == classes(words)
    assert schedule_scan(m) == classes(itertools.permutations(range(m.n)))
    first = next((s for s in states
                  if _fold(m, words[0], s) != _fold(m, words[1], s)), None)
    assert compare_schedules(m, words[0], words[1]) == first


# -- schedule scan ----------------------------------------------------------------


def test_example1_permutation_classes():
    classes = schedule_scan(build_example1())
    assert sum(len(c) for c in classes) == 24
    assert len(classes) >= 2


def test_edgeless_graph_single_class():
    m = GsdsModel(
        GF2,
        ["a", "b", "c"],
        DependencyGraph(3, set()),
        [parse_poly(f"x{j} + 1", 3, GF2) for j in (1, 2, 3)],
        [0, 1, 2],
    )
    classes = schedule_scan(m)
    assert len(classes) == 1
    assert len(classes[0]) == 6


def test_single_vertex_single_class():
    m = GsdsModel(GF3, ["a"], DependencyGraph(1, set()),
                  [parse_poly("x1 + 1", 1, GF3)], [0])
    assert len(schedule_scan(m)) == 1


def test_schedule_scan_explicit_words():
    m = build_example1()
    classes = schedule_scan(m, words=[(3, 2, 1, 0), (0, 1, 2, 3), (3, 2, 1, 0)])
    assert [len(c) for c in classes] == [2, 1]
    assert classes[0][0] == (3, 2, 1, 0)


def test_schedule_scan_vertex_limit():
    m = identity_model(GF2, 3)
    with pytest.raises(StateSpaceLimitError):
        schedule_scan(m, vertex_limit=2)


# -- reports -----------------------------------------------------------------------


def test_portrait_report_shape():
    p = phase_portrait(build_example1())
    report = portrait_report(p)
    assert report["state_count"] == 16
    assert report["attractor_count"] == 1
    assert report["max_transient"] == 3
    assert report["attractors"][0]["states"] == [[1, 1, 1, 0]]
    assert report["attractors"][0]["basin_size"] == 16
    assert sum(c for _, c in report["transient_histogram"]) == 16


def test_portrait_report_balanced_display():
    p = phase_portrait(build_example3())
    report = portrait_report(p)
    flat = [v for a in report["attractors"] for s in a["states"] for v in s]
    assert -1 in flat and 2 not in flat


def test_transitions_dot_output():
    p = phase_portrait(build_example3())
    dot = "".join(transitions_dot(p))
    assert dot.startswith("digraph transitions {")
    assert '"(-1,1,-1)" -> "(0,1,0)";' in dot
    assert '"(-1,1,-1)" [shape=doublecircle];' in dot
    assert dot.count("->") == 27
    assert dot == oracle_transitions_dot(p)


def test_transitions_dot_one_balanced_gene():
    gf5 = Field(5)
    m = GsdsModel(gf5, ["g"], DependencyGraph(1, set()), [parse_poly("2*x1 + 1", 1, gf5)],
                  None, display="balanced")
    p = phase_portrait(m)
    dot = "".join(transitions_dot(p))
    assert dot == oracle_transitions_dot(p)
    assert '"(-1)" [shape=doublecircle];' in dot and '"(-1)" -> "(-1)";' in dot


def test_transitions_dot_is_written_in_bounded_blocks(tmp_path):
    # GF(2)^16 rotation: every state lies on a cycle, so both the double
    # circles and the edges span 2^16 lines, about 9 MB of text
    n = 16
    m = GsdsModel(GF2, [f"g{i}" for i in range(n)],
                  DependencyGraph(n, {((i + 1) % n, i) for i in range(n)}),
                  [parse_poly(f"x{(i + 1) % n + 1}", n, GF2) for i in range(n)], None)
    p = phase_portrait(m)
    tracemalloc.start()
    try:
        with open(tmp_path / "t.dot", "w") as fh:
            fh.writelines(transitions_dot(p))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    text = (tmp_path / "t.dot").read_text()
    assert text.count("\n") == 2 * 2**n + 3
    assert peak < len(text) / 10


def test_attractor_summary_dot_output():
    p = phase_portrait(build_example1())
    dot = attractor_summary_dot(p)
    assert "attractor 0: length 1, basin 16" in dot
    assert '"(1,1,1,0)" -> "(1,1,1,0)"' in dot


def test_reports_are_deterministic_across_runs():
    m = build_example3()
    outputs = []
    for _ in range(3):
        p = phase_portrait(m)
        outputs.append((portrait_report(p), "".join(transitions_dot(p)),
                        attractor_summary_dot(p)))
    assert outputs[0] == outputs[1] == outputs[2]
