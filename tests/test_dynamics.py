import itertools
import json
import random
import tracemalloc
from collections import Counter
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gsds import (
    DependencyGraph,
    Field,
    GsdsModel,
    ModelValidationError,
    StateSpaceLimitError,
    compare_schedules,
    global_map,
    phase_portrait,
    schedule_scan,
    validate_model,
)
from gsds import dynamics
from gsds.dynamics import (
    _LABELS,
    _LEVELS,
    _TEXT,
    _states_at,
    attractor_summary_dot,
    portrait_report,
    transitions_dot,
)
from gsds.polyring import Polynomial, parse_poly, table_poly, table_polys

from conftest import build_example1, build_example3
from oracles import (
    oracle_marker_portrait,
    oracle_phase_portrait,
    oracle_portrait_report,
    oracle_transitions_dot,
)

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
        # basin sizes and the transient histogram
        sizes = Counter(attr_state.values())
        assert p.basin_sizes() == [
            sizes[frozenset(m.state_at(i) for i in c)] for c in p.attractors]
        assert p.transient_histogram() == sorted(Counter(transient.values()).items())


@st.composite
def functional_graphs(draw):
    """Successor lists on 1 to 101 states: random maps, constant maps,
    the identity, permutations (cycles only, often many) and a path
    through every state that closes onto itself, a long tail into one
    cycle or a self-loop."""
    n = draw(st.integers(1, 101))
    kind = draw(st.sampled_from(["map", "constant", "identity", "permutation", "path"]))
    if kind == "map":
        return draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    if kind == "constant":
        return [draw(st.integers(0, n - 1))] * n
    if kind == "identity":
        return list(range(n))
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
    assert list(p.successor) == successor
    assert p.attractors == attractors
    assert p.basin_sizes() == [basin.count(a) for a in range(len(attractors))]
    assert p.transient_histogram() == [
        (t, transient.count(t)) for t in sorted(set(transient))]


@settings(max_examples=150, deadline=None)
@given(functional_graphs())
def test_image_traversal_matches_the_marker_walk_over_every_state(successor):
    p = phase_portrait(map_model(successor))
    attractors, transient, basin, sizes, histogram = oracle_marker_portrait(successor)
    assert p.attractors == attractors
    assert (p.basin_sizes(), p.transient_histogram()) == (sizes, histogram)
    assert p.max_transient() == max(transient)


def test_portrait_invariants():
    p = phase_portrait(build_example3())
    n = p.state_count
    assert sum(p.basin_sizes()) == n
    # a state's transient is the number of successor steps to a cycle state
    on_cycle = set(itertools.chain.from_iterable(p.attractors))
    transients = Counter()
    for i in range(n):
        steps = 0
        while i not in on_cycle:
            i, steps = p.successor[i], steps + 1
        transients[steps] += 1
    assert p.transient_histogram() == sorted(transients.items())
    assert transients[0] == len(on_cycle)
    # attractors sorted by minimal state index, rotated to start there
    mins = [c[0] for c in p.attractors]
    assert mins == sorted(mins)
    for c in p.attractors:
        assert c[0] == min(c)


def test_portrait_state_space_limit():
    with pytest.raises(StateSpaceLimitError):
        phase_portrait(build_example1(), limit=8)


def test_fixed_points_and_cycles_projections():
    p = phase_portrait(build_example3())
    assert (0, 0, 0) in p.fixed_points()
    assert all(len(c) in (1, 3) for c in p.cycles())


def test_example1_unique_fixed_point():
    assert phase_portrait(build_example1()).fixed_points() == [(1, 1, 1, 0)]


def test_constant_map_fixed_point():
    m = GsdsModel(GF3, ["a"], DependencyGraph(1, set()),
                  [parse_poly("2", 1, GF3)], [0])
    assert phase_portrait(m).fixed_points() == [(2,)]


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
    for words in (((0, 9), (0, 1)), ((0, 1), (-1,))):
        with pytest.raises(ValueError, match="is not a gene index"):
            compare_schedules(build_example1(), *words)
    with pytest.raises(ValueError, match="is not a gene index"):
        schedule_scan(build_example1(), [(0, 1), (4,)])


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
    if validate_model(m).range:  # the maps leave the state space
        for scan in (lambda: schedule_scan(m, words), lambda: schedule_scan(m),
                     lambda: compare_schedules(m, words[0], words[1])):
            with pytest.raises(ModelValidationError):
                scan()
        return
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


def test_schedule_scan_vertex_limit(monkeypatch):
    # the limit is read at call time, so patching the constant lowers it
    monkeypatch.setattr(dynamics, "DEFAULT_PERM_VERTEX_LIMIT", 2)
    m = identity_model(GF2, 3)
    with pytest.raises(StateSpaceLimitError, match=r"^3! permutations exceed the vertex limit 2$"):
        schedule_scan(m)


def test_schedule_scan_refuses_nine_genes_before_enumerating(monkeypatch):
    assert dynamics.DEFAULT_PERM_VERTEX_LIMIT == 8
    monkeypatch.setattr(dynamics, "GlobalMap", mock.Mock(side_effect=AssertionError("map built")))
    with pytest.raises(StateSpaceLimitError) as err:
        schedule_scan(identity_model(GF2, 9))
    assert str(err.value) == "9! permutations exceed the vertex limit 8"


# -- reports -----------------------------------------------------------------------


def test_portrait_report_shape():
    p = phase_portrait(build_example1())
    report = json.loads("".join(portrait_report(p)))
    assert report["state_count"] == 16
    assert report["attractor_count"] == 1
    assert report["max_transient"] == 3
    assert report["attractors"][0]["states"] == [[1, 1, 1, 0]]
    assert report["attractors"][0]["basin_size"] == 16
    assert sum(c for _, c in report["transient_histogram"]) == 16


def test_portrait_report_balanced_display():
    p = phase_portrait(build_example3())
    report = json.loads("".join(portrait_report(p)))
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


@st.composite
def decode_cases(draw):
    """A model over GF(2), GF(3), GF(4) or GF(5), each gene on a random
    nonempty subset of the levels, balanced where the field allows, large
    enough at full state sets to split its genes into head and tail; and
    state indices that include the first and the last."""
    q = draw(st.sampled_from([2, 3, 4, 5]))
    field, n = Field(q), draw(st.integers(0, {2: 12, 3: 8, 4: 6, 5: 6}[q]))
    sets = [draw(st.sets(st.integers(0, q - 1), min_size=1)) for _ in range(n)]
    display = draw(st.sampled_from(["canonical", "balanced"])) if q in (3, 5) else "canonical"
    model = GsdsModel(field, [f"g{i}" for i in range(n)], DependencyGraph(n, set()),
                      [Polynomial(field, n, {})] * n, None, state_sets=sets, display=display)
    last = model.state_count() - 1
    return model, [0, last] + draw(st.lists(st.integers(0, last), max_size=40))


@settings(max_examples=150, deadline=None)
@given(decode_cases())
def test_bulk_decode_matches_state_at(case):
    model, indices = case
    states = [model.state_at(i) for i in indices]
    assert _states_at(model, indices, _LEVELS) == states
    assert _states_at(model, indices, _TEXT) == [  # as the report indents a state
        json.dumps(model.decode_state(s), indent=2).replace("\n", "\n        ") for s in states]
    assert _states_at(model, indices, _LABELS) == [f'"{model.format_state(s)}"' for s in states]


def test_reports_are_deterministic_across_runs():
    m = build_example3()
    outputs = []
    for _ in range(3):
        p = phase_portrait(m)
        outputs.append(("".join(portrait_report(p)), "".join(transitions_dot(p)),
                        attractor_summary_dot(p)))
    assert outputs[0] == outputs[1] == outputs[2]


@st.composite
def report_cases(draw):
    """A valid model over GF(2), GF(3), GF(4) or GF(5) with 0 to 6 genes,
    each on a random nonempty subset of the levels, balanced where the
    field allows, with gene names that JSON must escape; its map sends
    each state to a random state or permutes the states (cycles only,
    often long ones).  And a block size of 1 to 3 states, or the default."""
    q = draw(st.sampled_from([2, 3, 4, 5]))
    field, n = Field(q), draw(st.integers(0, {2: 6, 3: 4, 4: 3, 5: 3}[q]))
    sets = [sorted(draw(st.sets(st.integers(0, q - 1), min_size=1))) for _ in range(n)]
    display = draw(st.sampled_from(["canonical", "balanced"])) if q in (3, 5) else "canonical"
    names = draw(st.lists(st.text(alphabet='g"\\\n/é☃𝄞'), min_size=n, max_size=n, unique=True))
    states = list(itertools.product(*sets))
    if draw(st.booleans()):
        images = draw(st.permutations(states))
    else:
        images = [draw(st.sampled_from(states)) for _ in states]
    polys = table_polys(field, n, states, [[s[i] for s in images] for i in range(n)]) if n else []
    model = GsdsModel(field, names, DependencyGraph(n, set(itertools.product(range(n), repeat=2))),
                      polys, None, state_sets=sets, display=display)
    return model, draw(st.sampled_from([1, 2, 3, dynamics.DOT_BLOCK_STATES]))


@settings(max_examples=200, deadline=None)
@given(report_cases())
def test_portrait_report_is_the_oracle_dict_dumped(case):
    model, block = case
    p = phase_portrait(model)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dynamics, "DOT_BLOCK_STATES", block)
        blocks = list(portrait_report(p))
    assert "".join(blocks) == json.dumps(oracle_portrait_report(p), indent=2)
    # between the head and the last block, each block holds `block` states
    states = sum(map(len, p.attractors))
    assert len(blocks) == 2 + states // block
    assert [text.count("\n        [") for text in blocks[1:]] == [block] * (len(blocks) - 2) + [
        states % block]
