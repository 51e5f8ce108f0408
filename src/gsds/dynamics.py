"""Phase-space analysis of a model's global map.

The global map induces a functional digraph on the state space (every
state has exactly one successor); its analysis yields fixed points,
limit cycles, per-state transients, and basins of attraction.  State
indexing is mixed-radix with gene 1 most significant, each state set
ordered by canonical value, so indices, reports, and DOT output are
deterministic.  The successor array and the schedule comparisons come
from the bit-sliced truth-table kernel in :mod:`gsds.network`, which
tabulates each local polynomial on its support subcube and updates
per-level state bitsets; no state is evaluated term by term.
"""

import itertools

from .errors import StateSpaceLimitError
from .files import FORMAT_VERSION
from .network import GlobalMap, global_map

DEFAULT_STATE_LIMIT = 1 << 24
DEFAULT_PERM_VERTEX_LIMIT = 8


class PhasePortrait:
    """Complete description of a global map's functional digraph."""

    def __init__(self, model, successor, attractors, transient, basin):
        self.model = model
        self.successor = successor
        self.attractors = attractors  # list of cycles, each a state-index list
        self.transient = transient  # per-state distance to its attractor
        self.basin = basin  # per-state attractor id

    @property
    def state_count(self):
        return len(self.successor)

    def basin_sizes(self):
        sizes = [0] * len(self.attractors)
        for aid in self.basin:
            sizes[aid] += 1
        return sizes

    def max_transient(self):
        return max(self.transient, default=0)

    def transient_histogram(self):
        hist = {}
        for t in self.transient:
            hist[t] = hist.get(t, 0) + 1
        return sorted(hist.items())

    def fixed_points(self):
        return [
            self.model.state_at(cycle[0])
            for cycle in self.attractors
            if len(cycle) == 1
        ]

    def cycles(self):
        return [
            [self.model.state_at(i) for i in cycle] for cycle in self.attractors
        ]


def phase_portrait(model, limit=DEFAULT_STATE_LIMIT, workers=1):
    """Analyze the full state space of the model's global map.

    Attractors are reported in ascending order of their minimal state
    index, each cycle rotated to start at that index.  ``workers`` is
    accepted for compatibility and does not change the result; the
    kernel runs on the calling thread.
    """
    size = model.state_count()
    if size > limit:
        raise StateSpaceLimitError(
            f"state space has {size} states, limit is {limit}"
        )
    successor = global_map(model).successor_array()
    n = len(successor)

    # Iterative successor-pointer traversal with per-state coloring:
    # 0 = unseen, 1 = on the current path, 2 = finalized.
    color = [0] * n
    attr_of = [-1] * n
    transient = [0] * n
    attractors = []
    for start in range(n):
        if color[start]:
            continue
        path = []
        on_path = {}
        v = start
        while color[v] == 0:
            color[v] = 1
            on_path[v] = len(path)
            path.append(v)
            v = successor[v]
        if color[v] == 1:
            cut = on_path[v]
            cycle = path[cut:]
            rot = cycle.index(min(cycle))
            cycle = cycle[rot:] + cycle[:rot]
            aid = len(attractors)
            attractors.append(cycle)
            for node in cycle:
                color[node] = 2
                attr_of[node] = aid
                transient[node] = 0
            tail = path[:cut]
        else:
            tail = path
        for node in reversed(tail):
            nxt = successor[node]
            attr_of[node] = attr_of[nxt]
            transient[node] = transient[nxt] + 1
            color[node] = 2

    # renumber attractors by minimal state index
    order = sorted(range(len(attractors)), key=lambda a: attractors[a][0])
    remap = {old: new for new, old in enumerate(order)}
    attractors = [attractors[a] for a in order]
    basin = [remap[a] for a in attr_of]
    return PhasePortrait(model, successor, attractors, transient, basin)


def fixed_points(model, **kwargs):
    return phase_portrait(model, **kwargs).fixed_points()


def cycles(model, **kwargs):
    return phase_portrait(model, **kwargs).cycles()


def _word_map(model, word):
    """The map composed along ``word``; rebuilding rejects a non-gene."""
    return GlobalMap(model.replace(schedule=tuple(word)))


def compare_schedules(model, word_a, word_b):
    """First state (in index order) where the two composed maps differ,
    or None when they agree everywhere: the lowest bit set in any XOR of
    the two maps' image bitsets."""
    fa, fb = _word_map(model, word_a), _word_map(model, word_b)
    a, b = fa.image_bits(), fb.image_bits()
    if a is None:  # a local polynomial leaves its levels: compare tables
        pairs = zip(model.iter_states(), fa.truth_table(), fb.truth_table())
        return next((s for s, x, y in pairs if x != y), None)
    diff = 0
    for x, y in zip(itertools.chain(*a), itertools.chain(*b)):
        diff |= x ^ y
    return model.state_at((diff & -diff).bit_length() - 1) if diff else None


def schedule_scan(model, words="permutations", vertex_limit=DEFAULT_PERM_VERTEX_LIMIT):
    """Partition schedule words into classes with equal composed maps.

    ``words`` is either the string "permutations" (all n! orderings of
    the full vertex set) or an explicit iterable of words.  Classes are
    ordered by first appearance; each class lists its words in
    appearance order, the first being the representative.
    """
    if words == "permutations":
        if model.n > vertex_limit:
            raise StateSpaceLimitError(
                f"{model.n}! permutations exceed the vertex limit "
                f"{vertex_limit}"
            )
        words = itertools.permutations(range(model.n))
    classes = {}  # insertion order is the order of first appearance
    for word in words:
        word = tuple(word)
        # whether image_bits is None does not depend on the word, so the
        # keys of one scan are all of one kind
        f = _word_map(model, word)
        classes.setdefault(f.image_bits() or f.truth_table(), []).append(word)
    return list(classes.values())


# -- reports -------------------------------------------------------------


def portrait_report(portrait):
    """JSON-ready summary: attractors, transient histogram, basin sizes."""
    m = portrait.model
    sizes = portrait.basin_sizes()
    return {
        "format_version": FORMAT_VERSION,
        "field": m.field.order,
        "genes": list(m.genes),
        "display": m.display,
        "state_count": portrait.state_count,
        "attractor_count": len(portrait.attractors),
        "max_transient": portrait.max_transient(),
        "attractors": [
            {
                "id": aid,
                "length": len(cycle),
                "states": [m.decode_state(m.state_at(i)) for i in cycle],
                "basin_size": sizes[aid],
            }
            for aid, cycle in enumerate(portrait.attractors)
        ],
        "transient_histogram": [
            [t, c] for t, c in portrait.transient_histogram()
        ],
    }


def transitions_dot(portrait, name="transitions"):
    """DOT digraph of the full state transition graph; attractor states
    are drawn as double circles."""
    m = portrait.model
    levels = [[m.format_level(v) for v in values] for values in m.state_sets]
    labels = ["(" + ",".join(t) + ")" for t in itertools.product(*levels)]
    lines = [f"digraph {name} {{", "  node [shape=circle];"]
    in_cycle = sorted(i for cycle in portrait.attractors for i in cycle)
    for i in in_cycle:
        lines.append(f'  "{labels[i]}" [shape=doublecircle];')
    for i, j in enumerate(portrait.successor):
        lines.append(f'  "{labels[i]}" -> "{labels[j]}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


def attractor_summary_dot(portrait, name="attractors"):
    """DOT digraph with one subgraph per attractor cycle."""
    m = portrait.model
    sizes = portrait.basin_sizes()
    lines = [f"digraph {name} {{", "  node [shape=doublecircle];"]
    for aid, cycle in enumerate(portrait.attractors):
        lines.append(
            f'  subgraph cluster_{aid} {{ label="attractor {aid}: '
            f'length {len(cycle)}, basin {sizes[aid]}";'
        )
        labels = [m.format_state(m.state_at(i)) for i in cycle]
        for lab in labels:
            lines.append(f'    "{lab}";')
        for k, lab in enumerate(labels):
            lines.append(f'    "{lab}" -> "{labels[(k + 1) % len(labels)]}";')
        lines.append("  }")
    lines.append("}")
    return "\n".join(lines) + "\n"
