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
import operator
from collections import Counter

from .errors import StateSpaceLimitError
from .files import FORMAT_VERSION
from .network import GlobalMap, global_map

DEFAULT_STATE_LIMIT = 1 << 24
DEFAULT_PERM_VERTEX_LIMIT = 8
DOT_BLOCK_STATES = 1024  # bounds the text transitions_dot holds at once


class PhasePortrait:
    """Complete description of a global map's functional digraph."""

    def __init__(self, model, successor, attractors, transient, basin):
        self.model = model
        self.successor = successor
        self.attractors = attractors  # list of cycles, each a state-index list
        self.transient = transient  # per-state distance to its attractor
        self.basin = basin  # per-state attractor id
        self._sizes = None

    @property
    def state_count(self):
        return len(self.successor)

    def basin_sizes(self):
        if self._sizes is None:  # counted once for the report and the summary DOT
            sizes = Counter(self.basin)
            self._sizes = [sizes[aid] for aid in range(len(self.attractors))]
        return list(self._sizes)

    def max_transient(self):
        return max(self.transient, default=0)

    def transient_histogram(self):
        return sorted(Counter(self.transient).items())

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


def phase_portrait(model, limit=DEFAULT_STATE_LIMIT):
    """Analyze the full state space of the model's global map.

    Attractors are reported in ascending order of their minimal state
    index, each cycle rotated to start at that index.
    """
    size = model.state_count()
    if size > limit:
        raise StateSpaceLimitError(
            f"state space has {size} states, limit is {limit}"
        )
    successor = global_map(model).successor_array()
    n = len(successor)

    # Iterative successor-pointer traversal.  attr[v] is the visit mark:
    # -1 unseen, -2 - start on the walk from start, else the attractor id.
    attr = [-1] * n
    transient = [0] * n
    attractors = []
    for start in range(n):
        if attr[start] != -1:
            continue
        mark, path, v = -2 - start, [], start
        while attr[v] == -1:
            attr[v] = mark
            path.append(v)
            v = successor[v]
        aid, depth = attr[v], transient[v]
        if aid == mark:  # the walk closed a new cycle at v
            cut = path.index(v)
            cycle, path = path[cut:], path[:cut]
            rot = cycle.index(min(cycle))
            aid, depth = len(attractors), 0
            attractors.append(cycle[rot:] + cycle[:rot])
            for node in cycle:
                attr[node] = aid
        for node in reversed(path):
            depth += 1
            attr[node] = aid
            transient[node] = depth

    # renumber attractors by minimal state index
    order = sorted(range(len(attractors)), key=lambda a: attractors[a][0])
    rank = [0] * len(order)
    for new, old in enumerate(order):
        rank[old] = new
    attractors = [attractors[a] for a in order]
    basin = list(map(rank.__getitem__, attr))
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


def _labels(model, genes, start):
    """``start`` + the label text of each level combination of ``genes``."""
    labels = [start]
    for k in genes:
        end = ')"' if k == model.n - 1 else ","
        texts = [model.format_level(v) + end for v in model.state_sets[k]]
        labels = [a + b for a in labels for b in texts]
    return labels


def transitions_dot(portrait):
    """DOT digraph of the full state transition graph, yielded as text
    blocks; attractor states are drawn as double circles.  A block has a
    line for each state that shares one level of every leading gene; the
    trailing genes are the last one and as many more as keep their level
    combinations at most DOT_BLOCK_STATES."""
    m = portrait.model
    k, width = m.n, 1
    while k and (k == m.n or width * len(m.state_sets[k - 1]) <= DOT_BLOCK_STATES):
        k -= 1
        width *= len(m.state_sets[k])
    head, tail = _labels(m, range(k), '"(' if m.n else '"()"'), _labels(m, range(k, m.n), "")
    yield "digraph transitions {\n  node [shape=circle];\n"
    starts = range(0, portrait.state_count, width)
    for h, s in zip(head, starts):  # a state lies on its attractor iff its transient is 0
        on_cycle = map(operator.not_, portrait.transient[s:s + width])
        yield "".join([f"  {h}{t} [shape=doublecircle];\n" for t in itertools.compress(tail, on_cycle)])
    succ = portrait.successor
    for h, s in zip(head, starts):
        yield "".join([f"  {h}{t} -> {head[a]}{tail[b]};\n" for t, (a, b) in zip(
            tail, map(divmod, succ[s:s + width], itertools.repeat(width)))])
    yield "}\n"


def attractor_summary_dot(portrait):
    """DOT digraph with one subgraph per attractor cycle."""
    m = portrait.model
    sizes = portrait.basin_sizes()
    lines = ["digraph attractors {", "  node [shape=doublecircle];"]
    for aid, cycle in enumerate(portrait.attractors):
        lines.append(
            f'  subgraph cluster_{aid} {{ label="attractor {aid}: '
            f'length {len(cycle)}, basin {sizes[aid]}";'
        )
        labels = [m.format_state(m.state_at(i)) for i in cycle]
        lines += [f'    "{lab}";' for lab in labels]
        lines += [f'    "{a}" -> "{b}";' for a, b in zip(labels, labels[1:] + labels[:1])]
        lines.append("  }")
    return "\n".join(lines) + "\n}\n"
