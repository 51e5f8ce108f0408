"""Phase-space analysis of a model's global map.

The global map induces a functional digraph on the state space (every
state has exactly one successor); its analysis yields fixed points,
limit cycles, basin sizes and the transient histogram.  State indexing
is mixed-radix with gene 1 most significant, each state set ordered by
canonical value, so indices, reports, and DOT output are deterministic.
The successor array, which the schedule comparisons also read, comes
from the byte-plane kernel of :mod:`gsds.network`.  Only the image of
the map is walked, and the basin sizes and the transient histogram are
counted over it, weighted by in-degree; a state's transient is its
number of ``successor`` steps to a cycle.  Reports write states in bulk.
"""

import itertools
import json
from collections import Counter

from .errors import StateSpaceLimitError
from .files import FORMAT_VERSION
from .network import GlobalMap, global_map

DEFAULT_STATE_LIMIT = 1 << 24
DEFAULT_PERM_VERTEX_LIMIT = 8
DOT_BLOCK_STATES = 1024  # bounds the text transitions_dot and portrait_report hold at once


class PhasePortrait:
    """A global map's functional digraph; ``successor`` is the kernel's read-only buffer."""

    def __init__(self, model, successor, attractors, sizes, histogram):
        self.model = model
        self.successor = successor
        self.attractors = attractors  # list of cycles, each a state-index list
        self._sizes = sizes  # states per attractor id
        self._histogram = histogram  # states per transient length 0, 1, ...

    @property
    def state_count(self):
        return len(self.successor)

    def basin_sizes(self):
        return list(self._sizes)

    def max_transient(self):
        return len(self._histogram) - 1

    def transient_histogram(self):
        return list(enumerate(self._histogram))

    def fixed_points(self):
        fixed = [cycle[0] for cycle in self.attractors if len(cycle) == 1]
        return _states_at(self.model, fixed, _LEVELS)

    def cycles(self):
        return _cycle_states(self, _LEVELS)


def phase_portrait(model, limit=DEFAULT_STATE_LIMIT):
    """Analyze the full state space of the model's global map.  Attractors
    are reported in ascending order of their minimal state index, each
    cycle rotated to start at that index."""
    size = model.state_count()
    if size > limit:
        raise StateSpaceLimitError(f"state space has {size} states, limit is {limit}")
    successor = global_map(model).successor_array()
    n = len(successor)

    # Iterative successor-pointer traversal of the image of the map: a
    # walk from an image state stays in the image, and every cycle lies
    # in it.  indeg[u] counts u's preimages.  attr[v] is the visit mark:
    # -1 unseen, -2 - start on the walk from start, else the attractor id.
    indeg = Counter(successor)
    attr, transient = [-1] * n, [0] * n
    attractors, deepest = [], 0
    for start in indeg:
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
        deepest = max(deepest, depth)

    # Every state lies in its successor's basin, one step further out:
    # count each image state's preimages there by walk id, then renumber
    # the attractors by minimal state index.  The cycle states then move
    # from transient 1 to 0.
    sizes, histogram = [0] * len(attractors), [0] * (deepest + 2)
    for u, k in indeg.items():
        sizes[attr[u]] += k
        histogram[transient[u] + 1] += k
    order = sorted(range(len(attractors)), key=lambda a: attractors[a][0])
    attractors, sizes = [attractors[a] for a in order], [sizes[a] for a in order]
    cyclic = sum(map(len, attractors))
    histogram[0], histogram[1] = cyclic, histogram[1] - cyclic
    if not histogram[-1]:  # every state lies on a cycle
        histogram.pop()
    return PhasePortrait(model, successor, attractors, sizes, histogram)


def fixed_points(model, **kwargs):
    return phase_portrait(model, **kwargs).fixed_points()


def cycles(model, **kwargs):
    return phase_portrait(model, **kwargs).cycles()


def compare_schedules(model, word_a, word_b):
    """First state (in index order) where the two composed maps differ,
    or None when they agree everywhere: the lowest byte set in the XOR of
    the two maps' successor arrays."""
    a, b = (GlobalMap(model, word).successor_array() for word in (word_a, word_b))
    diff = int.from_bytes(a, "little") ^ int.from_bytes(b, "little")
    return model.state_at(((diff & -diff).bit_length() - 1) // 8 // a.itemsize) if diff else None


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
    for word in map(tuple, words):
        classes.setdefault(GlobalMap(model, word).successor_array().tobytes(), []).append(word)
    return list(classes.values())


# -- reports -------------------------------------------------------------

# A state written three ways, each a start plus a piece per gene k at
# level v, or a whole text when there are no genes: the canonical tuple,
# the report's indented JSON list and the quoted DOT label.
_LEVELS = ((), lambda m, k, v: (v,), ())
_TEXT = ("[", lambda m, k, v: "\n          " + m.format_level(v)
         + ("\n        ]" if k == m.n - 1 else ","), "[]")
_LABELS = ('"(', lambda m, k, v: m.format_level(v) + (')"' if k == m.n - 1 else ","), '"()"')
# an attractor of the report, around its states
_OPEN = '{\n      "id": %d,\n      "length": %d,\n      "states": [\n        '
_CLOSE = '\n      ],\n      "basin_size": %d\n    }'


def _split(model, form, block):
    """(head, tail, width) such that state i is written in ``form`` as
    head[i // width] + tail[i % width].  The tail genes are the last one
    and as many more as keep their level combinations at most ``block``."""
    start, piece = form[:2] if model.n else (form[2], None)
    k, width = model.n, 1
    while k and (k == model.n or width * len(model.state_sets[k - 1]) <= block):
        k -= 1
        width *= len(model.state_sets[k])
    parts = []
    for genes, combos in ((range(k), [start]), (range(k, model.n), [start[:0]])):
        for g in genes:
            pieces = [piece(model, g, v) for v in model.state_sets[g]]
            combos = [a + b for a in combos for b in pieces]
        parts.append(combos)
    return parts[0], parts[1], width


def _states_at(model, indices, form):
    """The state of each index written in ``form``, through a ``_split``
    whose head and tail tables are both about sqrt(state count) long."""
    head, tail, width = _split(model, form, model.state_count() ** 0.5)
    return [head[a] + tail[b] for a, b in map(divmod, indices, itertools.repeat(width))]


def _cycle_states(portrait, form):
    """Each attractor's states written in ``form``, decoded in one pass."""
    cycles = portrait.attractors
    flat = iter(_states_at(portrait.model, itertools.chain.from_iterable(cycles), form))
    return [list(itertools.islice(flat, len(cycle))) for cycle in cycles]


def portrait_report(portrait):
    """The JSON report of attractors, transient histogram and basin sizes,
    yielded as text blocks of at most ``DOT_BLOCK_STATES`` attractor states,
    byte for byte ``json.dumps(oracle_portrait_report(...), indent=2)`` (see the tests)."""
    m = portrait.model
    genes, hist = (json.dumps(x, indent=2).replace("\n", "\n  ")
                   for x in (list(m.genes), portrait.transient_histogram()))
    yield (f'{{\n  "format_version": {FORMAT_VERSION},\n  "field": {m.field.order},\n'
           f'  "genes": {genes},\n  "display": "{m.display}",\n'
           f'  "state_count": {portrait.state_count},\n'
           f'  "attractor_count": {len(portrait.attractors)},\n'
           f'  "max_transient": {portrait.max_transient()},\n  "attractors": [\n    ')
    head, tail, width = _split(m, _TEXT, portrait.state_count ** 0.5)
    parts, room = [], DOT_BLOCK_STATES
    for aid, (cycle, size) in enumerate(zip(portrait.attractors, portrait.basin_sizes())):
        lead, s = (",\n    " if aid else "") + _OPEN % (aid, len(cycle)), 0
        while s < len(cycle):  # the cycle's states, cut where a block is full
            chunk = cycle[s:s + room]
            parts += lead, ",\n        ".join(
                [head[a] + tail[b] for a, b in map(divmod, chunk, itertools.repeat(width))])
            lead, s, room = ",\n        ", s + len(chunk), room - len(chunk)
            if not room:
                yield "".join(parts)
                parts, room = [], DOT_BLOCK_STATES
        parts.append(_CLOSE % size)
    yield "".join(parts) + f'\n  ],\n  "transient_histogram": {hist}\n}}'


def transitions_dot(portrait):
    """DOT digraph of the full state transition graph, yielded as text
    blocks; attractor states are drawn as double circles.  A block has a
    line for each state of one head of ``_split``."""
    head, tail, width = _split(portrait.model, _LABELS, DOT_BLOCK_STATES)
    yield "digraph transitions {\n  node [shape=circle];\n"
    on_cycle = bytearray(portrait.state_count)
    for v in itertools.chain.from_iterable(portrait.attractors):
        on_cycle[v] = 1
    starts = range(0, portrait.state_count, width)
    for h, s in zip(head, starts):
        cyclic = itertools.compress(tail, on_cycle[s:s + width])
        yield "".join([f"  {h}{t} [shape=doublecircle];\n" for t in cyclic])
    succ = portrait.successor
    for h, s in zip(head, starts):
        yield "".join([f"  {h}{t} -> {head[a]}{tail[b]};\n" for t, (a, b) in zip(
            tail, map(divmod, succ[s:s + width], itertools.repeat(width)))])
    yield "}\n"


def attractor_summary_dot(portrait):
    """DOT digraph with one subgraph per attractor cycle."""
    sizes = portrait.basin_sizes()
    lines = ["digraph attractors {", "  node [shape=doublecircle];"]
    for aid, labels in enumerate(_cycle_states(portrait, _LABELS)):
        lines.append(f'  subgraph cluster_{aid} {{ label="attractor {aid}: '
                     f'length {len(labels)}, basin {sizes[aid]}";')
        lines += [f"    {lab};" for lab in labels]
        lines += [f"    {a} -> {b};" for a, b in zip(labels, labels[1:] + labels[:1])]
        lines.append("  }")
    return "\n".join(lines) + "\n}\n"
