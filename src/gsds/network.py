"""Gene-network models: dependency graph, per-gene state sets, local
update polynomials, and schedule words composed into a global map.

A model has n genes.  Gene i carries a coordinate polynomial f_i in the
variables x1..xn; the *local* update at i rewrites coordinate i to
f_i(x) and leaves every other coordinate alone.  A schedule word is a
sequence of gene indices; the global map applies the local updates in
word order (first entry first).  A model may instead be *parallel*
(schedule None): all coordinates are rewritten simultaneously, which is
how inferred coordinate functions are packaged.

Model files are JSON:

    {
      "format_version": 1,
      "field": 3,
      "genes": ["g1", "g2", "g3"],
      "states": {"g2": [0, 1]},            # optional, canonical values
      "edges": [["g1", "g2"], ...],
      "locals": {"g1": "x1 + x2", ...},
      "schedule": ["g1", "g2", "g3"],      # or null for parallel
      "display": "balanced"                # optional
    }
"""

import functools
import itertools
import math
import sys

from .errors import FieldMismatchError, ModelValidationError
from .ffield import Field, check_display, decode_level, encode_level
from .files import FORMAT_VERSION, document, load, write_json
from .polyring import (TABLE_MAX_POINTS, Polynomial, parse_poly, poly_tables, probe_variable,
                       render_polys)

RANGE_MAX_LINES = 10  # range violations listed per gene; the rest are counted
KERNEL_BLOCK_STATES = 1 << 14  # states the kernel maps at a time
SUBCUBE_MAX_POINTS = TABLE_MAX_POINTS  # subcube points, never more than its table's cells


class DependencyGraph:
    """Directed gene-interaction graph with symmetric 1-neighborhoods.

    Edges are stored directed (the worked examples draw directed
    graphs), but locality is an undirected notion: the neighborhood of a
    vertex is itself plus every vertex it shares an edge with, in either
    direction.
    """

    __slots__ = ("n", "edges")

    def __init__(self, n, edges):
        self.n = n
        for a, b in edges:
            if not (0 <= a < n and 0 <= b < n):
                raise ValueError(f"edge ({a},{b}) references an unknown vertex")
        self.edges = frozenset((a, b) for a, b in edges)

    @classmethod
    def from_supports(cls, polys):
        """The wiring of coordinate polynomials: an edge j -> i exactly
        when polys[i]'s reduced form reads x_(j+1)."""
        return cls(len(polys), {(v - 1, i) for i, p in enumerate(polys) for v in p.support()})

    def neighborhood(self, i):
        """Vertex i, plus everything adjacent to it in either direction."""
        out = {i}
        for a, b in self.edges:
            if a == i:
                out.add(b)
            elif b == i:
                out.add(a)
        return frozenset(out)

    def __eq__(self, other):
        return (
            isinstance(other, DependencyGraph)
            and self.n == other.n
            and self.edges == other.edges
        )


class ValidationReport:
    """Violations found by validate_model, naming each gene from ``genes``;
    empty lists mean valid."""

    def __init__(self, genes):
        self.genes = genes
        self.locality = []  # (gene, variable, witness state pair)
        self.range = []  # (gene, input state, value), RANGE_MAX_LINES per gene
        self.range_more = {}  # gene -> out-of-range states not listed
        self.schedule = []  # (position, entry)

    @property
    def valid(self):
        return not (self.locality or self.range or self.schedule)

    def lines(self):
        out = []
        for gene, var, (s1, s2) in self.locality:
            out.append(
                f"locality: f[{self.genes[gene]}] depends on x{var} outside its "
                f"neighborhood (witness {s1} vs {s2})"
            )
        for gene, entries in itertools.groupby(self.range, key=lambda r: r[0]):
            out += [f"range: f[{self.genes[gene]}]{state} = {value}, outside the gene's state set"
                    for _, state, value in entries]
            if gene in self.range_more:
                out.append(f"range: f[{self.genes[gene]}] ... and {self.range_more[gene]} more "
                           f"states outside the gene's state set")
        for pos, entry in self.schedule:
            out.append(f"schedule: entry {entry!r} at position {pos} is not a gene")
        return out

    def __str__(self):
        return "\n".join(self.lines()) if not self.valid else "valid"


class GsdsModel:
    """A gene network: graph, state sets, local polynomials, schedule."""

    def __init__(self, field, genes, graph, local_polys, schedule,
                 state_sets=None, display="canonical"):
        n = len(genes)
        if len(set(genes)) != n:
            raise ValueError("gene names must be distinct")
        if len(local_polys) != n:
            raise ValueError(f"need one local polynomial per gene, got {len(local_polys)}")
        for p in local_polys:
            if p.field != field or p.n_vars != n:
                raise FieldMismatchError(
                    f"local polynomial {p!r} does not live in GF({field.order})[x1..x{n}]"
                )
        if graph.n != n:
            raise ValueError("graph vertex count does not match gene count")
        if state_sets is None:
            state_sets = [tuple(field.elements())] * n
        state_sets = tuple(tuple(sorted(field.check(v) for v in s)) for s in state_sets)
        for name, s in zip(genes, state_sets):
            if not s:
                raise ValueError(f"gene {name!r} has an empty state set")
            if len(set(s)) != len(s):
                raise ValueError(f"gene {name!r} has duplicate levels in its state set")
        if schedule is not None:
            schedule = _word(schedule, n, "schedule")
        check_display(field, display)
        self.field = field
        self.genes = tuple(genes)
        self.graph = graph
        self.local_polys = tuple(local_polys)
        self.schedule = schedule
        self.state_sets = state_sets
        self.display = display
        self._tables = []  # subcube tables, filled once, see _subcube_tables
        self._positions = [{v: p for p, v in enumerate(values)} for values in state_sets]

    @property
    def n(self):
        return len(self.genes)

    @property
    def parallel(self):
        return self.schedule is None

    def gene_index(self, name):
        try:
            return self.genes.index(name)
        except ValueError:
            raise KeyError(f"unknown gene {name!r}") from None

    def replace(self, schedule=None, display=None):
        """This model with its schedule word or display mode replaced."""
        return GsdsModel(
            self.field, self.genes, self.graph, self.local_polys,
            self.schedule if schedule is None else schedule,
            state_sets=self.state_sets, display=display or self.display,
        )

    # -- state space ---------------------------------------------------

    def state_count(self):
        return math.prod(map(len, self.state_sets))

    def iter_states(self):
        """All states of the product space, first gene most significant."""
        return itertools.product(*self.state_sets)

    def state_index(self, state):
        """Mixed-radix index of a state (gene 1 most significant)."""
        idx = 0
        for v, values in zip(state, self.state_sets):
            idx = idx * len(values) + values.index(v)
        return idx

    def state_at(self, index):
        digits = []
        for values in reversed(self.state_sets):
            index, r = divmod(index, len(values))
            digits.append(values[r])
        return tuple(reversed(digits))

    def contains_state(self, state):
        return len(state) == self.n and all(
            v in values for v, values in zip(state, self.state_sets)
        )

    def check_state(self, state):
        if not self.contains_state(state):
            raise ValueError(f"state {state} is outside the model's state space")
        return tuple(state)

    # -- display: levels in the display encoding, through the ffield codec

    def format_level(self, value):
        return str(decode_level(self.field, self.display, value))

    def encode_level(self, value):
        return encode_level(self.field, self.display, value)

    def decode_state(self, state):
        return [decode_level(self.field, self.display, v) for v in state]

    def format_state(self, state):
        return "(" + ",".join(map(self.format_level, state)) + ")"


def _word(entries, n, what):
    """``entries`` as a tuple, once each is an int (not a bool) below ``n``;
    else ValueError naming the first other entry as a ``what`` entry."""
    word = tuple(entries)
    for i in word:
        if type(i) is not int or not 0 <= i < n:
            raise ValueError(f"{what} entry {i!r} is not a gene index")
    return word


# -- successor kernel --------------------------------------------------
#
# GlobalMap.successor_array(), the kernel's one output, maps the
# mixed-radix index of each state (gene 1 most significant) to its
# image's index, KERNEL_BLOCK_STATES states at a time: the map is
# pointwise, so a block's images depend only on its states.  Only it and
# its helpers read a plane; truth_table() decodes its indices.  In a
# block, a gene's plane is one Python int holding the gene's level
# position at each state as a little-endian byte field (two bytes for a
# gene of more than 256 levels).  polyring.poly_tables tabulates the local
# polynomials on their support subcubes.  An update adds its support genes'
# planes, each times its subcube stride, into the subcube index of every
# state at once; for a subcube of at most 256 points no field carries
# into the next, and one bytes.translate of the table's level positions
# makes the gene's new plane.  A larger subcube, or a gene of more than
# 256 levels, gets the index as native ints (_index) and looks each
# state up with a C-level map.  No Python code runs per state, and
# memory is the result plus O(n) planes of a block and at most 256
# cached input planes (_level_plane).


def _strides(levels):
    return [math.prod(map(len, levels[j + 1 :])) for j in range(len(levels))]


def _width(top):
    """(bytes, memoryview format) of the narrowest native unsigned int holding ``top``."""
    return next((w, f) for w, f in zip((1, 2, 4, 8), "BHIQ") if top < 1 << 8 * w)


def _subcube_tables(model):
    """The local polynomials' ``poly_tables`` over the state sets, kept on the
    model so that validation, the kernel and the map call of every word
    tabulate once; ValueError names a gene whose table is refused."""
    if not model._tables:
        try:
            model._tables.extend(poly_tables(model.local_polys, model.state_sets))
        except ValueError as err:  # refused before any table was built
            message, i = err.args
            raise ValueError(f"gene {model.genes[i]!r} {message}") from None
    return model._tables


def _tables_in_levels(model):
    """The subcube tables, once every table value has a position in its
    gene's levels, whatever the word; else ModelValidationError."""
    tables = _subcube_tables(model)
    if not all(pos.keys() >= set(t) for pos, (_, t) in zip(model._positions, tables)):
        raise ModelValidationError(validate_model(model))
    return tables


@functools.lru_cache(maxsize=256)
def _level_plane(count, stride, lo, hi):
    """The plane of states lo..hi-1 of a gene of ``count`` levels at
    ``stride``: runs of ``stride`` equal fields, cycling through the levels.
    A plane depends on lo only modulo the period count * stride, so the
    callers pass it reduced and every block and word of a shape shares it."""
    cells = [p.to_bytes(1 + (count > 256), "little") for p in range(count)]
    first, last, u = lo // stride, (hi - 1) // stride, len(cells[0])
    if last - first > count:  # whole periods fit in the block: repeat one
        period, size = b"".join(c * stride for c in cells), (hi - lo) * u
        data = (period * ((lo * u + size) // len(period) + 1))[lo * u : lo * u + size]
    else:
        data = b"".join(cells[r % count] * (min(hi, r * stride + stride) - max(lo, r * stride))
                        for r in range(first, last + 1))
    return int.from_bytes(data, "little")


def _index(planes, counts, size):
    """The mixed-radix index of ``size`` states, the first plane most
    significant, as a memoryview of native ints of the narrowest width.
    Runs of byte planes whose counts multiply to at most 256 are summed in
    their byte fields, and each run is spread once into the wide fields."""
    width, fmt = _width(math.prod(counts) - 1)
    little = sys.byteorder == "little"
    acc, weight, k = 0, 1, len(planes)
    while k:
        run, span, u = 0, 1, 1
        if counts[k - 1] > 256:  # a two-byte plane is a run of its own
            k -= 1
            run, span, u = planes[k], counts[k], 2
        while k and span * counts[k - 1] <= 256:
            k -= 1
            run += span * planes[k]
            span *= counts[k]
        data, wide = run.to_bytes(size * u, "little"), bytearray(size * width)
        for b in range(u):  # byte b of each field, least significant first
            wide[b if little else width - 1 - b :: width] = data[b::u]
        acc += weight * int.from_bytes(wide, sys.byteorder)
        weight *= span
    return memoryview(acc.to_bytes(size * width, sys.byteorder)).cast(fmt)


def _readers(model, word):
    """Per entry i of ``word``: i, (support gene, its level positions), its table."""
    tables = _tables_in_levels(model)
    return [(i, [(j, model._positions[j]) for j in tables[i][0]], tables[i][1]) for i in word]


class GlobalMap:
    """A model's update map composed along ``word``, by default its schedule
    (None on a parallel model: the parallel map), callable on states."""

    def __init__(self, model, word=None):
        self.model = model
        self.word = model.schedule if word is None else _word(word, model.n, "word")
        self._fold = None  # per word entry: gene, (support gene, positions), table

    def __call__(self, state):
        """The image of ``state``, which must lie in the model's state space:
        each updated gene's value is read from its subcube table, at the
        mixed-radix position of its support levels.  A parallel map reads
        the input state, a word the state it updates.  The first call
        raises ModelValidationError for a model whose local polynomials
        leave their genes' levels."""
        m, word = self.model, self.word
        if len(state) != m.n:
            raise FieldMismatchError(f"point has {len(state)} coordinates, polynomial has {m.n}")
        m.check_state(state)
        if self._fold is None:
            self._fold = _readers(m, range(m.n) if word is None else word)
        out = list(state)
        src = state if word is None else out
        for i, readers, table in self._fold:
            index = 0
            for j, position in readers:
                index = index * len(position) + position[src[j]]
            out[i] = table[index]
        return tuple(out)

    def coordinate_polys(self):
        """The parallel coordinate functions F1..Fn as reduced polynomials:
        the local polynomials composed along the word."""
        m = self.model
        if self.word is None:
            return m.local_polys
        coords = [Polynomial.variable(m.field, m.n, j + 1) for j in range(m.n)]
        for i in self.word:
            coords[i] = m.local_polys[i].compose(coords)
        return tuple(coords)

    def truth_table(self):
        """The image of every state, in index order: the states of the
        product space read at the indices of ``successor_array()``."""
        successor = self.successor_array()  # ModelValidationError before any state
        return tuple(map(tuple(self.model.iter_states()).__getitem__, successor))

    def successor_array(self):
        """State index of each state's image, in index order: a read-only
        memoryview of native ints, filled block by block.  In a block, a word
        updates the genes' planes in order (the parallel map, word None, reads
        the input planes), and _index reads the images' indices off them."""
        m, word = self.model, self.word
        levels, tables = m.state_sets, _tables_in_levels(m)
        counts, total = list(map(len, levels)), m.state_count()
        updates = []  # gene, support genes, their subcube strides, its positions
        for i in range(m.n) if word is None else word:
            support, table = tables[i]
            slots = [m._positions[i][v] for v in table]
            if len(table) <= 256 and counts[i] <= 256:  # a translate table
                slots = bytes(slots).ljust(256, b"\0")
            else:  # per byte of the fields, least significant first, one per point
                slots = [bytes(p >> 8 * b & 255 for p in slots) for b in range(1 + (counts[i] > 256))]
            updates.append((i, support, _strides([levels[j] for j in support]), slots))
        width, fmt = _width(total - 1)
        out = memoryview(bytearray(width * total)).cast(fmt)
        for lo in range(0, total, KERNEL_BLOCK_STATES):
            hi = min(total, lo + KERNEL_BLOCK_STATES)
            src = [_level_plane(c, s, lo % (c * s), lo % (c * s) + hi - lo)
                   for c, s in zip(counts, _strides(levels))]
            planes = list(src) if word is None else src
            for i, support, strides, slots in updates:
                if type(slots) is bytes:
                    index = sum(map(int.__mul__, strides, (src[j] for j in support)))
                    data = index.to_bytes(hi - lo, "little").translate(slots)
                else:
                    index = _index([src[j] for j in support], [counts[j] for j in support], hi - lo)
                    data = bytearray(len(slots) * (hi - lo))
                    for b, cells in enumerate(slots):
                        data[b :: len(slots)] = bytes(map(cells.__getitem__, index))
                planes[i] = int.from_bytes(data, "little")
            out[lo:hi] = _index(planes, counts, hi - lo)
        return out.toreadonly()


def global_map(model, validate=True):
    """The model's composed map; validates the model first by default.  A
    map leaving its levels raises ModelValidationError at first use anyway."""
    if validate:
        report = validate_model(model)
        if not report.valid:
            raise ModelValidationError(report)
    return GlobalMap(model)


def trajectory(model, state, steps):
    """The orbit [state, F(state), ..., F^steps(state)]."""
    if steps < 0:
        raise ValueError("steps must be >= 0")
    f = GlobalMap(model)
    out = [model.check_state(state)]
    for _ in range(steps):
        out.append(f(out[-1]))
    return out


def validate_model(model):
    """Exhaustively check locality, value ranges, and the schedule.

    Dependence over any product domain implies membership in the
    reduced-form support, so only support variables outside a vertex's
    neighborhood are probed for a witness pair.  A value depends only on
    the support coordinates, so both checks read each polynomial's table
    on its support subcube; no state is evaluated term by term.  A gene's
    first RANGE_MAX_LINES range violations in state index order are
    listed, and the rest only counted, from the table: a state's index is
    its support point's base plus its other genes' offset, both increasing
    in product order, so the first lie among the first bases and offsets.
    """
    report = ValidationReport(model.genes)
    domain, tables = model.state_sets, _subcube_tables(model)
    axes = [[k * s for k in range(len(d))] for d, s in zip(domain, _strides(domain))]
    first = lambda items: list(itertools.islice(items, RANGE_MAX_LINES))
    index = lambda genes: map(sum, itertools.product(*(axes[j] for j in genes)))
    for i, (support, table) in enumerate(tables):
        allowed = model.graph.neighborhood(i)
        for j in support:
            witness = j not in allowed and probe_variable(tables[i], j, domain)
            if witness:
                report.locality.append((i, j + 1, witness))
        values = set(domain[i])
        if values.issuperset(table):
            continue
        bases = first((b, v) for b, v in zip(index(support), table) if v not in values)
        offsets = first(index(j for j in range(model.n) if j not in support))
        listed = sorted((b + o, v) for b, v in bases for o in offsets)[:RANGE_MAX_LINES]
        report.range += [(i, model.state_at(s), v) for s, v in listed]
        # each subcube point stands for the same number of states
        more = sum(v not in values for v in table) * (model.state_count() // len(table))
        if more > RANGE_MAX_LINES:
            report.range_more[i] = more - RANGE_MAX_LINES
    return report


def parallel_to_sequential(coordinate_polys, genes=None):
    """Represent a parallel map as a schedule-driven model on 2n genes.

    Shadow genes first copy the current state; the original genes are
    then rewritten from the shadows, so the composed map restricted to
    the first n coordinates equals the parallel map.
    """
    polys = list(coordinate_polys)
    if not polys:
        raise ValueError("need at least one coordinate function")
    field, n = polys[0].field, polys[0].n_vars
    if genes is None:
        genes = [f"g{j + 1}" for j in range(n)]
    names = list(genes) + [f"{g}__copy" for g in genes]

    # the originals read the shadows
    locals_ = [Polynomial(field, 2 * n, {(0,) * n + e: c for e, c in p.terms.items()})
               for p in polys]
    locals_ += [
        Polynomial.variable(field, 2 * n, j + 1) for j in range(n)
    ]  # shadows copy the originals
    schedule = tuple(range(n, 2 * n)) + tuple(range(n))
    # edges: the shadows an original reads feed it, an original feeds its shadow
    return GsdsModel(
        field,
        names,
        DependencyGraph.from_supports(locals_),
        locals_,
        schedule,
    )


# -- model files -------------------------------------------------------


def model_to_dict(model):
    d = {
        "format_version": FORMAT_VERSION,
        "field": model.field.order,
        "genes": list(model.genes),
    }
    default = tuple(model.field.elements())
    states = {
        g: model.decode_state(values)
        for g, values in zip(model.genes, model.state_sets)
        if values != default
    }
    if states:
        d["states"] = states
    d["edges"] = sorted(
        [model.genes[a], model.genes[b]] for a, b in model.graph.edges
    )
    d["locals"] = dict(zip(model.genes, render_polys(model.local_polys)))
    d["schedule"] = (
        None if model.parallel else [model.genes[i] for i in model.schedule]
    )
    if model.display != "canonical":
        d["display"] = model.display
    return d


def model_from_dict(d):
    document(d, "model")
    field = Field(d["field"])
    genes, schedule = d["genes"], d.get("schedule")
    if not isinstance(genes, list) or not isinstance(schedule, (list, type(None))):
        raise ValueError("genes must be a list of names, schedule a list or null")
    n = len(genes)
    index = {g: i for i, g in enumerate(genes)}
    display = check_display(field, d.get("display", "canonical"))
    state_sets = None
    if d.get("states"):
        state_sets = []
        for g in genes:
            raw = d["states"].get(g)
            state_sets.append(
                tuple(field.elements()) if raw is None
                else tuple(encode_level(field, display, v) for v in raw)
            )
    edges = set()
    for a, b in d.get("edges", []):
        if a not in index or b not in index:
            raise ValueError(f"edge [{a!r}, {b!r}] references an unknown gene")
        edges.add((index[a], index[b]))
    locals_ = []
    for g in genes:
        text = d["locals"].get(g)
        if text is None:
            raise ValueError(f"missing local polynomial for gene {g!r}")
        locals_.append(parse_poly(text, n, field))
    for key in ("states", "locals"):  # both were read as objects by gene name above
        for g in d.get(key) or ():
            if g not in index:
                raise ValueError(f"{key} entry {g!r} references an unknown gene")
    if schedule is not None:
        report = ValidationReport(genes)
        resolved = []
        for pos, name in enumerate(schedule):
            if name in index:
                resolved.append(index[name])
            else:
                report.schedule.append((pos, name))
        if not report.valid:
            raise ModelValidationError(report)
        schedule = resolved
    return GsdsModel(
        field,
        genes,
        DependencyGraph(n, edges),
        locals_,
        schedule,
        state_sets=state_sets,
        display=display,
    )


def save_model(model, path):
    write_json(model_to_dict(model), path)


def load_model(path):
    return load(path, "model", model_from_dict)
