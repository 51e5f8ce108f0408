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

import itertools
import math
import operator

from .errors import FieldMismatchError, ModelValidationError
from .ffield import Field, check_display, decode_level, encode_level, format_state
from .files import FORMAT_VERSION, document, load, write_json
from .polyring import Polynomial, iter_points, parse_poly, table_poly


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
    """Violations found by validate_model; empty lists mean valid.  Genes
    are named by ``genes`` when given, else by index."""

    def __init__(self, genes=None):
        self.genes = genes
        self.locality = []  # (gene, variable, witness state pair)
        self.range = []  # (gene, input state, value)
        self.schedule = []  # (position, entry)

    @property
    def valid(self):
        return not (self.locality or self.range or self.schedule)

    def lines(self):
        name = lambda i: self.genes[i] if self.genes else f"#{i}"
        out = []
        for gene, var, (s1, s2) in self.locality:
            out.append(
                f"locality: f[{name(gene)}] depends on x{var} outside its "
                f"neighborhood (witness {s1} vs {s2})"
            )
        for gene, state, value in self.range:
            out.append(
                f"range: f[{name(gene)}]{state} = {value}, outside the "
                f"gene's state set"
            )
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
            schedule = tuple(schedule)
            for i in schedule:
                if not 0 <= i < n:
                    raise ValueError(f"schedule entry {i} is not a gene index")
        check_display(field, display)
        self.field = field
        self.genes = tuple(genes)
        self.graph = graph
        self.local_polys = tuple(local_polys)
        self.schedule = schedule
        self.state_sets = state_sets
        self.display = display

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
        total = 1
        for s in self.state_sets:
            total *= len(s)
        return total

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
        return format_state(self.field, state, self.display == "balanced")


def apply_local(model, i, state):
    """Apply gene i's local update: only coordinate i may change."""
    state = model.check_state(state)
    value = model.local_polys[i].eval(state)
    return state[:i] + (value,) + state[i + 1 :]


# -- truth-table kernel ------------------------------------------------
#
# Bulk work runs over the mixed-radix index of a product of per-gene
# level lists, gene 1 most significant.  Each gene gets an offset list:
# its level position times its stride, at every index, so a state's
# index is the sum of its genes' offsets.  A local polynomial is
# evaluated once per point of its support subcube (the product of its
# support genes' levels), keyed by the sum of the support offsets; an
# update is then a gather through that table.  All per-state work is
# list repetition and map() over C-level callables.


def _strides(levels):
    return [math.prod(map(len, levels[j + 1 :])) for j in range(len(levels))]


def _offset_lists(levels):
    """Per-gene offset lists of the product of ``levels``, and strides."""
    strides = _strides(levels)
    total = math.prod(map(len, levels))
    offsets = []
    for values, stride in zip(levels, strides):
        block = []
        for p in range(len(values)):
            block += [p * stride] * stride
        offsets.append(block * (total // len(block)))
    return offsets, strides


def _subcube_table(poly, levels, strides):
    """The polynomial's support genes (0-based) and its values on their
    subcube, keyed by the sum of the support genes' offsets."""
    support = sorted(v - 1 for v in poly.support())
    point = [0] * poly.n_vars  # reduced form reads support coordinates only
    table = {}
    for combo in itertools.product(*(enumerate(levels[j]) for j in support)):
        key = 0
        for j, (p, v) in zip(support, combo):
            point[j] = v
            key += p * strides[j]
        table[key] = poly.eval(point)
    return support, table


def _offset_sum(genes, offsets, total):
    """Sum of the given genes' offset lists, one entry per state."""
    genes = list(genes)
    if not genes:
        return itertools.repeat(0, total)
    key = offsets[genes[0]]
    for j in genes[1:]:
        key = map(operator.add, key, offsets[j])
    return key


def _fold_offsets(model, levels):
    """Run the model's map over every state of the product of ``levels``.

    Returns the offset lists of the images and the strides, or None when
    an image leaves the product (only a model failing range validation
    does that).  A parallel map gathers every coordinate from the input
    offsets; a schedule word folds the gathers gene by gene.
    """
    offsets, strides = _offset_lists(levels)
    total = math.prod(map(len, levels))
    if model.parallel:
        word, src = range(model.n), list(offsets)
    else:
        word, src = model.schedule, offsets
    for i in word:
        support, table = _subcube_table(model.local_polys[i], levels, strides)
        position = {v: p * strides[i] for p, v in enumerate(levels[i])}
        if not position.keys() >= set(table.values()):
            return None
        gather = {k: position[v] for k, v in table.items()}
        offsets[i] = list(map(gather.__getitem__, _offset_sum(support, src, total)))
    return offsets, strides


class GlobalMap:
    """The composed update map of a model, callable on states."""

    def __init__(self, model):
        self.model = model
        self._poly_cache = {}

    def __call__(self, state):
        m = self.model
        if m.parallel:
            return tuple(p.eval(state) for p in m.local_polys)
        current = list(state)
        for i in m.schedule:
            current[i] = m.local_polys[i].eval(current)
        return tuple(current)

    def coordinate_polys(self, method="symbolic"):
        """The parallel coordinate functions F1..Fn as reduced polynomials.

        ``symbolic`` composes the local polynomials along the schedule;
        ``interpolate`` rebuilds each coordinate from the full truth
        table over the ambient field.  The two agree on reduced form.
        """
        if method in self._poly_cache:
            return self._poly_cache[method]
        m = self.model
        if method == "symbolic":
            coords = [
                Polynomial.variable(m.field, m.n, j + 1) for j in range(m.n)
            ]
            if m.parallel:
                coords = list(m.local_polys)
            else:
                for i in m.schedule:
                    coords[i] = m.local_polys[i].compose(coords)
            result = tuple(coords)
        elif method == "interpolate":
            pairs = list(zip(iter_points(m.field, m.n), self.truth_table(ambient=True)))
            result = tuple(
                table_poly(m.field, m.n, {p: image[i] for p, image in pairs})
                for i in range(m.n)
            )
        else:
            raise ValueError(f"unknown method {method!r}")
        self._poly_cache[method] = result
        return result

    def truth_table(self, ambient=False):
        """Outputs over the model's state space (or the full field space)."""
        m = self.model
        levels = [tuple(m.field.elements())] * m.n if ambient else m.state_sets
        folded = _fold_offsets(m, levels)
        if folded is None:  # the map leaves the state space
            return tuple(map(self, m.iter_states()))
        offsets, strides = folded
        columns = [
            map({p * s: v for p, v in enumerate(values)}.__getitem__, o)
            for values, s, o in zip(levels, strides, offsets)
        ]
        return tuple(zip(*columns)) if columns else ((),)

    def successor_array(self):
        """State index of the image of every state, in index order."""
        m = self.model
        folded = _fold_offsets(m, m.state_sets)
        if folded is None:
            raise ModelValidationError(validate_model(m))
        return list(_offset_sum(range(m.n), folded[0], m.state_count()))


def global_map(model, validate=True):
    """The model's composed map; validates the model first by default."""
    if validate:
        report = validate_model(model)
        if not report.valid:
            raise ModelValidationError(report)
    return GlobalMap(model)


def step(model, state):
    return GlobalMap(model)(state)


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
    the support coordinates, so ranges are checked on each polynomial's
    support subcube; only a subcube holding an out-of-range value is
    expanded into the per-state violations, in state index order.
    """
    report = ValidationReport(model.genes)
    domain = list(model.state_sets)
    strides = _strides(domain)
    for i, poly in enumerate(model.local_polys):
        allowed = model.graph.neighborhood(i)
        for var in sorted(poly.support()):
            if (var - 1) in allowed:
                continue
            witness = poly._probe_variable(var - 1, domain)
            if witness:
                report.locality.append((i, var, witness))
        support, table = _subcube_table(poly, domain, strides)
        values = set(model.state_sets[i])
        if values.issuperset(table.values()):
            continue
        offsets, _ = _offset_lists(domain)
        keys = _offset_sum(support, offsets, model.state_count())
        for state, k in zip(model.iter_states(), keys):
            if table[k] not in values:
                report.range.append((i, state, table[k]))
    return report


def parallel_to_sequential(coordinate_polys, field=None, genes=None):
    """Represent a parallel map as a schedule-driven model on 2n genes.

    Shadow genes first copy the current state; the original genes are
    then rewritten from the shadows, so the composed map restricted to
    the first n coordinates equals the parallel map.
    """
    polys = list(coordinate_polys)
    if not polys:
        raise ValueError("need at least one coordinate function")
    field = field or polys[0].field
    n = polys[0].n_vars
    if genes is None:
        genes = [f"g{j + 1}" for j in range(n)]
    names = list(genes) + [f"{g}__copy" for g in genes]

    def widen(poly, shift):
        terms = {}
        for exps, coeff in poly.terms.items():
            wide = [0] * (2 * n)
            for j, e in enumerate(exps):
                wide[j + shift] = e
            terms[tuple(wide)] = coeff
        return Polynomial(field, 2 * n, terms)

    locals_ = [widen(p, n) for p in polys]  # originals read the shadows
    locals_ += [
        Polynomial.variable(field, 2 * n, j + 1) for j in range(n)
    ]  # shadows copy the originals
    edges = set()
    for j in range(n):
        edges.add((j, n + j))  # original feeds its shadow
        for var in sorted(locals_[j].support()):
            edges.add((var - 1, j))  # shadow feeds the original
    schedule = tuple(range(n, 2 * n)) + tuple(range(n))
    return GsdsModel(
        field,
        names,
        DependencyGraph(2 * n, edges),
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
    d["locals"] = {g: p.render() for g, p in zip(model.genes, model.local_polys)}
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
