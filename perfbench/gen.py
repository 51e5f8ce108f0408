"""Seeded inputs for the gsds benchmark.

Nothing here uses the package under test.  Random models are built from
explicit coefficient lists, evaluated by the small field arithmetic
below (GF(4) through a hard-coded table) and written as the JSON files
the CLI reads.  The same workload and seed always give the same files
and the same job list.
"""

import json
import os
import random

IN_DEGREE = 3

# GF(4) in the package's bit-pair encoding: 2 is a root a of z^2 + z + 1
# and 3 = a + 1.  Addition is xor.
GF4_MUL = (
    (0, 0, 0, 0),
    (0, 1, 2, 3),
    (0, 2, 3, 1),
    (0, 3, 1, 2),
)


class Arith:
    """Canonical-int arithmetic in GF(q), q prime or 4."""

    def __init__(self, q):
        self.q = q

    def add(self, a, b):
        return a ^ b if self.q == 4 else (a + b) % self.q

    def mul(self, a, b):
        return GF4_MUL[a][b] if self.q == 4 else (a * b) % self.q

    def pow(self, a, e):
        out = 1
        for _ in range(e):
            out = self.mul(out, a)
        return out


class Poly:
    """A polynomial kept as its terms: (coefficient, ((variable, exponent),
    ...)) with 0-based variables."""

    def __init__(self, q, terms):
        self.arith = Arith(q)
        self.terms = terms

    def eval(self, state):
        f = self.arith
        powers = [[f.pow(x, e) for e in range(f.q)] for x in state]
        total = 0
        for coeff, factors in self.terms:
            v = coeff
            for j, e in factors:
                v = f.mul(v, powers[j][e])
                if not v:
                    break
            total = f.add(total, v)
        return total

    def support(self):
        return {j for _, factors in self.terms for j, _ in factors}

    def render(self):
        parts = []
        for coeff, factors in self.terms:
            text = "*".join(
                f"x{j + 1}" if e == 1 else f"x{j + 1}^{e}" for j, e in factors
            )
            if not text:
                parts.append(str(coeff))
            elif coeff == 1:
                parts.append(text)
            else:
                parts.append(f"{coeff}*{text}")
        return " + ".join(parts) if parts else "0"


def parse_poly(q, text):
    """Read the package's rendered form ('2*x1^2*x3 + x2 + 1') back into a
    Poly, so that reported polynomials are evaluated independently."""
    terms = []
    if text.strip() == "0":
        return Poly(q, terms)
    for part in text.split(" + "):
        coeff, factors = 1, []
        for factor in part.split("*"):
            if factor.startswith("x"):
                var, _, exp = factor[1:].partition("^")
                factors.append((int(var) - 1, int(exp or 1)))
            else:
                coeff = int(factor)
        terms.append((coeff, tuple(factors)))
    return Poly(q, terms)


def random_poly(rng, q, inputs, n_terms):
    """n_terms distinct monomials in the given inputs with nonzero random
    coefficients, redrawn until every input occurs (support = inputs)."""
    monomials = [
        (a, b, c) for a in range(q) for b in range(q) for c in range(q)
    ]
    while True:
        terms = []
        for exps in sorted(rng.sample(monomials, n_terms)):
            factors = tuple((j, e) for j, e in zip(inputs, exps) if e)
            terms.append((rng.randrange(1, q), factors))
        poly = Poly(q, terms)
        if poly.support() == set(inputs):
            return poly


class RandomModel:
    """A random model whose genes each read three distinct genes.

    With ``acyclic`` the wiring is feed-forward: in a random gene order
    the first three genes hold their own level (f = x_i) and every later
    gene reads three genes before it, so no feedback loop exists.
    """

    def __init__(self, rng, q, n, n_terms, sequential, acyclic=False):
        self.q = q
        self.n = n
        self.polys = [None] * n
        self.edges = set()
        order = rng.sample(range(n), n) if acyclic else list(range(n))
        for pos, i in enumerate(order):
            if acyclic and pos < IN_DEGREE:
                self.polys[i] = Poly(q, [(1, ((i, 1),))])
                self.edges.add((i, i))
                continue
            pool = order[:pos] if acyclic else range(n)
            inputs = sorted(rng.sample(pool, IN_DEGREE))
            self.polys[i] = random_poly(rng, q, inputs, n_terms)
            self.edges.update((j, i) for j in inputs)
        self.schedule = rng.sample(range(n), n) if sequential else None

    @property
    def genes(self):
        return [f"g{i + 1}" for i in range(self.n)]

    @property
    def state_count(self):
        return self.q ** self.n

    def step(self, state):
        if self.schedule is None:
            return tuple(p.eval(state) for p in self.polys)
        current = list(state)
        for i in self.schedule:
            current[i] = self.polys[i].eval(current)
        return tuple(current)

    def to_dict(self):
        genes = self.genes
        return {
            "format_version": 1,
            "field": self.q,
            "genes": genes,
            "edges": sorted([genes[a], genes[b]] for a, b in self.edges),
            "locals": {g: p.render() for g, p in zip(genes, self.polys)},
            "schedule": None if self.schedule is None
            else [genes[i] for i in self.schedule],
        }


def write_json(path, data):
    with open(path, "w") as fh:
        json.dump(data, fh)
        fh.write("\n")


def state_at(q, n, index):
    """Mixed-radix state of an index, first gene most significant."""
    digits = []
    for _ in range(n):
        index, r = divmod(index, q)
        digits.append(r)
    return tuple(reversed(digits))


# -- portrait ----------------------------------------------------------------

# (q, n, terms per local polynomial, models per schedule kind).  Job time
# grows with the state count and the term count, so each family sits in
# its own time band, and the bands of GF(3)^8 and GF(4)^6 overlap.  Most
# of the list is the cheapest family, so that the median and the tail
# job both fall among its 10 jobs and not on the edge between two bands
# (where the median moved by 0.3 from seed to seed), and a pass is short
# enough for several passes in a run.
PORTRAIT_FAMILIES = (
    (2, 12, 4, 5),
    (3, 8, 6, 1),
    (4, 6, 8, 1),
    (5, 6, 6, 1),
)


def portrait_jobs(seed, workdir):
    rng = random.Random(f"portrait:{seed}")
    jobs = []
    for q, n, n_terms, count in PORTRAIT_FAMILIES:
        for sequential in (False, True):
            for k in range(count):
                model = RandomModel(rng, q, n, n_terms, sequential)
                name = f"gf{q}-{n}-{'seq' if sequential else 'par'}-{k}"
                path = os.path.join(workdir, f"{name}.json")
                write_json(path, model.to_dict())
                jobs.append(portrait_job(name, path, model, 1 + k % 2))
    return jobs


def portrait_job(name, path, model, workers):
    out = f"{path[:-5]}-w{workers}"
    files = [out + ".report.json", out + ".dot", out + ".summary.dot"]
    return {
        "id": f"{name}-w{workers}",
        "digest_key": name,
        "argv": ["portrait", path, "--json", files[0], "--dot", files[1],
                 "--summary-dot", files[2], "--workers", str(workers)],
        "files": files,
        "model": model,
        "states": model.state_count,
    }


# -- infer -------------------------------------------------------------------

# (q, n, terms per local polynomial, distinct transitions, series count).
# Every series is one orbit of a random parallel model, cut after a fixed
# number of distinct states.  The cost of one job still varies with its
# series by a factor of two or so, so most of the list is one family: the
# median and the tail job then both fall among the 16 small GF(2)^8 jobs,
# and the seven larger jobs move only wall_s.
INFER_FAMILIES = (
    (2, 8, 4, 16, 8),
    (2, 10, 4, 20, 1),
    (3, 7, 6, 20, 1),
    (4, 6, 8, 16, 1),
)


def seeded_orbit(rng, q, n, n_terms, length):
    """A random parallel model and an orbit of it whose first ``length``
    states are distinct, drawing new starts and models until one is."""
    while True:
        model = RandomModel(rng, q, n, n_terms, sequential=False)
        for _ in range(20):
            s = tuple(rng.randrange(q) for _ in range(n))
            states, seen = [s], {s}
            while len(states) <= length:
                s = model.step(s)
                states.append(s)
                if s in seen:
                    break
                seen.add(s)
            if len(states) == length + 1:
                return model, states


def infer_jobs(seed, workdir):
    rng = random.Random(f"infer:{seed}")
    jobs = []
    for family, (q, n, n_terms, length, count) in enumerate(INFER_FAMILIES):
        for k in range(count):
            model, states = seeded_orbit(rng, q, n, n_terms, length)
            name = f"gf{q}-{n}-t{length}-{k}"
            path = os.path.join(workdir, f"{name}.series.json")
            write_json(path, {"format_version": 1, "field": q,
                              "states": [list(s) for s in states]})
            base = {"model": model, "series": states, "transitions": length,
                    "states": model.state_count}
            out = os.path.join(workdir, f"{name}.model.json")
            variants = [
                ("sparsest", ["--preference", "sparsest"], []),
                ("canonical", ["--preference", "canonical", "-o", out], [out]),
            ]
            if family == 0 and k == 0:  # the smallest series
                members = ";".join(p.render() for p in model.polys)
                variants.append(("member", ["--member", members], []))
            for kind, extra, files in variants:
                jobs.append(dict(base, id=f"{name}-{kind}",
                                 digest_key=f"{name}-{kind}", kind=kind,
                                 argv=["infer", path] + extra, files=files))
    return jobs


# -- hybrid ------------------------------------------------------------------

EX3 = {
    "format_version": 1,
    "field": 3,
    "genes": ["g1", "g2", "g3"],
    "edges": [["g1", "g1"], ["g1", "g2"], ["g2", "g2"], ["g2", "g3"],
              ["g3", "g3"]],
    "locals": {"g1": "x1 + x2", "g2": "x2", "g3": "x2 + x3"},
    "schedule": ["g1", "g2", "g3"],
    "display": "balanced",
}
EX3_THRESHOLDS = (0.78, 0.75, 1.25)
EX3_T_END = 10.0
EX3_GRID = 6  # initial vectors: the centres of a 6x6x6 grid on [0, 2]^3
RANDOM_HYBRID_MODELS = 24  # per schedule kind
RANDOM_T_END = 5.0
C0_MAX = 2.0


class HybridSpec:
    """What the checks need to know about one hybrid model: thresholds,
    on-threshold and band levels (display values) and t_end."""

    def __init__(self, genes, thresholds, below, equal, above, t_end):
        self.genes = genes
        self.thresholds = thresholds
        self.below, self.equal, self.above = below, equal, above
        self.t_end = t_end

    def classify(self, j, x, eps=1e-9):
        theta = self.thresholds[j]
        if abs(x - theta) <= eps:
            return self.equal
        return self.below if x < theta else self.above


def _threshold_file(spec, q, display):
    d = {"format_version": 1, "field": q}
    if display != "canonical":
        d["display"] = display
    d["genes"] = {
        g: {"levels": [{"threshold": t, "below_level": spec.below,
                        "equal_level": spec.equal}],
            "top_level": spec.above}
        for g, t in zip(spec.genes, spec.thresholds)
    }
    return d


def _rates_file(genes, table):
    return {"format_version": 1, "floor_at_zero": True,
            "rates": {g: dict(table) for g in genes}}


def _hybrid_job(job_id, model_path, rates_path, th_path, c0, spec, states):
    return {
        "id": job_id,
        "argv": ["hybrid", model_path, "--rates", rates_path,
                 "--thresholds", th_path,
                 "--c0", ",".join(f"{c:.6f}" for c in c0),
                 "--t-end", repr(spec.t_end)],
        "files": [],
        "spec": spec,
        "states": states,
    }


def hybrid_jobs(seed, workdir):
    rng = random.Random(f"hybrid:{seed}")
    jobs = []

    # The paper's example 3: balanced GF(3), equal level 0, rates
    # {0: 0, 1: 1, -1: -1}.  Its initial vectors are the cell centres of
    # a fixed grid on [0, 2]^3, the same for every seed: the event count
    # of one run has a heavy tail in c0 (a run near a singular vector
    # chatters through 10^4 events), so seeded vectors would make the
    # pass time depend on the seed more than on the code.
    spec = HybridSpec(EX3["genes"], EX3_THRESHOLDS, -1, 0, 1, EX3_T_END)
    model_path = os.path.join(workdir, "ex3.json")
    rates_path = os.path.join(workdir, "ex3.rates.json")
    th_path = os.path.join(workdir, "ex3.thresholds.json")
    write_json(model_path, EX3)
    write_json(rates_path, _rates_file(spec.genes, {"0": 0, "1": 1, "-1": -1}))
    write_json(th_path, _threshold_file(spec, 3, "balanced"))
    cell = C0_MAX / EX3_GRID
    for a in range(EX3_GRID):
        for b in range(EX3_GRID):
            for c in range(EX3_GRID):
                c0 = [(k + 0.5) * cell for k in (a, b, c)]
                jobs.append(_hybrid_job(f"ex3-{a}{b}{c}", model_path,
                                        rates_path, th_path, c0, spec, 27))

    # Seeded random GF(2)^8 models and initial vectors, threshold 1.0,
    # rates {0: -1, 1: 1}, floor on.  The wiring is acyclic: with feedback,
    # some random models hit the simulator's Zeno limit of 10^6 events,
    # which takes minutes and then fails.
    genes = [f"g{i + 1}" for i in range(8)]
    spec = HybridSpec(genes, (1.0,) * 8, 0, 1, 1, RANDOM_T_END)
    rates_path = os.path.join(workdir, "gf2.rates.json")
    th_path = os.path.join(workdir, "gf2.thresholds.json")
    write_json(rates_path, _rates_file(genes, {"0": -1, "1": 1}))
    write_json(th_path, _threshold_file(spec, 2, "canonical"))
    for sequential in (False, True):
        for k in range(RANDOM_HYBRID_MODELS):
            model = RandomModel(rng, 2, 8, 4, sequential, acyclic=True)
            name = f"gf2-8-{'seq' if sequential else 'par'}-{k}"
            model_path = os.path.join(workdir, f"{name}.json")
            write_json(model_path, model.to_dict())
            c0 = [rng.uniform(0.0, C0_MAX) for _ in genes]
            jobs.append(_hybrid_job(name, model_path, rates_path, th_path,
                                    c0, spec, model.state_count))
    return jobs


WORKLOADS = {
    "portrait": portrait_jobs,
    "infer": infer_jobs,
    "hybrid": hybrid_jobs,
}
