"""Time and output bytes of seeded hybrid runs.

Runs ``gsds hybrid`` in process, through ``gsds.cli.main``, on fixed
inputs: the paper's example 3 (GF(3), balanced, thresholds 0.78, 0.75
and 1.25 with equal level 0, rates {-1: -1, 0: 0, 1: 1}) to t = 10 from
the initial vector (0.5, 0.5, 0.5) and from seeded vectors near it,
about 300 events a run; and seeded random feed-forward GF(2)^8 models,
parallel and sequential, threshold 1.0 and rates {0: -1, 1: 1}, to
t = 5 from seeded vectors in [0, 2]^8.  Every run writes its report to
stdout and to ``-o``, its trajectory with ``--csv-out`` and its event
log with ``--events-csv``.  Runs each kind of model PASSES times and
prints one line per kind, with the number of runs and events and the
time of the fastest pass over its runs, and a last line with the first
16 hex digits of one SHA-256 over the first pass: every run's stdout
and the bytes of its three files, which two checkouts that write the
same bytes share.  Uses the gsds package of this checkout.  Run from
anywhere:

    python3 tools/hybrid_scale.py
"""

import hashlib
import io
import json
import os
import random
import sys
import tempfile
from contextlib import redirect_stdout
from time import perf_counter

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from gsds import DependencyGraph, Field, GsdsModel, save_model  # noqa: E402
from gsds import cli  # noqa: E402
from gsds.polyring import Polynomial  # noqa: E402

SEED = 0
PASSES = 3  # timed passes over each kind of model; the first is digested
EX3_RUNS, GF2_RUNS = 8, 24  # GF(2)^8 runs per schedule kind
EX3_THRESHOLDS, GF2_GENES, IN_DEGREE, TERMS = (0.78, 0.75, 1.25), 8, 3, 4


def write(path, data):
    """Write ``data`` as JSON to ``path``; returns ``path``."""
    with open(path, "w") as fh:
        json.dump(data, fh)
    return path


def example3_files(tmp):
    """The paper's example 3 and its threshold and rate files under ``tmp``."""
    genes = ["g1", "g2", "g3"]
    model = {"format_version": 1, "field": 3, "genes": genes,
             "edges": [["g1", "g1"], ["g1", "g2"], ["g2", "g2"], ["g2", "g3"], ["g3", "g3"]],
             "locals": {"g1": "x1 + x2", "g2": "x2", "g3": "x2 + x3"},
             "schedule": genes, "display": "balanced"}
    thresholds = {"format_version": 1, "field": 3, "display": "balanced", "genes": {
        g: {"levels": [{"threshold": t, "below_level": -1, "equal_level": 0}], "top_level": 1}
        for g, t in zip(genes, EX3_THRESHOLDS)}}
    rates = {"format_version": 1, "rates": {g: {"-1": -1, "0": 0, "1": 1} for g in genes}}
    return [write(os.path.join(tmp, f"ex3.{kind}.json"), d)
            for kind, d in (("model", model), ("thresholds", thresholds), ("rates", rates))]


def gf2_files(tmp):
    """The GF(2)^GF2_GENES threshold (1.0 for every gene) and rate files under ``tmp``."""
    genes = [f"g{i + 1}" for i in range(GF2_GENES)]
    thresholds = {"format_version": 1, "field": 2, "genes": {
        g: {"levels": [{"threshold": 1.0, "below_level": 0, "equal_level": 1}], "top_level": 1}
        for g in genes}}
    rates = {"format_version": 1, "rates": {g: {"0": -1, "1": 1} for g in genes}}
    return [write(os.path.join(tmp, f"gf2.{kind}.json"), d)
            for kind, d in (("thresholds", thresholds), ("rates", rates))]


def gf2_model(rng, sequential):
    """GF(2)^GF2_GENES, feed-forward in a random gene order: the first
    IN_DEGREE genes hold their level, each later one is TERMS random
    monomials in IN_DEGREE genes before it."""
    n, field = GF2_GENES, Field(2)
    order = rng.sample(range(n), n)
    polys, edges = [None] * n, set()
    for pos, i in enumerate(order):
        inputs = [i] if pos < IN_DEGREE else rng.sample(order[:pos], IN_DEGREE)
        terms = {}
        for _ in range(1 if pos < IN_DEGREE else TERMS):
            exps = [0] * n
            for j in inputs:
                exps[j] = 1 if pos < IN_DEGREE else rng.randint(0, 1)
            terms[tuple(exps)] = 1
        polys[i] = Polynomial(field, n, terms)
        edges.update((j, i) for j in inputs)
    return GsdsModel(field, [f"g{i + 1}" for i in range(n)], DependencyGraph(n, edges), polys,
                     rng.sample(range(n), n) if sequential else None)


def run(argv, tmp, digest):
    """One ``gsds hybrid`` run with all three output files: its event
    count and time.  Feeds stdout and the files' bytes to ``digest``."""
    paths = [os.path.join(tmp, name) for name in ("report.json", "traj.csv", "events.csv")]
    out = io.StringIO()
    start = perf_counter()
    with redirect_stdout(out):
        code = cli.main([*argv, "-o", paths[0], "--csv-out", paths[1], "--events-csv", paths[2]])
    elapsed = perf_counter() - start
    if code != 0:
        sys.exit(f"gsds {' '.join(argv)} exited {code}")
    digest.update(out.getvalue().encode())
    for path in paths:
        with open(path, "rb") as fh:
            digest.update(fh.read())
    return len(json.loads(out.getvalue())["events"]), elapsed


def main():
    rng, digest = random.Random(SEED), hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        model, thresholds, rates = example3_files(tmp)
        starts = [(0.5, 0.5, 0.5)] + [tuple(round(rng.uniform(0.45, 0.55), 3) for _ in range(3))
                                      for _ in range(EX3_RUNS - 1)]
        kinds = [("Example 3 (GF(3), balanced, t_end 10)", [
            ["hybrid", model, "--thresholds", thresholds, "--rates", rates,
             "--c0", ",".join(map(str, c0)), "--t-end", "10"] for c0 in starts])]
        thresholds, rates = gf2_files(tmp)
        for sequential in (False, True):
            argvs = []
            for k in range(GF2_RUNS):
                model = os.path.join(tmp, f"gf2-{sequential}-{k}.json")
                save_model(gf2_model(rng, sequential), model)
                c0 = ",".join(f"{rng.uniform(0.0, 2.0):.6f}" for _ in range(GF2_GENES))
                argvs.append(["hybrid", model, "--thresholds", thresholds, "--rates", rates,
                              "--c0", c0, "--t-end", "5"])
            kind = "sequential" if sequential else "parallel"
            kinds.append((f"Random GF(2)^{GF2_GENES} ({kind}, feed-forward, t_end 5)", argvs))
        for title, argvs in kinds:
            passes = [[run(argv, tmp, digest if k == 0 else hashlib.sha256()) for argv in argvs]
                      for k in range(PASSES)]
            events = [e for e, _ in passes[0]]
            print(f"Hybrid at scale, {title}: {len(argvs)} runs, {sum(events)} events "
                  f"({min(events)}-{max(events)} a run), "
                  f"{min(sum(t for _, t in p) for p in passes) * 1e3:.1f} ms "
                  f"(best of {PASSES} passes)")
    print(f"Hybrid bytes (stdout, -o, --csv-out and --events-csv of every run): "
          f"sha256 {digest.hexdigest()[:16]}")


if __name__ == "__main__":
    main()
