"""Time and peak memory of one large phase portrait.

Builds a seeded random parallel model on GF(2)^22 whose genes each read
three genes, runs ``phase_portrait``, ``portrait_report``,
``transitions_dot`` and ``attractor_summary_dot`` on it with the gsds
package of this checkout, and prints one line: the four times and the
peak resident set size of the process.  The peak is read before the DOT
text exists (``ru_maxrss`` is a maximum over the process's life), so it
is the portrait's and the report's.  Run from anywhere:

    python3 tools/portrait_scale.py
"""

import os
import random
import resource
import sys
from time import perf_counter

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from gsds import DependencyGraph, Field, GsdsModel, phase_portrait  # noqa: E402
from gsds.dynamics import attractor_summary_dot, portrait_report, transitions_dot  # noqa: E402
from gsds.polyring import Polynomial  # noqa: E402

GENES, IN_DEGREE, TERMS, SEED = 22, 3, 4, 0


def scale_model():
    """GF(2)^GENES, each local polynomial TERMS random monomials in
    IN_DEGREE random genes, wired by exactly those edges."""
    rng, field = random.Random(SEED), Field(2)
    polys, edges = [], set()
    for i in range(GENES):
        inputs = rng.sample(range(GENES), IN_DEGREE)
        edges.update((j, i) for j in inputs)
        terms = {}
        for _ in range(TERMS):
            exps = [0] * GENES
            for j in inputs:
                exps[j] = rng.randint(0, 1)
            terms[tuple(exps)] = 1
        polys.append(Polynomial(field, GENES, terms))
    return GsdsModel(field, [f"g{i + 1}" for i in range(GENES)],
                     DependencyGraph(GENES, edges), polys, None)


def main():
    model = scale_model()
    start = perf_counter()
    portrait = phase_portrait(model)
    middle = perf_counter()
    report = portrait_report(portrait)
    end = perf_counter()
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux
    transitions_dot(portrait)
    dot_end = perf_counter()
    attractor_summary_dot(portrait)
    summary_end = perf_counter()
    print(f"Portrait at scale (GF(2)^{GENES}, in-degree {IN_DEGREE}, parallel, seed {SEED}): "
          f"{report['attractor_count']} attractors; portrait {middle - start:.2f} s, "
          f"report {end - middle:.2f} s, transitions DOT {dot_end - end:.2f} s, "
          f"summary DOT {summary_end - dot_end:.2f} s, "
          f"peak RSS before the DOT text {peak_mb:.0f} MB")


if __name__ == "__main__":
    main()
