"""Time and peak memory of two large phase portraits.

Builds a seeded random parallel model on GF(2)^22 whose genes each read
three genes, and a bijective sequential model on GF(2)^18 with
``f_i = x_i + x_(i+1)*x_(i+2)`` (indices mod 18, updated in gene order),
where every state has a preimage and lies on a cycle.  It runs
``phase_portrait``, ``portrait_report``, ``transitions_dot`` and
``attractor_summary_dot`` on each with the gsds package of this checkout,
and prints one line per model: the four times and the peak resident set
size.  Each model runs in a Python process of its own, so the peak
(``ru_maxrss``, a maximum over a process's life) is that model's alone.
The peak is read after the report's blocks are written and before the
DOT text exists, so it is the portrait's and the written report's, as
of ``gsds portrait``.  Nothing is joined: each model's process writes
its report and transitions DOT blocks as they are yielded, and then the
summary DOT, to a pipe, where one SHA-256 reads both models' bytes in
turn; a last line prints its first 16 hex digits, which two checkouts
that write the same bytes share.  A third process times
``successor_array()`` alone on the GF(2)^22 model, its tables built
first by validation, and prints its time and peak RSS; it writes no
bytes to the pipe, so the digest is that of the two models.  Run from
anywhere:

    python3 tools/portrait_scale.py
"""

import hashlib
import os
import random
import resource
import subprocess
import sys
from time import perf_counter

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from gsds import DependencyGraph, Field, GsdsModel, global_map, phase_portrait  # noqa: E402
from gsds.dynamics import attractor_summary_dot, portrait_report, transitions_dot  # noqa: E402
from gsds.polyring import Polynomial, parse_poly  # noqa: E402

GENES, IN_DEGREE, TERMS, SEED = 22, 3, 4, 0
BIJECTIVE_GENES = 18


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


def bijective_model():
    """GF(2)^BIJECTIVE_GENES, f_i = x_i + x_(i+1)*x_(i+2), updated in gene
    order: each update adds to x_i a function of the other genes, so it
    and the composed map are bijections."""
    n, field = BIJECTIVE_GENES, Field(2)
    ring = [(i, (i + 1) % n, (i + 2) % n) for i in range(n)]
    polys = [parse_poly(f"x{i + 1} + x{j + 1}*x{k + 1}", n, field) for i, j, k in ring]
    edges = {(j, i) for inputs in ring for j in inputs for i in inputs[:1]}
    return GsdsModel(field, [f"g{i + 1}" for i in range(n)],
                     DependencyGraph(n, edges), polys, list(range(n)))


def measure(title, model, out):
    """One line: the times of the portrait, the report and both DOT
    outputs of ``model``, and the peak RSS of this process before the DOT
    text.  Writes the report and both DOT outputs to ``out`` as their
    blocks are yielded."""
    start = perf_counter()
    portrait = phase_portrait(model)
    middle = perf_counter()
    for block in portrait_report(portrait):
        out.write(block.encode())
    end = perf_counter()
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux
    dot_start = perf_counter()
    for block in transitions_dot(portrait):
        out.write(block.encode())
    dot_end = perf_counter()
    out.write(attractor_summary_dot(portrait).encode())
    summary_end = perf_counter()
    return (f"{title}: {len(portrait.attractors)} attractors; portrait {middle - start:.2f} s, "
            f"report {end - middle:.2f} s, transitions DOT {dot_end - dot_start:.2f} s, "
            f"summary DOT {summary_end - dot_end:.2f} s, "
            f"peak RSS with the written report, before the DOT text {peak_mb:.0f} MB")


def kernel():
    """One line: the time of ``successor_array()`` on the GF(2)^GENES model,
    whose tables ``global_map`` builds as it validates, and the peak RSS
    of this process."""
    f = global_map(scale_model())
    start = perf_counter()
    f.successor_array()
    seconds = perf_counter() - start
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux
    return (f"Kernel alone (GF(2)^{GENES} model above, tables prebuilt): successor_array "
            f"{seconds:.2f} s, peak RSS {peak_mb:.0f} MB")


MODELS = {
    "scale": (f"Portrait at scale (GF(2)^{GENES}, in-degree {IN_DEGREE}, parallel, seed {SEED})",
              scale_model),
    "bijective": (f"Bijective portrait (GF(2)^{BIJECTIVE_GENES}, x_i + x_(i+1)*x_(i+2), "
                  f"sequential)", bijective_model),
}


def main():
    if sys.argv[1:] == ["kernel"]:  # the kernel alone: no bytes out
        print(kernel(), file=sys.stderr)
        return
    if sys.argv[1:]:  # one model, in a process of its own: its bytes out, its line to stderr
        title, build = MODELS[sys.argv[1]]
        line = measure(title, build(), sys.stdout.buffer)
        sys.stdout.flush()
        print(line, file=sys.stderr)
        return
    digest = hashlib.sha256()
    for name in [*MODELS, "kernel"]:
        with subprocess.Popen([sys.executable, __file__, name], stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE) as child:
            for chunk in iter(lambda: child.stdout.read(1 << 20), b""):
                digest.update(chunk)
            line = child.stderr.read().decode()
        if child.returncode:
            sys.exit(f"{name}: exit {child.returncode}\n{line}")
        print(line, end="")
    print(f"Portrait bytes (both reports and DOT outputs): sha256 {digest.hexdigest()[:16]}")


if __name__ == "__main__":
    main()
