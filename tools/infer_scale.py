"""Time of inference on two larger seeded series.

Draws a series of distinct random states on GF(2)^12 (64 transitions)
and one on GF(3)^8 (60 transitions), reads each into one
``TransitionData``, infers a model from it with ``infer_network`` under
the canonical and the sparsest preference, and
renders each model's polynomials with one ``render_polys`` call, as
``gsds infer`` does.  Times the canonical transform, ``table_polys`` of
every coordinate, alone (best of 5).  Saves each canonical model to a
temporary file and times reading it back (``load_model``), validating it
(``validate_model``) and iterating its map 1000 steps from the zero
state (``trajectory``).  Exits 1 unless each reloaded model is valid and
its polynomials equal the inferred ones, and unless each sparsest
polynomial takes every observed value of its coordinate.  Prints one
line: the four inference times, the two transform times, the load, validate and
trajectory times, and a digest of the rendered text, which two checkouts
that infer the same polynomials share.  Uses the gsds package of this
checkout.  Run from anywhere:

    python3 tools/infer_scale.py
"""

import hashlib
import os
import random
import sys
import tempfile
from time import perf_counter

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from gsds import (Field, TransitionData, infer_network, load_model, save_model,  # noqa: E402
                  trajectory, validate_model)
from gsds.polyring import render_polys, table_polys  # noqa: E402

SERIES = ((2, 12, 64), (3, 8, 60))  # (q, genes, transitions)
SEED = 0


def scale_series(q, n, transitions):
    """transitions + 1 distinct states of GF(q)^n, so no two transitions
    contradict each other."""
    rng = random.Random(f"{SEED}:{q}:{n}")
    states = []
    for index in rng.sample(range(q**n), transitions + 1):
        states.append(tuple(index // q ** (n - 1 - j) % q for j in range(n)))
    return states


def round_trip(model):
    """The load and validate times of ``model`` saved to a file, and the
    time of a 1000-step trajectory of the loaded model."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "model.json")
        save_model(model, path)
        start = perf_counter()
        loaded = load_model(path)
        loaded_at = perf_counter()
        report = validate_model(loaded)
        done = perf_counter()
    if not report.valid:
        sys.exit(f"an inferred model fails validation:\n{report}")
    if loaded.local_polys != model.local_polys:  # parse after render is the identity
        sys.exit("a reloaded canonical model's polynomials differ from the inferred ones")
    trajectory(loaded, (0,) * loaded.n, 1000)
    iterated = perf_counter()
    return (f"load {loaded_at - start:.2f} s + validate {done - loaded_at:.2f} s, "
            f"1000-step trajectory {iterated - done:.3f} s")


def transform_time(data):
    """The best of 5 times of ``table_polys`` on the transitions ``data``,
    every coordinate at once, as canonical ``infer_network`` calls it."""
    states, images = zip(*data.pairs)
    columns = list(zip(*images))
    best = float("inf")
    for _ in range(5):
        start = perf_counter()
        table_polys(data.field, data.n, states, columns)
        best = min(best, perf_counter() - start)
    return best


def main():
    digest = hashlib.sha256()
    parts = []
    for q, n, transitions in SERIES:
        data = TransitionData.from_series(Field(q), scale_series(q, n, transitions))
        for preference in ("canonical", "sparsest"):
            start = perf_counter()
            model = infer_network(data, preference)
            texts = render_polys(model.local_polys)
            elapsed = perf_counter() - start
            digest.update("\n".join(texts + [""]).encode())
            parts.append(f"GF({q})^{n} {preference} {elapsed:.2f} s")
            if preference == "sparsest" and any(
                    poly.eval(state) != image[i]
                    for i, poly in enumerate(model.local_polys) for state, image in data.pairs):
                sys.exit(f"a sparsest polynomial on GF({q})^{n} misses an observed value")
            if preference == "canonical":
                parts.append(f"GF({q})^{n} table_polys {transform_time(data) * 1e3:.1f} ms")
                parts.append(f"GF({q})^{n} canonical model {round_trip(model)}")
    sizes = ", ".join(f"GF({q})^{n} {t} transitions" for q, n, t in SERIES)
    print(f"Inference at scale (seed {SEED}; {sizes}): {', '.join(parts)}; "
          f"rendered sha256 {digest.hexdigest()[:16]}")


if __name__ == "__main__":
    main()
