"""Time of inference on two larger seeded series.

Draws a series of distinct random states on GF(2)^12 (64 transitions)
and one on GF(3)^8 (60 transitions), infers a model from each with
``infer_network`` under the canonical and the sparsest preference, and
renders each model's polynomials with one ``render_polys`` call, as
``gsds infer`` does.  Saves each canonical model to a temporary file
and times reading it back (``load_model``), validating it
(``validate_model``) and iterating its map 1000 steps from the zero
state (``trajectory``).  Prints one line: the four inference times, the
load, validate and trajectory times, and a digest of the rendered text,
which two checkouts that infer the same polynomials share.  Uses the
gsds package of this checkout.  Run from anywhere:

    python3 tools/infer_scale.py
"""

import hashlib
import os
import random
import sys
import tempfile
from time import perf_counter

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from gsds import (Field, infer_network, load_model, save_model, trajectory,  # noqa: E402
                  validate_model)
from gsds.polyring import render_polys  # noqa: E402

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
    trajectory(loaded, (0,) * loaded.n, 1000)
    iterated = perf_counter()
    return (f"load {loaded_at - start:.2f} s + validate {done - loaded_at:.2f} s, "
            f"1000-step trajectory {iterated - done:.3f} s")


def main():
    digest = hashlib.sha256()
    parts = []
    for q, n, transitions in SERIES:
        series = scale_series(q, n, transitions)
        for preference in ("canonical", "sparsest"):
            start = perf_counter()
            model = infer_network(Field(q), series, preference)
            texts = render_polys(model.local_polys)
            elapsed = perf_counter() - start
            digest.update("\n".join(texts + [""]).encode())
            parts.append(f"GF({q})^{n} {preference} {elapsed:.2f} s")
            if preference == "canonical":
                parts.append(f"GF({q})^{n} canonical model {round_trip(model)}")
    sizes = ", ".join(f"GF({q})^{n} {t} transitions" for q, n, t in SERIES)
    print(f"Inference at scale (seed {SEED}; {sizes}): {', '.join(parts)}; "
          f"rendered sha256 {digest.hexdigest()[:16]}")


if __name__ == "__main__":
    main()
