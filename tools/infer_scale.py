"""Time of inference on two larger seeded series.

Draws a series of distinct random states on GF(2)^12 (64 transitions)
and one on GF(3)^8 (60 transitions), infers a model from each with
``infer_network`` under the canonical and the sparsest preference,
renders every inferred polynomial, and prints one line: the four times
and a digest of the rendered text, which two checkouts that infer the
same polynomials share.  Uses the gsds package of this checkout.  Run
from anywhere:

    python3 tools/infer_scale.py
"""

import hashlib
import os
import random
import sys
from time import perf_counter

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from gsds import Field, infer_network  # noqa: E402

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


def main():
    digest = hashlib.sha256()
    parts = []
    for q, n, transitions in SERIES:
        series = scale_series(q, n, transitions)
        for preference in ("canonical", "sparsest"):
            start = perf_counter()
            result = infer_network(Field(q), series, preference)
            texts = [p.render() for p in result.coordinate_polys]
            elapsed = perf_counter() - start
            digest.update("\n".join(texts + [""]).encode())
            parts.append(f"GF({q})^{n} {preference} {elapsed:.2f} s")
    sizes = ", ".join(f"GF({q})^{n} {t} transitions" for q, n, t in SERIES)
    print(f"Inference at scale (seed {SEED}; {sizes}): {', '.join(parts)}; "
          f"rendered sha256 {digest.hexdigest()[:16]}")


if __name__ == "__main__":
    main()
