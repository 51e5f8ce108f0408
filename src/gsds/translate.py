"""Threshold discretization and continuous/discrete compatibility checks.

A threshold map sends each gene's real concentration to a discrete
level: per gene, k strictly increasing thresholds split the line into
k+1 bands, each with an output level, and a value landing *on* a
threshold (within tolerance eps) gets that threshold's own "equal"
level.  The three-way split per threshold mirrors the worked
discretizations (e.g. below 0.78 -> -1, 0.78 -> 0, above -> 1); exact
float equality is widened to |c - theta| <= eps for robustness.

The compatibility check is sample-based: a discrete map f is compatible
with a sequence of concentration measurements when discretizing the
next measurement always equals f applied to the discretized current
one, i.e. the discretization square commutes on every observed pair.

Threshold files are JSON:

    {
      "format_version": 1,
      "field": 3,
      "display": "balanced",                      # optional
      "genes": {
        "g1": {
          "levels": [
            {"threshold": 0.78, "below_level": -1, "equal_level": 0}
          ],
          "top_level": 1
        },
        ...
      }
    }
"""

import bisect
import itertools
from collections import namedtuple

from .errors import FieldMismatchError
from .ffield import Field, check_display, decode_level, encode_level
from .files import FORMAT_VERSION, document, finite, finite_all, load, write_json

DEFAULT_EPS = 1e-9
SEARCH_MAX_CANDIDATES = 1 << 20


class GeneThresholds:
    """One gene's thresholds, band levels, and on-threshold levels."""

    __slots__ = ("thresholds", "band_levels", "equal_levels")

    def __init__(self, thresholds, band_levels, equal_levels=None):
        thresholds = finite_all(thresholds, "a threshold")
        if any(b <= a for a, b in zip(thresholds, thresholds[1:])):
            raise ValueError(f"thresholds must be strictly increasing: {thresholds}")
        band_levels = tuple(band_levels)
        if len(band_levels) != len(thresholds) + 1:
            raise ValueError(
                f"{len(thresholds)} thresholds need {len(thresholds) + 1} "
                f"band levels, got {len(band_levels)}"
            )
        if equal_levels is None:
            # default: a value sitting on a threshold counts as the band above
            equal_levels = band_levels[1:]
        equal_levels = tuple(equal_levels)
        if len(equal_levels) != len(thresholds):
            raise ValueError(
                f"{len(thresholds)} thresholds need as many equal levels, "
                f"got {len(equal_levels)}"
            )
        self.thresholds = thresholds
        self.band_levels = band_levels
        self.equal_levels = equal_levels

    def classify(self, x, eps=DEFAULT_EPS):
        for t, level in zip(self.thresholds, self.equal_levels):
            if abs(x - t) <= eps:
                return level
        return self.band_levels[bisect.bisect_left(self.thresholds, x)]


class ThresholdMap:
    """Per-gene threshold discretization onto field elements; ``display``
    is the encoding its levels were written in, which a series
    discretized through the map inherits."""

    def __init__(self, field, genes, eps=DEFAULT_EPS, display="canonical"):
        self.field = field
        self.genes = tuple(genes)
        self.eps = finite(eps, "eps")
        if self.eps < 0:
            raise ValueError(f"eps must be >= 0, not {self.eps}")
        self.display = check_display(field, display)
        for g in self.genes:
            for level in g.band_levels + g.equal_levels:
                field.check(level)

    @property
    def n(self):
        return len(self.genes)


def discretize(tmap, concentrations):
    """Map a real concentration vector to a discrete state."""
    if len(concentrations) != tmap.n:
        raise FieldMismatchError(
            f"vector has {len(concentrations)} entries, map covers {tmap.n} genes"
        )
    return tuple(g.classify(c, tmap.eps) for g, c in zip(tmap.genes, concentrations))


def discretize_series(tmap, samples, collapse=False):
    """Discretize each sample; optionally collapse consecutive repeats."""
    states = [discretize(tmap, c) for c in samples]
    if not collapse:
        return states
    out = []
    for s in states:
        if not out or out[-1] != s:
            out.append(s)
    return out


class TranslationCheck(namedtuple("TranslationCheck", "checked counterexamples")):
    """Outcome of a sample-based commuting-square check: the pairs checked and one
    (pair index, discretized input, f(input), discretized next sample) per failure."""

    __slots__ = ()

    @property
    def compatible(self):
        return not self.counterexamples


def check_translated(f, sample_pairs, tmap):
    """Test discretize(next) == f(discretize(current)) on every pair.

    ``f`` is any callable on discrete states (typically a GlobalMap);
    an empty pair list is vacuously compatible.
    """
    counterexamples = []
    count = 0
    for idx, (current, nxt) in enumerate(sample_pairs):
        count += 1
        state = discretize(tmap, current)
        expected = tuple(f(state))
        actual = discretize(tmap, nxt)
        if expected != actual:
            counterexamples.append((idx, state, expected, actual))
    return TranslationCheck(count, counterexamples)


def default_level_scheme(field):
    """(below, equal, above) levels for single-threshold searches."""
    if field.order == 2:
        return (0, 1, 1)
    # odd primes and GF(4): below -> -1 (canonical q-1), on -> 0, above -> 1
    return (field.order - 1, 0, 1)


def candidate_thresholds(values):
    """Default per-gene candidate grid from observed values: the observed
    values themselves (as on-threshold anchors), midpoints between
    consecutive distinct values, and one flanking value on each side, half
    the observed span (or 1.0) away."""
    obs = sorted(set(float(v) for v in values))
    if not obs:
        raise ValueError("no observed values to build candidates from")
    span = obs[-1] - obs[0]
    pad = span / 2 if span > 0 else 1.0
    mids = [(a + b) / 2 for a, b in zip(obs, obs[1:])]
    return sorted({obs[0] - pad, *obs, *mids, obs[-1] + pad})


def search_compatible_thresholds(samples, f, candidate_grid="midpoints", *, field):
    """All single-threshold maps under which f commutes with the data.

    ``candidate_grid`` is either "midpoints" (build the default grid from
    the observed values of each gene) or an explicit list of per-gene
    candidate threshold lists.  Results are ordered lexicographically by
    threshold vector.
    """
    samples = [tuple(float(v) for v in c) for c in samples]
    if len(samples) < 2:
        raise ValueError("need at least two samples")
    n = len(samples[0])
    below, equal, above = default_level_scheme(field)
    if candidate_grid == "midpoints":
        grids = [
            candidate_thresholds([c[j] for c in samples]) for j in range(n)
        ]
    else:
        grids = [sorted(float(t) for t in g) for g in candidate_grid]
        if len(grids) != n:
            raise ValueError(f"need {n} candidate lists, got {len(grids)}")
        if any(not g for g in grids):
            raise ValueError("empty candidate grid")
    total = 1
    for g in grids:
        total *= len(g)
    if total > SEARCH_MAX_CANDIDATES:
        raise ValueError(f"{total} threshold combinations exceed the search limit")
    pairs = list(zip(samples, samples[1:]))
    found = []
    for combo in itertools.product(*grids):
        tmap = ThresholdMap(field, [GeneThresholds([t], [below, above], [equal]) for t in combo])
        if check_translated(f, pairs, tmap).compatible:
            found.append(tmap)
    return found


# -- threshold files -----------------------------------------------------


def thresholds_to_dict(tmap, gene_names):
    """The threshold file of ``tmap``, its levels in ``tmap.display``."""
    field, display = tmap.field, tmap.display
    genes = {}
    for name, g in zip(gene_names, tmap.genes):
        genes[name] = {
            "levels": [
                {
                    "threshold": t,
                    "below_level": decode_level(field, display, g.band_levels[k]),
                    "equal_level": decode_level(field, display, g.equal_levels[k]),
                }
                for k, t in enumerate(g.thresholds)
            ],
            "top_level": decode_level(field, display, g.band_levels[-1]),
        }
    d = {"format_version": FORMAT_VERSION, "field": field.order}
    if display != "canonical":
        d["display"] = display
    if tmap.eps != DEFAULT_EPS:
        d["eps"] = tmap.eps
    d["genes"] = genes
    return d


def thresholds_from_dict(d, gene_names):
    document(d, "thresholds")
    field = Field(d["field"])
    display = check_display(field, d.get("display", "canonical"))
    genes = []
    for name in gene_names:
        spec = d["genes"].get(name)
        if spec is None:
            raise ValueError(f"thresholds missing for gene {name!r}")
        levels = spec["levels"]
        band_levels = [lv["below_level"] for lv in levels] + [spec["top_level"]]
        band_levels = [encode_level(field, display, v) for v in band_levels]
        equal_levels = [
            encode_level(field, display, lv["equal_level"])
            if "equal_level" in lv else band_levels[k + 1]
            for k, lv in enumerate(levels)
        ]
        thresholds = [finite(lv["threshold"], f"threshold of gene {name!r}") for lv in levels]
        genes.append(GeneThresholds(thresholds, band_levels, equal_levels))
    return ThresholdMap(field, genes, eps=d.get("eps", DEFAULT_EPS), display=display)


def save_thresholds(tmap, gene_names, path):
    write_json(thresholds_to_dict(tmap, gene_names), path)


def load_thresholds(path, gene_names):
    return load(path, "thresholds", thresholds_from_dict, gene_names)
