"""The JSON file path shared by the model, series, thresholds and rates
files.

Every file kind is one JSON object with a ``format_version`` (1 when
absent).  ``write_json`` writes every file to its path as the stdlib's
indented JSON with no NaN or infinity in it (ValueError, before the
file is opened), ``document`` is the one version check, and ``load`` reads
every file.  ``finite`` is the one check of a real number read
from a file or the command line, and ``finite_all`` of a sequence of
them passed to a constructor.
A document of the wrong shape surfaces as a TypeError, AttributeError
or KeyError while it is interpreted; ``load`` turns these, bad or too
deeply nested JSON and bad values into one ValueError that names the
file kind and path; a parse or encoding error keeps its type and only
gains that prefix.
"""

import json
import math

from .errors import PolyParseError, UnsupportedEncodingError

FORMAT_VERSION = 1


def write_json(data, path):
    """Write ``data`` as indented JSON to the file at ``path``."""
    text = json.dumps(data, indent=2, allow_nan=False) + "\n"
    with open(path, "w") as fh:
        fh.write(text)


def finite(value, what):
    """``value`` as a float, once it is a number and neither NaN nor
    infinite; else ValueError naming ``what``."""
    try:
        x = float(value)
    except (TypeError, ValueError):
        raise ValueError(f"{what} must be a finite number, not {value!r}") from None
    if not math.isfinite(x):
        raise ValueError(f"{what} must be a finite number, not {x}")
    return x


def finite_all(values, what):
    """``values`` as a tuple of floats, converted and checked in one C-level
    pass; else ``finite``'s ValueError for the first value that fails it."""
    values = tuple(values)
    try:
        floats = tuple(map(float, values))
        if all(map(math.isfinite, floats)):
            return floats
    except (TypeError, ValueError):
        pass
    return tuple(finite(v, what) for v in values)  # raises at the first value that fails


def document(d, kind):
    """``d`` itself, once it is a JSON object of a supported version."""
    if not isinstance(d, dict):
        raise ValueError(f"expected a JSON object, got a {type(d).__name__}")
    version = d.get("format_version", 1)
    if version != FORMAT_VERSION:
        raise ValueError(f"unsupported {kind} format_version {version}")
    return d


def load(path, kind, from_dict, *args):
    """``from_dict(document, *args)`` on the JSON document at ``path``."""
    with open(path) as fh:
        text = fh.read()
    try:
        return from_dict(json.loads(text), *args)
    except (PolyParseError, UnsupportedEncodingError) as exc:
        exc.args = (f"malformed {kind} file {path}: {exc}",)
        raise
    except KeyError as exc:
        raise ValueError(f"malformed {kind} file {path}: missing key {exc}") from None
    except (ValueError, TypeError, AttributeError, RecursionError) as exc:
        raise ValueError(f"malformed {kind} file {path}: {exc}") from None
