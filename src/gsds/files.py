"""The JSON file path shared by the model, series, thresholds and rates
files.

Every file kind is one JSON object with a ``format_version`` (1 when
absent).  ``write_json`` writes every file and JSON report,
``document`` is the one version check, and ``load`` reads every file.
A document of the wrong shape surfaces as a TypeError, AttributeError
or KeyError while it is interpreted; ``load`` turns these, bad JSON and
bad values into one ValueError that names the file kind and path; a
parse or encoding error keeps its type and only gains that prefix.
"""

import json
import sys

from .errors import PolyParseError, UnsupportedEncodingError

FORMAT_VERSION = 1


def write_json(data, path=None):
    """Write ``data`` as indented JSON to ``path``, or to stdout."""
    text = json.dumps(data, indent=2) + "\n"
    if path is None:
        sys.stdout.write(text)
        return
    with open(path, "w") as fh:
        fh.write(text)


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
    except (ValueError, TypeError, AttributeError) as exc:
        raise ValueError(f"malformed {kind} file {path}: {exc}") from None
