"""The JSON file path shared by the model, series, thresholds and rates
files.

Every file kind is one JSON object with a ``format_version`` (1 when
absent).  ``write_json`` writes every file and JSON report, with no NaN
or infinity in it, ``document`` is the one version check, and ``load``
reads every file.  ``finite`` is the one check of a real number read
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
import sys
from itertools import accumulate, filterfalse, repeat
from json.encoder import c_make_encoder, encode_basestring_ascii

from .errors import PolyParseError, UnsupportedEncodingError

FORMAT_VERSION = 1
# The stdlib C encoder, with a newline in the item separator, no indent
# and no NaN or infinity (ValueError)
_ENCODER_ARGS = (json.JSONEncoder().default, encode_basestring_ascii, None,
                 ": ", ",\n", False, False, False)
_DEPTH = {"[": 1, "{": 1, "\n": -1}
_HIDE = ("\\\\", "\x01"), ('\\"', "\x02")  # escaped backslashes and quotes
_CUT = ("[]", "\x03"), ("{}", "\x04"), ("[", "\x05[\n"), ("{", "\x05{\n"), ("]", "\x05\n]"), \
    ("}", "\x05\n}")


def dumps(data):
    """``json.dumps(data, indent=2)`` from one call of the C encoder.  It
    escapes strings to printable ASCII, so control characters are free as
    markers and, with the strings set aside, every newline and bracket is
    structure: the text is cut before each bracket, and each piece's
    newlines indented to the depth after it.  Each intermediate text is
    released once the next one exists."""
    if c_make_encoder is None:
        return json.dumps(data, indent=2, allow_nan=False)
    text = "".join(c_make_encoder({}, *_ENCODER_ARGS)(data, 0))
    hidden = _HIDE if "\\" in text else ()
    for old, new in hidden:
        text = text.replace(old, new)
    parts = text.split('"')
    del text
    text = "\x00".join(parts[0::2])  # the structure, with a marker for each string
    parts[0::2] = [""] * ((len(parts) + 1) // 2)
    for old, new in _CUT:
        text = text.replace(old, new)
    head, *pieces = text.split("\x05")
    del text
    depths = list(accumulate(map(_DEPTH.__getitem__, map(str.__getitem__, pieces, repeat(0)))))
    indents = ["\n" + "  " * d for d in range(max(depths, default=0) + 1)]
    pieces[:] = map(str.replace, pieces, repeat("\n"), map(indents.__getitem__, depths))
    text = head + "".join(pieces)
    del pieces
    parts[0::2] = text.split("\x00")
    del text
    text = '"'.join(parts)
    del parts
    for old, new in (*_CUT[:2], *hidden[::-1]):  # the empty containers, and the escapes
        text = text.replace(new, old)
    return text


def write_json(data, path=None):
    """Write ``data`` as indented JSON to ``path``, or to stdout."""
    text = dumps(data) + "\n"
    if path is None:
        sys.stdout.write(text)
        return
    with open(path, "w") as fh:
        fh.write(text)


def finite(value, what):
    """``value`` as a float, once it is neither NaN nor infinite; else
    ValueError naming ``what``."""
    x = float(value)
    if not math.isfinite(x):
        raise ValueError(f"{what} must be a finite number, not {x}")
    return x


def finite_all(values, what):
    """``values`` as a tuple of floats, checked in one C-level pass; else
    ``finite``'s ValueError for the first NaN or infinity."""
    values = tuple(map(float, values))
    if not all(map(math.isfinite, values)):
        finite(next(filterfalse(math.isfinite, values)), what)
    return values


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
