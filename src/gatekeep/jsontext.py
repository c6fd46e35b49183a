"""Reading JSON input, and indented JSON text without the standard
library's pure-Python encoder.

`loads` and the field readers below are the one way input files are
read: malformed text, a field of the wrong JSON type and a key that an
object of fixed shape does not take become SpecFormatError with one
message per reader, "<what> must be ..." or "<what>: unknown key ...". Types
are compared exactly, as `json.loads` builds them, so JSON `true` is
neither a number nor an integer. Checks of meaning (a known kind, a
duplicate edge, a value in range) stay with each format.

`json.dumps` with an indent cannot use its C encoder. `dumps` writes the
same bytes at indent 2 in about half the time, appending to one list and
encoding leaves as json does; the report writer writes its fixed keys
itself and each value with `nested`. Object keys must be strings (json
would also take numbers, booleans and None), and arrays exact lists or
tuples: json would write a record (a NamedTuple) as an array, `dumps`
refuses it like any other object.
"""

from __future__ import annotations

import json
import sys
from json.encoder import encode_basestring_ascii as _quote

from .errors import SpecFormatError


def loads(text: str):
    """`json.loads(text)`; SpecFormatError for malformed text,
    for an integer too long to convert and for nesting deeper than the
    parser can follow."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:  # JSONDecodeError is a ValueError
        raise SpecFormatError(f"not valid JSON: {exc}") from None


_NUMBERS = (int, float)
_LARGEST = sys.float_info.max
_PLURALS = {str: "strings", dict: "objects", list: "lists"}


def fields(value, keys, what: str, optional=()) -> dict:
    """`value`, a JSON object holding every key in `keys`, and besides them
    only keys in `optional`, or any key if `optional` is None (a map by label)."""
    if type(value) is not dict:
        raise SpecFormatError(f"{what} must be an object")
    for key in keys:
        if key not in value:
            raise SpecFormatError(f"{what}: missing key {key!r}")
    if optional is not None and len(value) > len(keys):
        unknown = [key for key in value if key not in keys and key not in optional]
        if unknown:
            raise SpecFormatError(f"{what}: unknown key {min(unknown)!r}")
    return value


def number(value, what: str) -> float:
    """A JSON number as a float; NaN and the infinities pass, but not an
    integer beyond the float range."""
    if type(value) in _NUMBERS:
        try:
            return float(value)
        except OverflowError:
            pass
    raise SpecFormatError(f"{what} must be a number")


def finite(value, what: str) -> float:
    """A JSON number as a finite float."""
    if type(value) in _NUMBERS and -_LARGEST <= value <= _LARGEST:  # NaN fails
        return float(value)
    raise SpecFormatError(f"{what} must be a finite number")


def numbers(value, what: str) -> tuple[float, ...]:
    """A JSON list of numbers as floats, as `number` reads each."""
    if type(value) is list and all(type(x) in _NUMBERS for x in value):
        try:
            return tuple(map(float, value))
        except OverflowError:
            pass
    raise SpecFormatError(f"{what} must be a list of numbers")


def string(value, what: str) -> str:
    if type(value) is not str:
        raise SpecFormatError(f"{what} must be a string")
    return value


def integer(value, what: str) -> int:
    if type(value) is not int:
        raise SpecFormatError(f"{what} must be an integer")
    return value


def list_of(kind: type, value, what: str) -> list:
    """`value`, a JSON list of `kind` (str, dict or list) items."""
    if type(value) is not list or not all(type(x) is kind for x in value):
        raise SpecFormatError(f"{what} must be a list of {_PLURALS[kind]}")
    return value


_INFINITIES = {float("inf"): "Infinity", float("-inf"): "-Infinity"}


def _float(x: float) -> str:
    return "NaN" if x != x else _INFINITIES.get(x) or float.__repr__(x)


_STEP = "  "  # one level of indent


def dumps(obj) -> str:
    """`json.dumps(obj, indent=2, sort_keys=True)`, the same text."""
    return nested(obj, "\n")


def nested(value, newline: str) -> str:
    """The text `dumps` writes for `value` where its line starts after `newline`."""
    leaf = _LEAF.get(type(value))
    if leaf is not None:
        return leaf(value)
    out: list[str] = []
    _encode(value, newline, out)
    return "".join(out)


def write_list(items, write) -> None:
    """`write(dumps(list(items)))` in pieces, one per item, so that only
    one item and its text are held at a time."""
    inner = "\n" + _STEP
    sep = "[" + inner
    for item in items:
        out = [sep]
        _encode(item, inner, out)
        write("".join(out))
        sep = "," + inner
    write("[]" if sep[0] == "[" else "\n]")


# Leaf types and their text; bool comes before int, of which it is a subclass.
_LEAVES = (
    (str, _quote),
    (bool, lambda b: "true" if b else "false"),
    (int, int.__repr__),
    (float, _float),
    (type(None), lambda _: "null"),
)
_LEAF = dict(_LEAVES)  # by exact type: the fast path inside containers


def _encode(obj, newline: str, out: list[str]) -> None:
    """Append the text of `obj`, whose own line starts after `newline`."""
    if isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        inner = newline + _STEP
        sep = "{" + inner
        for key, value in sorted(obj.items()):
            leaf = _LEAF.get(type(value))  # _quote raises TypeError on a non-str key
            if leaf is not None:
                out.append(sep + _quote(key) + ": " + leaf(value))
            else:
                out.append(sep + _quote(key) + ": ")
                _encode(value, inner, out)
            sep = "," + inner
        out.append(newline + "}")
    elif type(obj) is list or type(obj) is tuple:  # not a record (see above)
        if not obj:
            out.append("[]")
            return
        inner = newline + _STEP
        sep = "[" + inner
        for item in obj:
            leaf = _LEAF.get(type(item))
            if leaf is not None:
                out.append(sep + leaf(item))
            else:
                out.append(sep)
                _encode(item, inner, out)
            sep = "," + inner
        out.append(newline + "]")
    else:
        leaf = next((text for kind, text in _LEAVES if isinstance(obj, kind)), None)
        if leaf is None:
            raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")
        out.append(leaf(obj))
